(** A fixed-size [Domain]-based worker pool for fleet-level analysis.

    The paper's datasets cover hundreds of BGP sessions; per-connection
    analysis is embarrassingly parallel, and OCaml 5 gives us real
    shared-memory parallelism.  This pool is deliberately tiny — a
    chunked index queue guarded by a [Mutex]/[Condition] pair — so the
    repository keeps its no-external-dependency rule ([domainslib] is
    not available here; the only in-repo dependency is [Tdat_obs] for
    self-measurement).

    Guarantees:

    - {b Deterministic ordering}: [map pool f xs] returns results in the
      order of [xs], regardless of which domain computed which element
      or in what order they finished.  Output is therefore identical to
      [List.map f xs] whenever [f] is pure.
    - {b Exception transparency}: if [f] raises on some element, the
      first exception observed (earliest completion, not necessarily the
      earliest index) is re-raised in the caller with its backtrace once
      the batch has drained.
    - {b Degenerate sequential mode}: [jobs = 1] spawns no domains at
      all; [map] is exactly [List.map].

    One batch runs at a time per pool, and the calling domain itself
    works on the batch, so a pool of [jobs = n] uses [n - 1] spawned
    domains plus the caller.  [map] must not be called from inside a
    task running on the same pool (the nested call would wait for the
    batch it is part of).

    When [Tdat_obs.Metrics] collection is enabled the pool reports
    batch/job counters (stable: identical for every [jobs] value),
    chunk queue-wait and execute-time histograms, and cumulative
    per-executor busy-time gauges ([pool.worker<i>.busy_us], where
    executor [jobs - 1] is the calling domain) — enough to split a
    batch's wall time into synchronization overhead versus compute.
    Disabled, each measurement point is one atomic load. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the parallelism the runtime
    believes the hardware supports (1 on a single-core container). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], on up to
    [jobs pool] domains, and returns the results in input order.

    Executors take consecutive elements in chunks of
    [max 1 (length xs / (jobs * 4))], four chunks per executor: every
    dequeue is a mutex round-trip, and the
    [pool.chunk_queue_wait_us] / [pool.chunk_execute_us] histograms
    show the split between synchronization and compute. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] is [f (create ~jobs ())] with a guaranteed
    {!shutdown}, whether [f] returns or raises. *)

(**/**)

(** An explicitly managed pool, for tests of its lifecycle and width. *)
module Private : sig
  val create : ?jobs:int -> unit -> t
  (** [create ~jobs ()] starts [jobs - 1] worker domains (default
      {!default_jobs}; values above 126 are clamped so the spawn can never
      exceed the runtime's domain limit).
      @raise Invalid_argument if [jobs < 1]. *)

  val jobs : t -> int
  (** The parallelism this pool was created with (after clamping). *)

  val shutdown : t -> unit
  (** Joins the worker domains.  Idempotent.  Using [map] after
      [shutdown] raises [Invalid_argument]. *)
end
