(** A resident job service: a bounded admission queue in front of the
    existing {!Pool}.

    {!Pool} is batch-oriented; a long-running daemon needs to accept
    work continuously and push back when overloaded.  [Service] keeps
    one dispatcher domain that drains a bounded queue in batches
    through [Pool.map] — workers, chunking and instrumentation stay the
    pool's — and rejects submissions once the queue is full, which is
    the admission-control signal the serve daemon turns into a
    429-style busy response.

    Thunks must not rely on raising: a job's exception is swallowed at
    the job boundary (so it cannot poison its batch); encode failures
    into the job's own completion path.

    When {!Tdat_obs.Metrics} collection is enabled the service reports
    volatile [service.submitted] / [service.rejected_full] /
    [service.completed] counters, a [service.queue_depth] gauge and a
    [service.queue_wait_us] histogram. *)

type t

type outcome =
  | Accepted  (** Queued; the job will run exactly once. *)
  | Rejected_full  (** Queue at capacity — shed load and retry later. *)
  | Rejected_draining  (** {!drain} already started; no new work. *)

val create : ?jobs:int -> ?capacity:int -> unit -> t
(** [create ~jobs ~capacity ()] starts the dispatcher domain and a
    {!Pool.create}[ ~jobs] pool.  [capacity] (default 64) bounds the
    number of queued-but-not-yet-running jobs.
    @raise Invalid_argument if [capacity < 1]. *)

val submit : ?trace:string -> t -> (unit -> unit -> unit) -> outcome
(** Non-blocking admission.  Safe to call from any domain.

    The job runs in two steps: [job ()] does the work and returns the
    job's publication (e.g. posting its response), which runs only after
    the pool has counted the job as completed — so a client that sees
    the publication also sees every stable counter the job bumped.

    With [trace], the worker runs the job inside
    {!Tdat_obs.Tracer.with_context}[ (Some trace)], and (when tracing
    is enabled) records the job's queue wait as a [service.queue_wait]
    complete event spanning enqueue to execution start — so the span
    tree a traced job emits is connected to its request. *)

val jobs : t -> int
val capacity : t -> int

val depth : t -> int
(** Jobs currently queued (excluding the batch in flight). *)

val in_flight : t -> int
(** Jobs of the batch currently executing on the pool. *)

val drain : t -> unit
(** Graceful shutdown: stop admitting, run every accepted job to
    completion, then join the dispatcher and shut the pool down.  No
    accepted job is dropped.  Idempotent-after-completion in the sense
    that a second call returns immediately. *)
