(** Metrics registry: counters, gauges, and fixed-bucket histograms.

    Instruments are registered by name (idempotently — the second
    [make] with the same name returns the first instrument) in a
    registry, usually {!default}.  A registry starts {e disabled}:
    every update on a disabled registry is one atomic load and a branch
    — no time reading, no allocation — so the instrumentation of hot
    paths (pcap records, simulator events, pool chunks) compiles to
    near-zero cost until [--metrics] turns it on.

    {b Determinism.}  Each instrument is either {e stable} (the default)
    or {e volatile} ([~stable:false]).  Stable instruments may only be
    fed input-derived values (record counts, byte sizes, packet counts):
    their updates are commutative atomic operations, so a snapshot's
    stable section is byte-identical whatever [--jobs] value produced
    it.  Wall-clock-derived values (durations, rates, utilizations) and
    configuration-dependent ones (worker counts) must go to volatile
    instruments.  [snapshot_json ~stable_only:true] is the form the
    tests compare across jobs values. *)

type registry

val default : registry
(** The process-wide registry every library instrument registers in. *)

val set_enabled : registry -> bool -> unit
val enabled : registry -> bool

val reset : registry -> unit
(** Zero every instrument (counts, sums, gauge values).  Registration
    is kept. *)

module Counter : sig
  type t

  val make : ?registry:registry -> ?stable:bool -> string -> t
  (** Idempotent by name.
      @raise Invalid_argument when the name is already registered as a
      different instrument kind. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative amount — counters are
      monotone. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : ?registry:registry -> ?stable:bool -> string -> t
  val set : t -> float -> unit
  val set_max : t -> float -> unit
  (** High-water update: keeps the maximum of the current and given
      values. *)
end

module Histogram : sig
  type t

  val time_us_buckets : float array
  (** A 1-2-5 ladder from 10 us to 10 s, for duration histograms. *)

  val size_buckets : float array
  (** A 1-2-5 ladder from 64 to 16 Mi, for byte/packet-count
      histograms. *)

  val make :
    ?registry:registry -> ?stable:bool -> ?buckets:float array -> string -> t
  (** [buckets] are the inclusive upper bounds, strictly increasing; an
      implicit overflow bucket catches everything above the last bound.
      @raise Invalid_argument on empty or non-increasing bounds, or on a
      name collision with different buckets or kind. *)

  val observe : t -> float -> unit
  val sum : t -> float

end

val find_counter : registry -> string -> Counter.t option
val find_histogram : registry -> string -> Histogram.t option

(** A read-only view of one instrument, for exposition encoders
    ({!Prometheus}, dashboards) built outside this module. *)
type view =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of {
      v_count : int;
      v_sum : float;
      v_buckets : (float * int) array;
          (** [(upper_bound, count)] per bucket, overflow last with
              bound [infinity]. *)
    }

val fold_entries :
  ?stable_only:bool ->
  registry ->
  init:'a ->
  f:('a -> name:string -> stable:bool -> view -> 'a) ->
  'a
(** Fold over the registry's instruments in name order.  With
    [stable_only], volatile instruments are skipped.  Values are read
    without quiescing writers — exact only when nothing is updating. *)

val snapshot_json : ?stable_only:bool -> registry -> string
(** The registry as a deterministic one-line JSON object written by
    the shared codec: metrics sorted by name, a ["stable"] section and
    (unless [stable_only]) a ["volatile"] one. *)

(**/**)

(** Registries of their own, for tests that must not share the default
    one. *)
module Private : sig
  val create : unit -> registry
  (** A fresh, disabled registry. *)
end
