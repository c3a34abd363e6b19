(** Rolling time-windowed histogram.

    A ring of [slots] fixed-bucket histograms, each covering [slot_s]
    seconds of wall time, rotated lazily on a coarse clock: an
    observation lands in the slot for the current epoch
    ([now / slot_s]), clearing the slot first if its epoch has fallen
    out of the window.  Reads merge only the slots still inside the
    window, so {!percentile} answers "over the last
    [slots * slot_s] seconds" — a time-varying view, not a lifetime
    aggregate.

    All operations are mutex-guarded; observations arrive at request
    rate, so contention is negligible.  Values produced here are
    wall-clock-derived and therefore {e volatile} in the
    stable/volatile discipline of {!Metrics}: never compare them
    across [--jobs]. *)

type t

val create :
  ?now:(unit -> float) ->
  ?buckets:float array ->
  slots:int ->
  slot_s:float ->
  unit ->
  t
(** [create ~slots ~slot_s ()] covers a rolling window of
    [slots * slot_s] seconds.  [now] (default {!Clock.now_s}) is the
    clock, injectable for tests; it must be monotone.
    [buckets] are inclusive upper bounds, strictly increasing (default
    {!Metrics.Histogram.time_us_buckets}); an implicit overflow bucket
    catches everything above the last bound.
    @raise Invalid_argument on non-positive [slots] / [slot_s] or bad
    bounds. *)

val observe : t -> float -> unit
(** Record a value in the slot for the current epoch. *)

val count : t -> int
(** Observations currently inside the window. *)

val rate : t -> float
(** [count / window_s]: mean arrivals per second over the window. *)

val window_s : t -> float
(** The window span in seconds ([slots * slot_s]). *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [[0, 1]]: the upper bound of the
    bucket holding the p-quantile observation in the window, [0.] when
    the window is empty.  Observations above the last bound report the
    last finite bound (a deliberate under-estimate).
    @raise Invalid_argument when [p] is outside [[0, 1]]. *)

(**/**)

(** Observers and reset, for tests of the rolling window. *)
module Private : sig
  val sum : t -> float
  (** Sum of the observations currently inside the window. *)

  val clear : t -> unit
  (** Forget every observation (tests). *)
end
