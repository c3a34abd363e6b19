(** Wall-clock readings for the observability layer.

    Centralized here so no instrumented library needs its own [unix]
    dependency, and so every metric, span and timing table reads the
    same clock. *)

val now_us : unit -> float
(** Microseconds since the epoch, as a float (sub-microsecond precision
    is preserved when the platform provides it). *)

val now_s : unit -> float
(** Seconds since the epoch. *)
