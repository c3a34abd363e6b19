(** Time values in integer microseconds.

    Every timestamp and duration in this repository is an [int] number of
    microseconds.  On a 64-bit platform this covers about 292 millennia, so
    overflow is not a practical concern for packet traces.  The paper
    ("Implementation", Section V-C) converts tcpdump's second-based
    timestamps to microseconds and stores them as big integers; native
    [int] plays that role here. *)

type t = int

val zero : t

val of_s : float -> t
(** [of_s s] converts seconds (possibly fractional) to microseconds,
    rounding to the nearest microsecond. *)

val to_s : t -> float
(** [to_s t] converts back to (fractional) seconds. *)

val to_ms : t -> float
(** [to_ms t] converts to (fractional) milliseconds. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints a human-readable duration, picking µs/ms/s units. *)

