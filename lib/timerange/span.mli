(** A continuous time range [\[start, stop)] in microseconds.

    Spans are half-open: a span covers every instant [t] with
    [start <= t < stop].  The empty span is not representable; construction
    enforces [start < stop] except for {!point}, which produces a span of
    length 1 µs (the smallest representable event, used for instantaneous
    packet events). *)

type t = private { start : Time_us.t; stop : Time_us.t }

val v : Time_us.t -> Time_us.t -> t
(** [v start stop] builds the span [\[start, stop)].
    @raise Invalid_argument if [stop <= start]. *)

val point : Time_us.t -> t
(** [point t] is the 1 µs span [\[t, t+1)]. *)

val filler : t
(** A statically allocated span, for seeding arrays that are filled
    afterwards: an array longer than 256 words seeded with a freshly
    allocated block costs a forced minor collection, one seeded with
    [filler] does not.  Its value, [\[0, 1)], is never meant to be
    read. *)

val of_duration : Time_us.t -> Time_us.t -> t
(** [of_duration start len] is [v start (start + len)].
    @raise Invalid_argument if [len <= 0]. *)

val start : t -> Time_us.t
val stop : t -> Time_us.t

val length : t -> Time_us.t
(** [length s] is [stop s - start s], always positive. *)

val contains : t -> Time_us.t -> bool
(** [contains s t] tests [start s <= t < stop s]. *)

val overlaps : t -> t -> bool
(** Whether the two spans share at least one instant. *)

val touches : t -> t -> bool
(** Whether the spans overlap or are exactly adjacent (can coalesce). *)

val inter : t -> t -> t option
(** Intersection, if non-empty. *)

val hull : t -> t -> t
(** Smallest span covering both arguments. *)

val compare : t -> t -> int
(** Orders by start, then by stop. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
