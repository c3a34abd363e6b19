(** Descriptive statistics over float samples. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** Sample standard deviation (n-1 denominator); 0 for n < 2. *)
  min : float;
  max : float;
  total : float;
}

val summarize : float list -> summary
(** @raise Invalid_argument on the empty list. *)

val mean : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [0, 100], linear interpolation between
    order statistics.  @raise Invalid_argument on empty input or [p]
    outside [0, 100]. *)

val median : float list -> float

val slow_threshold : float list -> float
(** [mean + 3 * stddev] — the paper's cut for selecting "slow" table
    transfers (Section II-B). *)

