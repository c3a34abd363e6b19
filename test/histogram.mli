(** Fixed-width histograms over float samples.  No production path bins
    samples this way; the module lives with the tests that exercise it. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** @raise Invalid_argument if [hi <= lo] or [bins < 1]. *)

val add_list : t -> float list -> unit
val total : t -> int

val mode_center : t -> float option
(** Center of the most populated bin; [None] if empty. *)

val nonempty_bins : t -> (float * int) list
(** [(center, count)] for bins with count > 0, in order. *)
