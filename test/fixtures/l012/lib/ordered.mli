type t = int

val compare : t -> t -> int
(** Used only as a functor argument. *)
