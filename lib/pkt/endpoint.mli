(** A transport endpoint: IPv4 address and TCP port. *)

type t = { ip : int32; port : int }

val v : int32 -> int -> t

val of_quad : int -> int -> int -> int -> int -> t
(** [of_quad a b c d port] builds [a.b.c.d:port].
    @raise Invalid_argument if any octet or the port is out of range. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
