(** IPv4 prefixes and their NLRI wire encoding (RFC 4271 §4.3). *)

type t = private { addr : int32; len : int }

val of_quad : int -> int -> int -> int -> int -> t
(** [of_quad a b c d len] is [a.b.c.d/len]. *)

val addr : t -> int32
val len : t -> int

val encoded_size : t -> int
(** NLRI bytes: 1 length byte + ceil(len/8) address bytes. *)

val encode : Buffer.t -> t -> unit

val decode_slice : Tdat_pkt.Slice.t -> int -> t * int
(** [decode_slice s off] returns the NLRI prefix at [off] and the
    offset past it, reading through a borrowed slice (no copies).
    @raise Bgp_error.Decode_error on truncated or invalid input. *)

val to_string : t -> string
