(** AS_PATH attribute values (RFC 4271 §4.3, 2-octet AS numbers). *)

type segment =
  | Seq of int list  (** AS_SEQUENCE: ordered. *)
  | Set of int list  (** AS_SET: unordered aggregate. *)

type t = segment list

val of_asns : int list -> t
(** A single AS_SEQUENCE. *)

val encode : Buffer.t -> t -> unit

val decode_slice : Tdat_pkt.Slice.t -> t
(** Decodes a whole attribute value, reading through a borrowed slice
    (no copies).  @raise Bgp_error.Decode_error on malformed input. *)

val pp : Format.formatter -> t -> unit
