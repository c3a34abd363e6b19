(** BGP path attributes (RFC 4271 §4.3). *)

type origin = Igp | Egp | Incomplete

type t =
  | Origin of origin
  | As_path of As_path.t
  | Next_hop of int32
  | Med of int32
  | Local_pref of int32
  | Unknown of { code : int; flags : int; data : string }

val encode : Buffer.t -> t -> unit
(** Encodes with canonical flags (well-known mandatory attributes as
    transitive; [Unknown] with its recorded flags).  Uses extended length
    when the value exceeds 255 bytes. *)

val decode_all_slice : Tdat_pkt.Slice.t -> t list
(** Decodes a whole path-attributes block, reading through a borrowed
    slice: only [Unknown] payloads (which the result keeps) are copied
    out.  @raise Bgp_error.Decode_error on malformed input. *)

val signature : t list -> string
(** Canonical byte string of an attribute set; updates sharing a
    signature can share one UPDATE message (how routers batch NLRI, and
    how {!Update_gen} groups prefixes). *)

