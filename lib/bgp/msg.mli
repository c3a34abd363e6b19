(** BGP-4 message wire codec (RFC 4271 §4). *)

type open_msg = {
  version : int;
  my_as : int;
  hold_time : int;  (** Seconds; 0 disables keepalives. *)
  bgp_id : int32;
}

type update = {
  withdrawn : Prefix.t list;
  attrs : Attr.t list;
  nlri : Prefix.t list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of notification

val header_size : int
(** 19 bytes: 16-byte marker + length + type. *)

val max_size : int
(** 4096, RFC 4271's maximum message size. *)

val keepalive : t
val update : ?withdrawn:Prefix.t list -> ?attrs:Attr.t list ->
  ?nlri:Prefix.t list -> unit -> t

val encode : t -> string
(** @raise Invalid_argument if the encoding would exceed {!max_size}. *)

val encoded_size : t -> int

val peek_length : string -> int -> int option
(** [peek_length s off]: total length of the message starting at [off],
    if the 19-byte header is fully available.
    @raise Failure if the marker check fails or the length is invalid. *)

val decode : string -> int -> (t * int) option
(** [decode s off] parses one message; [None] when more bytes are needed.
    @raise Failure on protocol violations. *)

val decode_slice : Tdat_pkt.Slice.t -> int -> (t * int) option
(** As {!decode}, reading through a borrowed slice: the only copies made
    are the byte payloads the decoded message keeps ([Unknown] attribute
    data, NOTIFICATION data). *)

(** {2 Validation without decoding}

    The checks {!decode_slice} makes, in its order, over absolute
    positions in a borrowed buffer, building nothing and raising nothing
    on bad input: the one BGP message validator behind both the MRT
    summary fold ([Mrt.fold_summary_file]) and the streaming MCT scan
    ([Mct.transfer_end_of_reasm]).  Each function checks once that its
    range lies inside the buffer, raising [Invalid_argument] if not (a
    caller's bug, not bad input), and then reads without per-byte bounds
    checks.  A violation is reported by a sentinel return value. *)

val validate : Bytes.t -> pos:int -> limit:int -> int
(** [validate buf ~pos ~limit] checks the message starting at [pos],
    with the bytes [\[pos, limit)] available.  [-1] exactly when
    {!decode_slice} over those bytes would return [None] or raise;
    otherwise [8 * nlri_count + code], where [code] (the value
    [land 7]) is the type (1 OPEN, 2 UPDATE, 3 NOTIFICATION,
    4 KEEPALIVE) and [nlri_count] (the value [lsr 3]) is {!nlri_count}
    of the decoded message.  Bytes past the message's length field are
    never read. *)

val header_length : Bytes.t -> int -> int
(** [header_length buf p]: the length field of the header at [p], or
    [-1] when a marker byte is not [0xff] or the length lies outside
    [\[header_size, max_size\]].  Reads [\[p, p + header_size)]. *)

val malformed : int
(** [-2]: what {!check_body} and {!check_prefixes} return on a
    violation {!decode_slice} would raise for. *)

val check_body : Bytes.t -> ty:int -> boff:int -> limit:int -> int
(** Validate the body [\[boff, limit)] of a message of type [ty]: for an
    UPDATE everything before the NLRI, returning the NLRI's position
    (left to the caller, who may walk it with {!check_prefixes} or its
    own loop); [-1] for any other type; {!malformed} on a violation. *)

val check_prefixes : Bytes.t -> pos:int -> limit:int -> int
(** Validate a run of encoded prefixes filling [\[pos, limit)] and
    return how many there are, or {!malformed} on a length above 32 or
    an entry overrunning [limit]. *)

val nlri_count : t -> int
(** Announced prefixes in an UPDATE; 0 otherwise. *)

val pp : Format.formatter -> t -> unit
