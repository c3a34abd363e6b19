(** A sniffed TCP segment — the unit of every trace in this repository.

    Sequence and acknowledgment numbers are {e absolute stream offsets}
    starting at 0 at the SYN (an initial sequence number of 0), kept as
    native [int]s.  The pcap codec wraps them to 32 bits on the wire;
    table transfers are a few MB so they never wrap in practice. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}

val flags :
  ?syn:bool -> ?ack:bool -> ?fin:bool -> ?rst:bool -> ?psh:bool -> unit ->
  flags

val data_flags : flags
(** [ack + psh], the usual flags on a data segment. *)

val ack_flags : flags
(** Pure acknowledgment. *)

val syn_bit : int
val ack_bit : int

val flag_bits : flags -> int
(** The flags as TCP header bits (FIN 0x01 ... ACK 0x10). *)

type t = {
  ts : Tdat_timerange.Time_us.t;  (** Sniffer timestamp. *)
  src : Endpoint.t;
  dst : Endpoint.t;
  seq : int;       (** First payload byte's stream offset. *)
  ack : int;       (** Next expected stream offset (valid when [flags.ack]). *)
  len : int;       (** Payload length in bytes. *)
  window : int;    (** Advertised receive window, bytes. *)
  flags : flags;
  mss_opt : int option;  (** MSS option, present on SYN segments. *)
  payload : string;
      (** Captured payload bytes; [""] when not materialized.  May be
          shorter than [len] when the capture snaplen clipped the
          segment — [len] always reflects the declared (on-the-wire)
          payload length. *)
}

val v :
  ts:Tdat_timerange.Time_us.t ->
  src:Endpoint.t ->
  dst:Endpoint.t ->
  seq:int ->
  ack:int ->
  ?len:int ->
  ?window:int ->
  ?flags:flags ->
  ?mss_opt:int ->
  ?payload:string ->
  unit ->
  t
(** [len] defaults to [String.length payload]; when both are given the
    payload may be shorter than [len] (snaplen-truncated capture) but
    never longer.
    @raise Invalid_argument on a negative [len] or [mss_opt]. *)

val seq_end : t -> int
(** [seq + len], the stream offset one past the last payload byte (SYN and
    FIN each also consume one sequence number on real wires; we exclude
    them from stream offsets for analysis simplicity). *)

val is_data : t -> bool
(** [len > 0]. *)

val pp : Format.formatter -> t -> unit
