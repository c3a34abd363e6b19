(** Streaming, fault-tolerant libpcap file codec.

    Writes traces as classic pcap files (microsecond timestamps, Ethernet
    link type) with fabricated Ethernet/IPv4/TCP headers, and reads them
    back — enough for [pcap2bgp] and the CLI to interoperate with
    tcpdump-style tooling on both synthetic and real traces.  Checksums
    are written as zero and ignored on read.

    Reading is {e in place}: every entry point frames the records in one
    capture buffer and decodes each straight into the columns of a
    {!Trace.t} (DESIGN.md, "Trace representation") — no per-packet
    record, string or boxed endpoint, and no frame or payload byte
    copied — and that buffer becomes the trace's payload buffer, so a
    trace holds the capture it was read from (headers included, also
    for a headers-only capture).  It is also {e snaplen-correct}:
    a segment's [len] always comes from the declared IPv4/TCP header
    lengths ([ip_total - ihl - doff]), while its [payload] keeps only the
    bytes the sniffer captured — possibly fewer, when the capture used a
    small snaplen (tcpdump [-s]).  Sequence/outstanding/retransmission
    accounting downstream therefore stays exact on headers-only captures.

    Malformed input degrades gracefully: each problem produces a typed
    {!Diag.t} ([P0xx] codes, see DESIGN.md "Ingestion robustness") and the
    reader salvages every decodable record — a capture whose final record
    was cut off by killing tcpdump mid-write still yields all prior
    packets.  [?strict:true] instead fails on the first error- or
    warning-severity diagnostic, raising {!Decode_error} with a
    ["Pcap.decode: "] message.

    Sequence numbers are wrapped to 32 bits on write; reads return the raw
    32-bit values (traces produced by this repository never wrap). *)

exception Decode_error of string
(** Raised on malformed pcap input by the readers when [~strict:true]. *)

exception Encode_error of string
(** Raised by {!encode} / {!to_file} on segments that cannot be
    represented in a pcap file (negative timestamps, seconds beyond the
    unsigned 32-bit epoch, payload overflowing the IPv4 total length). *)

(** Typed per-record ingestion diagnostics, shared with the MRT reader
    ([Tdat_bgp.Mrt.Diag], [M0xx] codes) — the same code/severity/message
    shape as [Tdat_audit.Diag], kept dependency-free here (the audit
    library layers on this one; [Tdat_audit.Ingest] lifts these into the
    audit report). *)
module Diag : sig
  type severity = Error | Warning | Info

  type t = {
    code : string;  (** Stable ingestion code, e.g. ["P005"], ["M002"]. *)
    severity : severity;
        (** [Error]: the file is not usable at all (bad magic, truncated
            global header, unsupported link type).  [Warning]: a record
            was malformed or truncated; salvage continues around it.
            [Info]: lossless notes (skipped non-IPv4 frames, VLAN tags,
            snaplen-clipping summary). *)
    record : int option;  (** 0-based index of the offending record. *)
    message : string;
  }

  val severity_name : severity -> string
  val is_error : t -> bool
  val pp : Format.formatter -> t -> unit
end

type stats = {
  records : int;  (** Complete records read. *)
  decoded : int;  (** TCP segments produced. *)
  skipped : int;  (** Records that produced no segment (non-TCP, malformed). *)
  clipped : int;
      (** Segments whose captured payload was shorter than the declared
          TCP length (snaplen truncation). *)
}

type result = { trace : Trace.t; diags : Diag.t list; stats : stats }

val encode : Trace.t -> string
(** Serializes a trace to pcap file bytes.
    @raise Encode_error on unrepresentable segments. *)

val decode_result : ?strict:bool -> string -> result
(** Parse pcap file bytes (both little- and big-endian files, µs or ns
    resolution; ns timestamps are truncated to µs; non-TCP packets are
    skipped).  The string is the capture buffer: the trace points into
    it and copies none of it.  Fault-tolerant by default: salvages every
    decodable record and reports problems as diagnostics.
    [~strict:true] raises {!Decode_error} on the first error/warning
    diagnostic. *)

val to_file : string -> Trace.t -> unit
(** @raise Encode_error on unrepresentable segments. *)

val read_file : ?strict:bool -> ?follow:Ingest_io.follow -> string -> result
(** The file read whole into a capture buffer of its size ([fstat]),
    then decoded as {!decode_result} does, reading on past that size if
    the file grows; the file is closed on return.  Fault-tolerant unless
    [~strict:true]; [~follow] (see {!Ingest_io.follow_idle}) polls at
    EOF instead of ending the capture — the tailing mode for a
    still-growing file. *)
