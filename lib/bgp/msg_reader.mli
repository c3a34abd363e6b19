(** Incremental extraction of BGP messages from a reassembled byte
    stream.  Combined with {!Stream_reassembly}, this is [pcap2bgp]:
    each extracted message carries the delivery time of its final byte,
    i.e., the instant the receiving BGP process could have read it. *)

type timed_msg = {
  ts : Tdat_timerange.Time_us.t;  (** Delivery time of the last byte. *)
  offset : int;                   (** Stream offset of the first byte. *)
  msg : Msg.t;
}

val extract_from_trace :
  Tdat_pkt.Trace.t -> flow:Tdat_pkt.Flow.t -> timed_msg list
(** Reassembles the sender→receiver direction of [flow] and extracts.
    Stream offsets start at the first data byte observed. *)

val reassemble_from_trace :
  scratch:Tdat_parallel.Scratch.cell ->
  Tdat_pkt.Trace.t ->
  flow:Tdat_pkt.Flow.t ->
  Stream_reassembly.t
(** The reassembly half of {!extract_from_trace}: feed every
    sender→receiver data segment, rebased to the first observed data
    byte, without materializing segment lists.  [~scratch] backs the
    stream buffer (see {!Stream_reassembly.create}).  Streaming scans
    ({!Mct.transfer_end_of_reasm}) consume this directly. *)

(**/**)

(** The extraction over a whole reassembled stream, for tests that feed
    it a reference reassembler's output. *)
module Private : sig
  val extract : Stream_reassembly.t -> timed_msg list
  (** All complete messages in the contiguous part of the stream, in
      order.  Extraction stops silently at the first protocol violation (bad
      marker / bad length): a monitored link may carry non-BGP TCP
      connections, which simply yield no messages. *)
end
