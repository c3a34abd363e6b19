(** Connection-level pre-processing (Section III-B): the role the paper's
    patched tcptrace plays.

    From a bidirectional trace of one connection this extracts the
    connection profile (start/end, RTT, MSS, maximum advertised window)
    and labels every data packet — retransmission, out-of-sequence,
    in-network reordering — using the sniffer-position reasoning of
    Section II-B2 / Jaiswal et al.:

    - a data packet re-delivering bytes the sniffer has already seen is a
      retransmission caused {e downstream} of the sniffer (the receiver
      never got, or never acknowledged, the first copy);
    - a sequence hole at the sniffer means the missing bytes were lost
      {e upstream}; the packet that later fills the hole is the recovery
      of an upstream loss — unless it fills it so quickly that the hole
      was mere in-network reordering. *)

type label =
  | In_order  (** Advances the highest sequence seen. *)
  | Above_hole  (** In order but while a sequence hole is open. *)
  | Fill_reorder  (** Filled a hole quickly: in-network reordering. *)
  | Fill_retransmission  (** Filled a hole late: upstream-loss recovery. *)
  | Redelivery  (** Bytes seen before: downstream-loss recovery. *)

type loss_episode = {
  span : Tdat_timerange.Span.t;
      (** From first evidence of the loss to the arrival of the recovery. *)
  packets : int;  (** Retransmitted packets in the episode. *)
  bytes : int;
}

type t = {
  flow : Tdat_pkt.Flow.t;
  start_time : Tdat_timerange.Time_us.t;  (** SYN if seen, else first packet. *)
  end_time : Tdat_timerange.Time_us.t;
  syn_rtt : Tdat_timerange.Time_us.t option;  (** SYN→SYN+ACK round trip. *)
  upstream_rtt : Tdat_timerange.Time_us.t option;
      (** Sniffer→sender→sniffer round trip (the d2 of Fig. 12), measured
          on the handshake: SYN+ACK at the sniffer to the sender's
          replying ACK at the sniffer. *)
  rtt : Tdat_timerange.Time_us.t;  (** Best available estimate (≥ 1 ms floor). *)
  mss : int;  (** From the SYN option, else the largest payload seen. *)
  max_adv_window : int;  (** Largest window the receiver ever advertised. *)
  trace : Tdat_pkt.Trace.t;
      (** The connection's packets: [data] and [acks] index its columns,
          which hold every header field the analysis reads. *)
  data : int array;
      (** Sender→receiver data packets, as indices into [trace], time
          order. *)
  labels : label array;  (** [labels.(k)] labels packet [data.(k)]. *)
  acks : int array;
      (** Receiver→sender ACKs, as indices into [trace], in [ack_ts]
          order. *)
  ack_ts : Tdat_timerange.Time_us.t array;
      (** [ack_ts.(k)] is the time of ACK [acks.(k)]: the sniffer's
          timestamp, or after {!Ack_shift.shift} the shifted one. *)
  upstream_episodes : loss_episode list;
  downstream_episodes : loss_episode list;
  voids : Tdat_timerange.Span_set.t;
}

val of_trace : ?reorder_factor:float -> Tdat_pkt.Trace.t ->
  flow:Tdat_pkt.Flow.t -> t
(** [reorder_factor] (default 0.25): a hole filled within
    [reorder_factor * rtt] counts as reordering, not loss. *)

val analysis_window : t -> Tdat_timerange.Span.t
(** [start_time, end_time + 1). *)

val pp_summary : Format.formatter -> t -> unit

(**/**)

(** Observers for tests that check the profile's counters directly. *)
module Private : sig
  val retransmissions : t -> int
end
