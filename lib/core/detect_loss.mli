(** Consecutive-packet-loss detection (Section IV-B).

    Unions every loss series (sender-local, receiver-local, network) and
    reports episodes retransmitting at least [threshold] packets — 8 by
    default, the paper's conservative bound, "sufficiently large to
    reduce the TCP congestion window and the slow start threshold to the
    minimum 1 or 2 MSS". *)

type episode = {
  span : Tdat_timerange.Span.t;
  packets : int;
}

type result = {
  episodes : episode list;  (** Episodes at/above the threshold. *)
  induced_delay : Tdat_timerange.Time_us.t;
      (** Total time inside all loss episodes of the transfer. *)
}

val detect :
  ?threshold:int -> ?merge_gap:Tdat_timerange.Time_us.t -> Series_gen.t ->
  result
(** [result.episodes = []] means no consecutive-loss event.  Recovery
    events separated by less than [merge_gap] (default 1.5 s) belong to
    the same episode — chained timeouts recovering one congestion event
    count together, as in Fig. 6. *)

