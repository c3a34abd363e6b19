(** Locating BGP table transfers in a monitored session (Section II-A).

    The TCP connection start marks the transfer start (a table transfer
    begins right after session establishment, RFC 4271); the end comes
    from the MCT algorithm run over the BGP message stream — taken from
    the collector's MRT archive when one exists (Quagga), or recovered
    from the packet trace itself via stream reassembly (the [pcap2bgp]
    path, used for Vendor collectors). *)

type source = Archive | Reconstructed

type t = {
  start_ts : Tdat_timerange.Time_us.t;  (** TCP connection start. *)
  end_ts : Tdat_timerange.Time_us.t;    (** MCT-estimated end. *)
  prefixes : int;   (** Distinct prefixes collected. *)
  updates : int;    (** Updates attributed to the transfer. *)
  source : source;
}

val duration : t -> Tdat_timerange.Time_us.t
val span : t -> Tdat_timerange.Span.t

val identify :
  ?mct:Tdat_bgp.Mct.config ->
  ?mrt:Tdat_bgp.Mrt.record list ->
  Tdat_pkt.Trace.t ->
  flow:Tdat_pkt.Flow.t ->
  t option
(** [identify trace ~flow] locates the transfer on this connection.
    When [mrt] is given (and non-empty) the archive drives MCT; otherwise
    the data stream is reassembled from the trace.  [None] when no
    update follows the connection start. *)
