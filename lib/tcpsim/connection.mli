(** Wiring a sender and a receiver through the monitored topology of
    Fig. 2:

    {v Sender --(upstream path)--> Sniffer --(local path)--> Receiver v}

    The sniffer taps both directions.  A {!Site.t} models the collector
    side — the sniffer plus the local links into the collector box —
    and is shared by every connection terminating at that collector, so
    concurrent table transfers contend for the same local buffer
    (receiver-local drop-tail losses, Section II-B2 and Fig. 15). *)

type path = {
  delay : Tdat_timerange.Time_us.t;  (** One-way propagation. *)
  jitter : Tdat_timerange.Time_us.t;
  bandwidth_bps : int;
  buffer_pkts : int;
  data_loss : Tdat_netsim.Loss.t;  (** Applied to sender→receiver packets. *)
  ack_loss : Tdat_netsim.Loss.t;   (** Applied to receiver→sender packets. *)
}

val path :
  ?delay:Tdat_timerange.Time_us.t ->
  ?jitter:Tdat_timerange.Time_us.t ->
  ?bandwidth_bps:int ->
  ?buffer_pkts:int ->
  ?data_loss:Tdat_netsim.Loss.t ->
  ?ack_loss:Tdat_netsim.Loss.t ->
  unit ->
  path
(** Defaults: 1 ms delay, no jitter, 1 Gb/s, 128-packet buffer, no loss. *)

module Site : sig
  type t

  val create :
    engine:Tdat_netsim.Engine.t ->
    ?rng:Tdat_rng.Rng.t ->
    local:path ->
    unit ->
    t

  val trace : t -> Tdat_pkt.Trace.t

  val local_drops : t -> int
  (** Packets dropped on the sniffer→receiver local link (the
      receiver-local losses). *)
end

type t

val create :
  engine:Tdat_netsim.Engine.t ->
  ?sender_cfg:Tcp_types.config ->
  ?receiver_cfg:Tcp_types.config ->
  sender_ep:Tdat_pkt.Endpoint.t ->
  receiver_ep:Tdat_pkt.Endpoint.t ->
  upstream:path ->
  site:Site.t ->
  ?rng:Tdat_rng.Rng.t ->
  unit ->
  t
(** Registers the connection at the site and builds its private upstream
    links.  [receiver_cfg] controls the collector's advertised window. *)

val sender : t -> Sender.t
val receiver : t -> Receiver.t
val start : t -> unit
(** Begin the TCP handshake. *)

val upstream_drops : t -> int
(** Data packets lost before the sniffer (upstream losses). *)

val flow : t -> Tdat_pkt.Flow.t
