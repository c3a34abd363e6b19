(** The sending TCP endpoint: window-based congestion control
    (Tahoe / Reno / NewReno), retransmission timeout with backoff, fast
    retransmit/recovery, zero-window persist probing (with the optional
    window-update-discard bug of Section IV-B).

    The application ({!Tdat_bgpsim.Speaker} in this repository) feeds the
    stream with {!write}; when it writes slowly the connection is
    "send-application limited" — the dominant delay factor of Table IV. *)

type t

type counters = {
  segments_sent : int;
  bytes_sent : int;
  retransmissions : int;
  timeouts : int;
  fast_retransmits : int;
  probes : int;
}

val create :
  engine:Tdat_netsim.Engine.t ->
  config:Tcp_types.config ->
  local:Tdat_pkt.Endpoint.t ->
  remote:Tdat_pkt.Endpoint.t ->
  send:(Tdat_pkt.Tcp_segment.t -> unit) ->
  ?rng:Tdat_rng.Rng.t ->
  unit ->
  t
(** [rng] is required when [config.window_update_loss_prob > 0]. *)

val start : t -> unit
(** Send the SYN (active open). *)

val established : t -> bool

val write : t -> string -> unit
(** Append application bytes to the stream and transmit as windows
    allow. *)

val acked : t -> int
(** snd_una: bytes cumulatively acknowledged. *)

val in_flight : t -> int
val all_acked : t -> bool
(** Every written byte acknowledged. *)

val on_segment : t -> Tdat_pkt.Tcp_segment.t -> unit
(** Deliver an ACK (or SYN+ACK) from the network. *)

val counters : t -> counters
val stop : t -> unit
(** Cancel pending timers (session torn down). *)
