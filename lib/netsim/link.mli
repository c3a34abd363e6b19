(** A unidirectional link: finite drop-tail buffer, serialization at a
    configured bandwidth, propagation delay (with optional jitter), and a
    pluggable loss model.

    Drop-tail overflow under synchronized senders is the mechanism behind
    the receiver-local losses of Section II-B2 ("sustaining packet drops
    on router interfaces"). *)

type t

type stats = {
  delivered : int;
  dropped_loss : int;     (** Dropped by the loss model. *)
  dropped_overflow : int; (** Dropped by buffer overflow. *)
}

val create :
  engine:Engine.t ->
  delay:Tdat_timerange.Time_us.t ->
  ?jitter:Tdat_timerange.Time_us.t ->
  ?jitter_rng:Tdat_rng.Rng.t ->
  bandwidth_bps:int ->
  ?buffer_pkts:int ->
  ?loss:Loss.t ->
  ?on_drop:(Tdat_pkt.Tcp_segment.t -> unit) ->
  deliver:(Tdat_pkt.Tcp_segment.t -> unit) ->
  unit ->
  t
(** [deliver] is invoked at arrival time with the segment restamped to
    that time.  [buffer_pkts] defaults to 128; [jitter] to 0 (jitter can
    reorder packets, which is deliberate when modelling in-network
    reordering). *)

val send : t -> Tdat_pkt.Tcp_segment.t -> unit
(** Enqueue at the current simulated time. *)

val stats : t -> stats
