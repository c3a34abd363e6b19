(** The receiving TCP endpoint: reassembly, cumulative and delayed ACKs,
    and flow control by advertised window.

    The receiving application (the collector's BGP process) drains the
    receive buffer explicitly via {!consume}; a slow application closes
    the advertised window — the paper's "BGP receiver app" delay factor
    works through exactly this coupling. *)

type t

val create :
  engine:Tdat_netsim.Engine.t ->
  config:Tcp_types.config ->
  local:Tdat_pkt.Endpoint.t ->
  remote:Tdat_pkt.Endpoint.t ->
  send:(Tdat_pkt.Tcp_segment.t -> unit) ->
  unit ->
  t
(** [send] transmits ACKs toward the sender (normally a {!Tdat_netsim.Link}). *)

val on_segment : t -> Tdat_pkt.Tcp_segment.t -> unit
(** Deliver a segment from the network (data or SYN). *)

val available : t -> int
(** Contiguous received bytes not yet consumed by the application. *)

val peek : t -> string
(** The available bytes, without consuming. *)

val consume : t -> int -> unit
(** Application reads (and frees) [n] bytes of buffer; sends a window
    update if the window was effectively closed.
    @raise Invalid_argument if [n > available t]. *)

val set_on_data : t -> (unit -> unit) -> unit
(** Callback fired whenever new contiguous bytes become available. *)

val kill : t -> unit
(** Stop responding entirely (collector failure, Fig. 9). *)

(**/**)

(** The in-order delivery frontier, for tests of the receiver. *)
module Private : sig
  val rcv_nxt : t -> int
end
