(** Passive packet capture at a fixed point in the topology (the
    "Sniffer" of Fig. 2).  Interpose it on a path by calling {!tap} as a
    link's deliver continuation. *)

type t

val create : engine:Engine.t -> unit -> t

val tap : t -> then_:(Tdat_pkt.Tcp_segment.t -> unit) -> Tdat_pkt.Tcp_segment.t -> unit
(** Records the segment at the current simulated time, then passes it on. *)

val trace : t -> Tdat_pkt.Trace.t
(** Everything captured so far, as a time-sorted trace with voids. *)

