(** An in-memory packet trace: time-ordered TCP segments plus the void
    periods during which the sniffer is known to have dropped packets
    (Section II-A: "tcpdump can sometimes drop packets and leaves void
    periods in the trace.  We exclude those periods"). *)

type t

val of_segments :
  ?voids:Tdat_timerange.Span_set.t -> Tcp_segment.t list -> t
(** Sorts by timestamp. *)

val segments : t -> Tcp_segment.t list
val voids : t -> Tdat_timerange.Span_set.t
val length : t -> int

val get : t -> int -> Tcp_segment.t
(** [get t i]: the [i]-th segment in time order.  With {!length}, the
    copy-free alternative to {!segments} on hot paths. *)

val iter : (Tcp_segment.t -> unit) -> t -> unit
(** Visit every segment in time order without materializing a list. *)

val total_bytes : t -> int
(** Sum of payload lengths. *)

val window : t -> Tdat_timerange.Span.t option
(** Span from first to last timestamp (inclusive end +1 µs). *)

val connections : t -> (Endpoint.t * Endpoint.t) list
(** Distinct unordered endpoint pairs, in first-appearance order. *)

val partition_connections : t -> ((Endpoint.t * Endpoint.t) * t) list
(** Bucket every segment into its connection in a single pass over the
    trace: one sub-trace (both directions, time order and voids
    inherited) per distinct unordered endpoint pair, keyed as
    {!connections} keys it and in the same first-appearance order, at
    O(packets) for all connections together. *)

val filter : (Tcp_segment.t -> bool) -> t -> t
val merge : t -> t -> t
val append : t -> Tcp_segment.t list -> t

val infer_sender : t -> (Endpoint.t * Endpoint.t) -> Flow.t
(** For a connection key, orient the flow: the endpoint that contributed
    the most payload bytes is the Sender.  Collectors never announce
    routes, so the orientation is unambiguous in BGP monitoring traces. *)
