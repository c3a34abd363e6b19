(** An in-memory packet trace: time-ordered TCP segments plus the void
    periods during which the sniffer is known to have dropped packets
    (Section II-A: "tcpdump can sometimes drop packets and leaves void
    periods in the trace.  We exclude those periods").

    Stored as columns (DESIGN.md, "Trace representation"): header
    fields in int arrays indexed by packet, endpoints as small-int ids
    into a per-trace table, payloads as slices of one buffer the trace
    holds — for a decoded capture, the capture's own bytes.  The column
    readers read packet [i] (time order) without allocating; {!get} and
    {!segments} are cold {!Tcp_segment.t} views. *)

type t

val of_segments :
  ?voids:Tdat_timerange.Span_set.t -> Tcp_segment.t list -> t
(** Stable sort by (timestamp, sequence number), as
    {!Tcp_segment.compare_ts}: ties keep their list order.
    @raise Invalid_argument on a port outside [0, 65535]. *)

val segments : t -> Tcp_segment.t list
val voids : t -> Tdat_timerange.Span_set.t
val length : t -> int

val get : t -> int -> Tcp_segment.t
(** The [i]-th segment, payload copied out. *)

val ts : t -> int -> Tdat_timerange.Time_us.t
val seq : t -> int -> int
val ack : t -> int -> int
val len : t -> int -> int
val win : t -> int -> int
(** The advertised window. *)

val flags : t -> int -> int
(** {!Tcp_segment.flag_bits}. *)

val mss : t -> int -> int  (** [-1] when absent. *)

val src : t -> int -> int
val dst : t -> int -> int
(** Endpoint ids; a sub-trace shares its parent's. *)

val find_endpoint : t -> Endpoint.t -> int
(** The endpoint's id, or [-1] when no packet carries it. *)

val payload : t -> int -> Slice.t
(** The captured payload (possibly shorter than {!len}), borrowed. *)

val total_bytes : t -> int
(** Sum of payload lengths. *)

val connections : t -> (Endpoint.t * Endpoint.t) list
(** Distinct unordered endpoint pairs, in first-appearance order. *)

val connection_subtraces :
  t -> ((Endpoint.t * Endpoint.t) * (unit -> t)) list
(** One counting pass gives each packet a connection id from its
    endpoint-id pair; each connection comes back with a function that
    gathers its sub-trace (both directions, time order and voids
    inherited) when called, sharing the parent's payload buffer and
    endpoint table.  Keyed and ordered as {!connections}, O(packets) in
    all; a single-connection trace is its own sub-trace. *)

val partition_connections : t -> ((Endpoint.t * Endpoint.t) * t) list
(** {!connection_subtraces}, every sub-trace gathered at once. *)

val infer_sender : t -> (Endpoint.t * Endpoint.t) -> Flow.t
(** For a connection key, orient the flow: the endpoint that contributed
    the most payload bytes is the Sender.  Collectors never announce
    routes, so the orientation is unambiguous in BGP monitoring traces. *)

(** The writer behind {!of_segments} and the pcap reader: packets are
    appended to growable columns, each payload named by its place in a
    buffer handed over at the end, and {!Builder.finish} sorts them only
    if they arrived out of order. *)
module Builder : sig
  type trace := t
  type t

  val create : packets:int -> t
  (** Initial room for [packets] rows; the columns grow by doubling. *)

  val endpoint : t -> ip:int -> port:int -> int
  (** The id of [ip:port] ([ip] unsigned), registered on first sight. *)

  val add :
    t -> ts:Tdat_timerange.Time_us.t -> src:int -> dst:int -> seq:int ->
    ack:int -> len:int -> window:int -> flags:int -> mss:int -> off:int ->
    captured:int -> unit
  (** Append a packet whose payload is the [captured] bytes at [off] of
      the payload buffer {!finish} is given; nothing is copied. *)

  val finish :
    ?voids:Tdat_timerange.Span_set.t -> t -> payload:Slice.t -> trace
  (** Columns cut to the packets added; [payload] becomes the trace's
      buffer, borrowed for the trace's life. *)
end

(**/**)

(** The time window of a trace, for tests of generated scenarios. *)
module Private : sig
  val window : t -> Tdat_timerange.Span.t option
  (** Span from first to last timestamp (inclusive end +1 µs). *)
end
