(** Event series: an ordered set of time durations, each carrying a
    reference to the underlying trace data (the paper's
    [(event_duration, event_data)] 2-tuples, Section III-A).

    Unlike {!Span_set}, events are {e not} coalesced — each event keeps its
    own payload and exact boundaries, so the series "faithfully preserves
    the exact packet timing information" for drill-down.  Quantification
    (delay ratios) goes through {!to_span_set}/{!size}, which is where
    overlap is collapsed. *)

type 'a t

val empty : 'a t

val of_list : (Span.t * 'a) list -> 'a t
(** Sorts events by span (start, then stop).  Overlapping events are
    allowed and preserved. *)

val cardinal : 'a t -> int

val to_span_set : 'a t -> Span_set.t
(** Collapses the events into a canonical span set. *)

val size : 'a t -> Time_us.t
(** [size s] is [Span_set.size (to_span_set s)] — overlapping events are
    not double-counted, matching the paper's set-size measure. *)

val filter : (Span.t -> 'a -> bool) -> 'a t -> 'a t
val fold : (Span.t -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val iter : (Span.t -> 'a -> unit) -> 'a t -> unit

val merge : 'a t -> 'a t -> 'a t
(** Union of the two event lists (payloads kept), in the order a stable
    sort of [a]'s events followed by [b]'s gives: [a]'s event first on
    ties.  A linear merge when both are in order. *)

val clip : Span.t -> 'a t -> 'a t
(** Keeps the events intersecting the window, with their spans trimmed to
    it (payloads untouched).  A series whose events all lie inside the
    window is its own clip. *)

type 'a builder

val builder : unit -> 'a builder
val add : 'a builder -> Span.t -> 'a -> unit
val build : 'a builder -> 'a t
(** Builders accept events in any order.  [build] checks the order in
    one linear pass and sorts (stably) only when it finds events out of
    order. *)

(**/**)

(** The events as a list, for tests that compare series. *)
module Private : sig
  val to_list : 'a t -> (Span.t * 'a) list
end
