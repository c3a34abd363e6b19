(** Span-based stage tracer emitting Chrome [trace_event] JSON.

    Spans ({!Span.with_}) record begin/end ("B"/"E") events with
    microsecond wall-clock timestamps into per-domain buffers, so
    tracing from pool workers never contends.  {!write} merges the
    buffers, sorts by timestamp, and writes a file loadable directly in
    [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    {b Trace context.}  A domain-local trace id ({!with_context})
    stamps every event emitted while it is set, rendered as
    [args.trace] in the Chrome output.  The serve daemon sets it to the
    request's trace id before running a job, so one request's
    queue-wait/decode/analyze/render spans form a single connected tree
    even when many requests interleave on the same worker domain.

    Disabled (the default), a span is one atomic load and a branch
    around the traced function. *)

type ph = B | E | X  (** Begin / End / Complete (self-contained). *)

type event = {
  name : string;
  ph : ph;
  ts : float;  (** Microseconds since the epoch. *)
  dur : float;  (** Duration in microseconds; [X] events only, else 0. *)
  tid : int;  (** The recording domain's id. *)
  trace : string option;  (** The trace context at emission time. *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val clear : unit -> unit
(** Drop all recorded events (tests, or between runs). *)

val begin_span : string -> unit
val end_span : string -> unit
(** Raw event emission — prefer {!Span.with_}, which guarantees
    balance. *)

val complete_span : name:string -> begin_us:float -> dur_us:float -> unit
(** One Chrome "X" (complete) event.  For retroactive spans — e.g.
    queue wait, whose extent is only known once the job starts — where
    a B event with a past timestamp would break the nesting of events
    already recorded on this domain.  Negative durations clamp to 0. *)

val with_context : string option -> (unit -> 'a) -> 'a
(** Run the function with the domain-local trace context set (saved and
    restored around the call, exception-safe). *)

val events : unit -> event list
(** All recorded events merged across domains, sorted by timestamp
    (events of one domain keep their emission order). *)

val balanced : unit -> bool
(** True when, per domain, the B/E events form properly nested pairs
    with matching names ([X] events are self-contained and ignored). *)

val write : string -> unit
(** {!to_json} to a file. *)

(**/**)

(** The current context and the whole trace as JSON, for tests of span
    stamping and the trace file format. *)
module Private : sig
  val current_context : unit -> string option

  val to_json : unit -> string
  (** The Chrome trace: [{"traceEvents": [...]}], one event per line,
      each written by the shared JSON codec. *)
end
