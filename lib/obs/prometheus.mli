(** Prometheus text-format (0.0.4) exposition.

    Encodes a {!Metrics} registry — and, via the buffer helpers, ad-hoc
    series such as the serve daemon's rolling-window gauges — as
    Prometheus exposition text.  Formatting is deterministic: metrics
    in name order, floats in canonical shortest round-trip form
    ({!Tdat_json.Canon}, integer-valued ones as [x.0]), so the stable
    section of a quiesced registry is byte-identical across
    [--jobs]. *)

val of_registry : ?stable_only:bool -> Metrics.registry -> string
(** The registry in exposition text: a [# TYPE] line per instrument,
    counters with a [_total] suffix, histograms as cumulative
    [_bucket{le="..."}] samples (last [le="+Inf"]) plus [_sum] and
    [_count].  With [stable_only], volatile instruments are skipped —
    the form compared across [--jobs]. *)

(** {2 Buffer helpers for ad-hoc series} *)

val add_header : Buffer.t -> name:string -> kind:string -> unit
(** [# TYPE <mangled name> <kind>]. *)

val add_gauge :
  Buffer.t -> name:string -> ?labels:(string * string) list -> float -> unit
(** One gauge sample line, optionally labeled
    ([name{k="v",...} value]).  Label values are escaped per the
    exposition format. *)

(**/**)

(** Metric-name mangling, for tests of the exposition names. *)
module Private : sig
  val mangle : string -> string
  (** A dotted lowercase instrument name as a Prometheus metric name:
      prefixed with [tdat_], every character outside [[a-zA-Z0-9_:]]
      mapped to ['_'] (so ["serve.request_us"] becomes
      ["tdat_serve_request_us"]). *)
end
