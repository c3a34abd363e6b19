(** Rendering a {!Aggregate.report} for `tdat study`: a human-readable
    text report (with optional ASCII CDF plots, the role BGPlot plays in
    the paper's tool suite) and a machine-readable JSON document.  Both
    renderings are deterministic functions of the report. *)

val to_text : ?plot:bool -> Aggregate.report -> string
(** [plot] (default [true]) appends the duration-CDF curve when there
    are at least two transfers. *)

val to_json_value : Aggregate.report -> Tdat_json.Json.t
(** The report as one JSON object:
    [{"files": [...], "transfers": [...], "slow_threshold_s": ...,
      "threshold": "auto"|"fixed", "duration_knee_s": ...,
      "slow_transfers": n, "peers": [...],
      "duration_quantiles_s": {...}}].  Timestamps are integer
    microseconds; durations are seconds.  Non-integer numbers carry six
    significant digits; an infinite threshold is spelled [1e999] (see
    {!Tdat_json.Json.to_string}). *)

val to_json : Aggregate.report -> string
(** {!to_json_value} written by the codec, on one line. *)
