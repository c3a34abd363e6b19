(** Human-readable rendering of analysis results: the per-connection
    report the T-DAT command-line tool prints, and the square-wave series
    view of Fig. 11 (the BGPlot role). *)

val to_string : Analyzer.t -> string

val stage_timing_table : Analyzer.t -> string
(** A per-stage wall-clock table (duration and share of the analyze
    span, plus the unattributed remainder) for an instrumented
    analysis; [""] when the analysis ran uninstrumented and recorded no
    timings.  [tdat check] appends it to each connection's audit
    report. *)

val series_timeline :
  ?width:int ->
  ?names:Series_defs.t list ->
  Series_gen.t ->
  string
(** ASCII square waves of the chosen series (default: the Fig. 11 set)
    over the analysis window. *)
