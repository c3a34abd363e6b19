(** Runtime invariant validators for the T-DAT pipeline.

    Each validator re-derives an invariant the event-series algebra
    assumes and returns structured {!Diag.t} findings (empty list = the
    invariant holds).  The codes:

    - [A001] — span-set canonicality: spans sorted by start, pairwise
      disjoint and non-adjacent (Section III-A's "ordered set of time
      durations" is only well-defined on the canonical form);
    - [A002] — trace timestamp monotonicity: segments in non-decreasing
      time order;
    - [A003] — seq/ack sanity: no negative sequence/ack/length/window
      fields, and the cumulative acknowledgment never regresses within
      one direction;
    - [A004] — ACK-shift conservation: shifting re-times segments but
      must not create, drop, or mutate them, and may only move them
      forward;
    - [A005] — factor accounting: every delay ratio lies in [0, 1] and
      every series size is bounded by the analysis period;
    - [A006] — stage-timing accounting: every recorded pipeline-stage
      duration is finite and non-negative, and the stage durations sum
      to no more than the enclosing analyze span (the stages are
      measured as nested windows of one clock, so an overrun means the
      instrumentation itself is lying);
    - [A007] — cross-[--jobs] determinism: the stable section of a
      metrics snapshot is byte-identical whatever [--jobs] value
      produced it — the runtime backstop for lint rule L007's static
      reachability approximation.

    [Analyzer.analyze ~audit:true] runs all of them over a full analysis;
    [tdat_cli check] exposes them on the command line
    ([--verify-determinism] adds A007). *)

val canonical_set :
  ?subject:string -> Tdat_timerange.Span_set.t -> Diag.t list
(** [A001] on a built set: validates the exported list form. *)

val monotone_times :
  ?subject:string -> Tdat_timerange.Time_us.t array -> Diag.t list
(** [A002]: timestamps non-decreasing. *)

val seq_ack_sane :
  ?subject:string -> Tdat_pkt.Trace.t -> int array -> Diag.t list
(** [A003] on the trace's packets at the given indices: field sanity on
    every one, plus per-direction cumulative ACK monotonicity (a
    regression is a {!Diag.Warning} — packet reordering at the sniffer
    can legitimately produce one). *)

val ack_shift_conserved :
  ?subject:string ->
  Tdat_pkt.Trace.t ->
  before:int array * Tdat_timerange.Time_us.t array ->
  after:int array * Tdat_timerange.Time_us.t array ->
  unit ->
  Diag.t list
(** [A004] on (packet indices into the trace, times) columns: [after]
    must hold exactly the packets of [before] — none gained, lost or
    swapped for another — each at a time moved forward or kept. *)

val ratios_in_range : ?subject:string -> (string * float) list -> Diag.t list
(** [A005] on named delay ratios: finite and within [0, 1]. *)

val sizes_bounded :
  ?subject:string ->
  period:Tdat_timerange.Time_us.t ->
  (string * Tdat_timerange.Time_us.t) list ->
  Diag.t list
(** [A005] on named series sizes: non-negative and at most the analysis
    period. *)

val stage_timings :
  ?subject:string -> total_s:float -> (string * float) list -> Diag.t list
(** [A006] on named stage durations (seconds): finite, non-negative,
    and summing to at most [total_s] plus measurement noise.  An empty
    timing list (uninstrumented run) passes vacuously. *)

val stable_snapshots_equal :
  ?subject:string -> reference:string -> candidate:string -> unit -> Diag.t list
(** [A007]: byte-compare two
    [Tdat_obs.Metrics.snapshot_json ~stable_only:true] strings, the
    reference from a [jobs = 1] run and the candidate from a [jobs > 1]
    run of the same input.  A divergence (reported with the offset and
    both excerpts) means a jobs-dependent value leaked into a stable
    instrument or worker-shared mutable state raced — the dynamic
    failure mode lint rule L007 approximates statically. *)

(**/**)

(** The span-canonicity check behind A001, for tests that feed it hand-
    built span lists. *)
module Private : sig
  val canonical_spans :
    ?subject:string -> Tdat_timerange.Span.t list -> Diag.t list
  (** [A001] on a raw span list (what {!Tdat_timerange.Span_set.to_list}
      of a well-formed set must look like). *)
end
