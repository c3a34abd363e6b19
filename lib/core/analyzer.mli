(** The full T-DAT pipeline (Fig. 10): pre-process → ACK-shift → series
    generation → delay factors → problem detectors.

    This is the main entry point of the library: give it a bidirectional
    packet trace of one BGP session and it explains where the table
    transfer's time went. *)

type problems = {
  timer : Detect_timer.result option;
  consecutive_losses : Detect_loss.result;
  peer_group_suspects : Detect_peer_group.suspect list;
  zero_ack_bug : Detect_zero_ack.result option;
}

type t = {
  profile : Conn_profile.t;    (** Pre-shift profile. *)
  shifted : Conn_profile.t;    (** After sniffer-location accommodation. *)
  shifts : Ack_shift.flight_shift list;
  transfer : Transfer_id.t option;
  series : Series_gen.t;       (** Generated over the transfer window. *)
  factors : Factors.result;
  problems : problems;
  audit : Tdat_audit.Diag.t list;
      (** Invariant-audit findings; empty unless [analyze ~audit:true]
          was requested (and empty then too on a healthy analysis). *)
  timings : (string * float) list;
      (** Wall-clock seconds per pipeline stage, in execution order
          (conn-profile, ack-shift, transfer-id, series-gen, factors,
          the four detectors).  Collected when the run is {e
          instrumented} — auditing, or the [Tdat_obs] tracer/metrics
          enabled — and empty otherwise, so an uninstrumented analysis
          never reads the clock. *)
  total_s : float;
      (** Wall-clock seconds for the whole stage pipeline (the span the
          stage durations must sum within — audit rule A006); [0.] when
          uninstrumented. *)
}

val analyze :
  ?config:Series_gen.config ->
  ?major_threshold:float ->
  ?mct:Tdat_bgp.Mct.config ->
  ?mrt:Tdat_bgp.Mrt.record list ->
  ?skip_shift:bool ->
  ?audit:bool ->
  Tdat_pkt.Trace.t ->
  flow:Tdat_pkt.Flow.t ->
  t
(** [analyze trace ~flow] runs the pipeline.  The analysis window is the
    identified table transfer when one is found, else the whole
    connection.  [skip_shift] (default false) bypasses ACK shifting — the
    right setting for sender-side traces, and a no-op there anyway.
    [audit] (default false) additionally runs every {!Tdat_audit.Checks}
    validator over the pipeline's intermediate state — span-set
    canonicality, input monotonicity and seq/ack sanity, ACK-shift
    conservation, factor accounting, stage-timing accounting (A006) —
    and records the findings in the [audit] field.

    Every stage runs under a [Tdat_obs.Span] (emitted to the Chrome
    tracer when enabled) and feeds per-stage duration histograms into
    the [Tdat_obs.Metrics] default registry when metrics collection is
    on. *)

val analyze_all :
  ?config:Series_gen.config ->
  ?major_threshold:float ->
  ?mct:Tdat_bgp.Mct.config ->
  ?mrt:Tdat_bgp.Mrt.record list ->
  ?audit:bool ->
  ?jobs:int ->
  Tdat_pkt.Trace.t ->
  (Tdat_pkt.Flow.t * t) list
(** Extract every connection in the trace in one pass
    ({!Tdat_pkt.Trace.connection_subtraces}, each sub-trace gathered
    when its connection is analyzed), orient each by byte volume over
    its own packets, and analyze it.  Connections are
    analyzed on [jobs] domains (default
    [Domain.recommended_domain_count ()]; [1] = fully sequential, no
    domains spawned).  The result is deterministic and identical for
    every [jobs] value: connections stay in first-appearance order and
    each analysis is a pure function of its sub-trace. *)
