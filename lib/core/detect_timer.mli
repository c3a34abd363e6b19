(** BGP timer-gap detection (Section IV-B, Fig. 17).

    Takes the SendAppLimited series — the periods the sending BGP process
    stayed idle — and looks for a knee in the gap-length distribution: a
    repetitive implementation timer shows up as a cluster of nearly-equal
    gaps, and the knee of the sorted-gap curve sits at the timer value. *)

type result = {
  timer : Tdat_timerange.Time_us.t;  (** Inferred timer period. *)
  gaps : int;                        (** Gaps attributed to the timer. *)
  induced_delay : Tdat_timerange.Time_us.t;
      (** Total idle time those gaps inject into the transfer. *)
}

val detect :
  ?min_gap:Tdat_timerange.Time_us.t ->
  ?max_gap:Tdat_timerange.Time_us.t ->
  ?min_count:int ->
  ?cluster_fraction:float ->
  Series_gen.t ->
  result option
(** [detect gen] returns the pronounced timer, if any.  A timer is
    pronounced when at least [min_count] (default 10) gaps fall in
    [\[min_gap, max_gap\]] (defaults 20 ms and 2 s) and at least
    [cluster_fraction] (default 0.5) of them lie within ±15% of the
    knee value. *)

val gap_distribution : Series_gen.t -> float list
(** Sorted gap lengths (seconds) — the curve of Fig. 17. *)

(**/**)

(** The gap finder behind the timer detector, for tests that compare it
    with the reference copy. *)
module Private : sig
  val detect_gaps :
    ?min_gap:Tdat_timerange.Time_us.t ->
    ?max_gap:Tdat_timerange.Time_us.t ->
    ?min_count:int ->
    ?cluster_fraction:float ->
    Tdat_timerange.Time_us.t array ->
    result option
  (** [detect_gaps gaps] is {!detect} over raw gap lengths (positive, in
      any order; [gaps] is not modified): [detect gen] runs it on the
      lengths of [gen]'s SendAppLimited events.  The in-range gaps are
      sorted as ints, and the cluster is the run of the sorted gaps within
      ±15% of the knee.  O(n log n) in the gap count. *)
end
