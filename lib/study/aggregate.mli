(** The longitudinal aggregator: fold many archive files — farmed over
    {!Tdat_parallel.Pool} — into the paper's Section-2 deliverables:
    duration/size CDFs, slow-transfer classification, and per-peer
    summaries.  Results are deterministic in the input file order, so
    the rendered report is byte-identical for every [~jobs] value. *)

type peer_summary = {
  peer_as : int;
  peer_ip : int32;
  transfers : int;
  anchored : int;
  slow : int;
  prefixes_total : int;
  duration : Tdat_stats.Descriptive.summary;  (** Seconds. *)
}

type report = {
  files : Archive.file_report list;  (** Input order. *)
  transfers : Transfer.t list;  (** All files, {!Transfer.compare} order. *)
  slow_threshold_s : float;
      (** The classification cut actually used; [nan] with no
          transfers. *)
  threshold_auto : bool;
      (** [true]: mean + 3·stddev (the paper's Section II-B cut);
          [false]: caller-fixed. *)
  slow : Transfer.t list;  (** Transfers with duration above the cut. *)
  duration_knee_s : float option;
      (** L-method knee of the sorted duration curve, when the curve
          has enough points. *)
  peers : peer_summary list;  (** Sorted by (AS, IP). *)
}

val check_seconds : positive:bool -> float -> (float, string) result
(** The one check on a user-supplied number of seconds, shared by the
    command line's converters and the daemon's request parser, with the
    reason on [Error].  [~positive:true] (a quiet gap, a poll interval):
    from 1e-06 to 4e12, so that {!Tdat_timerange.Time_us.of_s} counts
    at least one microsecond and stays within the int range.
    [~positive:false] (a fixed slow-transfer threshold): not NaN and at
    least 0; [infinity] is allowed and classifies nothing as slow. *)

val of_reports : ?slow_threshold_s:float -> Archive.file_report list -> report
(** Pure aggregation of already-scanned files. *)

val run :
  ?jobs:int ->
  ?strict:bool ->
  ?config:Detect.config ->
  ?slow_threshold_s:float ->
  string list ->
  report
(** [run paths] scans every archive ([jobs] worker domains; default 1)
    and aggregates.  File order — and therefore the report — is
    independent of [jobs]. *)
