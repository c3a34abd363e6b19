(** Generation of the 34 event series from a (shifted) connection profile
    — the analytical core of T-DAT (Section III-C).

    The driving idea: the {e Transmission} series occupies an
    insignificant part of the transfer; the job is to explain the
    inter-transmission gaps.  Each gap between consecutive data packets
    is split and attributed by what the sender was provably waiting for:

    - outstanding data pending and the advertised window nearly full →
      bounded by the receiver window ({e AdvBndOut}, refined into
      small / large / zero window);
    - outstanding data pending with window room to spare, and
      transmission resuming as acknowledgments arrive → bounded by the
      congestion window ({e CwndBndOut});
    - nothing outstanding, window open, yet the sender stays silent →
      the sending application has nothing to send ({e SendAppLimited} —
      in BGP, the sending router's BGP process);
    - loss-recovery episodes (from the labeling pass) override the
      above for their duration ({e Upstream}/{e DownstreamLoss}).

    All series are clipped to the analysis window. *)

type config = {
  sniffer_location : [ `Near_sender | `Near_receiver ];
      (** Interpretation of loss locality (Section III-C2).  The paper's
          datasets are all [`Near_receiver]. *)
  small_window_mss : int;  (** "Small" window threshold, in MSS (3). *)
  bound_gap_mss : int;
      (** Outstanding counts as window-bounded when the window exceeds it
          by less than this many MSS (3). *)
  app_limit_epsilon : Tdat_timerange.Time_us.t;
      (** Sender silences shorter than this are not counted as
          application-limited (2 ms). *)
  keepalive_max_size : int;
      (** Data packets up to this payload are keepalive-sized (100 B). *)
  keepalive_min_idle : Tdat_timerange.Time_us.t;
      (** Minimum update-free period for a KeepaliveOnly event (25 s). *)
  idle_gap_min : Tdat_timerange.Time_us.t;  (** IdleGap threshold (1 s). *)
  bandwidth_run : int;
      (** Minimum back-to-back packets for a BandwidthBound run (20). *)
}

val default_config : config

type t

val generate :
  ?config:config ->
  ?window:Tdat_timerange.Span.t ->
  Conn_profile.t ->
  t
(** [generate profile] builds the full registry.  [window] defaults to
    the profile's own analysis window (pass the MCT-derived table
    transfer span to restrict the analysis period).  The profile should
    already be ACK-shifted when the sniffer is not at the sender. *)

val events : t -> Series_defs.t -> int Tdat_timerange.Series.t
(** The series' events; payloads are bytes (loss, data), window sizes
    (window series) or packet counts, depending on the series. *)

val spans : t -> Series_defs.t -> Tdat_timerange.Span_set.t
(** Canonical span-set of the series (cached). *)

val size : t -> Series_defs.t -> Tdat_timerange.Time_us.t
val ratio : t -> Series_defs.t -> float
(** [size series / analysis period] — the delay ratio. *)

val window : t -> Tdat_timerange.Span.t
val profile : t -> Conn_profile.t

val union_spans : t -> Series_defs.t list -> Tdat_timerange.Span_set.t
val ratio_of_spans : t -> Tdat_timerange.Span_set.t -> float

(** {2 User-defined series}

    "T-DAT allows users to construct additional series for their
    specific needs" (Section III-C): named derived series built with the
    same set algebra as the built-in stage-4 series, stored in the same
    registry, quantified with the same delay-ratio measure.  The
    cross-connection queries of Section IV-B
    ([Quagga.SendAppLimited ∩ Vendor.Loss]) are one [define] away. *)

val custom : t -> string -> Tdat_timerange.Span_set.t option
val custom_names : t -> string list

(**/**)

(** Registration of a user-defined series, for tests of the custom-series
    registry that {!custom} and {!custom_names} read. *)
module Private : sig
  val define : t -> name:string -> Tdat_timerange.Span_set.t -> unit
  (** Register a custom series under [name] (clipped to the analysis
      window).  Redefinition replaces. *)
end
