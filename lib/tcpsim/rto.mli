(** Retransmission-timeout estimation: Jacobson/Karels smoothed RTT with
    Karn's rule (callers must not feed samples from retransmitted
    segments), exponential backoff on successive timeouts. *)

type t

val create :
  min_rto:Tdat_timerange.Time_us.t ->
  max_rto:Tdat_timerange.Time_us.t ->
  backoff_factor:float ->
  t

val sample : t -> Tdat_timerange.Time_us.t -> unit
(** Feed one round-trip measurement; resets any backoff. *)

val current : t -> Tdat_timerange.Time_us.t
(** The RTO to arm now, clamped to [min_rto, max_rto], including any
    accumulated backoff.  Before the first sample: [3 s * backoff]. *)

val backoff : t -> unit
val reset_backoff : t -> unit
