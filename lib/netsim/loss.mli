(** Packet-loss models for links.

    A model is queried once per packet, in arrival order, and answers
    whether that packet is dropped.  Models are stateful (bursty loss
    needs memory) and deterministic given their RNG. *)

type t

val drop : t -> Tdat_timerange.Time_us.t -> bool
(** [drop m now]: decide the fate of a packet entering at [now]. *)

val none : t

val bernoulli : Tdat_rng.Rng.t -> float -> t
(** Independent loss with probability [p]. *)

val gilbert :
  Tdat_rng.Rng.t -> p_enter:float -> p_exit:float -> p_loss_bad:float -> t
(** Two-state Gilbert–Elliott model: lossless "good" state; "bad" bursts
    entered with [p_enter] per packet, left with [p_exit], dropping with
    [p_loss_bad] while inside.  Produces the consecutive-loss episodes of
    Section II-B2. *)

val bernoulli_during :
  Tdat_rng.Rng.t -> Tdat_timerange.Span_set.t -> float -> t
(** Random loss with probability [p], but only inside the given windows:
    a controlled congestion episode whose survivors still reach the
    sniffer (visible consecutive losses). *)

val combine : t -> t -> t
(** Drops when either model drops. *)
