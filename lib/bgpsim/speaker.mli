(** The sending BGP process of an operational router.

    Models the behaviours the paper traces back to senders:

    - {b Timer-driven pacing} (Section II-B1): a periodic timer fires and
      releases at most [quota] messages per tick — the undocumented
      implementation that leaves gaps in table transfers.  A generous
      quota hides the gaps; a small one makes them pronounced.
    - {b Peer groups} (Section II-B3): members share one replicated
      update queue; an entry is cleared only once {e every} live member
      has it acknowledged, and only [group_window] messages may be
      outstanding past the slowest member — the faster session proceeds
      in lockstep with the slower one.
    - {b Keepalive / hold timers}: keepalives flow when idle; a member
      whose acknowledgments stall for [hold_time] is declared failed and
      removed from the group, after which the survivors resume (the
      pathological blocking of Fig. 9 lasts exactly the hold time). *)

type t

type member

val create :
  engine:Tdat_netsim.Engine.t ->
  msgs:Tdat_bgp.Msg.t list ->
  ?timer_interval:Tdat_timerange.Time_us.t ->
  ?timer_jitter:Tdat_timerange.Time_us.t ->
  ?rng:Tdat_rng.Rng.t ->
  ?quota:int ->
  ?group_window:int ->
  ?keepalive_interval:Tdat_timerange.Time_us.t ->
  ?hold_time:Tdat_timerange.Time_us.t ->
  unit ->
  t
(** [msgs] is the table transfer (typically {!Tdat_bgp.Update_gen.pack} of a
    table).  [timer_interval = None] (default) approximates a greedy
    sender with a fine 5 ms tick and unlimited quota.  [group_window]
    defaults to 64 messages; [keepalive_interval] to 30 s; [hold_time]
    to 180 s. *)

val add_member : t -> Tdat_tcpsim.Sender.t -> member
(** Register a TCP session as a group member.  Call before {!start}. *)

val start : t -> unit
(** Arm the pacing timer; messages flow once senders establish. *)

val finished : member -> bool
(** All table messages written and acknowledged on this member. *)

val failed : member -> bool
val removal_time : member -> Tdat_timerange.Time_us.t option

