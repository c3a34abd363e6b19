(** The table-transfer detector: turns a per-archive stream of MRT
    entries into {!Transfer.t} records, reproducing the paper's
    Section-2 methodology over longitudinal update archives.

    Detection rules, per peer (identified by [(peer AS, peer IP)]):

    - A BGP4MP_STATE_CHANGE entering [Established] — or a received OPEN
      message, for archives without state-change records — {e anchors} a
      transfer: the transfer start is the session-establishment time, as
      in the paper (which uses the TCP connection start).  A second
      anchor while an anchored transfer is still empty is ignored (first
      anchor wins), so STATE_CHANGE followed by the archived OPEN does
      not reset the start.
    - A state change leaving [Established] (session reset), or a
      NOTIFICATION, closes the open transfer at its last update.
    - UPDATE messages accumulate into the open transfer; a quiet gap
      longer than [quiet_gap] closes it and starts a new {e unanchored}
      transfer whose start is its first update.
    - KEEPALIVEs are ignored: they neither extend nor split a transfer.
    - On close, bursts announcing fewer than [min_prefixes] NLRI
      entries are discarded as steady-state churn.  The count is the
      sum of every UPDATE's NLRI entries ({!Tdat_bgp.Msg.nlri_count}),
      so a prefix announced twice counts twice: 20 prefixes each
      announced twice make a 40-entry burst, which passes the default
      threshold of 32.

    Feed entries in archive order; the detector assumes per-peer
    timestamps are non-decreasing (MRT archives are written in arrival
    order). *)

type config = {
  quiet_gap : Tdat_timerange.Time_us.t;
      (** Silence that ends a transfer.  The default, 200 s, matches
          {!Tdat_bgp.Mct.default_config} for the same reason: it exceeds
          the usual BGP hold time, so a transfer paused by peer-group
          blocking still counts as one transfer. *)
  min_prefixes : int;
      (** Minimum announced prefixes for a burst to count as a table
          transfer (default 32, mirroring MCT's churn arming
          threshold). *)
}

val default_config : config

type t

val create : ?config:config -> ?source:string -> unit -> t
(** A fresh detector; [source] is stamped into emitted transfers. *)

val observe :
  t ->
  ts:Tdat_timerange.Time_us.t ->
  peer_as:int ->
  peer_ip:int ->
  kind:Tdat_bgp.Mrt.Kind.t ->
  nlri:int ->
  unit
(** Feed one archive record as the immediates
    {!Tdat_bgp.Mrt.fold_summary_file} passes: the peer's AS (at most 30
    bits; MRT BGP4MP records carry 16) and IPv4 address (an unsigned
    32-bit int), the record's kind and its announced-prefix count.
    Allocates nothing unless a peer is seen for the first time or a
    transfer is emitted. *)

val feed : t -> Tdat_bgp.Mrt.entry -> unit
(** {!observe} on a decoded entry: the same rule, for callers that hold
    entries (the serve daemon's study verb, {!Archive.scan_entries}). *)

val finish : t -> Transfer.t list
(** Closes every open transfer and returns all detected transfers in
    {!Transfer.compare} order.  The detector must not be fed
    afterwards. *)

val over_entries :
  ?config:config -> ?source:string -> Tdat_bgp.Mrt.entry list -> Transfer.t list
(** One-shot convenience: [create]/[feed]/[finish]. *)
