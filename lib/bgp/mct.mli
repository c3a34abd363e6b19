(** Minimum Collection Time: locating the end of a BGP table transfer in
    an update stream (Zhang et al., MineNet 2005, as adapted in the
    paper's Section II-A).

    The paper uses the TCP connection start as the transfer start and
    runs MCT only to estimate the end.  The key property of a table
    transfer is that each prefix is announced (at most) once; once the
    dump is over, subsequent updates are steady-state churn that
    re-announces already-seen prefixes or follows a long silence. *)

type config = {
  dup_fraction : float;
      (** An update whose announced prefixes are already-seen in at least
          this fraction is treated as post-transfer churn (default 0.5). *)
  min_seen : int;
      (** Churn detection only arms after this many distinct prefixes
          (default 32) so an early duplicate cannot truncate the
          transfer. *)
  quiet_gap : Tdat_timerange.Time_us.t;
      (** Silence longer than this ends the transfer.  The default, 200 s,
          deliberately exceeds the usual BGP hold time so that a transfer
          paused by peer-group blocking (Fig. 9) still counts as one
          transfer, as in the paper's Table V. *)
}

type result = {
  end_ts : Tdat_timerange.Time_us.t;  (** Timestamp of the last update of the transfer. *)
  prefixes : int;                     (** Distinct prefixes collected. *)
  updates : int;                      (** Updates attributed to the transfer. *)
}

val transfer_end :
  ?config:config ->
  start:Tdat_timerange.Time_us.t ->
  (Tdat_timerange.Time_us.t * Prefix.t list) list ->
  result option
(** [transfer_end ~start updates] scans timestamped announcement batches
    (in time order; entries before [start] are skipped) and returns the
    inferred transfer end, or [None] if no update follows [start].  A
    batch with no prefixes is skipped like one before [start], as the
    streaming scan skips an UPDATE with an empty NLRI; callers pass
    only UPDATEs that announce something. *)

val transfer_end_of_reasm :
  ?config:config ->
  start:Tdat_timerange.Time_us.t ->
  Stream_reassembly.t ->
  result option
(** Streaming equivalent of {!transfer_end} over the announcements of
    the messages {!Msg_reader.extract} would decode from [reasm]: one
    pass over the contiguous stream, validating messages exactly as the
    decoder would and feeding announced prefixes, packed as ints, to the
    same decision rule — no intermediate messages, prefix values, or
    lists are built, and each prefix costs one probe of a seen set
    drawn from the domain's scratch arena.  The answer is identical to
    extract-then-scan (checked against a frozen copy of the list
    pipeline by the decode-equivalence tests). *)

(**/**)

(** The two scans with the number of batch tags of the seen set as a
    parameter ([max_tag] >= 2; the public scans use every tag the bits
    above a packed prefix hold), the streaming scan's NLRI key, and the
    default configuration the tests vary.  Tests only: a small
    [max_tag] makes the set run out of tags and re-tag within a few
    batches. *)
module Private : sig
  val default_config : config

  val transfer_end :
    max_tag:int ->
    ?config:config ->
    start:Tdat_timerange.Time_us.t ->
    (Tdat_timerange.Time_us.t * Prefix.t list) list ->
    result option

  val transfer_end_of_reasm :
    max_tag:int ->
    ?config:config ->
    start:Tdat_timerange.Time_us.t ->
    Stream_reassembly.t ->
    result option

  val pack_at : Bytes.t -> int -> int -> int
  (** [pack_at buf p plen] is the streaming scan's packed key of the
      NLRI entry whose length byte [plen <= 32] sits at [buf.[p]] and
      whose address bytes lie inside [buf]. *)
end
