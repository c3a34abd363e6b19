(** One detected table transfer: the unit of the paper's Section-2
    measurement study.  A transfer is a burst of UPDATE messages from one
    peer, bounded by session events and quiet gaps (see {!Detect}). *)

type t = {
  source : string;  (** Archive file the transfer was found in; [""] for in-memory scans. *)
  peer_as : int;
  peer_ip : int32;
  start_ts : Tdat_timerange.Time_us.t;
      (** Session-establishment time when {!anchored}, else the first
          update of the burst. *)
  end_ts : Tdat_timerange.Time_us.t;  (** Last update of the burst. *)
  prefixes : int;  (** Announced prefixes (NLRI entries) in the burst. *)
  messages : int;  (** UPDATE messages in the burst. *)
  anchored : bool;
      (** The start is a real session event (BGP4MP_STATE_CHANGE to
          Established, or a received OPEN), not a gap heuristic. *)
}

val duration_s : t -> float

val rate : t -> float
(** Announced prefixes per second; [0.] for zero-duration transfers. *)

val compare : t -> t -> int
(** Total deterministic order: start time, then peer, end, source. *)

val pp_ip : Format.formatter -> int32 -> unit
(** Dotted-quad rendering of a (possibly negative) int32 address. *)

val pp : Format.formatter -> t -> unit
