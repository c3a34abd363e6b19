(** Slow-request exemplar buffer.

    Keeps the K worst requests seen so far, worst first, each with its
    trace id, per-stage timings and the raw request JSON line, so a
    slow request in a long-running daemon stays explainable (and
    replayable) after the fact.

    Entries carry wall-clock durations, so everything here is
    {e volatile} in the {!Metrics} stable/volatile discipline. *)

type entry = {
  endpoint : string;  (** Protocol verb ("analyze", "study", ...). *)
  trace : string;  (** The request's trace id. *)
  duration_us : float;  (** Queue-wait + execution, microseconds. *)
  at_s : float;  (** Completion time, seconds since the epoch. *)
  stages : (string * float) list;
      (** Per-stage breakdown, [(stage, microseconds)]. *)
  request : string;  (** Raw request JSON line, replayable as-is. *)
}

type t

val create : capacity:int -> t
(** @raise Invalid_argument on a non-positive capacity. *)

val note : t -> entry -> unit
(** Offer an entry; it is kept only while it ranks among the K worst.
    Equal durations favor the newer entry. *)

val worst : t -> entry list
(** Current entries, worst first (at most [capacity]). *)

val count : t -> int

(**/**)

(** Reset, for tests of the slow-request buffer. *)
module Private : sig
  val clear : t -> unit
  (** Forget every entry (tests, or between benchmark phases). *)
end
