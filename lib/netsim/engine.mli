(** Discrete-event simulation engine.

    Single-threaded, deterministic: events at equal times fire in the
    order they were scheduled.  Time is {!Tdat_timerange.Time_us.t}. *)

type t

type timer
(** A handle to a scheduled event, cancellable (needed by TCP
    retransmission timers). *)

val create : unit -> t

val now : t -> Tdat_timerange.Time_us.t

val schedule_at : t -> Tdat_timerange.Time_us.t -> (unit -> unit) -> timer
(** @raise Invalid_argument when scheduling in the past. *)

val schedule_after : t -> Tdat_timerange.Time_us.t -> (unit -> unit) -> timer
(** [schedule_after t d f]: [f] runs at [now t + d]; [d >= 0]. *)

val cancel : timer -> unit
(** Idempotent; cancelling a fired timer is a no-op. *)

val run : ?until:Tdat_timerange.Time_us.t -> t -> unit
(** Processes events until the queue is empty or simulated time would
    exceed [until]. *)

(**/**)

(** Timer state, for tests of the event queue. *)
module Private : sig
  val is_pending : timer -> bool
end
