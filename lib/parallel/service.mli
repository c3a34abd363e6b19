(** A resident job service: a bounded admission queue and [jobs] worker
    domains that pull from it.

    A long-running daemon needs to accept work continuously and push
    back when overloaded.  Each worker pops one job at a time, runs it
    and loops, so [jobs] jobs run at once and a queued job starts as
    soon as any worker is free.  A submission beyond [capacity]
    unstarted jobs is rejected, which is the admission-control signal
    the serve daemon turns into a 429-style busy response.

    Thunks must not rely on raising: a job's exception is swallowed at
    the job boundary; encode failures into the job's own completion
    path.

    When {!Tdat_obs.Metrics} collection is enabled the service reports
    volatile [service.submitted] / [service.rejected_full] /
    [service.completed] counters, a [service.queue_depth] gauge and a
    [service.queue_wait_us] histogram. *)

type t

type outcome =
  | Accepted  (** Queued; the job will run exactly once. *)
  | Rejected_full  (** Queue at capacity — shed load and retry later. *)
  | Rejected_draining  (** {!drain} already started; no new work. *)

val create : ?jobs:int -> ?capacity:int -> unit -> t
(** [create ~jobs ~capacity ()] starts [jobs] worker domains (default
    [Domain.recommended_domain_count ()]; values above 126 are
    clamped).  [capacity] (default 64) bounds the number of
    queued-but-not-yet-running jobs.
    @raise Invalid_argument if [jobs < 1] or [capacity < 1]. *)

val submit : ?trace:string -> t -> (unit -> unit) -> outcome
(** Non-blocking admission.  Safe to call from any domain.

    With [trace], the worker runs the job inside
    {!Tdat_obs.Tracer.with_context}[ (Some trace)], and (when tracing
    is enabled) records the job's queue wait as a [service.queue_wait]
    complete event spanning enqueue to execution start — so the span
    tree a traced job emits is connected to its request. *)

val jobs : t -> int
val capacity : t -> int

val depth : t -> int
(** Jobs queued and not yet started (at most {!capacity}). *)

val in_flight : t -> int
(** Jobs running on a worker (at most {!jobs}). *)

val drain : t -> unit
(** Graceful shutdown: stop admitting, let the workers run every
    accepted job to completion, then join them.  No accepted job is
    dropped.  A second call returns immediately. *)
