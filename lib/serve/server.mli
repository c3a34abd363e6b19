(** The [tdat serve] daemon: a line-delimited JSON protocol (see
    {!Protocol}) over a Unix-domain or TCP socket, analysis verbs
    executed by {!Tdat_parallel.Service} workers that pull from a
    bounded admission queue, [analyze] and [check] answers cached per
    {!Cache}.  See DESIGN.md, "Service architecture". *)

type address = [ `Unix of string | `Tcp of string * int ]
(** [`Tcp (host, 0)] binds an ephemeral port; {!address} reports the
    one actually bound. *)

type config = {
  address : address;
  jobs : int;  (** Worker domains: jobs that run at once. *)
  queue_capacity : int;
      (** Unstarted jobs the queue holds (429 beyond it). *)
}
(** Fixed for every daemon: a 1 MiB request-line limit, a 12-slot × 5 s
    rolling latency window per endpoint, 8 slow-request exemplars, 256
    cached answers. *)

type t

val start : config -> t
(** Bind, spawn the event-loop domain, return immediately.  Sets the
    process's SIGPIPE disposition to ignore, so a write to a peer that
    can no longer receive fails with EPIPE and drops only that
    connection.
    @raise Invalid_argument on [jobs < 1] or an unresolvable host;
    @raise Unix.Unix_error when the address cannot be bound. *)

val address : t -> address
(** The address actually bound (resolves an ephemeral TCP port). *)

val stop : t -> unit
(** Begin the graceful drain: stop accepting connections and jobs
    (new jobs answer 503), run every accepted job to completion, flush
    every response, then join the workers.  Returns immediately;
    {!wait} observes completion.  Safe from any domain and from a
    signal handler; idempotent. *)

val wait : t -> unit
(** Join the event loop (blocks until a drain completes). *)
