(* A resident job service: the bounded admission queue in front of the
   existing {!Pool} (DESIGN.md, "Service architecture").

   [Pool] is batch-oriented — one [map] at a time, caller participates —
   which fits the CLI but not a daemon that accepts work continuously.
   [Service] bridges the two: callers [submit] thunks into a bounded
   queue (admission control: a full queue rejects instead of growing,
   which is the daemon's 429), and a dedicated dispatcher domain drains
   the queue in batches through [Pool.map], so the worker domains, the
   chunking, the queue-wait/execute instrumentation and the determinism
   discipline all stay the pool's.

   Shutdown is graceful by construction: [drain] stops admissions,
   lets every accepted thunk run to completion, then joins the
   dispatcher and the pool.  No accepted job is ever dropped. *)

type outcome = Accepted | Rejected_full | Rejected_draining

(* Service instruments: all volatile — they measure offered load and
   queueing, properties of the request stream, not of any input
   capture. *)
module Obs = Tdat_obs.Metrics

let m_submitted = Obs.Counter.make ~stable:false "service.submitted"
let m_rejected = Obs.Counter.make ~stable:false "service.rejected_full"
let m_completed = Obs.Counter.make ~stable:false "service.completed"
let g_depth = Obs.Gauge.make ~stable:false "service.queue_depth"

let h_queue_wait =
  Obs.Histogram.make ~stable:false
    ~buckets:Obs.Histogram.time_us_buckets "service.queue_wait_us"

type job = {
  run : unit -> unit -> unit;
  enqueued_us : float;
  trace : string option;
}

type t = {
  m : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on drain *)
  idle : Condition.t;  (* signalled when a batch finishes or loop exits *)
  q : job Queue.t;
  capacity : int;
  mutable draining : bool;
  mutable stopped : bool;  (* dispatcher has exited *)
  mutable in_flight : int;
  pool : Pool.t;
  mutable dispatcher : unit Domain.t option;
}

let jobs t = Pool.jobs t.pool
let capacity t = t.capacity

let depth t =
  Mutex.lock t.m;
  let n = Queue.length t.q in
  Mutex.unlock t.m;
  n

let in_flight t =
  Mutex.lock t.m;
  let n = t.in_flight in
  Mutex.unlock t.m;
  n

(* One guarded thunk: a raising job must not poison its whole batch
   (Pool.map re-raises), so exceptions stop at the job boundary — the
   submitter is expected to encode failures into its own completion
   path (the serve layer turns them into error responses).  Returns the
   job's publication, which [Pool.map] runs once it has counted the job
   as completed. *)
let run_body job =
  (* The job's queue wait is only known once it starts, so it records
     retroactively as an "X" complete event — a B event with a past
     timestamp would break the nesting of spans already recorded on
     this worker domain.  Emitted inside the job's trace context so it
     joins the request's span tree. *)
  if Tdat_obs.Tracer.enabled () then
    Tdat_obs.Tracer.complete_span ~name:"service.queue_wait"
      ~begin_us:job.enqueued_us
      ~dur_us:(Tdat_obs.Clock.now_us () -. job.enqueued_us);
  let publish = try job.run () with _ -> ignore in
  Obs.Counter.incr m_completed;
  publish

let run_guarded job =
  match job.trace with
  | None -> run_body job
  | Some _ as trace ->
      Tdat_obs.Tracer.with_context trace (fun () -> run_body job)

let dispatcher_loop t =
  let batch = ref [] in
  let running = ref true in
  while !running do
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.draining do
      Condition.wait t.nonempty t.m
    done;
    if Queue.is_empty t.q then begin
      (* draining and nothing left: exit *)
      t.stopped <- true;
      Condition.broadcast t.idle;
      Mutex.unlock t.m;
      running := false
    end
    else begin
      (* Take the whole queue: admission control (the bounded queue)
         already caps the batch, and whole-queue batches make the
         backpressure boundary exact — a job is either running, queued,
         or rejected, never stuck behind an idle dispatcher. *)
      batch := [];
      while not (Queue.is_empty t.q) do
        batch := Queue.pop t.q :: !batch
      done;
      let jobs = List.rev !batch in
      t.in_flight <- List.length jobs;
      if Obs.enabled Obs.default then begin
        Obs.Gauge.set g_depth 0.;
        let now = Tdat_obs.Clock.now_us () in
        List.iter
          (fun j -> Obs.Histogram.observe h_queue_wait (now -. j.enqueued_us))
          jobs
      end;
      Mutex.unlock t.m;
      ignore
        (Pool.map
           ~on_done:(fun publish -> try publish () with _ -> ())
           t.pool run_guarded jobs
          : (unit -> unit) list);
      Mutex.lock t.m;
      t.in_flight <- 0;
      Condition.broadcast t.idle;
      Mutex.unlock t.m
    end
  done

let create ?jobs ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Service.create: capacity must be >= 1";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      q = Queue.create ();
      capacity;
      draining = false;
      stopped = false;
      in_flight = 0;
      pool = Pool.create ?jobs ();
      dispatcher = None;
    }
  in
  t.dispatcher <- Some (Domain.spawn (fun () -> dispatcher_loop t));
  t

let submit ?trace t run =
  Mutex.lock t.m;
  let outcome =
    if t.draining then Rejected_draining
    else if Queue.length t.q >= t.capacity then begin
      Obs.Counter.incr m_rejected;
      Rejected_full
    end
    else begin
      Queue.push { run; enqueued_us = Tdat_obs.Clock.now_us (); trace } t.q;
      Obs.Counter.incr m_submitted;
      Obs.Gauge.set g_depth (float_of_int (Queue.length t.q));
      Condition.signal t.nonempty;
      Accepted
    end
  in
  Mutex.unlock t.m;
  outcome

let drain t =
  Mutex.lock t.m;
  t.draining <- true;
  Condition.broadcast t.nonempty;
  while not t.stopped do
    Condition.wait t.idle t.m
  done;
  Mutex.unlock t.m;
  (match t.dispatcher with
  | Some d ->
      t.dispatcher <- None;
      Domain.join d
  | None -> ());
  Pool.shutdown t.pool
