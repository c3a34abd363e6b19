(* A resident job service: a bounded admission queue and the worker
   domains that pull from it (DESIGN.md, "Service architecture").

   Callers [submit] thunks into the queue (admission control: a full
   queue rejects instead of growing, which is the daemon's 429).  Each
   of the [jobs] workers pops one job at a time under one
   Mutex/Condition pair, runs it, and loops, so a job waits only for a
   free worker, never for the slowest of the jobs queued before it.

   Shutdown is graceful by construction: [drain] stops admissions, the
   workers empty the queue and exit, and [drain] joins them.  No
   accepted job is ever dropped. *)

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

type job = { run : unit -> unit; enqueued_us : float; trace : string option }

type t = {
  m : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on drain *)
  q : job Queue.t;
  capacity : int;
  jobs : int;
  mutable draining : bool;
  mutable in_flight : int;  (* jobs running on a worker *)
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs
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

(* One guarded job: exceptions stop at the job boundary — the
   submitter is expected to encode failures into its own completion
   path (the serve layer turns them into error responses). *)
let run_body job =
  (* The job's queue wait is only known once it starts, so it records
     retroactively as an "X" complete event — a B event with a past
     timestamp would break the nesting of spans already recorded on
     this worker domain.  Emitted inside the job's trace context so it
     joins the request's span tree. *)
  let wait_us = Tdat_obs.Clock.now_us () -. job.enqueued_us in
  Obs.Histogram.observe h_queue_wait wait_us;
  if Tdat_obs.Tracer.enabled () then
    Tdat_obs.Tracer.complete_span ~name:"service.queue_wait"
      ~begin_us:job.enqueued_us ~dur_us:wait_us;
  (try job.run () with _ -> ());
  Obs.Counter.incr m_completed

let run_guarded job =
  match job.trace with
  | None -> run_body job
  | Some _ as trace ->
      Tdat_obs.Tracer.with_context trace (fun () -> run_body job)

(* Pop and run jobs until the service drains and the queue is empty.
   Called (and returns) with [t.m] held. *)
let rec work t =
  match Queue.take_opt t.q with
  | Some job ->
      t.in_flight <- t.in_flight + 1;
      Obs.Gauge.set g_depth (float_of_int (Queue.length t.q));
      Mutex.unlock t.m;
      run_guarded job;
      Mutex.lock t.m;
      t.in_flight <- t.in_flight - 1;
      work t
  | None when t.draining -> ()
  | None ->
      Condition.wait t.nonempty t.m;
      work t

let worker t =
  Mutex.lock t.m;
  work t;
  Mutex.unlock t.m

let create ?jobs ?(capacity = 64) () =
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  if jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  if capacity < 1 then invalid_arg "Service.create: capacity must be >= 1";
  let t =
    {
      m = Mutex.create ();
      nonempty = Condition.create ();
      q = Queue.create ();
      capacity;
      (* The runtime supports at most 128 simultaneous domains; leave
         head room for the caller and the daemon's event loop. *)
      jobs = min jobs 126;
      draining = false;
      in_flight = 0;
      workers = [];
    }
  in
  t.workers <- List.init t.jobs (fun _ -> Domain.spawn (fun () -> worker t));
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
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.m;
  List.iter Domain.join workers
