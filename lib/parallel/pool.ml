(* A hand-rolled Domain worker pool: a chunked index queue under one
   Mutex/Condition pair.  Results land by input index, so the output
   order never depends on scheduling; the memory model is respected
   because every result write is ordered before the completion-counter
   update under [mutex], which the consumer reads under the same mutex
   before touching the results array.

   The pool is self-measuring (DESIGN.md, "Observability"): batch/job
   counters are stable metrics (identical for every [jobs] value),
   while chunk queue-wait and execute histograms and per-worker busy
   gauges — wall-clock, scheduling-dependent — are volatile.  Together
   they decompose a batch's wall time into synchronization overhead
   and compute, which is exactly the jobs>1-on-few-cores regression
   BENCH_SPEED.json records.  All of it costs one atomic load per
   event while metrics are disabled. *)

module Obs = Tdat_obs.Metrics

let m_batches = Obs.Counter.make "pool.batches"
let m_submitted = Obs.Counter.make "pool.jobs_submitted"
let m_completed = Obs.Counter.make "pool.jobs_completed"

let h_queue_wait =
  Obs.Histogram.make ~stable:false ~buckets:Obs.Histogram.time_us_buckets
    "pool.chunk_queue_wait_us"

let h_execute =
  Obs.Histogram.make ~stable:false ~buckets:Obs.Histogram.time_us_buckets
    "pool.chunk_execute_us"

let rec atomic_float_add a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_float_add a x

(* One in-flight batch.  [run i] executes item [i] and must not raise
   (map wraps the user function; exceptions are captured out of band). *)
type batch = {
  run : int -> unit;
  total : int;
  chunk : int;
  submitted_us : float;  (* wall clock at submission, for queue-wait *)
  mutable next : int;  (* next index to hand out *)
  mutable completed : int;
}

type t = {
  pool_jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;  (* a batch arrived, or shutdown *)
  batch_done : Condition.t;      (* the current batch completed *)
  busy_us : float Atomic.t array;  (* cumulative execute time per executor *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Execute one chunk outside the mutex, recording queue-wait and
   execute time for executor [widx] when metrics are on. *)
let exec_chunk t ~widx b lo hi =
  let obs = Obs.enabled Obs.default in
  let t0 = if obs then Tdat_obs.Clock.now_us () else 0. in
  if obs then Obs.Histogram.observe h_queue_wait (t0 -. b.submitted_us);
  Tdat_obs.Span.with_ ~name:"pool-chunk" (fun () ->
      for i = lo to hi - 1 do
        b.run i
      done);
  if obs then begin
    let dt = Tdat_obs.Clock.now_us () -. t0 in
    Obs.Histogram.observe h_execute dt;
    atomic_float_add t.busy_us.(widx) dt
  end

(* Pull chunks of [b] until its queue is empty.  Called (and returns)
   with [t.mutex] held. *)
let drain t ~widx b =
  while b.next < b.total do
    let lo = b.next in
    let hi = min b.total (lo + b.chunk) in
    b.next <- hi;
    Mutex.unlock t.mutex;
    exec_chunk t ~widx b lo hi;
    Mutex.lock t.mutex;
    b.completed <- b.completed + (hi - lo);
    if b.completed >= b.total then begin
      t.batch <- None;
      Condition.broadcast t.batch_done
    end
  done

let worker t ~widx =
  Mutex.lock t.mutex;
  let running = ref true in
  while !running do
    match t.batch with
    | Some b when b.next < b.total -> drain t ~widx b
    | Some _ | None ->
        if t.stop then running := false
        else Condition.wait t.work_available t.mutex
  done;
  Mutex.unlock t.mutex

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create: jobs (%d) must be >= 1" jobs);
  (* The runtime supports at most 128 simultaneous domains; leave head
     room for the caller and whatever else the process runs. *)
  let jobs = min jobs 126 in
  let t =
    {
      pool_jobs = jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      busy_us = Array.init jobs (fun _ -> Atomic.make 0.);
      batch = None;
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker t ~widx:i));
  t

let jobs t = t.pool_jobs

(* Publish per-worker busy time (cumulative over the pool's lifetime;
   the caller is the last executor index) as volatile gauges. *)
let publish_busy t =
  if Obs.enabled Obs.default then
    Array.iteri
      (fun i busy ->
        let g =
          (* Templated over the worker index — one gauge per domain. *)
          (Obs.Gauge.make ~stable:false
             (Printf.sprintf "pool.worker%d.busy_us" i)
           [@tdat.lint.allow "L011"])
        in
        Obs.Gauge.set g (Atomic.get busy))
      t.busy_us

let map t f xs =
  if t.stop then invalid_arg "Pool.map: pool is shut down";
  match xs with
  | [] -> []
  | xs when t.pool_jobs = 1 || List.compare_length_with xs 2 < 0 ->
      let n = List.length xs in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_submitted n;
      (* The documented degenerate mode IS List.map: the allocation is
         exactly the result list the caller asked for. *)
      (List.map
         (fun x ->
           let y = f x in
           Obs.Counter.incr m_completed;
           y)
         xs [@tdat.lint.allow "L009"])
  | xs ->
      let input = Array.of_list xs in
      let n = Array.length input in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_submitted n;
      let results = Array.make n None in
      let error = Atomic.make None in
      let run i =
        match
          let y = f input.(i) in
          results.(i) <- Some y;
          Obs.Counter.incr m_completed
        with
        | () -> ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            (* Keep the first failure; later ones add no information. *)
            ignore (Atomic.compare_and_set error None (Some (e, bt)))
      in
      (* Chunk size trades balance against synchronization: each dequeue
         costs a mutex round-trip, so the queue-wait histogram should
         stay well under the execute histogram.  Four chunks per
         executor keeps heavyweight, unevenly-sized tasks (whole
         connection analyses) balanced while roughly halving the number
         of dequeues the old jobs*8 split paid — with per-connection
         analyses in the 1-10 ms range that keeps each dequeue amortized
         over ~10 ms of execute. *)
      let chunk = max 1 (n / (t.pool_jobs * 4)) in
      let b =
        {
          run;
          total = n;
          chunk;
          submitted_us = Tdat_obs.Clock.now_us ();
          next = 0;
          completed = 0;
        }
      in
      Mutex.lock t.mutex;
      while Option.is_some t.batch do
        Condition.wait t.batch_done t.mutex
      done;
      t.batch <- Some b;
      Condition.broadcast t.work_available;
      (* The caller is the jobs-th executor. *)
      drain t ~widx:(t.pool_jobs - 1) b;
      while b.completed < b.total do
        Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex;
      publish_busy t;
      (match Atomic.get error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list (Array.map Option.get results)

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

module Private = struct
  let create = create
  let jobs = jobs
  let shutdown = shutdown
end
