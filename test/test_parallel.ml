(* The Domain worker pool behind fleet analysis: deterministic result
   ordering, exception capture/re-raise, the jobs=1 degenerate case, and
   pool reuse across batches. *)

open Tdat_parallel

(* Uneven, index-dependent busy work so completion order differs from
   input order whenever the pool really runs concurrently. *)
let lopsided i =
  let acc = ref 0 in
  for k = 0 to (i mod 7) * 2_000 do
    acc := !acc + k
  done;
  (i * i) + (!acc * 0)

let test_map_matches_sequential () =
  let xs = List.init 500 Fun.id in
  let expected = List.map lopsided xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d equals List.map" jobs)
            expected (Pool.map pool lopsided xs)))
    [ 1; 2; 4; 8 ]

let test_map_preserves_order_not_completion_order () =
  (* Map to (index, value) pairs: ordering must follow input indices. *)
  let xs = List.init 100 (fun i -> 99 - i) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let out = Pool.map pool (fun x -> (x, lopsided x)) xs in
      Alcotest.(check (list int)) "first components in input order" xs
        (List.map fst out))

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "exception re-raised in caller" (Boom 17)
        (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i = 17 then raise (Boom 17) else lopsided i)
               (List.init 64 Fun.id)));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "pool usable after failure" [ 2; 4; 6 ]
        (Pool.map pool (fun i -> 2 * i) [ 1; 2; 3 ]))

let test_exception_propagates_sequentially () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.check_raises "jobs=1 re-raises too" (Boom 3) (fun () ->
          ignore
            (Pool.map pool
               (fun i -> if i = 3 then raise (Boom 3) else i)
               [ 1; 2; 3; 4 ])))

let test_degenerate_and_edges () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs=1 reported" 1 (Pool.Private.jobs pool);
      Alcotest.(check (list int)) "jobs=1 maps" [ 1; 4; 9 ]
        (Pool.map pool (fun x -> x * x) [ 1; 2; 3 ]));
  Pool.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int)) "empty input" []
        (Pool.map pool (fun x -> x) []);
      Alcotest.(check (list string)) "singleton input" [ "a" ]
        (Pool.map pool String.lowercase_ascii [ "A" ]);
      Alcotest.(check (list int)) "more jobs than items" [ 0; 1; 2 ]
        (Pool.map pool Fun.id [ 0; 1; 2 ]))

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let xs = List.init (20 * round) Fun.id in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map lopsided xs)
          (Pool.map pool lopsided xs)
      done)

let test_invalid_jobs_and_shutdown () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs (0) must be >= 1") (fun () ->
      ignore (Pool.Private.create ~jobs:0 ()));
  let pool = Pool.Private.create ~jobs:2 () in
  Alcotest.(check (list int)) "works before shutdown" [ 1 ]
    (Pool.map pool Fun.id [ 1 ]);
  Pool.Private.shutdown pool;
  Pool.Private.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown rejected"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool Fun.id [ 1; 2 ]))

let test_default_jobs_sane () =
  let d = Pool.default_jobs () in
  Alcotest.(check bool) "default >= 1" true (d >= 1);
  Pool.with_pool (fun pool ->
      Alcotest.(check int) "pool takes the default" d (Pool.Private.jobs pool))

(* --- Scratch: reentrancy fallback and geometric growth ------------------ *)

let with_metrics f =
  let reg = Tdat_obs.Metrics.default in
  let was = Tdat_obs.Metrics.enabled reg in
  Tdat_obs.Metrics.set_enabled reg true;
  Fun.protect
    ~finally:(fun () -> Tdat_obs.Metrics.set_enabled reg was)
    f

let fallbacks () =
  match
    Tdat_obs.Metrics.find_counter Tdat_obs.Metrics.default
      "scratch.fallbacks"
  with
  | Some c -> Tdat_obs.Metrics.Counter.value c
  | None -> Alcotest.fail "scratch.fallbacks counter not registered"

let test_scratch_reentrant_fallback () =
  with_metrics @@ fun () ->
  let before = fallbacks () in
  Scratch.with_bytes ~slot:0 64 (fun outer ->
      let outer_buf = outer.Scratch.buf in
      Scratch.with_bytes ~slot:0 64 (fun inner ->
          (* The nested checkout of a busy slot must get its own
             transient buffer, never alias the outer one. *)
          Alcotest.(check bool)
            "fallback buffer is distinct" false
            (inner.Scratch.buf == outer_buf);
          Bytes.fill inner.Scratch.buf 0 64 'x');
      Alcotest.(check bool)
        "outer buffer untouched by fallback" false
        (Bytes.sub_string outer_buf 0 64 = String.make 64 'x'));
  Alcotest.(check bool)
    "reentrant checkout was counted" true
    (fallbacks () > before);
  (* Same accounting for the int-array flavor. *)
  let before = fallbacks () in
  Scratch.with_ints ~slot:0 8 (fun _outer ->
      Scratch.with_ints ~slot:0 8 (fun inner -> inner.(0) <- 1));
  Alcotest.(check bool)
    "with_ints fallback counted" true
    (fallbacks () > before)

let test_scratch_geometric_growth () =
  (* Growing a kept buffer byte-by-byte must reallocate O(log n)
     times, not once per request. *)
  Scratch.with_bytes ~slot:2 16 (fun cell ->
      let copies = ref 0 in
      let last = ref (Bytes.length cell.Scratch.buf) in
      for n = 1 to 100_000 do
        let b = Scratch.ensure_keep cell n in
        if Bytes.length b <> !last then begin
          incr copies;
          Alcotest.(check bool)
            "each growth at least doubles" true
            (Bytes.length b >= 2 * !last);
          last := Bytes.length b
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "O(log n) reallocations (saw %d)" !copies)
        true (!copies <= 20));
  (* Contents survive the growth. *)
  Scratch.with_bytes ~slot:2 4 (fun cell ->
      Bytes.blit_string "abcd" 0 cell.Scratch.buf 0 4;
      let grown = Scratch.ensure_keep cell 1_000 in
      Alcotest.(check string)
        "prefix preserved" "abcd"
        (Bytes.sub_string grown 0 4))

(* --- Service: the bounded admission queue ------------------------------- *)

(* A gate that gated jobs wait on until [open_gate]. *)
type gate = { gm : Mutex.t; gc : Condition.t; mutable opened : bool }

let gate () = { gm = Mutex.create (); gc = Condition.create (); opened = false }

let pass g =
  Mutex.lock g.gm;
  while not g.opened do
    Condition.wait g.gc g.gm
  done;
  Mutex.unlock g.gm

let open_gate g =
  Mutex.lock g.gm;
  g.opened <- true;
  Condition.broadcast g.gc;
  Mutex.unlock g.gm

(* Poll [cond] for up to 5 s: a service that never gets there fails the
   test instead of hanging it. *)
let eventually cond =
  let rec go n =
    cond () || (n > 0 && (Unix.sleepf 0.005; go (n - 1)))
  in
  go 1_000

let accept what = function
  | Service.Accepted -> ()
  | Service.Rejected_full | Service.Rejected_draining ->
      Alcotest.failf "%s not accepted" what

let test_service_runs_everything () =
  let s = Service.create ~jobs:2 ~capacity:64 () in
  let count = Atomic.make 0 in
  for _ = 1 to 50 do
    accept "job below capacity" (Service.submit s (fun () -> Atomic.incr count))
  done;
  Service.drain s;
  Alcotest.(check int) "every accepted job ran" 50 (Atomic.get count)

let test_service_backpressure_and_drain () =
  let s = Service.create ~jobs:1 ~capacity:1 () in
  let g = gate () in
  let started = Atomic.make false in
  let ran = Atomic.make 0 in
  accept "job 1"
    (Service.submit s (fun () ->
         Atomic.set started true;
         pass g;
         Atomic.incr ran));
  (* Wait until job 1 occupies the worker, so the queue is empty. *)
  if not (eventually (fun () -> Atomic.get started)) then
    Alcotest.fail "job 1 never started";
  accept "job 2" (Service.submit s (fun () -> Atomic.incr ran));
  Alcotest.(check int) "queue full" 1 (Service.depth s);
  (match Service.submit s (fun () -> Atomic.incr ran) with
  | Service.Rejected_full -> ()
  | Service.Accepted | Service.Rejected_draining ->
      Alcotest.fail "job 3 must be rejected while the queue is full");
  (* Release the worker and drain: both accepted jobs must finish. *)
  open_gate g;
  Service.drain s;
  Alcotest.(check int) "accepted jobs all ran" 2 (Atomic.get ran);
  match Service.submit s ignore with
  | Service.Rejected_draining -> ()
  | Service.Accepted | Service.Rejected_full ->
      Alcotest.fail "post-drain submission must be rejected"

(* With two workers, a job submitted while another one is held runs on
   the idle worker at once: it does not wait for the held job. *)
let test_service_idle_worker_starts_next () =
  let s = Service.create ~jobs:2 ~capacity:8 () in
  let g = gate () in
  let started = Atomic.make false in
  let quick = Atomic.make false in
  accept "gated job"
    (Service.submit s (fun () ->
         Atomic.set started true;
         pass g));
  let held = eventually (fun () -> Atomic.get started) in
  accept "quick job" (Service.submit s (fun () -> Atomic.set quick true));
  let overtook = eventually (fun () -> Atomic.get quick) in
  open_gate g;
  Service.drain s;
  Alcotest.(check bool) "gated job started" true held;
  Alcotest.(check bool) "quick job done while the gate was closed" true
    overtook

(* [capacity] bounds the unstarted jobs: one worker held by a job, two
   queued, the next one refused. *)
let test_service_capacity_counts_unstarted () =
  let s = Service.create ~jobs:1 ~capacity:2 () in
  let g = gate () in
  let ran = Atomic.make 0 in
  let gated () =
    pass g;
    Atomic.incr ran
  in
  let accepted = ref 0 in
  let submit () =
    match Service.submit s gated with
    | Service.Accepted ->
        incr accepted;
        true
    | Service.Rejected_full | Service.Rejected_draining -> false
  in
  (* Two back to back, then wait for the worker to take one. *)
  ignore (submit () && submit ());
  let busy = eventually (fun () -> Service.in_flight s > 0) in
  let rec fill n = if n > 0 && submit () then fill (n - 1) in
  fill 8;
  let in_flight = Service.in_flight s and depth = Service.depth s in
  open_gate g;
  Service.drain s;
  Alcotest.(check bool) "a job started" true busy;
  Alcotest.(check int) "accepted: one running, two queued" 3 !accepted;
  Alcotest.(check int) "in_flight" 1 in_flight;
  Alcotest.(check int) "depth" 2 depth;
  Alcotest.(check int) "every accepted job ran" !accepted (Atomic.get ran)

let test_service_job_exception_contained () =
  let s = Service.create ~jobs:2 ~capacity:8 () in
  let ran = Atomic.make 0 in
  accept "raising job" (Service.submit s (fun () -> failwith "job blew up"));
  accept "next job" (Service.submit s (fun () -> Atomic.incr ran));
  Service.drain s;
  Alcotest.(check int) "exception did not stop the service" 1
    (Atomic.get ran)

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "input order preserved" `Quick
      test_map_preserves_order_not_completion_order;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "exception propagation (jobs=1)" `Quick
      test_exception_propagates_sequentially;
    Alcotest.test_case "degenerate and edge inputs" `Quick
      test_degenerate_and_edges;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "invalid jobs / shutdown" `Quick
      test_invalid_jobs_and_shutdown;
    Alcotest.test_case "default jobs" `Quick test_default_jobs_sane;
    Alcotest.test_case "scratch reentrant fallback counted" `Quick
      test_scratch_reentrant_fallback;
    Alcotest.test_case "scratch geometric growth" `Quick
      test_scratch_geometric_growth;
    Alcotest.test_case "service runs all accepted jobs" `Quick
      test_service_runs_everything;
    Alcotest.test_case "service backpressure and drain" `Quick
      test_service_backpressure_and_drain;
    Alcotest.test_case "service contains job exceptions" `Quick
      test_service_job_exception_contained;
    Alcotest.test_case "service: an idle worker starts the next job" `Quick
      test_service_idle_worker_starts_next;
    Alcotest.test_case "service: capacity counts unstarted jobs" `Quick
      test_service_capacity_counts_unstarted;
  ]
