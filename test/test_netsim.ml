(* Discrete-event engine, heap, links, loss models, RNG determinism. *)

open Tdat_netsim
module Seg = Tdat_pkt.Tcp_segment

let ep1 = Tdat_pkt.Endpoint.of_quad 10 0 0 1 1
let ep2 = Tdat_pkt.Endpoint.of_quad 10 0 0 2 2

let mk_seg ?(len = 1000) () =
  Seg.v ~ts:0 ~src:ep1 ~dst:ep2 ~seq:0 ~ack:0 ~len
    ~payload:(String.make len 'x') ~flags:Seg.data_flags ()

(* --- Heap --------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k k) [ 5; 1; 9; 3; 7; 1; 0 ];
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (k, _) ->
        popped := k :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 5; 7; 9 ]
    (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h 1 "a";
  Heap.push h 1 "b";
  Heap.push h 1 "c";
  let order =
    List.init 3 (fun _ -> snd (Option.get (Heap.pop h)))
  in
  Alcotest.(check (list string)) "fifo among equal keys" [ "a"; "b"; "c" ] order

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:200 arb f)

let heap_qcheck =
  prop "heap pops sorted" QCheck.(list small_nat) (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k ()) keys;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, ()) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare keys)

(* --- Engine --------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e 30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e 10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e 20 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule_at e 10 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.Private.is_pending timer);
  Engine.cancel timer;
  Engine.run e;
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e 10 (fun () -> incr fired));
  ignore (Engine.schedule_at e 100 (fun () -> incr fired));
  Engine.run ~until:50 e;
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check int) "clock clamped" 50 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "resumes" 2 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e 10 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule_after e 5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check_raises "no scheduling in the past"
    (Invalid_argument "Engine.schedule_at: 5 is in the past (now 15)")
    (fun () -> ignore (Engine.schedule_at e 5 (fun () -> ())))

(* --- Link ------------------------------------------------------------------ *)

let test_link_delay_and_serialization () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create ~engine:e ~delay:1_000 ~bandwidth_bps:8_000_000
      ~deliver:(fun s -> arrivals := s.Seg.ts :: !arrivals)
      ()
  in
  (* 1000B + 54B overhead at 1 MB/s = 1054 µs serialization + 1000 µs prop. *)
  Link.send link (mk_seg ());
  Engine.run e;
  Alcotest.(check (list int)) "arrival time" [ 2054 ] !arrivals

let test_link_queueing () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create ~engine:e ~delay:0 ~bandwidth_bps:8_000_000
      ~deliver:(fun s -> arrivals := s.Seg.ts :: !arrivals)
      ()
  in
  Link.send link (mk_seg ());
  Link.send link (mk_seg ());
  Engine.run e;
  (* Second packet waits for the first to serialize. *)
  Alcotest.(check (list int)) "back to back" [ 1054; 2108 ] (List.rev !arrivals)

let test_link_drop_tail () =
  let e = Engine.create () in
  let delivered = ref 0 and dropped = ref 0 in
  let link =
    Link.create ~engine:e ~delay:0 ~bandwidth_bps:1_000_000 ~buffer_pkts:3
      ~on_drop:(fun _ -> incr dropped)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  for _ = 1 to 10 do
    Link.send link (mk_seg ())
  done;
  Engine.run e;
  Alcotest.(check int) "buffer bound" 3 !delivered;
  Alcotest.(check int) "rest dropped" 7 !dropped;
  let s = Link.stats link in
  Alcotest.(check int) "stats overflow" 7 s.Link.dropped_overflow

let test_link_loss_model () =
  let e = Engine.create () in
  let delivered = ref 0 in
  let spans =
    Tdat_timerange.Span_set.of_span (Tdat_timerange.Span.v 0 1)
  in
  let link =
    Link.create ~engine:e ~delay:0 ~bandwidth_bps:1_000_000_000
      ~loss:(Loss.bernoulli_during (Tdat_rng.Rng.create 1) spans 1.0)
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  Link.send link (mk_seg ()) (* at t=0: dropped *);
  ignore (Engine.schedule_at e 10 (fun () -> Link.send link (mk_seg ())));
  Engine.run e;
  Alcotest.(check int) "only post-window delivered" 1 !delivered;
  Alcotest.(check int) "loss recorded" 1 (Link.stats link).Link.dropped_loss

(* --- Loss models -------------------------------------------------------------- *)

let test_gilbert_bursts () =
  let rng = Tdat_rng.Rng.create 3 in
  let m = Loss.gilbert rng ~p_enter:0.05 ~p_exit:0.3 ~p_loss_bad:1.0 in
  let drops = List.init 10_000 (fun i -> Loss.drop m i) in
  let total = List.length (List.filter Fun.id drops) in
  Alcotest.(check bool) "some loss" true (total > 0);
  (* burstiness: at least one run of 2+ consecutive drops *)
  let rec has_run = function
    | true :: true :: _ -> true
    | _ :: rest -> has_run rest
    | [] -> false
  in
  Alcotest.(check bool) "bursty" true (has_run drops)

let test_bernoulli_rate () =
  let rng = Tdat_rng.Rng.create 4 in
  let m = Loss.bernoulli rng 0.1 in
  let n = 20_000 in
  let drops = ref 0 in
  for i = 1 to n do
    if Loss.drop m i then incr drops
  done;
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "rate near 0.1" true (rate > 0.07 && rate < 0.13)

(* --- Rng ------------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Tdat_rng.Rng.create 42 and b = Tdat_rng.Rng.create 42 in
  let seq r = List.init 50 (fun _ -> Tdat_rng.Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Tdat_rng.Rng.create 43 in
  Alcotest.(check bool) "different seed differs" true (seq a <> seq c)

let test_rng_ranges () =
  let r = Tdat_rng.Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Tdat_rng.Rng.int_in r 5 10 in
    if v < 5 || v > 10 then Alcotest.fail "int_in out of range"
  done;
  for _ = 1 to 1000 do
    let v = Tdat_rng.Rng.Private.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.fail "float out of range"
  done

let test_rng_weighted () =
  let r = Tdat_rng.Rng.create 8 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let v = Tdat_rng.Rng.weighted r [ (9.0, "a"); (1.0, "b") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Hashtbl.find counts "a" and b = Hashtbl.find counts "b" in
  Alcotest.(check bool) "weights respected" true (a > 5 * b)

let test_sniffer () =
  let e = Engine.create () in
  let sniffer = Sniffer.create ~engine:e () in
  ignore
    (Engine.schedule_at e 500 (fun () ->
         Sniffer.tap sniffer ~then_:(fun _ -> ()) (mk_seg ())));
  Engine.run e;
  let trace = Sniffer.trace sniffer in
  Alcotest.(check int) "captured" 1 (Tdat_pkt.Trace.length trace);
  Alcotest.(check int) "restamped" 500
    (List.hd (Tdat_pkt.Trace.segments trace)).Seg.ts

let suite =
  [
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    heap_qcheck;
    Alcotest.test_case "engine ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine nested" `Quick test_engine_nested_schedule;
    Alcotest.test_case "link delay" `Quick test_link_delay_and_serialization;
    Alcotest.test_case "link queueing" `Quick test_link_queueing;
    Alcotest.test_case "link drop tail" `Quick test_link_drop_tail;
    Alcotest.test_case "link loss model" `Quick test_link_loss_model;
    Alcotest.test_case "gilbert bursts" `Quick test_gilbert_bursts;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng weighted" `Quick test_rng_weighted;
    Alcotest.test_case "sniffer" `Quick test_sniffer;
  ]

(* Scheduling under churn: cancelled timers never fire, survivors fire in
   order, regardless of the interleaving. *)
let engine_churn_prop =
  prop "engine honors cancellation under churn"
    QCheck.(list (pair small_nat bool))
    (fun plan ->
      let e = Engine.create () in
      let fired = ref [] in
      let timers =
        List.map
          (fun (delay, cancel) ->
            let timer =
              Engine.schedule_at e (delay + 1) (fun () ->
                  fired := (delay + 1) :: !fired)
            in
            (timer, cancel))
          plan
      in
      List.iter (fun (t, c) -> if c then Engine.cancel t) timers;
      Engine.run e;
      let expected =
        List.filter_map
          (fun (delay, cancel) -> if cancel then None else Some (delay + 1))
          plan
        |> List.sort compare
      in
      List.rev !fired = expected)

let suite = suite @ [ engine_churn_prop ]
