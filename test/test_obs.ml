(* Tdat_obs: metrics registry semantics (monotone counters, histogram
   bucket boundaries, disabled-registry no-ops), snapshot determinism
   across --jobs on a fixed fleet, span nesting and Chrome-trace
   well-formedness, logger level filtering, the A006 stage-timing
   audit, and the CLI [with_obs] wrapper end to end. *)

module Obs = Tdat_obs.Metrics
module Tracer = Tdat_obs.Tracer
module Span = Tdat_obs.Span
module Log = Tdat_obs.Log
module Json = Tdat_json.Json

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let count_occurrences haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i n =
    if i + nn > nh then n
    else if String.sub haystack i nn = needle then go (i + nn) (n + 1)
    else go (i + 1) n
  in
  go 0 0

(* An instrument's reading, through the view exposition encoders use. *)
let view reg name =
  Obs.fold_entries reg ~init:None ~f:(fun acc ~name:n ~stable:_ v ->
      if String.equal n name then Some v else acc)

let gauge_value reg name =
  match view reg name with
  | Some (Obs.Gauge_v v) -> v
  | _ -> Alcotest.fail ("no gauge " ^ name)

let histogram_view reg name =
  match view reg name with
  | Some (Obs.Histogram_v { v_count; v_buckets; _ }) -> (v_count, v_buckets)
  | _ -> Alcotest.fail ("no histogram " ^ name)

(* --- counters ---------------------------------------------------------- *)

let test_counter_monotone () =
  let reg = Obs.Private.create () in
  Obs.set_enabled reg true;
  let c = Obs.Counter.make ~registry:reg "t.counter" in
  Alcotest.(check int) "fresh counter is zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add accumulate" 42 (Obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Counter.add: negative amount -1") (fun () ->
      Obs.Counter.add c (-1));
  Alcotest.(check int) "value unchanged after rejection" 42
    (Obs.Counter.value c)

let test_disabled_is_noop () =
  let reg = Obs.Private.create () in
  let c = Obs.Counter.make ~registry:reg "t.disabled.counter" in
  let g = Obs.Gauge.make ~registry:reg "t.disabled.gauge" in
  let h = Obs.Histogram.make ~registry:reg "t.disabled.hist" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Obs.Gauge.set g 5.;
  Obs.Gauge.set_max g 9.;
  Obs.Histogram.observe h 3.;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.)) "gauge untouched" 0.
    (gauge_value reg "t.disabled.gauge");
  Alcotest.(check int) "histogram untouched" 0
    (fst (histogram_view reg "t.disabled.hist"))

let test_make_idempotent () =
  let reg = Obs.Private.create () in
  Obs.set_enabled reg true;
  let a = Obs.Counter.make ~registry:reg "t.same" in
  let b = Obs.Counter.make ~registry:reg "t.same" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "both handles hit one instrument" 2
    (Obs.Counter.value a);
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Obs.Gauge.make ~registry:reg "t.same");
       false
     with Invalid_argument _ -> true)

(* --- histograms -------------------------------------------------------- *)

let test_histogram_buckets () =
  let reg = Obs.Private.create () in
  Obs.set_enabled reg true;
  let h =
    Obs.Histogram.make ~registry:reg ~buckets:[| 1.; 2.; 5. |] "t.hist"
  in
  List.iter (Obs.Histogram.observe h) [ 1.0; 1.5; 5.0; 7.0 ];
  let count, buckets = histogram_view reg "t.hist" in
  Alcotest.(check int) "count" 4 count;
  Alcotest.(check (float 1e-9)) "sum" 14.5 (Obs.Histogram.sum h);
  Alcotest.(check int) "bucket array length" 4 (Array.length buckets);
  (* Bounds are inclusive upper limits: 1.0 lands in [<=1], 1.5 in
     [<=2], 5.0 in [<=5], and 7.0 overflows. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "bucket boundaries (inclusive) and overflow"
    [ (1., 1); (2., 1); (5., 1); (infinity, 1) ]
    (Array.to_list buckets);
  Alcotest.(check bool) "non-increasing bounds rejected" true
    (try
       ignore
         (Obs.Histogram.make ~registry:reg ~buckets:[| 2.; 1. |] "t.hist2");
       false
     with Invalid_argument _ -> true)

(* --- snapshot determinism across jobs ---------------------------------- *)

let fleet_trace () =
  let session id =
    let upstream = Tdat_tcpsim.Connection.path ~delay:2_000 () in
    let router =
      Tdat_bgpsim.Scenario.router ~table_prefixes:120 ~quota:8 ~upstream id
    in
    let result = Tdat_bgpsim.Scenario.run ~seed:(40 + id) [ router ] in
    List.hd result.Tdat_bgpsim.Scenario.outcomes
  in
  let outcomes = List.init 3 (fun i -> session (i + 1)) in
  Tdat_pkt.Trace.of_segments
    (List.concat_map
       (fun o -> Tdat_pkt.Trace.segments o.Tdat_bgpsim.Scenario.trace)
       outcomes)

let test_snapshot_deterministic_across_jobs () =
  (* The fleet is generated before metrics are enabled, so the snapshot
     sees only the analysis pipeline's instruments. *)
  let trace = fleet_trace () in
  let snapshot jobs =
    Obs.reset Obs.default;
    Obs.set_enabled Obs.default true;
    ignore (Tdat.Analyzer.analyze_all ~jobs trace);
    let s = Obs.snapshot_json ~stable_only:true Obs.default in
    Obs.set_enabled Obs.default false;
    s
  in
  let s1 = snapshot 1 in
  let s2 = snapshot 2 in
  let s4 = snapshot 4 in
  Alcotest.(check string) "stable snapshot jobs=1 vs jobs=2" s1 s2;
  Alcotest.(check string) "stable snapshot jobs=1 vs jobs=4" s1 s4;
  Alcotest.(check bool) "snapshot mentions the analyzer" true
    (contains s1 "analyzer.analyses")

let test_a007_backstop_on_live_snapshots () =
  (* End-to-end hookup of audit rule A007: the same stable snapshots the
     previous test compares by hand, fed through the audit validator. *)
  let trace = fleet_trace () in
  let snapshot jobs =
    Obs.reset Obs.default;
    Obs.set_enabled Obs.default true;
    ignore (Tdat.Analyzer.analyze_all ~jobs trace);
    let s = Obs.snapshot_json ~stable_only:true Obs.default in
    Obs.set_enabled Obs.default false;
    s
  in
  let reference = snapshot 1 in
  let candidate = snapshot 4 in
  let diags =
    Tdat_audit.Checks.stable_snapshots_equal ~subject:"fleet analysis"
      ~reference ~candidate ()
  in
  Alcotest.(check int) "A007 holds on live snapshots" 0 (List.length diags)

(* --- tracer ------------------------------------------------------------ *)

let count_phase events ph =
  List.length (List.filter (fun (e : Tracer.event) -> e.Tracer.ph = ph) events)

let test_span_nesting_balance () =
  Tracer.clear ();
  Tracer.set_enabled true;
  let r =
    Span.with_ ~name:"outer" (fun () ->
        Span.with_ ~name:"inner" (fun () -> 7)
        + Span.with_ ~name:"inner" (fun () -> 35))
  in
  Tracer.set_enabled false;
  Alcotest.(check int) "traced result" 42 r;
  let events = Tracer.events () in
  Alcotest.(check int) "three spans -> six events" 6 (List.length events);
  Alcotest.(check int) "begin count" 3 (count_phase events Tracer.B);
  Alcotest.(check int) "end count" 3 (count_phase events Tracer.E);
  Alcotest.(check bool) "balanced" true (Tracer.balanced ());
  Tracer.clear ()

let test_span_balanced_on_raise () =
  Tracer.clear ();
  Tracer.set_enabled true;
  (try
     Span.with_ ~name:"bang" (fun () -> raise Exit)
   with Exit -> ());
  Tracer.set_enabled false;
  Alcotest.(check bool) "span closed by the raise" true (Tracer.balanced ());
  Alcotest.(check int) "one begin, one end" 2 (List.length (Tracer.events ()));
  Tracer.clear ()

let test_trace_json_shape () =
  Tracer.clear ();
  Tracer.set_enabled true;
  Span.with_ ~name:"stage-a" (fun () ->
      Span.with_ ~name:"stage-b" ignore);
  Tracer.set_enabled false;
  let json = Tracer.Private.to_json () in
  Tracer.clear ();
  Alcotest.(check bool) "opens a traceEvents array" true
    (String.starts_with ~prefix:"{\"traceEvents\":[" json);
  Alcotest.(check int) "two begin events" 2
    (count_occurrences json "\"ph\":\"B\"");
  Alcotest.(check int) "two end events" 2
    (count_occurrences json "\"ph\":\"E\"");
  Alcotest.(check int) "every event carries a tid" 4
    (count_occurrences json "\"tid\":");
  Alcotest.(check bool) "the trace is one JSON document" true
    (Result.is_ok (Json.parse json))

(* --- trace context and X (complete) events ------------------------------ *)

let test_trace_context_stamps_events () =
  Tracer.clear ();
  Tracer.set_enabled true;
  Alcotest.(check (option string)) "no ambient context" None
    (Tracer.Private.current_context ());
  Tracer.with_context (Some "req-1") (fun () ->
      Alcotest.(check (option string))
        "context visible inside" (Some "req-1")
        (Tracer.Private.current_context ());
      Span.with_ ~name:"ctx-span" ignore);
  Span.with_ ~name:"bare-span" ignore;
  Tracer.set_enabled false;
  Alcotest.(check (option string)) "context restored" None
    (Tracer.Private.current_context ());
  let events = Tracer.events () in
  let stamped =
    List.filter (fun (e : Tracer.event) -> e.Tracer.trace <> None) events
  in
  Alcotest.(check int) "only the contexted span is stamped" 2
    (List.length stamped);
  List.iter
    (fun (e : Tracer.event) ->
      Alcotest.(check string) "stamped span name" "ctx-span" e.Tracer.name;
      Alcotest.(check (option string)) "trace id" (Some "req-1") e.Tracer.trace)
    stamped;
  let json = Tracer.Private.to_json () in
  Tracer.clear ();
  Alcotest.(check int) "args.trace rendered once per stamped event" 2
    (count_occurrences json "\"args\":{\"trace\":\"req-1\"}")

let test_complete_span_is_selfcontained () =
  Tracer.clear ();
  Tracer.set_enabled true;
  let now = Tdat_obs.Clock.now_us () in
  Span.with_ ~name:"outer" (fun () ->
      (* A retroactive span beginning before "outer" began: as a B/E
         pair this would break nesting; as an X event it must not. *)
      Tracer.complete_span ~name:"queue-wait" ~begin_us:(now -. 500.)
        ~dur_us:120.;
      Tracer.complete_span ~name:"clamped" ~begin_us:now ~dur_us:(-5.));
  Tracer.set_enabled false;
  let events = Tracer.events () in
  Alcotest.(check bool) "balanced (X ignored)" true (Tracer.balanced ());
  let xs =
    List.filter (fun (e : Tracer.event) -> e.Tracer.ph = Tracer.X) events
  in
  Alcotest.(check int) "two X events" 2 (List.length xs);
  let wait =
    List.find
      (fun (e : Tracer.event) -> String.equal e.Tracer.name "queue-wait")
      xs
  in
  Alcotest.(check (float 1e-9)) "X carries its duration" 120. wait.Tracer.dur;
  let clamped =
    List.find
      (fun (e : Tracer.event) -> String.equal e.Tracer.name "clamped")
      xs
  in
  Alcotest.(check (float 0.)) "negative duration clamps" 0. clamped.Tracer.dur;
  let json = Tracer.Private.to_json () in
  Tracer.clear ();
  Alcotest.(check int) "ph X rendered" 2 (count_occurrences json "\"ph\":\"X\"");
  let durs =
    match Result.map (Json.member "traceEvents") (Json.parse json) with
    | Ok (Some (Json.Arr evs)) ->
        List.filter_map
          (fun ev ->
            match (Json.member "name" ev, Json.member "dur" ev) with
            | Some (Json.Str name), Some (Json.Num d) -> Some (name, d)
            | _ -> None)
          evs
    | _ -> Alcotest.fail "trace is not a traceEvents document"
  in
  Alcotest.(check (list (pair string (float 0.)))) "dur rendered"
    [ ("queue-wait", 120.); ("clamped", 0.) ]
    durs

(* --- rolling time-windowed histogram ------------------------------------ *)

module Window = Tdat_obs.Window
(* A hand-cranked monotone clock: the window takes [now] as a closure,
   so injecting one makes rotation boundaries exact instead of
   sleep-dependent. *)
module Manual = struct
  type t = { mutable t_s : float }

  let create () = { t_s = 0. }

  let set t s =
    if s < t.t_s then invalid_arg "Manual.set: clock must be monotone";
    t.t_s <- s

  let now_s t () = t.t_s
end

let window ?buckets clock ~slots ~slot_s =
  Window.create ?buckets ~now:(Manual.now_s clock) ~slots ~slot_s ()

let test_window_percentile_math () =
  let clock = Manual.create () in
  let w = window clock ~slots:4 ~slot_s:1. ~buckets:[| 10.; 100.; 1000. |] in
  Alcotest.(check (float 0.)) "window span" 4. (Window.window_s w);
  Alcotest.(check (float 0.)) "empty p95 is 0" 0. (Window.percentile w 0.95);
  List.iter (Window.observe w) [ 5.; 50.; 500.; 5000. ];
  Alcotest.(check int) "count" 4 (Window.count w);
  Alcotest.(check (float 1e-9)) "sum" 5555. (Window.Private.sum w);
  Alcotest.(check (float 1e-9)) "rate = count / window" 1. (Window.rate w);
  Alcotest.(check (float 0.)) "p0 hits the first bucket" 10.
    (Window.percentile w 0.);
  Alcotest.(check (float 0.)) "p50 = second bound" 100.
    (Window.percentile w 0.5);
  Alcotest.(check (float 0.)) "overflow reports last finite bound" 1000.
    (Window.percentile w 0.99);
  Alcotest.check_raises "p out of range rejected"
    (Invalid_argument "Window.percentile: p outside [0,1]") (fun () ->
      ignore (Window.percentile w 1.5))

let test_window_rotation_boundaries () =
  let clock = Manual.create () in
  let w = window clock ~slots:3 ~slot_s:1. ~buckets:[| 100.; 1000. |] in
  Window.observe w 10.;
  Manual.set clock 1.2;
  Window.observe w 20.;
  Manual.set clock 2.5;
  Window.observe w 30.;
  Alcotest.(check int) "all three inside the window" 3 (Window.count w);
  (* Epoch 3 begins: epoch 0 falls out of the 3-slot window exactly at
     the boundary. *)
  Manual.set clock 3.0;
  Alcotest.(check int) "oldest slot expired at the boundary" 2
    (Window.count w);
  (* The new epoch reuses epoch 0's ring slot; its stale contents must
     not resurface. *)
  Window.observe w 40.;
  Alcotest.(check int) "reused slot starts empty" 3 (Window.count w);
  (* Jump far ahead: everything expires without any intervening
     observation (reads never mutate, the staleness is filtered). *)
  Manual.set clock 60.;
  Alcotest.(check int) "idle window drains to empty" 0 (Window.count w);
  Alcotest.(check (float 0.)) "empty after drain" 0.
    (Window.percentile w 0.95);
  Window.observe w 50.;
  Window.Private.clear w;
  Alcotest.(check int) "clear forgets" 0 (Window.count w)

let test_window_rejects_bad_config () =
  let reject name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "zero slots" (fun () -> Window.create ~slots:0 ~slot_s:1. ());
  reject "non-positive slot_s" (fun () ->
      Window.create ~slots:4 ~slot_s:0. ());
  reject "non-increasing bounds" (fun () ->
      Window.create ~buckets:[| 2.; 1. |] ~slots:4 ~slot_s:1. ())

(* --- slow-request exemplars ---------------------------------------------- *)

module Exemplar = Tdat_obs.Exemplar

let entry ?(trace = "t") ?(stages = []) ~dur () =
  {
    Exemplar.endpoint = "analyze";
    trace;
    duration_us = dur;
    at_s = 0.;
    stages;
    request = "{\"cmd\":\"analyze\"}";
  }

let durations t =
  List.map (fun e -> e.Exemplar.duration_us) (Exemplar.worst t)

let test_exemplar_keeps_k_worst () =
  let t = Exemplar.create ~capacity:3 in
  List.iter
    (fun d -> Exemplar.note t (entry ~dur:d ()))
    [ 100.; 700.; 50.; 300.; 10.; 500. ];
  Alcotest.(check int) "capped at capacity" 3 (Exemplar.count t);
  Alcotest.(check (list (float 0.))) "worst first" [ 700.; 500.; 300. ]
    (durations t);
  Exemplar.note t (entry ~dur:5. ());
  Alcotest.(check (list (float 0.))) "fast request rejected"
    [ 700.; 500.; 300. ] (durations t);
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Exemplar.create: capacity must be positive") (fun () ->
      ignore (Exemplar.create ~capacity:0))

let test_exemplar_ties_favor_newer () =
  let t = Exemplar.create ~capacity:2 in
  Exemplar.note t (entry ~trace:"old" ~dur:100. ());
  Exemplar.note t (entry ~trace:"new" ~dur:100. ());
  (match Exemplar.worst t with
  | [ a; b ] ->
      Alcotest.(check string) "newer of equals ranks first" "new"
        a.Exemplar.trace;
      Alcotest.(check string) "older of equals second" "old" b.Exemplar.trace
  | _ -> Alcotest.fail "expected two entries");
  Exemplar.Private.clear t;
  Alcotest.(check int) "clear forgets" 0 (Exemplar.count t)

(* --- Prometheus exposition ----------------------------------------------- *)

module Prom = Tdat_obs.Prometheus

let test_prometheus_mangle () =
  Alcotest.(check string) "dots to underscores" "tdat_serve_request_us"
    (Prom.Private.mangle "serve.request_us");
  Alcotest.(check string) "dashes to underscores" "tdat_pool_chunk"
    (Prom.Private.mangle "pool-chunk")

let test_prometheus_exposition_shape () =
  let reg = Obs.Private.create () in
  Obs.set_enabled reg true;
  let c = Obs.Counter.make ~registry:reg "tp.hits" in
  let g = Obs.Gauge.make ~registry:reg ~stable:false "tp.depth" in
  let h =
    Obs.Histogram.make ~registry:reg ~buckets:[| 1.; 2. |] "tp.lat"
  in
  Obs.Counter.add c 3;
  Obs.Gauge.set g 7.;
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 9. ];
  let text = Prom.of_registry reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true
        (contains text needle))
    [
      "# TYPE tdat_tp_hits counter";
      "tdat_tp_hits_total 3";
      "# TYPE tdat_tp_depth gauge";
      "tdat_tp_depth 7.0";
      "# TYPE tdat_tp_lat histogram";
      "tdat_tp_lat_bucket{le=\"1.0\"} 1";
      "tdat_tp_lat_bucket{le=\"2.0\"} 2";
      "tdat_tp_lat_bucket{le=\"+Inf\"} 3";
      "tdat_tp_lat_sum 11.0";
      "tdat_tp_lat_count 3";
    ];
  let stable = Prom.of_registry ~stable_only:true reg in
  Alcotest.(check bool) "stable form keeps the counter" true
    (contains stable "tdat_tp_hits_total");
  Alcotest.(check bool) "stable form drops the volatile gauge" false
    (contains stable "tdat_tp_depth")

let test_prometheus_stable_identical_across_jobs () =
  (* The serve acceptance bar, reduced to its core: the stable section
     of the exposition is byte-identical whatever the worker count. *)
  let trace = fleet_trace () in
  let exposition jobs =
    Obs.reset Obs.default;
    Obs.set_enabled Obs.default true;
    ignore (Tdat.Analyzer.analyze_all ~jobs trace);
    let s = Prom.of_registry ~stable_only:true Obs.default in
    Obs.set_enabled Obs.default false;
    s
  in
  let e1 = exposition 1 in
  let e2 = exposition 2 in
  Alcotest.(check string) "stable exposition jobs=1 vs jobs=2" e1 e2;
  Alcotest.(check bool) "exposition mentions the analyzer" true
    (contains e1 "tdat_analyzer_analyses_total")

(* --- logger ------------------------------------------------------------ *)

let with_log_buffer f =
  let buf = Buffer.create 256 in
  Log.Private.set_destination (`Buffer buf);
  let saved = Log.Private.current_level () in
  Fun.protect
    ~finally:(fun () ->
      Log.set_level saved;
      Log.Private.set_destination `Stderr)
    (fun () -> f buf)

let test_log_level_filtering () =
  with_log_buffer (fun buf ->
      Log.set_level (Some Log.Info);
      Log.Private.debug (fun m -> m "dropped");
      Log.info (fun m -> m ~kv:[ ("n", "3") ] "kept %d" 1);
      Log.Private.warn (fun m -> m "kept too");
      let out = Buffer.contents buf in
      Alcotest.(check bool) "debug filtered" false (contains out "dropped");
      Alcotest.(check bool) "info kept with kv" true
        (contains out "[info] kept 1 n=3");
      Alcotest.(check bool) "warn kept" true (contains out "[warn] kept too");
      Log.set_level None;
      Log.Private.err (fun m -> m "silenced");
      Alcotest.(check bool) "quiet silences errors" false
        (contains (Buffer.contents buf) "silenced"))

let test_log_closure_laziness () =
  with_log_buffer (fun _ ->
      Log.set_level (Some Log.Warn);
      let ran = ref false in
      Log.Private.debug (fun m ->
          ran := true;
          m "never");
      Alcotest.(check bool) "disabled closure never runs" false !ran)

(* --- A006 stage-timing audit ------------------------------------------- *)

let test_stage_timing_audit () =
  let open Tdat_audit in
  Alcotest.(check int) "empty timings pass vacuously" 0
    (List.length (Checks.stage_timings ~total_s:0. []));
  Alcotest.(check int) "consistent timings pass" 0
    (List.length
       (Checks.stage_timings ~total_s:1.0 [ ("a", 0.4); ("b", 0.5) ]));
  let overrun =
    Checks.stage_timings ~total_s:0.5 [ ("a", 0.4); ("b", 0.5) ]
  in
  Alcotest.(check bool) "overrun reported as A006" true
    (List.exists (fun d -> String.equal d.Diag.code "A006") overrun);
  let negative = Checks.stage_timings ~total_s:1.0 [ ("a", -0.1) ] in
  Alcotest.(check bool) "negative duration reported" true
    (List.exists (fun d -> String.equal d.Diag.code "A006") negative)

let test_analyze_records_timings () =
  let trace = fleet_trace () in
  match Tdat.Analyzer.analyze_all ~audit:true ~jobs:1 trace with
  | [] -> Alcotest.fail "fleet produced no connections"
  | (_, a) :: _ ->
      Alcotest.(check int) "every stage timed" 9
        (List.length a.Tdat.Analyzer.timings);
      Alcotest.(check bool) "total spans the stages" true
        (a.Tdat.Analyzer.total_s
        >= List.fold_left (fun s (_, d) -> s +. d) 0. a.Tdat.Analyzer.timings
           -. 1e-4);
      Alcotest.(check bool) "audit clean (A006 included)" true
        (a.Tdat.Analyzer.audit = []);
      Alcotest.(check bool) "timing table renders" true
        (contains (Tdat.Report.stage_timing_table a) "conn-profile")

(* --- CLI wrapper end to end --------------------------------------------- *)

let test_with_obs_writes_files () =
  let tmp suffix =
    Filename.temp_file "tdat_obs_test" suffix
  in
  let metrics_path = tmp ".metrics.json" in
  let trace_path = tmp ".trace.json" in
  let obs =
    {
      Tdat_obs_cli.metrics = Some metrics_path;
      trace = Some trace_path;
      log_level = None;
    }
  in
  let trace = fleet_trace () in
  let n =
    Tdat_obs_cli.with_obs obs (fun () ->
        List.length (Tdat.Analyzer.analyze_all ~jobs:2 trace))
  in
  Alcotest.(check bool) "analysis ran" true (n > 0);
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let metrics = read metrics_path in
  let trace_json = read trace_path in
  Sys.remove metrics_path;
  Sys.remove trace_path;
  Alcotest.(check bool) "collectors left disabled" false
    (Obs.enabled Obs.default || Tracer.enabled ());
  Alcotest.(check bool) "metrics snapshot has both sections" true
    (contains metrics "\"stable\"" && contains metrics "\"volatile\"");
  Alcotest.(check bool) "trace covers the analyzer stages" true
    (List.for_all
       (fun stage -> contains trace_json (Printf.sprintf "%S" stage))
       [ "partition"; "analyze"; "conn-profile"; "series-gen"; "factors" ]);
  Alcotest.(check bool) "trace is a traceEvents object" true
    (String.starts_with ~prefix:"{\"traceEvents\":[" trace_json)

(* --- Canon: shortest round-trip float rendering --------------------------- *)

let test_canon_roundtrip_exact () =
  (* Every rendering must parse back to the identical bit pattern. *)
  let cases =
    [
      0.; -0.; 1.; -1.; 0.1; 0.2; 0.30000000000000004; 1e-3; 1.5e300;
      4.9406564584124654e-324 (* min subnormal *);
      1.7976931348623157e308 (* max finite *);
      3.141592653589793; 1e15; 1e15 +. 1.; 0.9794756157315281;
      6553.6; 2.2250738585072014e-308;
    ]
  in
  List.iter
    (fun v ->
      let s = Tdat_json.Canon.to_string v in
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips %h" s v)
        true
        (Int64.equal
           (Int64.bits_of_float (float_of_string s))
           (Int64.bits_of_float v)))
    cases

let test_canon_shortest () =
  (* The canonical rendering prefers the shortest of %.15g/%.16g/%.17g
     that survives the round trip: familiar decimals stay short. *)
  List.iter
    (fun (v, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "canonical form of %h" v)
        expected
        (Tdat_json.Canon.to_string v))
    [ (0.1, "0.1"); (0.5, "0.5"); (1., "1"); (1e300, "1e+300");
      (0.30000000000000004, "0.30000000000000004") ]

let canon_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"canon round-trips arbitrary finite floats"
       ~count:2000
       QCheck.(map (fun (a, b) -> a *. (2. ** float_of_int b))
                 (pair (float_range (-1.) 1.) (int_range (-300) 300)))
       (fun v ->
         let s = Tdat_json.Canon.to_string v in
         Int64.equal
           (Int64.bits_of_float (float_of_string s))
           (Int64.bits_of_float v)))

let suite =
  [
    Alcotest.test_case "counters are monotone" `Quick test_counter_monotone;
    Alcotest.test_case "canon floats round-trip exactly" `Quick
      test_canon_roundtrip_exact;
    Alcotest.test_case "canon floats render shortest" `Quick
      test_canon_shortest;
    canon_roundtrip_prop;
    Alcotest.test_case "disabled registry is a no-op" `Quick
      test_disabled_is_noop;
    Alcotest.test_case "registration is idempotent by name" `Quick
      test_make_idempotent;
    Alcotest.test_case "histogram bucket boundaries" `Quick
      test_histogram_buckets;
    Alcotest.test_case "stable snapshot identical across jobs" `Quick
      test_snapshot_deterministic_across_jobs;
    Alcotest.test_case "A007 backstop on live snapshots" `Quick
      test_a007_backstop_on_live_snapshots;
    Alcotest.test_case "spans nest and balance" `Quick
      test_span_nesting_balance;
    Alcotest.test_case "spans balance across raises" `Quick
      test_span_balanced_on_raise;
    Alcotest.test_case "chrome trace JSON shape" `Quick test_trace_json_shape;
    Alcotest.test_case "trace context stamps events" `Quick
      test_trace_context_stamps_events;
    Alcotest.test_case "X events are self-contained" `Quick
      test_complete_span_is_selfcontained;
    Alcotest.test_case "window percentile math" `Quick
      test_window_percentile_math;
    Alcotest.test_case "window rotation boundaries" `Quick
      test_window_rotation_boundaries;
    Alcotest.test_case "window rejects bad config" `Quick
      test_window_rejects_bad_config;
    Alcotest.test_case "exemplars keep the K worst" `Quick
      test_exemplar_keeps_k_worst;
    Alcotest.test_case "exemplar ties favor the newer" `Quick
      test_exemplar_ties_favor_newer;
    Alcotest.test_case "prometheus name mangling" `Quick
      test_prometheus_mangle;
    Alcotest.test_case "prometheus exposition shape" `Quick
      test_prometheus_exposition_shape;
    Alcotest.test_case "prometheus stable form identical across jobs" `Quick
      test_prometheus_stable_identical_across_jobs;
    Alcotest.test_case "log level filtering" `Quick test_log_level_filtering;
    Alcotest.test_case "disabled log closures never run" `Quick
      test_log_closure_laziness;
    Alcotest.test_case "A006 stage-timing audit" `Quick
      test_stage_timing_audit;
    Alcotest.test_case "instrumented analyze records timings" `Quick
      test_analyze_records_timings;
    Alcotest.test_case "with_obs writes metrics and trace files" `Quick
      test_with_obs_writes_files;
  ]
