(* serve_load: drive an in-process `tdat serve` daemon with N client
   domains x M synthetic captures and report throughput, latency
   percentiles, and the cache's cold/warm speedup to BENCH_SERVE.json
   (the serve-layer counterpart of BENCH_SPEED.json).

   Also the end-to-end byte-identity check: every analyze response's
   "output" member is compared against the batch renderer
   (Tdat_serve.Render.analysis) over the same file — exactly what
   `tdat analyze` prints — so a drift between daemon and CLI output
   fails the bench. *)

module Scenario = Tdat_bgpsim.Scenario
module Server = Tdat_serve.Server
module Client = Tdat_serve.Client
module Json = Tdat_json.Json

let clients = 4
let requests_per_client = 12

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Three captures of different sizes, so cache keys differ and the
   round-robin load mixes small and large requests. *)
let write_captures dir =
  List.mapi
    (fun i prefixes ->
      let result =
        Scenario.run ~seed:(101 + i)
          [ Scenario.router ~table_prefixes:prefixes 1 ]
      in
      let path = Filename.concat dir (Printf.sprintf "cap%d.pcap" i) in
      Tdat_pkt.Pcap.to_file path result.Scenario.site_trace;
      path)
    [ 4000; 6000; 8000 ]

let analyze_request path =
  Json.Obj [ ("cmd", Json.Str "analyze"); ("path", Json.Str path) ]

let response_output resp =
  match Json.member "result" resp with
  | Some result -> (
      match Json.member "output" result with
      | Some o -> Json.to_string_opt o
      | None -> None)
  | None -> None

let response_ok resp =
  match Json.member "ok" resp with
  | Some (Json.Bool b) -> b
  | _ -> false

let jfloat json name =
  match Json.member name json with
  | Some v -> Option.value (Json.to_float_opt v) ~default:0.
  | None -> 0.

(* The daemon's own view of the load it just absorbed: the rolling
   window for the analyze endpoint and the exemplar count, straight
   from a [stats] round-trip before the drain. *)
let query_rolling address =
  let client = Client.connect address in
  let resp =
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () -> Client.rpc client (Json.Obj [ ("cmd", Json.Str "stats") ]))
  in
  match resp with
  | Error _ -> None
  | Ok r -> (
      match Json.member "result" r with
      | None -> None
      | Some result ->
          let window =
            match Json.member "windows" result with
            | Some w -> Json.member "analyze" w
            | None -> None
          in
          let exemplars =
            match Json.member "exemplars" result with
            | Some (Json.Arr l) -> List.length l
            | Some _ | None -> 0
          in
          Some (window, exemplars))

(* The reference output: what `tdat analyze <path>` prints (the CLI
   calls this exact renderer). *)
let batch_output path =
  let r = Tdat_pkt.Pcap.read_file path in
  let results =
    Tdat.Analyzer.analyze_all ~jobs:1 r.Tdat_pkt.Pcap.trace
  in
  Tdat_serve.Render.analysis results

let timed_rpc client req =
  let t0 = Unix.gettimeofday () in
  let resp = Client.rpc client req in
  let dt_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  (resp, dt_us)

let run () =
  Printf.printf "\n[serve_load] %d clients x %d requests, 3 captures\n%!"
    clients requests_per_client;
  let dir =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tdat_serve_load_%d" (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let paths = write_captures dir in
  let server =
    Server.start
      {
        Server.address = `Tcp ("127.0.0.1", 0);
        jobs = 4;
        queue_capacity = 128;
      }
  in
  let address = Server.address server in
  let errors = ref 0 in
  let byte_identical = ref true in
  (* Cold pass: every request misses the cache and runs the analysis,
     and its output is byte-compared against the batch renderer. *)
  let cold_client = Client.connect address in
  let cold_us =
    Array.of_list
      (List.map
         (fun path ->
           let resp, dt_us = timed_rpc cold_client (analyze_request path) in
           (match resp with
           | Ok r when response_ok r ->
               if response_output r <> Some (batch_output path) then begin
                 byte_identical := false;
                 Printf.printf "[serve_load] OUTPUT MISMATCH on %s\n%!" path
               end
           | Ok _ | Error _ -> incr errors);
           dt_us)
         paths)
  in
  (* Warm pass: same requests again, now cache hits. *)
  let warm_us =
    Array.of_list
      (List.map
         (fun path ->
           let resp, dt_us = timed_rpc cold_client (analyze_request path) in
           (match resp with
           | Ok r when response_ok r -> ()
           | Ok _ | Error _ -> incr errors);
           dt_us)
         paths)
  in
  Client.close cold_client;
  (* Load phase: [clients] domains, each its own connection, walking
     the captures round-robin. *)
  let path_arr = Array.of_list paths in
  let t_load0 = Unix.gettimeofday () in
  let worker c =
    let client = Client.connect address in
    let lat = Array.make requests_per_client 0. in
    let failed = ref 0 in
    for i = 0 to requests_per_client - 1 do
      let path = path_arr.((c + i) mod Array.length path_arr) in
      let resp, dt_us = timed_rpc client (analyze_request path) in
      (match resp with
      | Ok r when response_ok r -> ()
      | Ok _ | Error _ -> incr failed);
      lat.(i) <- dt_us
    done;
    Client.close client;
    (lat, !failed)
  in
  let domains =
    List.init clients (fun c -> Domain.spawn (fun () -> worker c))
  in
  let per_client = List.map Domain.join domains in
  let wall_s = Unix.gettimeofday () -. t_load0 in
  List.iter (fun (_, failed) -> errors := !errors + failed) per_client;
  let latencies = Array.concat (List.map fst per_client) in
  Array.sort Float.compare latencies;
  let total_requests = Array.length latencies in
  let throughput = float_of_int total_requests /. wall_s in
  let rolling = query_rolling address in
  (* Graceful drain, then clean up the temp captures. *)
  Server.stop server;
  Server.wait server;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  let p50 = percentile latencies 50.
  and p95 = percentile latencies 95.
  and p99 = percentile latencies 99. in
  let cold_mean = mean cold_us and warm_mean = mean warm_us in
  let speedup = if warm_mean > 0. then cold_mean /. warm_mean else 0. in
  Printf.printf
    "[serve_load] %d requests in %.2f s (%.1f req/s)\n\
     [serve_load] latency p50 %.0f us  p95 %.0f us  p99 %.0f us\n\
     [serve_load] cache cold %.0f us -> warm %.0f us (%.1fx)\n\
     [serve_load] byte-identical output: %b, errors: %d\n%!"
    total_requests wall_s throughput p50 p95 p99 cold_mean warm_mean speedup
    !byte_identical !errors;
  (match rolling with
  | Some (Some w, exemplars) ->
      Printf.printf
        "[serve_load] rolling(analyze, last %.0fs): %d req  p50 %.0f us  \
         p95 %.0f us  p99 %.0f us  (%d exemplars)\n\
         %!"
        (jfloat w "window_s")
        (int_of_float (jfloat w "count"))
        (jfloat w "p50_us") (jfloat w "p95_us") (jfloat w "p99_us") exemplars
  | Some (None, _) | None ->
      Printf.printf "[serve_load] rolling window stats unavailable\n%!";
      incr errors);
  let oc = open_out "BENCH_SERVE.json" in
  Printf.fprintf oc
    "{\n\
    \  \"label\": \"serve_load\",\n\
    \  \"clients\": %d,\n\
    \  \"requests_per_client\": %d,\n\
    \  \"captures\": %d,\n\
    \  \"jobs\": 4,\n\
    \  \"total_requests\": %d,\n\
    \  \"wall_s\": %.4f,\n\
    \  \"throughput_rps\": %.2f,\n\
    \  \"latency_us\": { \"p50\": %.0f, \"p95\": %.0f, \"p99\": %.0f },\n\
    \  \"cache\": { \"cold_mean_us\": %.0f, \"warm_mean_us\": %.0f, \
     \"speedup\": %.2f },\n"
    clients requests_per_client (List.length paths) total_requests wall_s
    throughput p50 p95 p99 cold_mean warm_mean speedup;
  (match rolling with
  | Some (Some w, exemplars) ->
      Printf.fprintf oc
        "  \"rolling\": { \"endpoint\": \"analyze\", \"window_s\": %.0f, \
         \"count\": %.0f, \"rps\": %.2f, \"p50_us\": %.0f, \"p95_us\": %.0f, \
         \"p99_us\": %.0f, \"exemplars\": %d },\n"
        (jfloat w "window_s") (jfloat w "count") (jfloat w "rps")
        (jfloat w "p50_us") (jfloat w "p95_us") (jfloat w "p99_us") exemplars
  | Some (None, _) | None -> ());
  Printf.fprintf oc
    "  \"byte_identical\": %b,\n\
    \  \"errors\": %d\n\
     }\n"
    !byte_identical !errors;
  close_out oc;
  Printf.printf "[serve_load] wrote BENCH_SERVE.json\n%!"

let registry = [ ("serve_load", run) ]
