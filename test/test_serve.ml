(* The serve daemon, end to end over real sockets: JSON codec, protocol
   parsing (malformed input comes back as typed errors, never a dead
   connection), cache hit/miss correctness under file replacement,
   queue-full backpressure (429), tailing a still-growing capture, and
   graceful drain — in-process via the shutdown verb and out-of-process
   via SIGTERM on a spawned `tdat serve`. *)

module Json = Tdat_json.Json
module Protocol = Tdat_serve.Protocol
module Server = Tdat_serve.Server
module Client = Tdat_serve.Client
module Cache = Tdat_serve.Cache
module Scenario = Tdat_bgpsim.Scenario
module Obs = Tdat_obs.Metrics
module Tracer = Tdat_obs.Tracer

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i =
    i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1))
  in
  at 0

let bin_exe name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))

let tdat_exe = bin_exe "tdat_cli.exe"

let tmpdir () =
  let f = Filename.temp_file "tdat_serve" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

(* --- JSON codec -------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "[1,2.5,-3,\"x\"]";
      "{\"a\":1,\"b\":[{\"c\":null}],\"s\":\"hi\"}";
      "\"quote \\\" backslash \\\\ newline \\n tab \\t\"";
      "{}";
      "[]";
    ]
  in
  List.iter
    (fun src ->
      match Json.parse src with
      | Error msg -> Alcotest.failf "parse %s: %s" src msg
      | Ok j -> (
          (* Emit, reparse: must be a fixpoint. *)
          let emitted = Json.to_string j in
          match Json.parse emitted with
          | Error msg -> Alcotest.failf "reparse %s: %s" emitted msg
          | Ok j2 ->
              Alcotest.(check string)
                ("fixpoint of " ^ src) emitted (Json.to_string j2)))
    cases

let test_json_strings () =
  (* Control characters and non-ASCII survive a round trip. *)
  let s = "a\nb\tc\r\x01d\xe2\x82\xac" in
  let emitted = Json.to_string (Json.Str s) in
  (match Json.parse emitted with
  | Ok (Json.Str s2) -> Alcotest.(check string) "escape roundtrip" s s2
  | Ok _ | Error _ -> Alcotest.fail "escape roundtrip reparse");
  (* Surrogate pair decodes to UTF-8. *)
  match Json.parse "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair"

let test_json_malformed () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed %S" src
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      "{\"a\":}";
      "nul";
      "\"unterminated";
      "1 2" (* trailing garbage *);
      "{\"a\" 1}";
      "\"bad escape \\q\"";
      "01" (* leading zero *);
    ]

let test_json_numbers () =
  (match Json.parse "42" with
  | Ok (Json.Num n) ->
      Alcotest.(check (float 0.)) "int" 42. n;
      Alcotest.(check string) "int emits bare" "42" (Json.to_string (Json.Num n))
  | Ok _ | Error _ -> Alcotest.fail "42");
  (match Json.parse "-1.5e2" with
  | Ok (Json.Num n) -> Alcotest.(check (float 1e-9)) "sci" (-150.) n
  | Ok _ | Error _ -> Alcotest.fail "-1.5e2");
  (* Integers print as integers up to 2^53 (microsecond epoch stamps
     are ~1.7e15); -0 keeps its sign. *)
  List.iter
    (fun (n, want) ->
      Alcotest.(check string) want want (Json.to_string (Json.Num n)))
    [
      (1.7e15, "1700000000000000");
      (0x1p53 -. 1., "9007199254740991");
      (-0., "-0");
      (Float.infinity, "1e999");
      (Float.neg_infinity, "-1e999");
      (Float.nan, "null");
    ];
  match Json.parse "-0" with
  | Ok (Json.Num n) ->
      Alcotest.(check bool) "-0 parses negative" true (Float.sign_bit n)
  | Ok _ | Error _ -> Alcotest.fail "-0"

(* Structural equality that also tells -0. from 0. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Num x, Json.Num y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.equal
        (fun (k, v) (k', v') -> String.equal k k' && json_equal v v')
        xs ys
  | _ -> a = b

let gen_json =
  let open QCheck.Gen in
  let str =
    frequency
      [
        (2, string_size ~gen:char (int_bound 10));
        ( 1,
          map (String.concat "")
            (list_size (int_bound 5)
               (oneofl
                  [ "\""; "\\"; "\b"; "\012"; "\n"; "\x00"; "\x1f"; "\x7f";
                    "\xe2\x82\xac"; "/" ])) );
      ]
  in
  let num =
    frequency
      [
        (3, map (fun x -> if Float.is_nan x then 0. else x) float);
        (2, map float_of_int small_signed_int);
        ( 1,
          map
            (fun (neg, n) -> float_of_int (if neg then -n else n))
            (pair bool (int_range 1_000_000_000_000_000 ((1 lsl 53) - 1))) );
        ( 1,
          oneofl
            [ -0.; 0.; 0.1; 1e-300; 0x1p53; Float.infinity; Float.neg_infinity ]
        );
      ]
  in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (3, map (fun n -> Json.Num n) num);
        (3, map (fun s -> Json.Str s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun xs -> Json.Arr xs) (list_size (int_bound 4) (self (n / 2)))
               );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) );
             ])

(* Every document the repository writes goes through this writer, so
   what it writes must read back as the same value. *)
let qcheck_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"json: parse (to_string v) = Ok v" ~count:500
       (QCheck.make ~print:Json.to_string gen_json)
       (fun v ->
         match Json.parse (Json.to_string v) with
         | Ok v' -> json_equal v v'
         | Error _ -> false))

(* --- protocol parsing --------------------------------------------------- *)

let request_error line =
  match (Protocol.parse_line line).Protocol.request with
  | Error e -> e
  | Ok _ -> Alcotest.failf "accepted %S" line

let test_protocol_malformed () =
  let e = request_error "{nope" in
  Alcotest.(check string) "bad json code" "bad_json" e.Protocol.code;
  Alcotest.(check int) "bad json status" 400 e.Protocol.status;
  let e = request_error "[1,2]" in
  Alcotest.(check string) "non-object" "bad_request" e.Protocol.code;
  let e = request_error "{\"cmd\":\"frobnicate\"}" in
  Alcotest.(check string) "unknown cmd" "bad_request" e.Protocol.code;
  let e = request_error "{\"cmd\":\"analyze\"}" in
  Alcotest.(check string) "missing path" "bad_request" e.Protocol.code;
  let e = request_error "{\"cmd\":\"study\",\"paths\":[]}" in
  Alcotest.(check string) "empty paths" "bad_request" e.Protocol.code;
  let e =
    request_error "{\"cmd\":\"analyze\",\"path\":\"x\",\"follow_idle_s\":-1}"
  in
  Alcotest.(check string) "negative follow" "bad_request" e.Protocol.code;
  List.iter
    (fun (what, field) ->
      let e =
        request_error
          (Printf.sprintf "{\"cmd\":\"study\",\"paths\":[\"a\"],%s}" field)
      in
      Alcotest.(check string) what "bad_request" e.Protocol.code)
    [
      ("gap 1e999", "\"gap_s\":1e999");
      ("gap -5", "\"gap_s\":-5");
      ("gap 0", "\"gap_s\":0");
      ("threshold -1", "\"slow_threshold_s\":-1");
    ]

let test_protocol_requests () =
  (match Protocol.parse_line "{\"id\":7,\"cmd\":\"ping\"}" with
  | { Protocol.id = Json.Num 7.; request = Ok Protocol.Ping } -> ()
  | _ -> Alcotest.fail "ping with id");
  (match
     (Protocol.parse_line
        "{\"cmd\":\"analyze\",\"path\":\"t.pcap\",\"series\":true,\
         \"follow_idle_s\":0.5}")
       .Protocol.request
   with
  | Ok
      (Protocol.Analyze
        {
          path = "t.pcap";
          series = true;
          sender_side = false;
          follow = Some { Protocol.idle_s = 0.5; limit_s = 60. };
        }) ->
      ()
  | _ -> Alcotest.fail "analyze fields");
  match
    (Protocol.parse_line
       "{\"cmd\":\"study\",\"paths\":[\"a\",\"b\"],\"gap_s\":120,\
        \"min_prefixes\":5}")
      .Protocol.request
  with
  | Ok (Protocol.Study { paths = [ "a"; "b" ]; gap_s = 120.; min_prefixes = 5; _ })
    ->
      ()
  | _ -> Alcotest.fail "study fields"

(* The study's seconds at the ends of the option check: absent fields
   take the defaults, the smallest and largest gap and a zero or
   infinite threshold parse as given, and every value just past an end
   (or not a number at all) is a 400 naming its field. *)
let test_protocol_study_seconds () =
  let study fields =
    (Protocol.parse_line
       (Printf.sprintf "{\"cmd\":\"study\",\"paths\":[\"a\"]%s}" fields))
      .Protocol.request
  in
  (match study "" with
  | Ok (Protocol.Study { gap_s = 200.; slow_threshold_s = None; _ }) -> ()
  | _ -> Alcotest.fail "defaults");
  (match study ",\"gap_s\":1e-6,\"slow_threshold_s\":0" with
  | Ok (Protocol.Study { gap_s; slow_threshold_s = Some 0.; _ })
    when gap_s = 1e-6 ->
      ()
  | _ -> Alcotest.fail "smallest gap, zero threshold");
  (match study ",\"gap_s\":4e12,\"slow_threshold_s\":1e999" with
  | Ok (Protocol.Study { gap_s = 4e12; slow_threshold_s = Some t; _ })
    when t = Float.infinity ->
      ()
  | _ -> Alcotest.fail "largest gap, infinite threshold");
  List.iter
    (fun (field, value) ->
      match study (Printf.sprintf ",\"%s\":%s" field value) with
      | Ok _ -> Alcotest.failf "accepted %s %s" field value
      | Error e ->
          Alcotest.(check string) (field ^ " " ^ value) "bad_request"
            e.Protocol.code;
          Alcotest.(check bool)
            (field ^ " " ^ value ^ " names the field")
            true
            (contains e.Protocol.message field))
    [
      ("gap_s", "9.99e-7"); ("gap_s", "4.0001e12"); ("gap_s", "9e12");
      ("gap_s", "-1e999"); ("gap_s", "\"200\"");
      ("slow_threshold_s", "-1e-300"); ("slow_threshold_s", "-1e999");
      ("slow_threshold_s", "\"inf\"");
    ]

(* The command line and the daemon share one check, so every spelling
   of a gap or a threshold that both can read is accepted by both or
   refused by both: the CLI exits 0 or 124, the daemon parses the
   request or answers 400. *)
let test_cli_and_daemon_agree () =
  let dir = tmpdir () in
  let path = Filename.concat dir "updates.mrt" in
  let result =
    Scenario.run ~seed:34 [ Scenario.router ~table_prefixes:200 1 ]
  in
  Tdat_bgp.Mrt.to_file path (List.hd result.Scenario.outcomes).Scenario.mrt;
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun (opt, field) ->
      List.iter
        (fun value ->
          let daemon =
            Result.is_ok
              (Protocol.parse_line
                 (Printf.sprintf
                    "{\"cmd\":\"study\",\"paths\":[\"a\"],\"%s\":%s}"
                    field value))
                .Protocol.request
          in
          let rc =
            Sys.command
              (Printf.sprintf "%s study %s=%s %s >/dev/null 2>&1"
                 (Filename.quote tdat_exe) opt value (Filename.quote path))
          in
          let what = Printf.sprintf "%s=%s" opt value in
          if daemon then incr accepted else incr refused;
          Alcotest.(check int) what (if daemon then 0 else 124) rc)
        [
          "1e999"; "-1e999"; "-5"; "-1e-300"; "0"; "1e-9"; "1e-6"; "0.5";
          "200"; "4e12"; "4.0001e12"; "9e12";
        ])
    [ ("--gap", "gap_s"); ("--slow-threshold", "slow_threshold_s") ];
  Alcotest.(check bool) "both ends seen" true (!accepted > 0 && !refused > 0);
  Sys.remove path;
  Unix.rmdir dir

(* --- server helpers ----------------------------------------------------- *)

let start_server ?(jobs = 2) ?(queue = 8) () =
  Server.start
    {
      Server.address = `Tcp ("127.0.0.1", 0);
      jobs;
      queue_capacity = queue;
    }

let stop_server server =
  Server.stop server;
  Server.wait server

let rpc client fields =
  match Client.rpc client (Json.Obj fields) with
  | Ok r -> r
  | Error msg -> Alcotest.failf "rpc: %s" msg

let is_ok resp =
  match Json.member "ok" resp with Some (Json.Bool b) -> b | _ -> false

let error_code resp =
  match Json.member "error" resp with
  | Some e -> (
      match Json.member "code" e with Some (Json.Str c) -> Some c | _ -> None)
  | None -> None

let result_member resp name =
  match Json.member "result" resp with
  | Some r -> Json.member name r
  | None -> None

let result_output resp =
  match result_member resp "output" with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "response has no output"

let result_cache_hit resp =
  match result_member resp "cache_hit" with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.fail "response has no cache_hit"

(* Receive until the response carrying [id] arrives, stashing the
   others — pipelined requests complete in whatever order the pool
   finishes them. *)
let recv_for client stash id =
  let key j =
    match Json.member "id" j with Some v -> Json.to_string v | None -> "null"
  in
  let rec go () =
    match Hashtbl.find_opt stash id with
    | Some r ->
        Hashtbl.remove stash id;
        r
    | None -> (
        match Client.Private.recv_line client with
        | None -> Alcotest.failf "eof waiting for response %s" id
        | Some line -> (
            match Json.parse line with
            | Ok j ->
                Hashtbl.replace stash (key j) j;
                go ()
            | Error msg -> Alcotest.failf "bad response line: %s" msg))
  in
  go ()

let write_capture ~seed ~prefixes path =
  let result =
    Scenario.run ~seed [ Scenario.router ~table_prefixes:prefixes 1 ]
  in
  Tdat_pkt.Pcap.to_file path result.Scenario.site_trace

(* What `tdat analyze <path>` prints: the CLI calls this renderer. *)
let batch_output path =
  let r = Tdat_pkt.Pcap.read_file path in
  Tdat_serve.Render.analysis
    (Tdat.Analyzer.analyze_all ~jobs:1 r.Tdat_pkt.Pcap.trace)

(* --- server: protocol round-trip ---------------------------------------- *)

let test_server_roundtrip () =
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  (* ping *)
  let resp = rpc client [ ("cmd", Json.Str "ping"); ("id", Json.Num 1.) ] in
  Alcotest.(check bool) "ping ok" true (is_ok resp);
  (* malformed JSON: typed error, connection survives *)
  Client.Private.send_line client "{this is not json";
  (match Client.Private.recv_line client with
  | Some line -> (
      match Json.parse line with
      | Ok resp ->
          Alcotest.(check bool) "malformed not ok" false (is_ok resp);
          Alcotest.(check (option string))
            "malformed code" (Some "bad_json") (error_code resp)
      | Error msg -> Alcotest.failf "unparsable error response: %s" msg)
  | None -> Alcotest.fail "connection died on malformed input");
  (* unknown verb: still typed, still alive *)
  let resp = rpc client [ ("cmd", Json.Str "frobnicate") ] in
  Alcotest.(check (option string))
    "unknown cmd" (Some "bad_request") (error_code resp);
  (* missing file: 404-style *)
  let resp =
    rpc client
      [ ("cmd", Json.Str "analyze"); ("path", Json.Str "/nonexistent.pcap") ]
  in
  Alcotest.(check (option string))
    "missing file" (Some "not_found") (error_code resp);
  (* the connection survived all of the above *)
  let resp = rpc client [ ("cmd", Json.Str "stats") ] in
  Alcotest.(check bool) "stats ok" true (is_ok resp);
  Client.close client;
  stop_server server

(* --- server: analysis correctness and the cache -------------------------- *)

let test_server_analyze_and_cache () =
  let dir = tmpdir () in
  let path = Filename.concat dir "cap.pcap" in
  write_capture ~seed:31 ~prefixes:800 path;
  let expected_a = batch_output path in
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let analyze () =
    rpc client [ ("cmd", Json.Str "analyze"); ("path", Json.Str path) ]
  in
  (* Cold: miss, and byte-identical to the batch CLI's stdout. *)
  let resp = analyze () in
  Alcotest.(check bool) "analyze ok" true (is_ok resp);
  Alcotest.(check bool) "first is a miss" false (result_cache_hit resp);
  Alcotest.(check string) "output matches batch" expected_a
    (result_output resp);
  (* Warm: hit, same bytes. *)
  let resp = analyze () in
  Alcotest.(check bool) "second is a hit" true (result_cache_hit resp);
  Alcotest.(check string) "hit output identical" expected_a
    (result_output resp);
  (* Replace the file (different size): the (mtime, size) key must
     invalidate, and the answer must be the new file's. *)
  write_capture ~seed:32 ~prefixes:1400 path;
  let expected_b = batch_output path in
  Alcotest.(check bool)
    "distinct captures render distinct output" false
    (String.equal expected_a expected_b);
  let resp = analyze () in
  Alcotest.(check bool) "replacement is a miss" false (result_cache_hit resp);
  Alcotest.(check string) "replacement output" expected_b
    (result_output resp);
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* --- the response cache ---------------------------------------------------- *)

let cache_field resp name =
  match Option.bind (result_member resp "cache") (Json.member name) with
  | Some (Json.Num n) -> int_of_float n
  | _ -> Alcotest.failf "stats has no cache.%s" name

let cache_stats client =
  let resp = rpc client [ ("cmd", Json.Str "stats") ] in
  List.map
    (fun name -> (name, cache_field resp name))
    [ "entries"; "hits"; "misses"; "evictions" ]

let cache_counts = Alcotest.(list (pair string int))

(* The LRU mechanics at capacity 4, keyed apart from the file whose
   stat validates each entry. *)
let test_cache_lru () =
  let dir = tmpdir () in
  let file = Filename.concat dir "input" in
  let write s = Out_channel.with_open_bin file (fun oc -> output_string oc s) in
  write "v1";
  let cache = Cache.create ~capacity:4 ~max_bytes:1_000 ~size:String.length in
  let loads = ref 0 in
  let get key =
    snd
      (Cache.find_or_load cache key ~path:file ~load:(fun () ->
           incr loads;
           key))
  in
  let stats () =
    let s = Cache.stats cache in
    Cache.
      [
        ("entries", s.entries); ("hits", s.hits); ("misses", s.misses);
        ("evictions", s.evictions);
      ]
  in
  List.iter (fun k -> Alcotest.(check bool) (k ^ " cold") false (get k))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check bool) "a is touched" true (get "a");
  Alcotest.(check bool) "e cold, evicts the oldest" false (get "e");
  Alcotest.(check cache_counts) "full after one eviction"
    [ ("entries", 4); ("hits", 1); ("misses", 5); ("evictions", 1) ]
    (stats ());
  Alcotest.(check bool) "the touched entry survives" true (get "a");
  Alcotest.(check bool) "the oldest was evicted" false (get "b");
  Alcotest.(check int) "loaded once per miss" 6 !loads;
  (* Same size, so only the mtime can tell the rewrite apart. *)
  Unix.utimes file 0. 1.;
  Alcotest.(check bool) "a stat change is a miss" false (get "a");
  Alcotest.(check cache_counts) "replaced in place, not evicted"
    [ ("entries", 4); ("hits", 2); ("misses", 7); ("evictions", 2) ]
    (stats ());
  write "version 2";
  Alcotest.(check bool) "a size change is a miss" false (get "a");
  Alcotest.(check bool) "the reloaded entry is a hit" true (get "a");
  (match
     Cache.find_or_load cache "z" ~path:file ~load:(fun () ->
         failwith "load failed")
   with
  | _ -> Alcotest.fail "a raising load propagates"
  | exception Failure _ -> ());
  Alcotest.(check cache_counts) "a raising load stores nothing"
    [ ("entries", 4); ("hits", 3); ("misses", 9); ("evictions", 2) ]
    (stats ());
  Sys.remove file;
  Unix.rmdir dir

(* The byte budget: entries weighed at store time, least-recently-used
   ones evicted until a new one fits, and one heavier than the whole
   budget served but never stored. *)
let test_cache_byte_budget () =
  let dir = tmpdir () in
  let file = Filename.concat dir "input" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "v1");
  let cache = Cache.create ~capacity:16 ~max_bytes:10 ~size:String.length in
  let get value =
    let v, hit = Cache.find_or_load cache value ~path:file ~load:(fun () -> value) in
    Alcotest.(check string) "the answer is served" value v;
    hit
  in
  let stats () =
    let s = Cache.stats cache in
    Cache.
      [
        ("entries", s.entries); ("bytes", s.bytes); ("evictions", s.evictions);
      ]
  in
  List.iter
    (fun v -> Alcotest.(check bool) (v ^ " cold") false (get v))
    [ "aaaa"; "bbbb" ];
  Alcotest.(check bool) "aaaa is touched" true (get "aaaa");
  Alcotest.(check bool) "cccc cold" false (get "cccc");
  Alcotest.(check cache_counts) "over 10 bytes, the oldest goes"
    [ ("entries", 2); ("bytes", 8); ("evictions", 1) ]
    (stats ());
  Alcotest.(check bool) "the touched entry survives" true (get "aaaa");
  Alcotest.(check bool) "the evicted one misses" false (get "bbbb");
  Alcotest.(check bool) "ten bytes fit alone" false (get "dddddddddd");
  Alcotest.(check cache_counts) "one entry of the whole budget"
    [ ("entries", 1); ("bytes", 10); ("evictions", 4) ]
    (stats ());
  Alcotest.(check bool) "eleven bytes cold" false (get "eeeeeeeeeee");
  Alcotest.(check bool) "and never stored" false (get "eeeeeeeeeee");
  Alcotest.(check cache_counts) "nothing evicted for it"
    [ ("entries", 1); ("bytes", 10); ("evictions", 4) ]
    (stats ());
  Sys.remove file;
  Unix.rmdir dir

(* What `tdat analyze` prints for [path] with the matching flags. *)
let cli_analyze ~series ~sender_side path =
  let cmd =
    Printf.sprintf "%s analyze %s%s%s 2>/dev/null" (Filename.quote tdat_exe)
      (Filename.quote path)
      (if series then " --series" else "")
      (if sender_side then " --sender-side" else "")
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      Alcotest.failf "%s failed" cmd);
  out

let without_member name = function
  | Some (Json.Obj fields) ->
      Json.to_string
        (Json.Obj (List.filter (fun (k, _) -> not (String.equal k name)) fields))
  | _ -> Alcotest.fail "response has no result"

(* Every option that changes the answer is part of the key: the four
   series x sender_side answers and a check of one capture are five
   entries, each byte-identical to the batch CLI, hit or miss. *)
let test_server_cache_option_keys () =
  let dir = tmpdir () in
  let path = Filename.concat dir "cap.pcap" in
  write_capture ~seed:37 ~prefixes:600 path;
  let combos = [ (false, false); (true, false); (false, true); (true, true) ] in
  let expected =
    List.map
      (fun (series, sender_side) ->
        ((series, sender_side), cli_analyze ~series ~sender_side path))
      combos
  in
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let pass ~hit =
    let what = if hit then "repeat" else "first" in
    List.iter
      (fun ((series, sender_side), want) ->
        let name =
          Printf.sprintf "%s series=%b sender_side=%b" what series sender_side
        in
        let resp =
          rpc client
            [
              ("cmd", Json.Str "analyze"); ("path", Json.Str path);
              ("series", Json.Bool series);
              ("sender_side", Json.Bool sender_side);
            ]
        in
        Alcotest.(check bool) (name ^ ": cache_hit") hit (result_cache_hit resp);
        Alcotest.(check string) (name ^ ": output is tdat analyze's") want
          (result_output resp))
      expected;
    let resp = rpc client [ ("cmd", Json.Str "check"); ("path", Json.Str path) ] in
    Alcotest.(check bool) (what ^ " check: cache_hit") hit
      (result_cache_hit resp);
    without_member "cache_hit" (Json.member "result" resp)
  in
  let first = pass ~hit:false in
  Alcotest.(check string) "a repeated check answers the same" first
    (pass ~hit:true);
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* The served stats.cache object: flat counters that track analyze,
   check and option keys. *)
let test_server_cache_stats () =
  let dir = tmpdir () in
  let paths =
    List.init 2 (fun i -> Filename.concat dir (Printf.sprintf "c%d.pcap" i))
  in
  List.iteri
    (fun i p -> write_capture ~seed:(40 + i) ~prefixes:(200 + (10 * i)) p)
    paths;
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let run cmd extra p =
    let resp =
      rpc client ([ ("cmd", Json.Str cmd); ("path", Json.Str p) ] @ extra)
    in
    Alcotest.(check bool) (cmd ^ " ok") true (is_ok resp)
  in
  let requests () =
    List.iter
      (fun p ->
        run "analyze" [] p;
        run "analyze" [ ("series", Json.Bool true) ] p;
        run "check" [] p)
      paths
  in
  Alcotest.(check cache_counts) "empty at start"
    [ ("entries", 0); ("hits", 0); ("misses", 0); ("evictions", 0) ]
    (cache_stats client);
  requests ();
  Alcotest.(check cache_counts) "six distinct requests miss"
    [ ("entries", 6); ("hits", 0); ("misses", 6); ("evictions", 0) ]
    (cache_stats client);
  requests ();
  Alcotest.(check cache_counts) "and then hit"
    [ ("entries", 6); ("hits", 6); ("misses", 6); ("evictions", 0) ]
    (cache_stats client);
  let resp = rpc client [ ("cmd", Json.Str "stats") ] in
  Alcotest.(check (list string)) "one flat cache object"
    [ "entries"; "hits"; "misses"; "evictions" ]
    (match result_member resp "cache" with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> []);
  Client.close client;
  stop_server server;
  List.iter Sys.remove paths;
  Unix.rmdir dir

(* What the cache does not keep: a tailed read, a typed error; and what
   a hit does not run. *)
let test_server_cache_edges () =
  let dir = tmpdir () in
  let path = Filename.concat dir "cap.pcap" in
  let junk = Filename.concat dir "junk.pcap" in
  write_capture ~seed:39 ~prefixes:300 path;
  Out_channel.with_open_bin junk (fun oc ->
      output_string oc "this is not a pcap file\n");
  let server = start_server ~jobs:1 () in
  let client = Client.connect (Server.address server) in
  let entries () = List.assoc "entries" (cache_stats client) in
  let follow () =
    rpc client
      [
        ("cmd", Json.Str "analyze"); ("path", Json.Str path);
        ("follow_idle_s", Json.Num 0.05);
      ]
  in
  List.iter
    (fun what ->
      let resp = follow () in
      Alcotest.(check bool) (what ^ " follow ok") true (is_ok resp);
      Alcotest.(check bool) (what ^ " follow is never a hit") false
        (result_cache_hit resp);
      Alcotest.(check int) (what ^ " follow stores nothing") 0 (entries ()))
    [ "first"; "second" ];
  let junk_answer () =
    let resp =
      rpc client [ ("cmd", Json.Str "analyze"); ("path", Json.Str junk) ]
    in
    Alcotest.(check (option string)) "error diagnostics are a 400"
      (Some "bad_request") (error_code resp);
    Json.to_string resp
  in
  let first = junk_answer () in
  Alcotest.(check string) "the same typed 400 twice" first (junk_answer ());
  Alcotest.(check cache_counts) "a typed error is never stored"
    [ ("entries", 0); ("hits", 0); ("misses", 2); ("evictions", 0) ]
    (cache_stats client);
  let timed () =
    rpc client
      [
        ("cmd", Json.Str "analyze"); ("path", Json.Str path);
        ("timings", Json.Bool true);
      ]
  in
  let stages resp =
    match result_member resp "timings" with
    | Some (Json.Obj fields) -> List.map fst fields
    | _ -> Alcotest.fail "timings echoed when requested"
  in
  let miss = timed () in
  Alcotest.(check (list string)) "a miss times every stage"
    [ "queue_wait_us"; "decode_us"; "analyze_us"; "render_us"; "total_us" ]
    (stages miss);
  let hit = timed () in
  Alcotest.(check bool) "then a hit" true (result_cache_hit hit);
  Alcotest.(check (list string)) "a hit runs no stage"
    [ "queue_wait_us"; "total_us" ] (stages hit);
  Client.close client;
  stop_server server;
  Sys.remove path;
  Sys.remove junk;
  Unix.rmdir dir

(* --- server: queue-full backpressure ------------------------------------- *)

let stats_field client name =
  let resp = rpc client [ ("cmd", Json.Str "stats") ] in
  match result_member resp name with
  | Some (Json.Num n) -> int_of_float n
  | _ -> Alcotest.failf "stats has no %s" name

let await client name value =
  let rec go n =
    if n = 0 then Alcotest.failf "timeout waiting for %s=%d" name value
    else if stats_field client name = value then ()
    else begin
      Unix.sleepf 0.01;
      go (n - 1)
    end
  in
  go 500

let test_server_backpressure () =
  (* One worker, queue of one: job 1 occupies the worker, job 2 fills
     the queue, job 3 must be rejected with the 429-style busy error. *)
  let server = start_server ~jobs:1 ~queue:1 () in
  let addr = Server.address server in
  let work = Client.connect addr in
  let ctl = Client.connect addr in
  let stash = Hashtbl.create 8 in
  let sleep_req id =
    Client.Private.send_line work
      (Json.to_string
         (Json.Obj
            [ ("cmd", Json.Str "sleep"); ("ms", Json.Num 300.);
              ("id", Json.Num id) ]))
  in
  sleep_req 1.;
  await ctl "in_flight" 1;
  sleep_req 2.;
  await ctl "queue_depth" 1;
  sleep_req 3.;
  let r3 = recv_for work stash "3" in
  Alcotest.(check bool) "job 3 rejected" false (is_ok r3);
  Alcotest.(check (option string)) "job 3 busy" (Some "busy") (error_code r3);
  let r1 = recv_for work stash "1" in
  Alcotest.(check bool) "job 1 completed" true (is_ok r1);
  let r2 = recv_for work stash "2" in
  Alcotest.(check bool) "job 2 completed" true (is_ok r2);
  Client.close work;
  Client.close ctl;
  stop_server server

(* --- server: workers pull jobs one at a time ------------------------------- *)

let response_id line =
  match Json.parse line with
  | Ok j -> Option.fold ~none:"null" ~some:Json.to_string (Json.member "id" j)
  | Error msg -> Alcotest.failf "bad response line: %s" msg

let test_server_short_job_overtakes () =
  (* Two workers: a short job sent while a long one runs takes the idle
     worker and is answered first, on the same connection. *)
  let server = start_server ~jobs:2 () in
  let addr = Server.address server in
  let work = Client.connect addr in
  let ctl = Client.connect addr in
  let sleep_req id ms =
    Client.Private.send_line work
      (Json.to_string
         (Json.Obj
            [ ("cmd", Json.Str "sleep"); ("ms", Json.Num ms);
              ("id", Json.Num id) ]))
  in
  let recv () =
    match Client.Private.recv_line work with
    | Some line -> response_id line
    | None -> Alcotest.fail "eof before both responses"
  in
  sleep_req 1. 1000.;
  await ctl "in_flight" 1;
  sleep_req 2. 10.;
  let first = recv () in
  let second = recv () in
  Alcotest.(check (list string)) "sleep 10 answered first" [ "2"; "1" ]
    [ first; second ];
  Client.close work;
  Client.close ctl;
  stop_server server

(* --- client: a daemon that never answers ------------------------------------ *)

let test_client_recv_timeout () =
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 1;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "listener is TCP"
  in
  let client = Client.connect (`Tcp ("127.0.0.1", port)) in
  let peer, _ = Unix.accept lfd in
  let t0 = Unix.gettimeofday () in
  let reply = Client.rpc client (Json.Obj [ ("cmd", Json.Str "ping") ]) in
  let waited = Unix.gettimeofday () -. t0 in
  Client.close client;
  Unix.close peer;
  Unix.close lfd;
  (match reply with
  | Error msg ->
      Alcotest.(check bool) ("timeout error: " ^ msg) true
        (contains msg "no response")
  | Ok _ -> Alcotest.fail "a silent peer cannot answer");
  Alcotest.(check bool) "waited the receive timeout" true
    (waited >= Client.Private.recv_timeout_s -. 0.5)

(* --- server: tailing a still-growing capture ------------------------------ *)

let test_server_follow_tail () =
  let dir = tmpdir () in
  let full = Filename.concat dir "full.pcap" in
  let tail = Filename.concat dir "tail.pcap" in
  write_capture ~seed:33 ~prefixes:800 full;
  let data =
    In_channel.with_open_bin full (fun ic -> In_channel.input_all ic)
  in
  let expected = batch_output full in
  (* Start with the first half — cut mid-record on purpose — and
     append the rest while the server is already reading. *)
  let cut = String.length data / 2 in
  Out_channel.with_open_bin tail (fun oc ->
      Out_channel.output_string oc (String.sub data 0 cut));
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let writer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o600 tail
        in
        output_string oc (String.sub data cut (String.length data - cut));
        close_out oc)
  in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "analyze");
        ("path", Json.Str tail);
        ("follow_idle_s", Json.Num 0.5);
        ("follow_limit_s", Json.Num 30.);
      ]
  in
  Domain.join writer;
  Alcotest.(check bool) "tail analyze ok" true (is_ok resp);
  Alcotest.(check string) "tailed output equals full-file output" expected
    (result_output resp);
  Client.close client;
  stop_server server;
  Sys.remove full;
  Sys.remove tail;
  Unix.rmdir dir

(* --- server: request framing across reads ----------------------------------- *)

let raw_connect server =
  match Server.address server with
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      (* A framing bug that drops a line fails the test, not hangs it. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      fd
  | `Unix _ -> Alcotest.fail "test server listens on TCP"

let raw_send fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* The same pipelined lines sent whole, split in two at every byte
   boundary, and sent one byte at a time get the same responses.  Control
   verbs and request errors are answered inline, in order, so the
   responses compare line by line. *)
let test_server_split_requests () =
  let requests =
    "{\"cmd\":\"ping\",\"id\":1}\n{\"cmd\":\"frobnicate\",\"id\":2}\r\n\n\
     {this is not json\n\r\n{\"cmd\":\"ping\",\"id\":\"x\"}\r\n"
  in
  let n = String.length requests in
  let server = start_server () in
  let fd = raw_connect server in
  let ic = Unix.in_channel_of_descr fd in
  let responses () = List.init 4 (fun _ -> input_line ic) in
  raw_send fd requests;
  let whole = responses () in
  Alcotest.(check int) "four answers" 4 (List.length whole);
  for k = 1 to n - 1 do
    raw_send fd (String.sub requests 0 k);
    Unix.sleepf 0.002;
    raw_send fd (String.sub requests k (n - k));
    Alcotest.(check (list string))
      (Printf.sprintf "split at byte %d" k)
      whole (responses ())
  done;
  String.iter
    (fun c ->
      raw_send fd (String.make 1 c);
      Unix.sleepf 0.0005)
    requests;
  Alcotest.(check (list string)) "one byte at a time" whole (responses ());
  close_in ic;
  (* A line past the 1 MiB cap, sent in 4 KiB pieces, is refused with a
     400 and the connection closed. *)
  let fd = raw_connect server in
  let ic = Unix.in_channel_of_descr fd in
  let piece = String.make 4096 'x' in
  (try
     for _ = 0 to 256 do
       raw_send fd piece
     done
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (match Json.parse (input_line ic) with
  | Ok resp ->
      Alcotest.(check (option string)) "over-long line" (Some "bad_request")
        (error_code resp)
  | Error msg -> Alcotest.failf "unparsable response: %s" msg);
  Alcotest.(check bool) "connection closed" true
    (match input_line ic with _ -> false | exception End_of_file -> true);
  close_in ic;
  stop_server server

(* A line that runs on past the cap while the daemon refuses it: the
   bytes that arrive after the refusal are dropped, not read as more of
   the line (a second 400), and the daemon shuts its sending side and
   then reads until the client's end of file, so the client reads one
   400 and then the end of the stream, not ECONNRESET.  A job the
   connection queued before the line finishes after that shutdown; its
   answer is dropped, not written to the shut socket (SIGPIPE), and the
   daemon answers the next job. *)
let test_server_overlong_line_drained () =
  let server = start_server ~jobs:1 () in
  let fd = raw_connect server in
  let ic = Unix.in_channel_of_descr fd in
  raw_send fd "{\"cmd\":\"sleep\",\"ms\":500,\"id\":1}\n";
  let piece = String.make 4096 'x' in
  for _ = 1 to 300 do
    raw_send fd piece
  done;
  (match Json.parse (input_line ic) with
  | Ok resp ->
      Alcotest.(check (option string)) "over-long line" (Some "bad_request")
        (error_code resp)
  | Error msg -> Alcotest.failf "unparsable response: %s" msg);
  Alcotest.(check string) "then the end of the stream" "end of file"
    (match input_line ic with
    | line -> "another line: " ^ line
    | exception End_of_file -> "end of file"
    | exception Sys_error msg -> msg);
  (* Queued behind the sleep, so answered after its answer is routed. *)
  let client = Client.connect (Server.address server) in
  Alcotest.(check bool) "the next job is answered" true
    (is_ok (rpc client [ ("cmd", Json.Str "sleep"); ("ms", Json.Num 1.) ]));
  Client.close client;
  close_in ic;
  stop_server server

(* --- server: a response larger than the socket buffers ---------------------- *)

let test_server_partial_writes () =
  (* 400 small sessions: a --series response of over 500 KB, more than a
     Unix-domain socket buffers (about 200 KB by default).  A reader that
     waits and then takes it in 1 KiB pieces makes the daemon's writes
     come back short, so each must resume where the last one stopped. *)
  let dir = tmpdir () in
  let path = Filename.concat dir "many.pcap" in
  let sock = Filename.concat dir "tdat.sock" in
  let result =
    Scenario.run ~seed:38
      (List.init 400 (fun i -> Scenario.router ~table_prefixes:50 (i + 1)))
  in
  Tdat_pkt.Pcap.to_file path result.Scenario.site_trace;
  let request =
    Json.to_string
      (Json.Obj
         [ ("cmd", Json.Str "analyze"); ("path", Json.Str path);
           ("series", Json.Bool true); ("trace", Json.Str "big") ])
  in
  let server =
    Server.start { Server.address = `Unix sock; jobs = 1; queue_capacity = 8 }
  in
  let client = Client.connect (`Unix sock) in
  let fetch () =
    Client.Private.send_line client request;
    match Client.Private.recv_line client with
    | Some line -> line
    | None -> Alcotest.fail "eof before the response"
  in
  ignore (fetch ());
  (* Both of these are cache hits, so they must match byte for byte. *)
  let whole = fetch () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_UNIX sock);
  raw_send fd (request ^ "\n");
  Unix.sleepf 0.2;
  let got = Buffer.create (String.length whole + 1) in
  let piece = Bytes.create 1024 in
  let rec read () =
    match Unix.read fd piece 0 (Bytes.length piece) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes got piece 0 n;
        if Bytes.get piece (n - 1) <> '\n' then read ()
  in
  read ();
  Unix.close fd;
  Alcotest.(check bool) "response larger than the socket buffer" true
    (String.length whole > 512 * 1024);
  Alcotest.(check string) "byte-identical" (whole ^ "\n") (Buffer.contents got);
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* --- server: a peer that stops receiving ------------------------------------ *)

(* A client shuts its receiving side while its job runs.  On a Unix
   socket the daemon's write of the answer then fails with EPIPE, while
   its reads see no end of file, so only the write can notice.  The
   write must drop that one connection: the daemon goes on to answer a
   fresh one.  With SIGPIPE at its default disposition the write would
   end the whole process instead. *)
let test_server_peer_stops_receiving () =
  let dir = tmpdir () in
  let sock = Filename.concat dir "tdat.sock" in
  let server =
    Server.start { Server.address = `Unix sock; jobs = 1; queue_capacity = 8 }
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  raw_send fd "{\"cmd\":\"sleep\",\"ms\":100,\"id\":1}\n";
  Unix.shutdown fd Unix.SHUTDOWN_RECEIVE;
  (* The job finishes and its answer is written while [fd] stays open. *)
  Unix.sleepf 0.4;
  let client = Client.connect (`Unix sock) in
  Alcotest.(check bool) "a fresh connection is answered" true
    (is_ok (rpc client [ ("cmd", Json.Str "ping") ]));
  Client.close client;
  Unix.close fd;
  stop_server server;
  Unix.rmdir dir

(* --- server: graceful drain ---------------------------------------------- *)

let test_server_shutdown_drain () =
  (* A job accepted before the shutdown verb must complete and its
     response must be flushed before the server closes the socket. *)
  let server = start_server ~jobs:1 () in
  let client = Client.connect (Server.address server) in
  let stash = Hashtbl.create 8 in
  Client.Private.send_line client
    (Json.to_string
       (Json.Obj
          [ ("cmd", Json.Str "sleep"); ("ms", Json.Num 300.);
            ("id", Json.Num 1.) ]));
  Client.Private.send_line client
    (Json.to_string
       (Json.Obj [ ("cmd", Json.Str "shutdown"); ("id", Json.Num 2.) ]));
  let r2 = recv_for client stash "2" in
  Alcotest.(check bool) "shutdown acknowledged" true (is_ok r2);
  let r1 = recv_for client stash "1" in
  Alcotest.(check bool) "in-flight job completed during drain" true
    (is_ok r1);
  (* After the drain the server closes the connection. *)
  Alcotest.(check bool) "connection closed after drain" true
    (Client.Private.recv_line client = None);
  Client.close client;
  Server.wait server

let test_server_sigterm_drain () =
  (* The same guarantee out of process: spawn `tdat serve`, give it a
     job, SIGTERM it mid-flight, and require the response, an orderly
     EOF, and exit status 0. *)
  let dir = tmpdir () in
  let sock = Filename.concat dir "tdat.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process tdat_exe
      [| "tdat"; "serve"; "--socket"; sock; "--jobs"; "1" |]
      devnull devnull devnull
  in
  Unix.close devnull;
  (* Wait for the daemon to come up. *)
  let rec connect n =
    match Client.connect (`Unix sock) with
    | client -> client
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if n = 0 then Alcotest.fail "serve daemon never came up"
        else begin
          Unix.sleepf 0.02;
          connect (n - 1)
        end
  in
  let client = connect 250 in
  let stash = Hashtbl.create 8 in
  Client.Private.send_line client
    (Json.to_string
       (Json.Obj
          [ ("cmd", Json.Str "sleep"); ("ms", Json.Num 400.);
            ("id", Json.Num 1.) ]));
  Unix.sleepf 0.1;
  Unix.kill pid Sys.sigterm;
  let r1 = recv_for client stash "1" in
  Alcotest.(check bool) "job survived SIGTERM" true (is_ok r1);
  Alcotest.(check bool) "orderly EOF after drain" true
    (Client.Private.recv_line client = None);
  Client.close client;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "serve killed by signal %d" n);
  if Sys.file_exists sock then Sys.remove sock;
  Unix.rmdir dir

(* --- server: study runs the batch scan ------------------------------------ *)

let write_study_archive ~seed ~prefixes path =
  let result =
    Scenario.run ~seed [ Scenario.router ~table_prefixes:prefixes 1 ]
  in
  Tdat_bgp.Mrt.to_file path (List.hd result.Scenario.outcomes).Scenario.mrt

(* What `tdat study --json` prints for [paths]: the batch aggregate. *)
let batch_study ?config paths =
  Json.to_string
    (Tdat_study.Report.to_json_value
       (Tdat_study.Aggregate.run ~jobs:1 ?config paths))

let result_report resp =
  match result_member resp "report" with
  | Some r -> Json.to_string r
  | None -> Alcotest.fail "study response has no report"

let test_server_study () =
  let dir = tmpdir () in
  let path = Filename.concat dir "updates.mrt" in
  write_study_archive ~seed:34 ~prefixes:600 path;
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let before = cache_stats client in
  let study () =
    rpc client
      [
        ("cmd", Json.Str "study");
        ("paths", Json.Arr [ Json.Str path; Json.Str path ]);
        ("timings", Json.Bool true);
      ]
  in
  let expected = batch_study [ path; path ] in
  Alcotest.(check bool) "transfers detected" true
    (match Option.bind (Result.to_option (Json.parse expected))
             (Json.member "transfers") with
    | Some (Json.Arr (_ :: _)) -> true
    | _ -> false);
  (* Asked twice, the report is the batch aggregate both times: the
     daemon keeps no decoded archive between requests. *)
  List.iter
    (fun what ->
      let resp = study () in
      Alcotest.(check bool) (what ^ ": study ok") true (is_ok resp);
      Alcotest.(check string)
        (what ^ ": report equals the batch aggregate")
        expected (result_report resp);
      Alcotest.(check (list string))
        (what ^ ": result members") [ "report"; "timings" ]
        (match Json.member "result" resp with
        | Some (Json.Obj fields) -> List.map fst fields
        | _ -> []);
      Alcotest.(check (list string))
        (what ^ ": stages timed") [ "queue_wait_us"; "analyze_us"; "render_us"; "total_us" ]
        (match result_member resp "timings" with
        | Some (Json.Obj fields) -> List.map fst fields
        | _ -> []))
    [ "first"; "second" ];
  Alcotest.(check cache_counts) "a study is never cached" before
    (cache_stats client);
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* A study of an archive that grows during the request: the first half,
   cut mid-record, is on disk when the request arrives, and the rest is
   appended while the daemon reads.  With [follow_idle_s] the report is
   the batch aggregate over the complete file. *)
let test_server_study_follow () =
  let dir = tmpdir () in
  let full = Filename.concat dir "full.mrt" in
  let tail = Filename.concat dir "tail.mrt" in
  write_study_archive ~seed:36 ~prefixes:600 full;
  let data = In_channel.with_open_bin full In_channel.input_all in
  let cut = (String.length data / 2) + 5 in
  Out_channel.with_open_bin tail (fun oc ->
      Out_channel.output_string oc (String.sub data 0 cut));
  Alcotest.(check bool) "the cut is mid-record" true
    ((Tdat_bgp.Mrt.read_file tail).Tdat_bgp.Mrt.diags <> []);
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let writer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.15;
        let oc = open_out_gen [ Open_append; Open_binary ] 0o600 tail in
        output_string oc (String.sub data cut (String.length data - cut));
        close_out oc)
  in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "study");
        ("paths", Json.Arr [ Json.Str tail ]);
        ("follow_idle_s", Json.Num 0.5);
        ("follow_limit_s", Json.Num 30.);
      ]
  in
  Domain.join writer;
  Alcotest.(check bool) "tailed study ok" true (is_ok resp);
  Alcotest.(check string) "tailed report equals the complete file's"
    (batch_study [ tail ]) (result_report resp);
  Client.close client;
  stop_server server;
  Sys.remove full;
  Sys.remove tail;
  Unix.rmdir dir

(* A damaged archive is salvaged as `tdat study` salvages it: the served
   report equals the batch aggregate, M0xx findings included. *)
let test_server_study_damaged () =
  let dir = tmpdir () in
  let clean = Filename.concat dir "clean.mrt" in
  write_study_archive ~seed:37 ~prefixes:400 clean;
  let data = In_channel.with_open_bin clean In_channel.input_all in
  let n = String.length data in
  let damaged = Filename.concat dir "damaged.mrt" in
  Out_channel.with_open_bin damaged (fun oc ->
      Out_channel.output_string oc
        (String.mapi
           (fun i c -> if i = n / 3 then Char.chr (Char.code c lxor 0xff) else c)
           (String.sub data 0 (n - 3))));
  let config = { Tdat_study.Detect.quiet_gap = 1_000_000; min_prefixes = 1 } in
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "study");
        ("paths", Json.Arr [ Json.Str damaged; Json.Str clean ]);
        ("gap_s", Json.Num 1.);
        ("min_prefixes", Json.Num 1.);
      ]
  in
  Alcotest.(check bool) "study ok" true (is_ok resp);
  let report = result_report resp in
  Alcotest.(check string) "report equals the batch aggregate"
    (batch_study ~config [ damaged; clean ]) report;
  Alcotest.(check bool) "M0xx findings reported" true
    (contains report "\"code\":\"M0");
  Client.close client;
  stop_server server;
  Sys.remove clean;
  Sys.remove damaged;
  Unix.rmdir dir

(* A path that is not there, or a directory, is a 404 [not_found], at
   rest or tailed. *)
let test_server_study_bad_paths () =
  let dir = tmpdir () in
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  List.iter
    (fun (what, path, follow) ->
      let resp =
        rpc client
          ([ ("cmd", Json.Str "study"); ("paths", Json.Arr [ Json.Str path ]) ]
          @ if follow then [ ("follow_idle_s", Json.Num 0.1) ] else [])
      in
      Alcotest.(check (option string)) what (Some "not_found")
        (error_code resp))
    [
      ("missing", Filename.concat dir "absent.mrt", false);
      ("missing, tailed", Filename.concat dir "absent.mrt", true);
      ("directory", dir, false);
      ("directory, tailed", dir, true);
    ];
  Client.close client;
  stop_server server;
  Unix.rmdir dir

(* A threshold the request spells 1e999 is infinite: the report must
   still be a document, not a 500 from re-reading printed text. *)
let test_server_study_infinite_threshold () =
  let dir = tmpdir () in
  let path = Filename.concat dir "updates.mrt" in
  let result =
    Scenario.run ~seed:34 [ Scenario.router ~table_prefixes:200 1 ]
  in
  Tdat_bgp.Mrt.to_file path (List.hd result.Scenario.outcomes).Scenario.mrt;
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "study");
        ("paths", Json.Arr [ Json.Str path ]);
        ("slow_threshold_s", Json.Num Float.infinity);
      ]
  in
  Alcotest.(check bool) "study ok" true (is_ok resp);
  (match
     Option.bind (result_member resp "report") (Json.member "slow_threshold_s")
   with
  | Some (Json.Num t) ->
      Alcotest.(check bool) "threshold infinite" true (t = Float.infinity)
  | _ -> Alcotest.fail "study response shape");
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* The values the study's option check refuses, served: a gap that is
   not a number of seconds from 1e-06 to 4e12, a negative threshold. *)
let test_server_study_bad_options () =
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  List.iter
    (fun (what, field, v) ->
      let resp =
        rpc client
          [
            ("cmd", Json.Str "study");
            ("paths", Json.Arr [ Json.Str "unread.mrt" ]);
            (field, Json.Num v);
          ]
      in
      Alcotest.(check (option string)) what (Some "bad_request")
        (error_code resp);
      let status =
        Option.bind (Json.member "error" resp) (Json.member "status")
      in
      Alcotest.(check bool) (what ^ ": status 400") true
        (status = Some (Json.Num 400.)))
    [
      ("infinite gap", "gap_s", Float.infinity);
      ("negative gap", "gap_s", -5.);
      ("zero gap", "gap_s", 0.);
      ("negative threshold", "slow_threshold_s", -1.);
    ];
  Alcotest.(check bool) "the daemon still answers" true
    (is_ok (rpc client [ ("cmd", Json.Str "ping") ]));
  Client.close client;
  stop_server server

(* The ends of the option check, served: the largest gap and a zero
   threshold run, and the report equals the batch aggregate under the
   same config (one transfer, marked slow). *)
let test_server_study_bounds () =
  let dir = tmpdir () in
  let path = Filename.concat dir "updates.mrt" in
  let result =
    Scenario.run ~seed:34 [ Scenario.router ~table_prefixes:200 1 ]
  in
  Tdat_bgp.Mrt.to_file path (List.hd result.Scenario.outcomes).Scenario.mrt;
  let config =
    {
      Tdat_study.Detect.quiet_gap = Tdat_timerange.Time_us.of_s 4e12;
      min_prefixes = 1;
    }
  in
  let expected =
    Tdat_study.Report.to_json_value
      (Tdat_study.Aggregate.run ~jobs:1 ~config ~slow_threshold_s:0. [ path ])
  in
  let server = start_server () in
  let client = Client.connect (Server.address server) in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "study");
        ("paths", Json.Arr [ Json.Str path ]);
        ("gap_s", Json.Num 4e12);
        ("min_prefixes", Json.Num 1.);
        ("slow_threshold_s", Json.Num 0.);
      ]
  in
  Alcotest.(check bool) "study ok" true (is_ok resp);
  (match result_member resp "report" with
  | Some got ->
      Alcotest.(check string)
        "study report equals batch aggregate" (Json.to_string expected)
        (Json.to_string got);
      Alcotest.(check bool) "one transfer, slow" true
        (Json.member "slow_transfers" got = Some (Json.Num 1.)
        &&
        match Json.member "transfers" got with
        | Some (Json.Arr [ _ ]) -> true
        | _ -> false)
  | None -> Alcotest.fail "study response shape");
  Client.close client;
  stop_server server;
  Sys.remove path;
  Unix.rmdir dir

(* [tdat top] checks its poll interval before it connects: with no
   daemon to reach, a bad interval is still a usage error (124) naming
   the option, while a good one gets as far as the failed connection. *)
let test_top_interval_before_connect () =
  let dir = tmpdir () in
  let sock = Filename.concat dir "absent.sock" in
  let top interval =
    let err = Filename.concat dir "top.err" in
    let rc =
      Sys.command
        (Printf.sprintf
           "%s top --once --socket %s --interval=%s >/dev/null 2>%s"
           (Filename.quote tdat_exe) (Filename.quote sock) interval
           (Filename.quote err))
    in
    let msg = In_channel.with_open_bin err In_channel.input_all in
    Sys.remove err;
    (rc, msg)
  in
  List.iter
    (fun interval ->
      let rc, msg = top interval in
      Alcotest.(check int) ("--interval " ^ interval ^ " exit") 124 rc;
      Alcotest.(check bool)
        ("--interval " ^ interval ^ " names the option")
        true
        (contains msg "--interval"))
    [ "nan"; "inf"; "0"; "-1"; "1e-9"; "9e12" ];
  let rc, msg = top "0.5" in
  Alcotest.(check bool) "a good interval reaches the connection" true
    (rc <> 0 && rc <> 124 && not (contains msg "--interval"));
  Unix.rmdir dir

(* --- protocol: request envelope (trace / timings) ------------------------- *)

let test_protocol_envelope () =
  let p =
    Protocol.parse_line "{\"cmd\":\"ping\",\"trace\":\"tr-1\",\"timings\":true}"
  in
  Alcotest.(check (option string)) "trace parsed" (Some "tr-1") p.Protocol.trace;
  Alcotest.(check bool) "timings parsed" true p.Protocol.timings;
  let p = Protocol.parse_line "{\"cmd\":\"ping\"}" in
  Alcotest.(check (option string)) "trace absent" None p.Protocol.trace;
  Alcotest.(check bool) "timings default off" false p.Protocol.timings;
  let e = request_error "{\"cmd\":\"ping\",\"trace\":\"\"}" in
  Alcotest.(check string) "empty trace rejected" "bad_request" e.Protocol.code;
  let e =
    request_error
      (Printf.sprintf "{\"cmd\":\"ping\",\"trace\":%S}" (String.make 129 'x'))
  in
  Alcotest.(check string) "oversized trace rejected" "bad_request"
    e.Protocol.code;
  match
    (Protocol.parse_line "{\"cmd\":\"metrics\",\"stable_only\":true}")
      .Protocol.request
  with
  | Ok (Protocol.Metrics { stable_only = true }) -> ()
  | _ -> Alcotest.fail "metrics verb parses"

(* --- server: trace propagation end to end --------------------------------- *)

let test_server_trace_propagation () =
  let dir = tmpdir () in
  let path = Filename.concat dir "cap.pcap" in
  write_capture ~seed:35 ~prefixes:400 path;
  Tracer.clear ();
  Tracer.set_enabled true;
  let server = start_server ~jobs:1 () in
  let client = Client.connect (Server.address server) in
  let resp =
    rpc client
      [
        ("cmd", Json.Str "analyze");
        ("path", Json.Str path);
        ("trace", Json.Str "tr-e2e");
        ("timings", Json.Bool true);
      ]
  in
  Alcotest.(check bool) "analyze ok" true (is_ok resp);
  (match Json.member "trace" resp with
  | Some (Json.Str "tr-e2e") -> ()
  | _ -> Alcotest.fail "client trace id echoed");
  (match result_member resp "timings" with
  | Some t ->
      List.iter
        (fun k ->
          match Json.member k t with
          | Some (Json.Num v) ->
              Alcotest.(check bool) (k ^ " non-negative") true (v >= 0.)
          | _ -> Alcotest.failf "timings missing %s" k)
        [ "queue_wait_us"; "decode_us"; "analyze_us"; "render_us"; "total_us" ]
  | None -> Alcotest.fail "timings echoed when requested");
  (* No client trace: the server generates one; timings stay opt-in. *)
  let resp2 =
    rpc client [ ("cmd", Json.Str "analyze"); ("path", Json.Str path) ]
  in
  (match Json.member "trace" resp2 with
  | Some (Json.Str t) ->
      Alcotest.(check bool) "generated trace id" true
        (String.starts_with ~prefix:"req-" t)
  | _ -> Alcotest.fail "generated trace echoed");
  Alcotest.(check bool) "timings only on request" true
    (result_member resp2 "timings" = None);
  Client.close client;
  stop_server server;
  Tracer.set_enabled false;
  (* The acceptance bar: one request's queue-wait/decode/analyze/render
     spans form a single connected tree under its trace id. *)
  let events =
    List.filter
      (fun (e : Tracer.event) ->
        match e.Tracer.trace with Some t -> String.equal t "tr-e2e" | None -> false)
      (Tracer.events ())
  in
  let have name ph =
    List.exists
      (fun (e : Tracer.event) ->
        String.equal e.Tracer.name name && e.Tracer.ph = ph)
      events
  in
  Alcotest.(check bool) "queue-wait X span connected" true
    (have "service.queue_wait" Tracer.X);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " begins under the trace") true
        (have n Tracer.B);
      Alcotest.(check bool) (n ^ " ends under the trace") true (have n Tracer.E))
    [ "serve.request"; "serve.decode"; "serve.analyze"; "serve.render" ];
  Alcotest.(check bool) "trace stays balanced" true (Tracer.balanced ());
  Tracer.clear ();
  Sys.remove path;
  Unix.rmdir dir

(* --- server: the metrics verb --------------------------------------------- *)

let metrics_body resp =
  match result_member resp "body" with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.fail "metrics response has no body"

(* Grammar-level parseability: every line is blank, a comment, or
   [name{labels} value] with a float-parseable value. *)
let prometheus_parseable text =
  String.split_on_char '\n' text
  |> List.for_all (fun line ->
         String.equal line ""
         || String.starts_with ~prefix:"# " line
         ||
         match String.rindex_opt line ' ' with
         | None -> false
         | Some i -> (
             let value =
               String.sub line (i + 1) (String.length line - i - 1)
             in
             match float_of_string_opt value with
             | Some _ -> true
             | None -> String.equal value "+Inf" || String.equal value "NaN"))

let test_server_metrics_verb () =
  let dir = tmpdir () in
  let path = Filename.concat dir "cap.pcap" in
  write_capture ~seed:36 ~prefixes:400 path;
  (* The same workload against a jobs=1 and a jobs=2 daemon: the stable
     exposition must come back byte-identical. *)
  let exposition jobs =
    Obs.reset Obs.default;
    Obs.set_enabled Obs.default true;
    let server = start_server ~jobs () in
    let client = Client.connect (Server.address server) in
    let resp =
      rpc client [ ("cmd", Json.Str "analyze"); ("path", Json.Str path) ]
    in
    Alcotest.(check bool) "analyze ok" true (is_ok resp);
    let full = rpc client [ ("cmd", Json.Str "metrics") ] in
    Alcotest.(check bool) "metrics ok" true (is_ok full);
    (match result_member full "content_type" with
    | Some (Json.Str "text/plain; version=0.0.4") -> ()
    | _ -> Alcotest.fail "prometheus content type");
    let stable =
      rpc client
        [ ("cmd", Json.Str "metrics"); ("stable_only", Json.Bool true) ]
    in
    Client.close client;
    stop_server server;
    Obs.set_enabled Obs.default false;
    (metrics_body full, metrics_body stable)
  in
  let full1, stable1 = exposition 1 in
  let _, stable2 = exposition 2 in
  Alcotest.(check bool) "full exposition parseable" true
    (prometheus_parseable full1);
  Alcotest.(check bool) "stable exposition parseable" true
    (prometheus_parseable stable1);
  Alcotest.(check bool) "registry series exposed" true
    (contains full1 "tdat_pcap_records_total");
  Alcotest.(check bool) "rolling-window series exposed" true
    (contains full1 "tdat_serve_window_p95_us{endpoint=\"analyze\"}");
  Alcotest.(check bool) "queue-depth gauge exposed" true
    (contains full1 "tdat_serve_queue_depth");
  Alcotest.(check bool) "scratch fallbacks exposed" true
    (contains full1 "tdat_serve_scratch_fallbacks");
  Alcotest.(check bool) "stable form drops wall-clock series" false
    (contains stable1 "tdat_serve_queue_depth");
  Alcotest.(check string) "stable series byte-identical across jobs" stable1
    stable2;
  Sys.remove path;
  Unix.rmdir dir

(* --- server: rolling windows, exemplars, tdat top -------------------------- *)

let test_server_rolling_and_top () =
  let server = start_server ~jobs:1 () in
  let addr = Server.address server in
  let client = Client.connect addr in
  for _ = 1 to 3 do
    let resp =
      rpc client [ ("cmd", Json.Str "sleep"); ("ms", Json.Num 30.) ]
    in
    Alcotest.(check bool) "sleep ok" true (is_ok resp)
  done;
  let stats = rpc client [ ("cmd", Json.Str "stats") ] in
  let window ep =
    match result_member stats "windows" with
    | Some w -> (
        match Json.member ep w with
        | Some x -> x
        | None -> Alcotest.failf "stats has no %s window" ep)
    | None -> Alcotest.fail "stats has no windows"
  in
  let wfield w name =
    match Json.member name w with
    | Some (Json.Num n) -> n
    | _ -> Alcotest.failf "window missing %s" name
  in
  let slow = window "sleep" and idle = window "analyze" in
  Alcotest.(check (float 0.)) "idle window empty" 0. (wfield idle "count");
  Alcotest.(check (float 0.)) "idle p95 zero" 0. (wfield idle "p95_us");
  Alcotest.(check (float 0.)) "slow window counts the sleeps" 3.
    (wfield slow "count");
  Alcotest.(check bool) "forced-slow p95 above the idle window's" true
    (wfield slow "p95_us" > wfield idle "p95_us");
  Alcotest.(check bool) "p95 reflects the 30ms sleeps" true
    (wfield slow "p95_us" >= 30_000.);
  (* The exemplar buffer captured the slow requests, replayable. *)
  (match result_member stats "exemplars" with
  | Some (Json.Arr (e :: _)) ->
      (match Json.member "endpoint" e with
      | Some (Json.Str "sleep") -> ()
      | _ -> Alcotest.fail "worst exemplar is a sleep");
      (match Json.member "trace" e with
      | Some (Json.Str t) ->
          Alcotest.(check bool) "exemplar has a trace id" true
            (String.length t > 0)
      | _ -> Alcotest.fail "exemplar trace");
      (match Json.member "request" e with
      | Some (Json.Str r) ->
          Alcotest.(check bool) "exemplar request replayable" true
            (contains r "\"sleep\"")
      | _ -> Alcotest.fail "exemplar request")
  | _ -> Alcotest.fail "no exemplars");
  (match result_member stats "requests" with
  | Some (Json.Num n) ->
      Alcotest.(check bool) "request total counted" true (n >= 3.)
  | _ -> Alcotest.fail "stats.requests");
  (match result_member stats "scratch_fallbacks" with
  | Some (Json.Num _) -> ()
  | _ -> Alcotest.fail "stats.scratch_fallbacks");
  (* One dashboard frame from the real subcommand against the daemon. *)
  let port =
    match addr with
    | `Tcp (_, p) -> p
    | `Unix _ -> Alcotest.fail "tcp address expected"
  in
  let cmd =
    Printf.sprintf "%s top --once --host 127.0.0.1 --port %d 2>/dev/null"
      (Filename.quote tdat_exe) port
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "tdat top exited %d" n
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> Alcotest.fail "tdat top killed");
  Alcotest.(check bool) "top renders the header" true
    (contains out "tdat serve");
  Alcotest.(check bool) "top renders the window table" true
    (contains out "endpoint");
  Alcotest.(check bool) "top renders the worst requests" true
    (contains out "worst requests");
  Alcotest.(check bool) "top shows the sleep exemplar" true
    (contains out "sleep");
  (* A poll interval that is NaN, infinite or not above 0 is a usage
     error. *)
  List.iter
    (fun interval ->
      let err = Filename.temp_file "tdat_top" ".err" in
      let rc =
        Sys.command
          (Printf.sprintf
             "%s top --once --host 127.0.0.1 --port %d --interval=%s \
              >/dev/null 2>%s"
             (Filename.quote tdat_exe) port interval (Filename.quote err))
      in
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove err;
      Alcotest.(check int) ("--interval " ^ interval ^ " exit") 124 rc;
      Alcotest.(check bool)
        ("--interval " ^ interval ^ " names the option")
        true
        (contains msg "--interval"))
    [ "nan"; "0"; "-1"; "inf" ];
  Client.close client;
  stop_server server

(* --- server: SIGTERM drain flushes the trace file -------------------------- *)

let test_sigterm_flushes_trace () =
  (* Satellite regression: the tracer buffers — including the worker
     domains' — must be merged and written after the drain completes,
     so the trace file contains the in-flight request AND the drain
     span itself. *)
  let dir = tmpdir () in
  let sock = Filename.concat dir "tdat.sock" in
  let trace_path = Filename.concat dir "trace.json" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process tdat_exe
      [|
        "tdat"; "serve"; "--socket"; sock; "--jobs"; "1"; "--trace"; trace_path;
      |]
      devnull devnull devnull
  in
  Unix.close devnull;
  let rec connect n =
    match Client.connect (`Unix sock) with
    | client -> client
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if n = 0 then Alcotest.fail "serve daemon never came up"
        else begin
          Unix.sleepf 0.02;
          connect (n - 1)
        end
  in
  let client = connect 250 in
  let stash = Hashtbl.create 8 in
  Client.Private.send_line client
    (Json.to_string
       (Json.Obj
          [
            ("cmd", Json.Str "sleep"); ("ms", Json.Num 300.);
            ("id", Json.Num 1.); ("trace", Json.Str "tr-drain");
          ]));
  Unix.sleepf 0.1;
  Unix.kill pid Sys.sigterm;
  let r1 = recv_for client stash "1" in
  Alcotest.(check bool) "job survived SIGTERM" true (is_ok r1);
  Alcotest.(check bool) "orderly EOF after drain" true
    (Client.Private.recv_line client = None);
  Client.close client;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "serve exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "serve killed by signal %d" n);
  let trace_json =
    In_channel.with_open_bin trace_path In_channel.input_all
  in
  Alcotest.(check bool) "trace file is a traceEvents object" true
    (String.starts_with ~prefix:"{\"traceEvents\":[" trace_json);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s span flushed" n)
        true
        (contains trace_json (Printf.sprintf "%S" n)))
    [ "serve.request"; "serve.sleep"; "service.queue_wait"; "serve.drain" ];
  Alcotest.(check bool) "request trace id flushed" true
    (contains trace_json "tr-drain");
  Sys.remove trace_path;
  if Sys.file_exists sock then Sys.remove sock;
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json escapes" `Quick test_json_strings;
    Alcotest.test_case "json malformed" `Quick test_json_malformed;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    qcheck_json_roundtrip;
    Alcotest.test_case "protocol malformed" `Quick test_protocol_malformed;
    Alcotest.test_case "protocol requests" `Quick test_protocol_requests;
    Alcotest.test_case "protocol: study seconds at the check's ends" `Quick
      test_protocol_study_seconds;
    Alcotest.test_case "CLI and daemon accept the same seconds" `Quick
      test_cli_and_daemon_agree;
    Alcotest.test_case "server round-trip" `Quick test_server_roundtrip;
    Alcotest.test_case "analyze + cache" `Quick test_server_analyze_and_cache;
    Alcotest.test_case "cache: LRU eviction and stat revalidation" `Quick
      test_cache_lru;
    Alcotest.test_case "cache: a byte budget, LRU-evicted" `Quick
      test_cache_byte_budget;
    Alcotest.test_case "cache: options and verbs are distinct keys" `Quick
      test_server_cache_option_keys;
    Alcotest.test_case "cache: stats.cache counts every key" `Quick
      test_server_cache_stats;
    Alcotest.test_case "cache: follow, typed errors and hit timings" `Quick
      test_server_cache_edges;
    Alcotest.test_case "queue-full backpressure" `Quick
      test_server_backpressure;
    Alcotest.test_case "a short job overtakes a long one" `Quick
      test_server_short_job_overtakes;
    Alcotest.test_case "client: no response within the timeout" `Quick
      test_client_recv_timeout;
    Alcotest.test_case "a response larger than the socket buffers" `Quick
      test_server_partial_writes;
    Alcotest.test_case "a peer that stops receiving drops only itself" `Quick
      test_server_peer_stops_receiving;
    Alcotest.test_case "tail a growing capture" `Quick
      test_server_follow_tail;
    Alcotest.test_case "pipelined requests split at every byte" `Quick
      test_server_split_requests;
    Alcotest.test_case "an over-long line is refused once, then EOF" `Quick
      test_server_overlong_line_drained;
    Alcotest.test_case "shutdown drain" `Quick test_server_shutdown_drain;
    Alcotest.test_case "SIGTERM drain (subprocess)" `Quick
      test_server_sigterm_drain;
    Alcotest.test_case "study equals the batch scan" `Quick test_server_study;
    Alcotest.test_case "study: tail a growing archive" `Quick
      test_server_study_follow;
    Alcotest.test_case "study: a damaged archive salvages as in batch" `Quick
      test_server_study_damaged;
    Alcotest.test_case "study: a missing or directory path is not_found"
      `Quick test_server_study_bad_paths;
    Alcotest.test_case "study with an infinite threshold" `Quick
      test_server_study_infinite_threshold;
    Alcotest.test_case "study: a bad gap or threshold is a 400" `Quick
      test_server_study_bad_options;
    Alcotest.test_case "study at the option check's ends" `Quick
      test_server_study_bounds;
    Alcotest.test_case "top: a bad --interval is refused before connecting"
      `Quick test_top_interval_before_connect;
    Alcotest.test_case "protocol envelope (trace/timings)" `Quick
      test_protocol_envelope;
    Alcotest.test_case "trace propagation end to end" `Quick
      test_server_trace_propagation;
    Alcotest.test_case "metrics verb (prometheus)" `Quick
      test_server_metrics_verb;
    Alcotest.test_case "rolling windows, exemplars, tdat top" `Quick
      test_server_rolling_and_top;
    Alcotest.test_case "SIGTERM drain flushes the trace" `Quick
      test_sigterm_flushes_trace;
  ]
