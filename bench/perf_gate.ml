(* Allocation regression gate (`dune build @perf-gate`, wired into
   `dune runtest`).

   The allocation-light refactor's headline numbers — minor words per
   packet on the analyze and decode paths, minor collections per analyze
   run that allocation does not explain, and minor words per archive
   record in the study scan — are protected by explicit budgets in
   bench/alloc_baseline.json.  The gate replays a small
   deterministic fleet and one paced session at jobs=1 (no worker
   domains, so [Gc.minor_words] sees every allocation) and fails the
   build when a path exceeds its budget.  Word budgets carry ~50%
   headroom over the measured steady state: they catch a reintroduced
   per-packet list pipeline or string copy (integer factors), not
   micro-noise.  The forced-collection budget is half a collection per
   run, against a measured ~0: one site that forces a collection per
   call adds a whole one.

   The gate's own correctness is covered by a negative test
   (test/test_equiv.ml): run against a deliberately tightened baseline,
   it must fail. *)

module Trace = Tdat_pkt.Trace
module Json = Tdat_json.Json

let baseline = ref "bench/alloc_baseline.json"

(* Minor words allocated by one run of [f], after one warm-up run so
   one-time heap and code-path costs (pool setup, scratch growth) are
   excluded. *)
let minor_words f =
  ignore (f ());
  let m0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. m0

let minor_per_packet ~packets f = minor_words f /. float_of_int packets

(* Minor collections per run of [f] that minor allocation does not
   explain: the collections counted over [runs] runs (after one warm-up
   run), less the minor words allocated over the minor heap's size.
   What is left is collections something forced, such as [Array.make]
   of more than 256 words seeded with a young block, which empties the
   minor heap on every call.  A forced collection also spares the
   allocation-driven one the heap would have reached later, so with a
   small heap the difference undercounts: the measured runs get a minor
   heap of [heap_words], larger than all they allocate, and every
   forced collection shows as a whole one. *)
let forced_minor_collections ~runs ~heap_words f =
  ignore (f ());
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = heap_words };
  let c0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (f ())
  done;
  let collections = (Gc.quick_stat ()).Gc.minor_collections - c0 in
  let words = Gc.minor_words () -. w0 in
  Gc.set saved;
  (float_of_int collections -. (words /. float_of_int heap_words))
  /. float_of_int runs

(* One timer-paced session (200 ms timer, 6 messages a tick) large
   enough that its data and ACK arrays, and the series built from them,
   pass 256 words. *)
let paced_session ~prefixes =
  let module Scenario = Tdat_bgpsim.Scenario in
  let router =
    Scenario.router ~table_prefixes:prefixes ~timer_interval:200_000 ~quota:6 1
  in
  (List.hd (Scenario.run ~seed:7 [ router ]).Scenario.outcomes).Scenario.trace

(* A small deterministic archive in the shape the study scans: three
   peers, each establishing, then sending [updates] messages (UPDATEs of
   1-16 /24s with the usual attributes, every 50th a keepalive), then
   resetting.  Every size gives the same three transfers. *)
let study_archive ~updates =
  let open Tdat_bgp in
  let local_ip = 0x0A000064l in
  let entries =
    List.concat_map
      (fun peer ->
        let peer_as = 64500 + peer and peer_ip = Int32.of_int (0x0A000001 + peer) in
        let t0 = peer * 1_000_000_000 in
        let state ts old_state new_state =
          Mrt.State
            { Mrt.sc_ts = ts; sc_peer_as = peer_as; sc_local_as = 65000;
              sc_peer_ip = peer_ip; sc_local_ip = local_ip; old_state;
              new_state }
        in
        let message ts msg =
          Mrt.Message
            { Mrt.ts; peer_as; local_as = 65000; peer_ip; local_ip; msg }
        in
        let attrs =
          [ Attr.Origin Attr.Igp;
            Attr.As_path (As_path.of_asns [ peer_as; 3356; 15169 ]);
            Attr.Next_hop peer_ip ]
        in
        let update i =
          let nlri =
            List.init (1 + (i mod 16)) (fun j ->
                let k = (16 * i) + j in
                Prefix.of_quad (11 + peer) (k / 256 mod 256) (k mod 256) 0 24)
          in
          message (t0 + 10_000 + (i * 5_000)) (Msg.update ~attrs ~nlri ())
        in
        (state t0 Mrt.Open_confirm Mrt.Established
        :: List.init updates (fun i ->
               if i mod 50 = 49 then message (t0 + 10_000 + (i * 5_000)) Msg.keepalive
               else update i))
        @ [ state (t0 + 5_000_000) Mrt.Established Mrt.Idle ])
      [ 0; 1; 2 ]
  in
  let path = Filename.temp_file "tdat_gate" ".mrt" in
  Mrt.to_file_entries path entries;
  (path, List.length entries)

let run () =
  let data =
    match
      Json.parse (In_channel.with_open_bin !baseline In_channel.input_all)
    with
    | Ok data -> data
    | Error e | (exception Sys_error e) ->
        Printf.eprintf "[perf-gate] cannot read baseline %s: %s\n" !baseline e;
        exit 2
  in
  let trace = Scaling.fleet_trace ~sessions:2 ~prefixes:3_000 ~seed:7 in
  let packets = Trace.length trace in
  let analyze =
    minor_per_packet ~packets (fun () ->
        Tdat.Analyzer.analyze_all ~jobs:1 trace)
  in
  let session = paced_session ~prefixes:15_000 in
  let forced =
    forced_minor_collections ~runs:20 ~heap_words:(4 lsl 20) (fun () ->
        Tdat.Analyzer.analyze_all ~jobs:1 session)
  in
  let pcap = Tdat_pkt.Pcap.encode trace in
  let decode =
    minor_per_packet ~packets (fun () -> Tdat_pkt.Pcap.decode_result pcap)
  in
  (* Per record, as the difference between scans of two archives that
     differ only in length: the scan's fixed cost per file (detector,
     peer table, transfers, result) cancels, so the budget prices only
     what each record adds. *)
  let (long, long_records), (short, short_records) =
    (study_archive ~updates:600, study_archive ~updates:60)
  in
  let records = long_records - short_records in
  let study =
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove [ long; short ])
      (fun () ->
        let scan path = minor_words (fun () -> Tdat_study.Archive.scan_file path) in
        (scan long -. scan short) /. float_of_int records)
  in
  let failures = ref 0 in
  let check name measured =
    match Option.bind (Json.member name data) Json.to_float_opt with
    | None ->
        Printf.eprintf "[perf-gate] baseline %s lacks key %S\n" !baseline name;
        incr failures
    | Some budget ->
        let ok = measured <= budget in
        Printf.printf "[perf-gate] %-36s %8.2f  (budget %8.2f)  %s\n" name
          measured budget
          (if ok then "ok" else "FAIL");
        if not ok then incr failures
  in
  Printf.printf "[perf-gate] fleet: %d packets, baseline %s\n%!" packets
    !baseline;
  check "analyze_minor_words_per_packet_max" analyze;
  check "decode_minor_words_per_packet_max" decode;
  let data = ref 0 in
  for i = 0 to Trace.length session - 1 do
    if Trace.len session i > 0 then incr data
  done;
  Printf.printf "[perf-gate] paced session: %d data packets, %d others\n%!"
    !data (Trace.length session - !data);
  check "analyze_forced_minor_collections_max" forced;
  Printf.printf "[perf-gate] study: %d-record archive minus a %d-record one\n%!"
    long_records short_records;
  check "study_minor_words_per_record_max" study;
  if !failures > 0 then begin
    Printf.eprintf
      "[perf-gate] %d budget(s) exceeded: the hot path allocates or \
       collects more than bench/alloc_baseline.json allows.  If the \
       regression is intentional, re-baseline with the new measured \
       numbers.\n"
      !failures;
    exit 1
  end

let registry = [ ("perf_gate", run) ]
