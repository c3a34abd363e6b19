(* Allocation regression gate (`dune build @perf-gate`, wired into
   `dune runtest`).

   The allocation-light refactor's headline numbers — minor words per
   packet on the analyze and decode paths, and minor words per archive
   record in the study scan — are protected by explicit budgets in
   bench/alloc_baseline.json.  The gate replays a small
   deterministic fleet at jobs=1 (no worker domains, so [Gc.minor_words]
   sees every allocation) and fails the build when a path exceeds its
   budget.  Budgets carry ~50% headroom over the measured steady state:
   they catch a reintroduced per-packet list pipeline or string copy
   (integer factors), not micro-noise.

   The gate's own correctness is covered by a negative test
   (test/test_equiv.ml): run against a deliberately tightened baseline,
   it must fail. *)

module Trace = Tdat_pkt.Trace

let baseline = ref "bench/alloc_baseline.json"

(* Minimal one-key-per-line JSON number extraction, so the gate needs no
   JSON dependency.  Budget files are machine-written and flat. *)
let budget_of data key =
  let needle = "\"" ^ key ^ "\"" in
  let nlen = String.length needle in
  let len = String.length data in
  let rec find i =
    if i + nlen > len then None
    else if String.sub data i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some p ->
      let p = ref p in
      while !p < len && (data.[!p] = ':' || data.[!p] = ' ') do
        incr p
      done;
      let q = ref !p in
      while
        !q < len
        && (match data.[!q] with
           | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
           | _ -> false)
      do
        incr q
      done;
      if !q = !p then None
      else float_of_string_opt (String.sub data !p (!q - !p))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Minor words allocated by one run of [f], after one warm-up run so
   one-time heap and code-path costs (pool setup, scratch growth) are
   excluded. *)
let minor_words f =
  ignore (f ());
  let m0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. m0

let minor_per_packet ~packets f = minor_words f /. float_of_int packets

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
    try read_file !baseline
    with Sys_error e ->
      Printf.eprintf "[perf-gate] cannot read baseline %s: %s\n" !baseline e;
      exit 2
  in
  let trace = Scaling.fleet_trace ~sessions:2 ~prefixes:3_000 ~seed:7 in
  let packets = Trace.length trace in
  let analyze =
    minor_per_packet ~packets (fun () ->
        Tdat.Analyzer.analyze_all ~jobs:1 trace)
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
    match budget_of data name with
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
  Printf.printf "[perf-gate] study: %d-record archive minus a %d-record one\n%!"
    long_records short_records;
  check "study_minor_words_per_record_max" study;
  if !failures > 0 then begin
    Printf.eprintf
      "[perf-gate] %d budget(s) exceeded: the hot path allocates more per \
       packet than bench/alloc_baseline.json allows.  If the regression is \
       intentional, re-baseline with the new measured numbers.\n"
      !failures;
    exit 1
  end

let registry = [ ("perf_gate", run) ]
