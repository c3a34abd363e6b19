(* Decode-equivalence properties: the slice-based decoders must be
   byte-for-byte indistinguishable from the frozen pre-slice references
   in [Legacy_ref] — same records, same diagnostics, same salvage stats
   — over random valid captures AND randomly corrupted ones (truncated,
   bit-flipped, garbage-extended).  Plus the streaming and list
   transfer-end scans vs the frozen extract-then-scan pipeline, and the
   [Scratch] arena's cross-domain isolation. *)

open Tdat_bgp
module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint
module Trace = Tdat_pkt.Trace
module Flow = Tdat_pkt.Flow
module Pcap = Tdat_pkt.Pcap
module Scratch = Tdat_parallel.Scratch

let prop ?(count = 100) name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* --- corpus: valid captures, randomly corrupted ------------------------ *)

(* Truncate, flip a few bytes, and/or append garbage.  Valid input stays
   reachable (all three mutations can be no-ops) so the corpus covers
   the clean path and the salvage paths in one distribution. *)
let gen_mutated data =
  QCheck.Gen.(
    let n = String.length data in
    let* cut = frequency [ (3, return n); (2, int_bound n) ] in
    let* flips =
      if cut = 0 then return []
      else
        list_size (int_range 0 8) (pair (int_bound (cut - 1)) (int_bound 255))
    in
    let* tail =
      frequency
        [ (3, return ""); (1, string_size ~gen:char (int_bound 40)) ]
    in
    let b = Bytes.of_string (String.sub data 0 cut) in
    List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) flips;
    return (Bytes.to_string b ^ tail))

let ep1 = Endpoint.of_quad 10 0 0 1 20000
let ep2 = Endpoint.of_quad 10 0 0 2 179

let gen_segment =
  QCheck.Gen.(
    let* ts = int_bound 10_000_000 in
    let* seq = int_bound 1_000_000 in
    let* ack = int_bound 1_000_000 in
    let* window = int_bound 65535 in
    let* len = int_bound 600 in
    let* mss = opt (int_range 500 1500) in
    let* flip = bool in
    let payload = String.make len 'p' in
    let src, dst = if flip then (ep1, ep2) else (ep2, ep1) in
    return
      (Seg.v ~ts ~src ~dst ~seq ~ack ~window ~flags:Seg.data_flags ?mss_opt:mss
         ~payload ()))

let gen_pcap_bytes =
  QCheck.Gen.(
    let* segs = list_size (int_range 0 20) gen_segment in
    let data = Pcap.encode (Trace.of_segments segs) in
    gen_mutated data)

let arb_pcap_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "capture of %d bytes" (String.length s))
    gen_pcap_bytes

(* --- corpus: MRT archives ---------------------------------------------- *)

let gen_prefix =
  QCheck.Gen.(
    let* a = int_range 1 223 in
    let* b = int_bound 255 in
    let* c = int_bound 255 in
    let* d = int_bound 255 in
    let* len = int_bound 32 in
    return (Prefix.of_quad a b c d len))

let gen_msg =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          let* nlri = list_size (int_range 0 20) gen_prefix in
          let* withdrawn = list_size (int_range 0 5) gen_prefix in
          let* hops = int_range 1 6 in
          let* asns = list_repeat hops (int_range 1 65535) in
          let* med = int_bound 1000 in
          return
            (Msg.update ~withdrawn
               ~attrs:
                 [
                   Attr.Origin Attr.Igp;
                   Attr.As_path (As_path.of_asns asns);
                   Attr.Next_hop 0x0A000001l;
                   Attr.Med (Int32.of_int med);
                 ]
               ~nlri ()) );
        ( 1,
          let* my_as = int_range 1 65535 in
          let* hold_time = int_bound 400 in
          return
            (Msg.Open { version = 4; my_as; hold_time; bgp_id = 0x0A000001l })
        );
        (1, return Msg.Keepalive);
        ( 1,
          let* code = int_range 1 6 in
          let* subcode = int_bound 10 in
          let* data = string_size ~gen:char (int_bound 16) in
          return (Msg.Notification { code; subcode; data }) );
      ])

let gen_fsm_state =
  QCheck.Gen.oneofl
    Mrt.[ Idle; Connect; Active; Open_sent; Open_confirm; Established ]

let gen_entry =
  QCheck.Gen.(
    let* ts = int_bound 10_000_000 in
    let* peer_as = int_range 1 65535 in
    frequency
      [
        ( 5,
          let* msg = gen_msg in
          return
            (Mrt.Message
               {
                 Mrt.ts;
                 peer_as;
                 local_as = 64512;
                 peer_ip = 0x0A000002l;
                 local_ip = 0x0A000001l;
                 msg;
               }) );
        ( 1,
          let* old_state = gen_fsm_state in
          let* new_state = gen_fsm_state in
          return
            (Mrt.State
               {
                 Mrt.sc_ts = ts;
                 sc_peer_as = peer_as;
                 sc_local_as = 64512;
                 sc_peer_ip = 0x0A000002l;
                 sc_local_ip = 0x0A000001l;
                 old_state;
                 new_state;
               }) );
      ])

let gen_mrt_bytes =
  QCheck.Gen.(
    let* entries = list_size (int_range 0 15) gen_entry in
    let data = Mrt.encode_entries entries in
    gen_mutated data)

let arb_mrt_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "archive of %d bytes" (String.length s))
    gen_mrt_bytes

(* --- equivalence properties -------------------------------------------- *)

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let decode_props =
  [
    prop ~count:300 "pcap slice decode == legacy decode (salvage mode)"
      arb_pcap_bytes
      (fun data ->
        let a = Pcap.decode_result data in
        let b = Legacy_ref.pcap_decode_result data in
        Trace.segments a.Pcap.trace = Trace.segments b.Pcap.trace
        && a.Pcap.diags = b.Pcap.diags
        && a.Pcap.stats = b.Pcap.stats);
    prop ~count:300 "pcap slice decode == legacy decode (strict mode)"
      arb_pcap_bytes
      (fun data ->
        let a = outcome (fun () -> Pcap.decode_result ~strict:true data) in
        let b =
          outcome (fun () -> Legacy_ref.pcap_decode_result ~strict:true data)
        in
        match (a, b) with
        | Ok a, Ok b ->
            Trace.segments a.Pcap.trace = Trace.segments b.Pcap.trace
            && a.Pcap.diags = b.Pcap.diags
            && a.Pcap.stats = b.Pcap.stats
        | Error ea, Error eb -> ea = eb
        | _ -> false);
    prop ~count:300 "mrt slice decode == legacy decode (salvage mode)"
      arb_mrt_bytes
      (fun data ->
        let a = Mrt.decode_result data in
        let b = Legacy_ref.mrt_decode_result data in
        a.Mrt.entries = b.Mrt.entries
        && a.Mrt.diags = b.Mrt.diags
        && a.Mrt.stats = b.Mrt.stats);
    prop ~count:300 "mrt slice decode == legacy decode (strict mode)"
      arb_mrt_bytes
      (fun data ->
        let a = outcome (fun () -> Mrt.decode_result ~strict:true data) in
        let b =
          outcome (fun () -> Legacy_ref.mrt_decode_result ~strict:true data)
        in
        match (a, b) with
        | Ok a, Ok b -> a.Mrt.entries = b.Mrt.entries
        | Error ea, Error eb -> ea = eb
        | _ -> false);
  ]

(* --- streaming transfer-end == extract-then-scan ------------------------ *)

let flow = Flow.v ~sender:ep2 ~receiver:ep1

(* A BGP byte stream (some duplicate announcements so churn detection
   can fire, optional trailing garbage so the malformed-stop path is
   exercised) cut into in-order TCP segments with random sizes and
   inter-arrival gaps. *)
let gen_transfer_trace =
  QCheck.Gen.(
    let* n_msgs = int_range 0 30 in
    let* msgs =
      list_repeat n_msgs
        (frequency
           [
             ( 6,
               let* nlri = list_size (int_range 0 6) gen_prefix in
               return (Msg.update ~nlri ()) );
             (1, return Msg.Keepalive);
           ])
    in
    (* Duplicate a random prefix block of the stream to look like churn. *)
    let* dup = bool in
    let msgs = if dup then msgs @ msgs else msgs in
    let stream = String.concat "" (List.map Msg.encode msgs) in
    let* garbage =
      frequency [ (4, return ""); (1, string_size ~gen:char (int_bound 30)) ]
    in
    let stream = stream ^ garbage in
    let* seg_size = int_range 1 200 in
    let* gap = oneofl [ 1_000; 50_000; 1_000_000; 6_000_000 ] in
    let rec cut off acc =
      if off >= String.length stream then List.rev acc
      else begin
        let len = min seg_size (String.length stream - off) in
        let seg =
          Seg.v
            ~ts:(1_000_000 + (List.length acc * gap))
            ~src:ep2 ~dst:ep1 ~seq:off ~ack:0 ~flags:Seg.data_flags
            ~payload:(String.sub stream off len)
            ()
        in
        cut (off + len) (seg :: acc)
      end
    in
    return (Trace.of_segments (cut 0 [])))

let arb_transfer_trace =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "trace of %d segments" (Trace.length t))
    gen_transfer_trace

let tight_config =
  { Mct.dup_fraction = 0.5; min_seen = 4; quiet_gap = 5_000_000 }

let transfer_props =
  (* Both production scans share [Mct]'s rule, so each is checked
     against the frozen list pipeline rather than against the other. *)
  let check config t =
    let start = 0 in
    let updates =
      Legacy_ref.of_timed_msgs (Msg_reader.extract_from_trace t ~flow)
    in
    let legacy = Legacy_ref.transfer_end ?config ~start updates in
    let streaming =
      Mct.transfer_end_of_reasm ?config ~start
        (Msg_reader.reassemble_from_trace t ~flow)
    in
    legacy = streaming && legacy = Mct.transfer_end ?config ~start updates
  in
  [
    prop ~count:200 "streaming transfer end == extract-then-scan (default)"
      arb_transfer_trace (check None);
    prop ~count:200 "streaming transfer end == extract-then-scan (tight)"
      arb_transfer_trace
      (check (Some tight_config));
  ]

(* Regression for the pset-hash precedence fix: consecutive /24
   prefixes pack to values a constant stride apart ([1 lsl 14]), and a
   multiplicative hash that keeps the LOW product bits degrades to one
   long collision cluster on exactly this input — the canonical shape of
   a full-table transfer.  Feed the streaming scan hundreds of
   sequential /24s and require both the exact distinct-prefix count and
   agreement with the extract-then-scan pipeline; a clustering
   regression would also trip the size-ratio guard below long before it
   failed a count. *)
let sequential_slash24_trace n =
  let buf = Buffer.create (n * 64) in
  for i = 0 to n - 1 do
    let nlri = [ Prefix.of_quad 10 (i / 256 mod 256) (i mod 256) 0 24 ] in
    Buffer.add_string buf (Msg.encode (Msg.update ~nlri ()))
  done;
  let stream = Buffer.contents buf in
  let seg_size = 1448 in
  let rec cut off acc =
    if off >= String.length stream then List.rev acc
    else
      let len = min seg_size (String.length stream - off) in
      let seg =
        Seg.v
          ~ts:(1_000_000 + (List.length acc * 1_000))
          ~src:ep2 ~dst:ep1 ~seq:off ~ack:0 ~flags:Seg.data_flags
          ~payload:(String.sub stream off len)
          ()
      in
      cut (off + len) (seg :: acc)
  in
  Trace.of_segments (cut 0 [])

let test_sequential_slash24_clustering () =
  let n = 600 in
  let t = sequential_slash24_trace n in
  let start = 0 in
  let streaming =
    Mct.transfer_end_of_reasm ~start (Msg_reader.reassemble_from_trace t ~flow)
  in
  let legacy =
    Legacy_ref.transfer_end ~start
      (Legacy_ref.of_timed_msgs (Msg_reader.extract_from_trace t ~flow))
  in
  Alcotest.(check bool) "streaming == extract-then-scan" true
    (streaming = legacy);
  match streaming with
  | None -> Alcotest.fail "no transfer end on a pure update stream"
  | Some r ->
      Alcotest.(check int) "every sequential /24 counted once" n
        r.Mct.prefixes;
      Alcotest.(check int) "every update attributed" n r.Mct.updates

let test_sequential_slash24_linear_time () =
  let scan t =
    Mct.transfer_end_of_reasm ~start:0 (Msg_reader.reassemble_from_trace t ~flow)
  in
  (match scan (sequential_slash24_trace 30_000) with
  | None -> Alcotest.fail "no transfer end on a pure update stream"
  | Some r ->
      Alcotest.(check int) "distinct prefixes at scale" 30_000 r.Mct.prefixes);
  (* O(n) with the high-bit hash and the binary-searched delivery times;
     a low-bit hash clusters on this input and a per-message linear
     delivery lookup grows with the stream, and either makes the scan
     quadratic. *)
  Size_ratio.check "Mct.transfer_end_of_reasm" ~n:3_750
    ~setup:sequential_slash24_trace scan

(* --- Scratch arena ------------------------------------------------------ *)

let scratch_slot = 31 (* far from any slot the library owns *)

let test_scratch_reuse () =
  let first = ref Bytes.empty in
  Scratch.with_bytes ~slot:scratch_slot 100 (fun c ->
      Bytes.fill c.Scratch.buf 0 100 'a';
      first := c.Scratch.buf);
  Scratch.with_bytes ~slot:scratch_slot 50 (fun c ->
      Alcotest.(check bool)
        "same backing buffer on checkout" true
        (c.Scratch.buf == !first))

let test_scratch_reentrancy () =
  Scratch.with_bytes ~slot:scratch_slot 64 (fun outer ->
      Scratch.with_bytes ~slot:scratch_slot 64 (fun inner ->
          Alcotest.(check bool)
            "nested checkout gets a distinct buffer" true
            (inner.Scratch.buf != outer.Scratch.buf)))

let test_scratch_isolation () =
  (* Each domain must see private storage: the worker writing into its
     slot cannot alias the caller's buffer for the same slot. *)
  Scratch.with_bytes ~slot:scratch_slot 128 (fun mine ->
      Bytes.fill mine.Scratch.buf 0 128 'M';
      let theirs =
        Domain.join
          (Domain.spawn (fun () ->
               Scratch.with_bytes ~slot:scratch_slot 128 (fun c ->
                   Bytes.fill c.Scratch.buf 0 128 'W';
                   c.Scratch.buf)))
      in
      Alcotest.(check bool)
        "distinct backing buffers across domains" true
        (theirs != mine.Scratch.buf);
      Alcotest.(check char)
        "caller's bytes untouched" 'M'
        (Bytes.get mine.Scratch.buf 0))

let test_scratch_ints_isolation () =
  Scratch.with_ints ~slot:scratch_slot 64 (fun mine ->
      Array.fill mine 0 64 7;
      let theirs =
        Domain.join
          (Domain.spawn (fun () ->
               Scratch.with_ints ~slot:scratch_slot 64 (fun a ->
                   Array.fill a 0 64 9;
                   a)))
      in
      Alcotest.(check bool)
        "distinct int arrays across domains" true (theirs != mine);
      Alcotest.(check int) "caller's ints untouched" 7 mine.(0))

(* --- perf gate negative control ----------------------------------------- *)

let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

(* The allocation gate is only trustworthy if it can actually fail: run
   it against a deliberately impossible baseline and require a non-zero
   exit.  (The positive direction — the real baseline passing — is
   covered by `dune runtest` itself via the @perf-gate alias.) *)
let test_perf_gate_rejects_tight_baseline () =
  let tight = Filename.temp_file "tdat_gate" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tight)
    (fun () ->
      let oc = open_out tight in
      output_string oc
        "{ \"analyze_minor_words_per_packet_max\": 1,\n\
        \  \"decode_minor_words_per_packet_max\": 1 }\n";
      close_out oc;
      let cmd =
        Printf.sprintf "%s perf_gate --baseline %s > /dev/null 2>&1"
          (Filename.quote bench_exe) (Filename.quote tight)
      in
      let rc = Sys.command cmd in
      Alcotest.(check bool) "tightened baseline fails the gate" true (rc <> 0))

let scratch_suite =
  [
    Alcotest.test_case "MCT: sequential /24s count distinctly" `Quick
      test_sequential_slash24_clustering;
    Alcotest.test_case "MCT: 30k sequential /24s scan in linear time" `Slow
      test_sequential_slash24_linear_time;
    Alcotest.test_case "scratch: buffer reused across checkouts" `Quick
      test_scratch_reuse;
    Alcotest.test_case "scratch: reentrant checkout degrades safely" `Quick
      test_scratch_reentrancy;
    Alcotest.test_case "scratch: cross-domain isolation (bytes)" `Quick
      test_scratch_isolation;
    Alcotest.test_case "scratch: cross-domain isolation (ints)" `Quick
      test_scratch_ints_isolation;
    Alcotest.test_case "perf gate rejects a tightened baseline" `Quick
      test_perf_gate_rejects_tight_baseline;
  ]

let suite = decode_props @ transfer_props @ scratch_suite
