(* Malformed-capture corpus for the streaming, fault-tolerant pcap
   reader: salvage counts, P0xx diagnostic codes, snaplen-correct length
   accounting, and strict-mode behavior.  Offsets below follow the
   encoder's fixed layout: 24-byte global header, 16-byte record headers,
   frames of 14 (Ethernet) + 20 (IPv4) + 20/24 (TCP) + payload bytes. *)

open Tdat_pkt
module Seg = Tcp_segment
module Reasm = Tdat_bgp.Stream_reassembly
module Scenario = Tdat_bgpsim.Scenario

let ep1 = Endpoint.of_quad 192 168 1 1 12345
let ep2 = Endpoint.of_quad 10 0 0 2 179

let seg ?(ts = 0) ?(seq = 0) ?(ack = 0) ?len ?(window = 65535) ?flags
    ?mss_opt ?payload ~src ~dst () =
  Seg.v ~ts ~src ~dst ~seq ~ack ?len ~window ?flags ?mss_opt ?payload ()

(* --- byte-twiddling helpers ------------------------------------------- *)

let u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let put_u32le b v =
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let patch data off byte =
  String.mapi (fun i c -> if i = off then Char.chr byte else c) data

(* Re-capture an encoded pcap with a smaller snaplen, exactly like
   re-running tcpdump with [-s snaplen]: every record keeps at most
   [snaplen] frame bytes, [orig_len] stays. *)
let clip_capture snaplen data =
  let b = Buffer.create (String.length data) in
  Buffer.add_string b (String.sub data 0 24);
  let pos = ref 24 in
  let len = String.length data in
  while !pos + 16 <= len do
    let incl = u32le data (!pos + 8) in
    let keep = min incl snaplen in
    Buffer.add_string b (String.sub data !pos 8);
    put_u32le b keep;
    Buffer.add_string b (String.sub data (!pos + 12) 4);
    Buffer.add_string b (String.sub data (!pos + 16) keep);
    pos := !pos + 16 + incl
  done;
  Buffer.contents b

let codes (r : Pcap.result) =
  List.map (fun (d : Pcap.Diag.t) -> d.Pcap.Diag.code) r.Pcap.diags

let has_code code (r : Pcap.result) =
  List.exists (fun c -> String.equal c code) (codes r)

let severities (r : Pcap.result) =
  List.map
    (fun (d : Pcap.Diag.t) -> Pcap.Diag.severity_name d.Pcap.Diag.severity)
    r.Pcap.diags

let same_wire (a : Seg.t) (b : Seg.t) =
  a.Seg.ts = b.Seg.ts && a.Seg.seq = b.Seg.seq && a.Seg.ack = b.Seg.ack
  && a.Seg.len = b.Seg.len && a.Seg.window = b.Seg.window
  && a.Seg.flags = b.Seg.flags && a.Seg.mss_opt = b.Seg.mss_opt
  && Endpoint.equal a.Seg.src b.Seg.src
  && Endpoint.equal a.Seg.dst b.Seg.dst

let three_data_segs () =
  [
    seg ~ts:1_000 ~seq:0 ~payload:"aaaa" ~flags:Seg.data_flags ~src:ep1
      ~dst:ep2 ();
    seg ~ts:2_000 ~seq:4 ~payload:"bbbb" ~flags:Seg.data_flags ~src:ep1
      ~dst:ep2 ();
    seg ~ts:3_000 ~seq:8 ~payload:"cccc" ~flags:Seg.data_flags ~src:ep1
      ~dst:ep2 ();
  ]

(* --- salvage on truncation -------------------------------------------- *)

let test_truncated_final_record () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  (* tcpdump killed mid-write: the last record body is cut short. *)
  let cut = String.sub data 0 (String.length data - 10) in
  let r = Pcap.decode_result cut in
  Alcotest.(check int) "prior packets salvaged" 2 (Trace.length r.Pcap.trace);
  Alcotest.(check int) "records" 2 r.Pcap.stats.Pcap.records;
  Alcotest.(check int) "decoded" 2 r.Pcap.stats.Pcap.decoded;
  Alcotest.(check (list string)) "one truncation warning" [ "P005" ] (codes r);
  Alcotest.(check (list string)) "warning severity" [ "warning" ] (severities r);
  Alcotest.check_raises "strict still fails"
    (Pcap.Decode_error "Pcap.decode: truncated packet") (fun () ->
      ignore (Pcap.decode_result ~strict:true cut))

let test_trailing_record_header () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  let r = Pcap.decode_result (data ^ String.make 7 'x') in
  Alcotest.(check int) "all packets salvaged" 3 (Trace.length r.Pcap.trace);
  Alcotest.(check (list string)) "trailing header warning" [ "P004" ] (codes r)

let test_fatal_errors () =
  let r = Pcap.decode_result (String.make 32 'z') in
  Alcotest.(check (list string)) "bad magic" [ "P001" ] (codes r);
  Alcotest.(check bool) "error severity" true
    (List.for_all Pcap.Diag.is_error r.Pcap.diags);
  Alcotest.(check int) "nothing decoded" 0 (Trace.length r.Pcap.trace);
  let r = Pcap.decode_result "abc" in
  Alcotest.(check (list string)) "truncated header" [ "P002" ] (codes r);
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  let r = Pcap.decode_result (patch data 20 101) in
  Alcotest.(check (list string)) "unsupported link type" [ "P003" ] (codes r);
  Alcotest.check_raises "strict link type"
    (Pcap.Decode_error "Pcap.decode: unsupported link type") (fun () ->
      ignore (Pcap.decode_result ~strict:true (patch data 20 101)))

(* --- malformed headers skip the record, salvage the rest --------------- *)

(* First record's frame starts at 40: IPv4 version/IHL byte at 54, TCP
   header at 74, its data-offset byte at 86, options (when present) at
   94. *)

let test_bad_ip_header () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  let r = Pcap.decode_result (patch data 54 0x44) in
  Alcotest.(check (list string)) "bad IHL" [ "P006" ] (codes r);
  Alcotest.(check int) "record skipped" 1 r.Pcap.stats.Pcap.skipped;
  Alcotest.(check int) "rest salvaged" 2 (Trace.length r.Pcap.trace);
  let r = Pcap.decode_result (patch data 54 0x65) in
  Alcotest.(check (list string)) "bad version" [ "P006" ] (codes r);
  Alcotest.(check int) "rest salvaged" 2 (Trace.length r.Pcap.trace)

let test_bad_tcp_header () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  let r = Pcap.decode_result (patch data 86 0x40) in
  Alcotest.(check (list string)) "bad data offset" [ "P007" ] (codes r);
  Alcotest.(check int) "rest salvaged" 2 (Trace.length r.Pcap.trace);
  (* doff = 60 overruns the declared IP total length. *)
  let r = Pcap.decode_result (patch data 86 0xF0) in
  Alcotest.(check (list string)) "doff overruns datagram" [ "P007" ] (codes r);
  Alcotest.(check int) "rest salvaged" 2 (Trace.length r.Pcap.trace)

let test_options_overrun () =
  let syn =
    seg ~ts:500 ~mss_opt:1400 ~flags:(Seg.flags ~syn:true ()) ~src:ep1
      ~dst:ep2 ()
  in
  let data = Pcap.encode (Trace.of_segments [ syn ]) in
  (* Option kind 5 claiming 10 bytes inside a 4-byte options area. *)
  let r = Pcap.decode_result (patch (patch data 94 5) 95 10) in
  Alcotest.(check (list string)) "overrun reported" [ "P008" ] (codes r);
  Alcotest.(check int) "segment still decoded" 1 (Trace.length r.Pcap.trace);
  (match Trace.segments r.Pcap.trace with
  | [ s ] -> Alcotest.(check (option int)) "no MSS salvaged" None s.Seg.mss_opt
  | _ -> Alcotest.fail "expected one segment");
  (* Bad option length (< 2). *)
  let r = Pcap.decode_result (patch (patch data 94 5) 95 1) in
  Alcotest.(check (list string)) "bad option length" [ "P008" ] (codes r);
  (* Options clipped by the snaplen are not malformed: no diagnostic,
     no crash (the old scanner read out of bounds here). *)
  let r = Pcap.decode_result (clip_capture 56 data) in
  Alcotest.(check (list string)) "clipped options are fine" [] (codes r);
  Alcotest.(check int) "segment decoded" 1 (Trace.length r.Pcap.trace)

let test_non_ip_and_vlan_frames () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  (* First frame's ethertype (offset 52) becomes ARP. *)
  let r = Pcap.decode_result (patch data 53 0x06) in
  Alcotest.(check (list string)) "non-IPv4 note" [ "P009" ] (codes r);
  Alcotest.(check bool) "not an error" true
    (not (List.exists Pcap.Diag.is_error r.Pcap.diags));
  Alcotest.(check int) "rest salvaged" 2 (Trace.length r.Pcap.trace);
  (* An 802.1Q-tagged copy of a single-segment capture decodes through
     the tag. *)
  let one = seg ~ts:700 ~seq:3 ~payload:"vlan!" ~src:ep1 ~dst:ep2 () in
  let data = Pcap.encode (Trace.of_segments [ one ]) in
  let incl = u32le data 32 in
  let b = Buffer.create 128 in
  Buffer.add_string b (String.sub data 0 32);
  put_u32le b (incl + 4);
  put_u32le b (incl + 4);
  Buffer.add_string b (String.sub data 40 12);
  Buffer.add_string b "\x81\x00\x00\x01";
  Buffer.add_string b (String.sub data 52 (incl - 12));
  let r = Pcap.decode_result (Buffer.contents b) in
  Alcotest.(check (list string)) "VLAN note" [ "P010" ] (codes r);
  (match Trace.segments r.Pcap.trace with
  | [ s ] -> Alcotest.(check bool) "segment intact" true (same_wire one s)
  | _ -> Alcotest.fail "expected one segment")

(* --- snaplen-correct decoding ----------------------------------------- *)

let test_snaplen_clipped_capture () =
  let segs =
    [
      seg ~ts:1_000 ~seq:0 ~payload:"hello world" ~flags:Seg.data_flags
        ~src:ep1 ~dst:ep2 ();
      seg ~ts:2_000 ~ack:11 ~src:ep2 ~dst:ep1 ();
      seg ~ts:3_000 ~seq:11 ~payload:"abcdefgh" ~flags:Seg.data_flags ~src:ep1
        ~dst:ep2 ();
    ]
  in
  let data = Pcap.encode (Trace.of_segments segs) in
  let full = Pcap.decode_result data in
  (* tcpdump -s 54: Ethernet + IPv4 + base TCP headers only. *)
  let clipped = Pcap.decode_result (clip_capture 54 data) in
  Alcotest.(check int) "same packet count" (Trace.length full.Pcap.trace)
    (Trace.length clipped.Pcap.trace);
  Alcotest.(check int) "two data records clipped" 2
    clipped.Pcap.stats.Pcap.clipped;
  Alcotest.(check (list string)) "clipping summarized" [ "P011" ]
    (codes clipped);
  List.iter2
    (fun (f : Seg.t) (c : Seg.t) ->
      Alcotest.(check bool) "seq/len accounting identical" true (same_wire f c);
      Alcotest.(check string) "payload truncated to capture" "" c.Seg.payload;
      Alcotest.(check bool) "payload is a prefix" true
        (String.length c.Seg.payload <= String.length f.Seg.payload))
    (Trace.segments full.Pcap.trace)
    (Trace.segments clipped.Pcap.trace);
  Alcotest.(check int) "total_bytes from declared lengths"
    (Trace.total_bytes full.Pcap.trace)
    (Trace.total_bytes clipped.Pcap.trace);
  (* Clipping is not a decode problem: strict mode accepts it too. *)
  Alcotest.(check int) "strict decode works" 3
    (Trace.length
       (Pcap.decode_result ~strict:true (clip_capture 54 data)).Pcap.trace);
  (* Reassembly zero-fills the missing tails and keeps offsets exact. *)
  let data_segs tr =
    List.filter
      (fun (s : Seg.t) -> Seg.is_data s && Endpoint.equal s.Seg.src ep1)
      (Trace.segments tr)
  in
  let rf = Legacy_ref.Fresh_reasm.of_segments (data_segs full.Pcap.trace) in
  let rc = Legacy_ref.Fresh_reasm.of_segments (data_segs clipped.Pcap.trace) in
  Alcotest.(check int) "contiguous length preserved"
    (Reasm.Private.contiguous_length rf) (Reasm.Private.contiguous_length rc);
  Alcotest.(check int) "duplicate bytes preserved" (Reasm.Private.duplicate_bytes rf)
    (Reasm.Private.duplicate_bytes rc);
  Alcotest.(check string) "zero-filled stream"
    (String.make (Reasm.Private.contiguous_length rc) '\000')
    (Reasm.contiguous rc)

(* --- streaming file reads --------------------------------------------- *)

let test_streaming_multi_chunk_file () =
  (* Larger than any single I/O chunk, read record by record. *)
  let payload = String.make 1024 'd' in
  let segs =
    List.init 300 (fun i ->
        seg ~ts:(1_000 * i) ~seq:(1024 * i) ~payload ~flags:Seg.data_flags
          ~src:ep1 ~dst:ep2 ())
  in
  let trace = Trace.of_segments segs in
  let path = Filename.temp_file "tdat_ingest" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pcap.to_file path trace;
      let r = Pcap.read_file path in
      Alcotest.(check int) "records" 300 r.Pcap.stats.Pcap.records;
      Alcotest.(check int) "decoded" 300 r.Pcap.stats.Pcap.decoded;
      Alcotest.(check (list string)) "no diagnostics" [] (codes r);
      Alcotest.(check bool) "byte-exact re-encode" true
        (String.equal (Pcap.encode r.Pcap.trace) (Pcap.encode trace));
      (* A truncated copy still yields every prior record. *)
      let data = Pcap.encode trace in
      let cut_path = Filename.temp_file "tdat_ingest_cut" ".pcap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove cut_path)
        (fun () ->
          let oc = open_out_bin cut_path in
          output_string oc (String.sub data 0 (String.length data - 100));
          close_out oc;
          let r = Pcap.read_file cut_path in
          Alcotest.(check int) "salvaged prefix" 299
            r.Pcap.stats.Pcap.decoded;
          Alcotest.(check (list string)) "truncation warning" [ "P005" ]
            (codes r)))

(* --- strict and salvage reads of clean captures ------------------------- *)

(* On a clean capture the strict reader and the salvaging one are two
   modes of one decode, so everything downstream must agree: the
   uninstrumented analyses structurally (profiles, transfer bounds, the
   8 factor and 3 group ratios, the 34 series, the detector verdicts)
   and the rendered report byte for byte, series timeline included.
   The captures cover a timer-paced sender, an upstream-lossy path and
   a shallow receiver-local buffer, so every part of the analysis is
   populated somewhere. *)
let test_strict_salvage_analyze_identically () =
  let lossy =
    Tdat_tcpsim.Connection.path ~delay:5_000
      ~data_loss:
        (Tdat_netsim.Loss.gilbert (Tdat_rng.Rng.create 99) ~p_enter:0.05
           ~p_exit:0.3 ~p_loss_bad:0.9)
      ()
  in
  let captures =
    [
      ( "site: timer + lossy upstream",
        (Scenario.run ~seed:21
           [
             Scenario.router ~table_prefixes:3000 ~timer_interval:200_000
               ~quota:20 1;
             Scenario.router ~table_prefixes:3000 ~upstream:lossy 2;
           ])
          .Scenario.site_trace );
      ( "site: receiver-local loss",
        (Scenario.run ~seed:25
           ~collector_local:
             (Tdat_tcpsim.Connection.path ~delay:50 ~bandwidth_bps:20_000_000
                ~buffer_pkts:6 ())
           [ Scenario.router ~table_prefixes:4000 1 ])
          .Scenario.site_trace );
    ]
  in
  let timers = ref 0 and losses = ref 0 in
  List.iter
    (fun (name, trace) ->
      let path = Filename.temp_file "tdat_strict" ".pcap" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Pcap.to_file path trace;
          let strict = Pcap.read_file ~strict:true path in
          let salvage = Pcap.read_file path in
          Alcotest.(check (list string)) (name ^ ": clean") [] (codes salvage);
          let analyze (r : Pcap.result) =
            Tdat.Analyzer.analyze_all ~jobs:1 r.Pcap.trace
          in
          let a = analyze strict and b = analyze salvage in
          Alcotest.(check bool) (name ^ ": connections") true (a <> []);
          Alcotest.(check bool)
            (name ^ ": analyses structurally equal")
            true
            (compare a b = 0);
          Alcotest.(check string)
            (name ^ ": rendered reports identical")
            (Tdat_serve.Render.analysis ~series:true a)
            (Tdat_serve.Render.analysis ~series:true b);
          List.iter
            (fun (_, (x : Tdat.Analyzer.t)) ->
              let p = x.Tdat.Analyzer.problems in
              if p.Tdat.Analyzer.timer <> None then incr timers;
              let prof = x.Tdat.Analyzer.profile in
              if
                prof.Tdat.Conn_profile.upstream_episodes <> []
                || prof.Tdat.Conn_profile.downstream_episodes <> []
              then incr losses)
            a))
    captures;
  Alcotest.(check bool) "a timer was detected" true (!timers > 0);
  Alcotest.(check bool) "loss episodes were profiled" true (!losses > 0)

(* Salvage keeps every whole record of a cut capture: its read of a
   capture cut inside a record header or a record body is the strict
   read of the capture up to that record, segment for segment and
   analysis for analysis, with the one P004/P005 warning.  Cuts are
   made at a third, two thirds and the last of the records of a lossy
   two-router site capture: inside the record header, early in the
   frame, and one byte short of the record's end. *)
let test_cut_capture_salvages_whole_records () =
  let lossy =
    Tdat_tcpsim.Connection.path ~delay:5_000
      ~data_loss:
        (Tdat_netsim.Loss.gilbert (Tdat_rng.Rng.create 7) ~p_enter:0.05
           ~p_exit:0.3 ~p_loss_bad:0.9)
      ()
  in
  let data =
    Pcap.encode
      (Scenario.run ~seed:23
         [
           Scenario.router ~table_prefixes:1500 1;
           Scenario.router ~table_prefixes:1500 ~upstream:lossy 2;
         ])
        .Scenario.site_trace
  in
  (* Record offsets: a 24-byte global header, then 16-byte record
     headers each followed by [incl_len] bytes. *)
  let rec offsets off acc =
    if off >= String.length data then Array.of_list (List.rev acc)
    else offsets (off + 16 + u32le data (off + 8)) (off :: acc)
  in
  let records = offsets 24 [] in
  let n = Array.length records in
  (* A cut one byte short of the end of record [k]. *)
  let short k = 16 + u32le data (records.(k) + 8) - 1 in
  let render r =
    Tdat_serve.Render.analysis ~series:true
      (Tdat.Analyzer.analyze_all ~jobs:1 r.Pcap.trace)
  in
  List.iter
    (fun (k, into, code) ->
      let what = Printf.sprintf "record %d/%d, cut at +%d" k n into in
      let whole = String.sub data 0 records.(k) in
      let cut = String.sub data 0 (records.(k) + into) in
      let strict = Pcap.decode_result ~strict:true whole in
      let salvage = Pcap.decode_result cut in
      Alcotest.(check (list string)) (what ^ ": warning") [ code ]
        (codes salvage);
      Alcotest.(check int) (what ^ ": records") k
        salvage.Pcap.stats.Pcap.records;
      Alcotest.(check string) (what ^ ": segments")
        (Pcap.encode strict.Pcap.trace)
        (Pcap.encode salvage.Pcap.trace);
      Alcotest.(check string) (what ^ ": analysis") (render strict)
        (render salvage))
    [
      (n / 3, 7, "P004");
      (n / 3, 16 + 20, "P005");
      (2 * n / 3, short (2 * n / 3), "P005");
      (n - 1, 3, "P004");
      (n - 1, short (n - 1), "P005");
    ]

(* --- timestamp encoding ----------------------------------------------- *)

let test_timestamp_encoding () =
  (* Post-2038 seconds (>= 2^31) round-trip through the unsigned field. *)
  let ts = (2_200_000_000 * 1_000_000) + 123 in
  let t = Trace.of_segments [ seg ~ts ~payload:"x" ~src:ep1 ~dst:ep2 () ] in
  (match
     Trace.segments
       (Pcap.decode_result ~strict:true (Pcap.encode t)).Pcap.trace
   with
  | [ s ] -> Alcotest.(check int) "post-2038 ts round-trips" ts s.Seg.ts
  | _ -> Alcotest.fail "expected one segment");
  let rejects ts =
    let t = Trace.of_segments [ seg ~ts ~src:ep1 ~dst:ep2 () ] in
    match Pcap.encode t with
    | (_ : string) -> false
    | exception Pcap.Encode_error _ -> true
  in
  Alcotest.(check bool) "seconds >= 2^32 rejected" true
    (rejects (4_294_967_296 * 1_000_000));
  Alcotest.(check bool) "negative ts rejected" true (rejects (-1))

(* --- audit lifting ----------------------------------------------------- *)

let test_audit_ingest_lifting () =
  let data = Pcap.encode (Trace.of_segments (three_data_segs ())) in
  let r = Pcap.decode_result (String.sub data 0 (String.length data - 10)) in
  match Tdat_audit.Ingest.of_result r with
  | [ d ] ->
      Alcotest.(check string) "code preserved" "P005" d.Tdat_audit.Diag.code;
      Alcotest.(check bool) "warning severity" true
        (match d.Tdat_audit.Diag.severity with
        | Tdat_audit.Diag.Warning -> true
        | _ -> false);
      Alcotest.(check string) "record index in subject" "pcap record 2"
        d.Tdat_audit.Diag.subject
  | ds -> Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length ds))

(* --- simulator scenario: headers-only capture is analysis-equivalent --- *)

let test_clipped_scenario_equivalence () =
  (* A lossy local path forces retransmissions (same setup as the
     analyzer's receiver-local loss test). *)
  let result =
    Scenario.run ~seed:25
      ~collector_local:
        (Tdat_tcpsim.Connection.path ~delay:50 ~bandwidth_bps:20_000_000
           ~buffer_pkts:6 ())
      [ Scenario.router ~table_prefixes:8000 1 ]
  in
  let o = List.hd result.Scenario.outcomes in
  let full_bytes = Pcap.encode o.Scenario.trace in
  Alcotest.(check bool) "decode/encode byte-exact on simulator output" true
    (String.equal
       (Pcap.encode (Pcap.decode_result ~strict:true full_bytes).Pcap.trace)
       full_bytes);
  (* tcpdump -s 58 keeps Ethernet + IPv4 + TCP incl. the MSS option. *)
  let full = Pcap.decode_result full_bytes in
  let clipped = Pcap.decode_result (clip_capture 58 full_bytes) in
  Alcotest.(check bool) "payload was actually clipped" true
    (clipped.Pcap.stats.Pcap.clipped > 0);
  let fc = Trace.partition_connections full.Pcap.trace in
  let cc = Trace.partition_connections clipped.Pcap.trace in
  Alcotest.(check int) "same connections" (List.length fc) (List.length cc);
  List.iter2
    (fun ((fa, fb), fsub) ((ca, cb), csub) ->
      Alcotest.(check bool) "same connection key" true
        (Endpoint.equal fa ca && Endpoint.equal fb cb);
      Alcotest.(check int) "same packet count" (Trace.length fsub)
        (Trace.length csub);
      Alcotest.(check bool) "same seq/len wire profile" true
        (List.for_all2 same_wire (Trace.segments fsub) (Trace.segments csub));
      (* Same inferred sender, same retransmission profile. *)
      let flow_f = Trace.infer_sender fsub (fa, fb) in
      let flow_c = Trace.infer_sender csub (ca, cb) in
      Alcotest.(check bool) "same inferred sender" true
        (Endpoint.equal flow_f.Flow.sender flow_c.Flow.sender);
      let reasm flow sub =
        Legacy_ref.Fresh_reasm.of_segments
          (List.filter
             (fun (s : Seg.t) ->
               Seg.is_data s && Endpoint.equal s.Seg.src flow.Flow.sender)
             (Trace.segments sub))
      in
      let rf = reasm flow_f fsub and rc = reasm flow_c csub in
      Alcotest.(check int) "same delivered bytes" (Reasm.Private.contiguous_length rf)
        (Reasm.Private.contiguous_length rc);
      Alcotest.(check int) "same retransmitted bytes"
        (Reasm.Private.duplicate_bytes rf) (Reasm.Private.duplicate_bytes rc);
      Alcotest.(check int) "same open gaps" (Reasm.Private.total_gaps rf)
        (Reasm.Private.total_gaps rc))
    fc cc;
  Alcotest.(check bool) "scenario had losses" true (result.Scenario.local_drops > 0)

(* --- properties -------------------------------------------------------- *)

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count:100 arb f)

(* --- stream-source robustness (Ingest_io) ------------------------------ *)

let scenario_capture ~seed ~prefixes =
  let result =
    Scenario.run ~seed [ Scenario.router ~table_prefixes:prefixes 1 ]
  in
  Pcap.encode result.Scenario.site_trace

let check_same_capture label data (got : Pcap.result) =
  let expected = Pcap.decode_result data in
  Alcotest.(check string)
    (label ^ ": identical segments")
    (Pcap.encode expected.Pcap.trace)
    (Pcap.encode got.Pcap.trace);
  Alcotest.(check (list int))
    (label ^ ": identical stats")
    (let s = expected.Pcap.stats in
     [ s.Pcap.records; s.Pcap.decoded; s.Pcap.skipped ])
    (let s = got.Pcap.stats in
     [ s.Pcap.records; s.Pcap.decoded; s.Pcap.skipped ])

let test_pipe_fed_stream () =
  (* A named pipe delivers short reads at arbitrary boundaries and has
     no size to read ahead to: the file reader's buffer starts at one
     byte and grows, and it must reassemble every record exactly as the
     in-memory decoder does. *)
  let data = scenario_capture ~seed:61 ~prefixes:900 in
  let path = Filename.temp_file "tdat_fifo" ".pcap" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  let writer =
    Domain.spawn (fun () ->
        let w = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        let b = Bytes.of_string data in
        let len = Bytes.length b in
        let pos = ref 0 in
        (* Deliberately awkward chunk sizes, unaligned with the pcap
           24/16-byte headers, so records always straddle reads. *)
        while !pos < len do
          let n = min 97 (len - !pos) in
          let written = Unix.write w b !pos n in
          pos := !pos + written
        done;
        Unix.close w)
  in
  let got = Pcap.read_file path in
  Domain.join writer;
  Sys.remove path;
  check_same_capture "pipe-fed" data got

(* Everything [read] delivers up to its end of input. *)
let drain (read : Ingest_io.read) =
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    let n = read chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes out chunk 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents out

let test_eintr_retry () =
  (* A source that raises EINTR on every third call and otherwise
     trickles 61-byte short reads: the retrying reader the file readers
     wrap their descriptors and channels in must deliver the whole
     capture without truncation or a spurious EOF. *)
  let data = scenario_capture ~seed:62 ~prefixes:400 in
  let interrupted () =
    let pos = ref 0 and calls = ref 0 in
    fun buf off len ->
      incr calls;
      if !calls mod 3 = 0 then
        raise (Unix.Unix_error (Unix.EINTR, "read", ""));
      let n = min len (min 61 (String.length data - !pos)) in
      Bytes.blit_string data !pos buf off n;
      pos := !pos + n;
      n
  in
  let got =
    Pcap.decode_result (drain (Ingest_io.retry_eintr (interrupted ())))
  in
  check_same_capture "EINTR-riddled" data got;
  (* The channel flavor of the same interruption ([Sys_error]). *)
  let sys_interrupted () =
    let pos = ref 0 and calls = ref 0 in
    fun buf off len ->
      incr calls;
      if !calls mod 3 = 0 then raise (Sys_error "Interrupted system call");
      let n = min len (min 61 (String.length data - !pos)) in
      Bytes.blit_string data !pos buf off n;
      pos := !pos + n;
      n
  in
  let got =
    Pcap.decode_result (drain (Ingest_io.retry_eintr (sys_interrupted ())))
  in
  check_same_capture "Sys_error EINTR" data got

let test_follow_tailed_file () =
  (* Tail a file that is still being written: cut mid-record, append
     the rest while the reader is already polling, and require the full
     capture.  [follow_idle] ends the tail 0.3 s after growth stops. *)
  let data = scenario_capture ~seed:63 ~prefixes:400 in
  let path = Filename.temp_file "tdat_tail" ".pcap" in
  let cut = String.length data / 2 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 cut));
  let writer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.1;
        let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
        output_string oc (String.sub data cut (String.length data - cut));
        close_out oc)
  in
  let follow = Ingest_io.follow_idle ~limit_s:30. ~idle_s:0.3 () in
  let got = Pcap.read_file ~follow path in
  Domain.join writer;
  check_same_capture "tailed" data got;
  Sys.remove path

(* A tailed read of a capture that is already complete is the plain
   read: the same segments, stats and diagnostics, the final P011
   snaplen-clipping summary included. *)
let test_follow_read_file_clipped () =
  let data = clip_capture 60 (scenario_capture ~seed:64 ~prefixes:300) in
  let path = Filename.temp_file "tdat_tail" ".pcap" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
  let plain = Pcap.read_file path in
  let tailed =
    Pcap.read_file ~follow:(Ingest_io.follow_idle ~idle_s:0.05 ()) path
  in
  Sys.remove path;
  Alcotest.(check bool) "records clipped" true
    (plain.Pcap.stats.Pcap.clipped > 0);
  Alcotest.(check (list string)) "P011 summary" [ "P011" ] (codes tailed);
  Alcotest.(check bool) "same diagnostics" true
    (plain.Pcap.diags = tailed.Pcap.diags);
  Alcotest.(check bool) "same stats" true
    (plain.Pcap.stats = tailed.Pcap.stats);
  Alcotest.(check bool) "same segments" true
    (Trace.segments plain.Pcap.trace = Trace.segments tailed.Pcap.trace)

let arb_trace = QCheck.list_of_size (QCheck.Gen.int_range 0 20) Test_pkt.arb_segment

let qcheck_suite =
  [
    prop "decode . encode is byte-exact" arb_trace (fun segs ->
        let data = Pcap.encode (Trace.of_segments segs) in
        String.equal
          (Pcap.encode (Pcap.decode_result ~strict:true data).Pcap.trace)
          data);
    prop "snaplen clipping preserves seq/len accounting"
      (QCheck.pair arb_trace (QCheck.int_range 54 400))
      (fun (segs, snaplen) ->
        let data = Pcap.encode (Trace.of_segments segs) in
        let full = Pcap.decode_result data in
        let clipped = Pcap.decode_result (clip_capture snaplen data) in
        clipped.Pcap.diags
        |> List.for_all (fun d -> not (Pcap.Diag.is_error d))
        && List.for_all2
             (fun (f : Seg.t) (c : Seg.t) ->
               f.Seg.ts = c.Seg.ts && f.Seg.seq = c.Seg.seq
               && f.Seg.len = c.Seg.len
               && f.Seg.ack = c.Seg.ack
               && String.length c.Seg.payload <= f.Seg.len)
             (Trace.segments full.Pcap.trace)
             (Trace.segments clipped.Pcap.trace));
  ]

let suite =
  [
    Alcotest.test_case "truncated final record" `Quick
      test_truncated_final_record;
    Alcotest.test_case "trailing record header" `Quick
      test_trailing_record_header;
    Alcotest.test_case "fatal errors" `Quick test_fatal_errors;
    Alcotest.test_case "bad ip header" `Quick test_bad_ip_header;
    Alcotest.test_case "bad tcp header" `Quick test_bad_tcp_header;
    Alcotest.test_case "options overrun" `Quick test_options_overrun;
    Alcotest.test_case "non-ip and vlan frames" `Quick
      test_non_ip_and_vlan_frames;
    Alcotest.test_case "snaplen-clipped capture" `Quick
      test_snaplen_clipped_capture;
    Alcotest.test_case "streaming multi-chunk file" `Quick
      test_streaming_multi_chunk_file;
    Alcotest.test_case "strict and salvage reads analyze identically" `Quick
      test_strict_salvage_analyze_identically;
    Alcotest.test_case "a cut capture salvages its whole records" `Quick
      test_cut_capture_salvages_whole_records;
    Alcotest.test_case "timestamp encoding" `Quick test_timestamp_encoding;
    Alcotest.test_case "audit ingest lifting" `Quick test_audit_ingest_lifting;
    Alcotest.test_case "clipped scenario equivalence" `Slow
      test_clipped_scenario_equivalence;
    Alcotest.test_case "pipe-fed stream" `Quick test_pipe_fed_stream;
    Alcotest.test_case "EINTR retry" `Quick test_eintr_retry;
    Alcotest.test_case "tailed growing file" `Quick test_follow_tailed_file;
    Alcotest.test_case "tailed read of a finished clipped capture" `Quick
      test_follow_read_file_clipped;
  ]
  @ qcheck_suite
