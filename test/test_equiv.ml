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

(* --- stream reassembly == the list-interval reassembler ------------------ *)

(* Segments of a random stream arriving reordered within a window, with
   some dropped, some duplicated, some retransmitted over other segments'
   boundaries and some carrying a payload shorter than their length (a
   clipped capture, zero-filled by both reassemblers). *)
let gen_reasm_segments =
  QCheck.Gen.(
    let* len = int_range 1 3000 in
    let* stream = string_size ~gen:printable (return len) in
    let* chunk = int_range 1 300 in
    let chunks = List.init ((len + chunk - 1) / chunk) (fun i -> i * chunk) in
    let seg_of (lo, l) =
      let* clip = frequency [ (8, return l); (1, int_bound l) ] in
      return (lo, l, String.sub stream lo clip)
    in
    let* kept =
      flatten_l
        (List.map
           (fun lo ->
             let l = min chunk (len - lo) in
             frequency
               [
                 (8, map (fun s -> [ s ]) (seg_of (lo, l)));
                 (1, return []);
                 (1, map (fun s -> [ s; s ]) (seg_of (lo, l)));
               ])
           chunks)
    in
    let* retx =
      list_size (int_range 0 5)
        (let* lo = int_bound (len - 1) in
         let* l = int_range 1 (min 600 (len - lo)) in
         seg_of (lo, l))
    in
    let* keyed =
      flatten_l
        (List.mapi
           (fun i s -> map (fun d -> (i + d, s)) (int_bound 6))
           (List.concat kept @ retx))
    in
    let order = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) keyed in
    return
      (List.mapi
         (fun i (_, (lo, l, payload)) ->
           Seg.v ~ts:(1_000 * (i + 1)) ~src:ep2 ~dst:ep1 ~seq:lo ~ack:0 ~len:l
             ~flags:Seg.data_flags ~payload ())
         order))

let arb_reasm_segments =
  QCheck.make
    ~print:(fun segs ->
      String.concat " "
        (List.map
           (fun (s : Seg.t) -> Printf.sprintf "[%d,+%d)" s.Seg.seq s.Seg.len)
           segs))
    gen_reasm_segments

let reasm_props =
  [
    prop ~count:300 "reassembly == list-interval reassembler"
      arb_reasm_segments (fun segs ->
        let r = Stream_reassembly.create () in
        let l = Legacy_ref.List_reasm.create () in
        List.iter
          (fun seg ->
            Stream_reassembly.feed r seg;
            Legacy_ref.List_reasm.feed l seg)
          segs;
        let n = Stream_reassembly.contiguous_length r in
        let same off =
          Stream_reassembly.delivery_time r off
          = Legacy_ref.List_reasm.delivery_time l off
        in
        (* A forward walk at every offset (the cursor), then strides that
           jump past the cursor's short walk, then a backward walk and a
           scattered order (the binary search), on one reassembler whose
           cursor carries over from query to query. *)
        let scattered = List.init n (fun i -> i * 7919 mod max 1 n) in
        Stream_reassembly.contiguous r = Legacy_ref.List_reasm.contiguous l
        && List.for_all same (List.init n Fun.id)
        && List.for_all same (List.init ((n + 36) / 37) (fun i -> i * 37))
        && List.for_all same (List.init n (fun i -> n - 1 - i))
        && List.for_all same scattered
        && Stream_reassembly.total_gaps r = Legacy_ref.List_reasm.total_gaps l
        && Stream_reassembly.duplicate_bytes r
           = Legacy_ref.List_reasm.duplicate_bytes l);
    prop ~count:300 "delivery-time cursor survives interleaved feeds"
      arb_reasm_segments (fun segs ->
        (* Query the newest contiguous byte after every feed, so the
           cursor is left mid-array while later feeds append advances. *)
        let r = Stream_reassembly.create () in
        let l = Legacy_ref.List_reasm.create () in
        List.for_all
          (fun seg ->
            Stream_reassembly.feed r seg;
            Legacy_ref.List_reasm.feed l seg;
            let n = Stream_reassembly.contiguous_length r in
            n = 0
            || Stream_reassembly.delivery_time r (n - 1)
               = Legacy_ref.List_reasm.delivery_time l (n - 1)
               && Stream_reassembly.delivery_time r (n / 2)
                  = Legacy_ref.List_reasm.delivery_time l (n / 2))
          segs);
  ]

(* --- streaming transfer-end == extract-then-scan ------------------------ *)

let flow = Flow.v ~sender:ep2 ~receiver:ep1

(* A BGP byte stream (some duplicate announcements so churn detection
   can fire, optional trailing garbage so the malformed-stop path is
   exercised) cut into in-order TCP segments with random sizes and
   inter-arrival gaps. *)
let gen_transfer_trace_of gen_prefix =
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

let print_trace t = Printf.sprintf "trace of %d segments" (Trace.length t)
let arb_transfer_trace =
  QCheck.make ~print:print_trace (gen_transfer_trace_of gen_prefix)

(* Prefixes drawn from a pool of 2 to 40, so a prefix repeated inside one
   UPDATE and one re-announced by a later UPDATE are both common; the
   full /0-/32 generator above almost never repeats one. *)
let arb_small_pool_trace =
  QCheck.make ~print:print_trace
    QCheck.Gen.(
      let* pool = array_size (int_range 2 40) gen_prefix in
      gen_transfer_trace_of (oneofa pool))

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
  (* The same under both configs, and again with the seen set limited to
     2 and 3 batch tags so it runs out of tags and re-tags every few
     batches. *)
  let check_small_pool t =
    let start = 0 in
    let updates =
      Legacy_ref.of_timed_msgs (Msg_reader.extract_from_trace t ~flow)
    in
    List.for_all
      (fun config ->
        let legacy = Legacy_ref.transfer_end ?config ~start updates in
        check config t
        && List.for_all
             (fun max_tag ->
               legacy
               = Mct.Private.transfer_end_of_reasm ~max_tag ?config ~start
                   (Msg_reader.reassemble_from_trace t ~flow)
               && legacy = Mct.Private.transfer_end ~max_tag ?config ~start updates)
             [ 2; 3 ])
      [ None; Some tight_config ]
  in
  [
    prop ~count:200 "streaming transfer end == extract-then-scan (default)"
      arb_transfer_trace (check None);
    prop ~count:200 "streaming transfer end == extract-then-scan (tight)"
      arb_transfer_trace
      (check (Some tight_config));
    prop ~count:200 "both transfer-end scans == extract-then-scan (small pool)"
      arb_small_pool_trace check_small_pool;
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

(* --- targeted MCT cases -------------------------------------------------- *)

(* A trace carrying [batches], one UPDATE per batch, each in its own
   segment at the batch's timestamp. *)
let trace_of_batches batches =
  let _, segs =
    List.fold_left
      (fun (off, acc) (ts, nlri) ->
        let payload = Msg.encode (Msg.update ~nlri ()) in
        let seg =
          Seg.v ~ts ~src:ep2 ~dst:ep1 ~seq:off ~ack:0 ~flags:Seg.data_flags
            ~payload ()
        in
        (off + String.length payload, seg :: acc))
      (0, []) batches
  in
  Trace.of_segments (List.rev segs)

(* Run both scans (with [max_tag] batch tags, if given) and the oracle
   over [batches]; all three must agree and the answer is returned. *)
let scan_both ?max_tag ~config batches =
  let list, streaming =
    let reasm = Msg_reader.reassemble_from_trace (trace_of_batches batches) ~flow in
    match max_tag with
    | None ->
        ( Mct.transfer_end ~config ~start:0 batches,
          Mct.transfer_end_of_reasm ~config ~start:0 reasm )
    | Some max_tag ->
        ( Mct.Private.transfer_end ~max_tag ~config ~start:0 batches,
          Mct.Private.transfer_end_of_reasm ~max_tag ~config ~start:0 reasm )
  in
  let legacy = Legacy_ref.transfer_end ~config ~start:0 batches in
  Alcotest.(check bool) "list scan == oracle" true (list = legacy);
  Alcotest.(check bool) "streaming scan == oracle" true (streaming = legacy);
  list

let p24 i = Prefix.of_quad 10 (i / 256 mod 256) (i mod 256) 0 24

let check_result what ~end_ts ~prefixes ~updates = function
  | None -> Alcotest.failf "%s: no transfer end" what
  | Some r ->
      Alcotest.(check int) (what ^ ": end") end_ts r.Mct.end_ts;
      Alcotest.(check int) (what ^ ": prefixes") prefixes r.Mct.prefixes;
      Alcotest.(check int) (what ^ ": updates") updates r.Mct.updates

(* Churn arms at once ([min_seen = 0]): were the repeats of [p24 0]
   counted as duplicates, 3 of the first batch's 5 prefixes would be,
   and the scan would end before it. *)
let test_repeat_in_own_nlri () =
  let config = { Mct.dup_fraction = 0.5; min_seen = 0; quiet_gap = 5_000_000 } in
  scan_both ~config
    [ (1_000, [ p24 0; p24 0; p24 1; p24 0; p24 0 ]); (2_000, [ p24 2 ]) ]
  |> check_result "repeat" ~end_ts:2_000 ~prefixes:3 ~updates:2

(* The churn batch re-announces two of three prefixes and brings a new
   one; the result counts the prefixes from before it. *)
let test_churn_keeps_pre_batch_count () =
  let config = { Mct.dup_fraction = 0.5; min_seen = 3; quiet_gap = 5_000_000 } in
  scan_both ~config
    [
      (1_000, [ p24 0; p24 1; p24 2 ]);
      (2_000, [ p24 3 ]);
      (3_000, [ p24 0; p24 4; p24 1 ]);
      (4_000, [ p24 5 ]);
    ]
  |> check_result "churn" ~end_ts:2_000 ~prefixes:4 ~updates:2

(* With 2 or 3 tags the set re-tags every batch or two: a prefix from a
   batch before the re-tag must still count as a duplicate (each time it
   appears), and one first seen in the open batch must not. *)
let test_tag_exhaustion () =
  let config = { Mct.dup_fraction = 0.5; min_seen = 0; quiet_gap = 5_000_000 } in
  let batches =
    List.init 40 (fun i -> (1_000 * (i + 1), [ p24 (2 * i); p24 (2 * i + 1) ]))
    @ [ (50_000, [ p24 80; p24 81; p24 80; p24 3 ]);
        (51_000, [ p24 82; p24 5; p24 83; p24 5 ]) ]
  in
  List.iter
    (fun max_tag ->
      scan_both ~max_tag ~config batches
      |> check_result
           (Printf.sprintf "max_tag %d" max_tag)
           ~end_ts:50_000 ~prefixes:82 ~updates:41)
    [ 2; 3; 4 ]

(* The seen set is reused across scans on a domain: scanning a large
   connection first must not change the answer for a small one that
   re-announces the large one's prefixes. *)
let test_no_state_across_scans () =
  let config = { Mct.dup_fraction = 0.5; min_seen = 4; quiet_gap = 5_000_000 } in
  let small =
    Msg_reader.reassemble_from_trace
      (trace_of_batches (List.init 20 (fun i -> (1_000 * (i + 1), [ p24 i ]))))
      ~flow
  in
  let large =
    Msg_reader.reassemble_from_trace (sequential_slash24_trace 5_000) ~flow
  in
  let scan r = Mct.transfer_end_of_reasm ~config ~start:0 r in
  let alone = Domain.join (Domain.spawn (fun () -> scan small)) in
  ignore (scan large : Mct.result option);
  let after = scan small in
  check_result "small alone" ~end_ts:20_000 ~prefixes:20 ~updates:20 alone;
  Alcotest.(check bool) "small after large == small alone" true (after = alone)

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

(* --- the shared validator and the summary fold ----------------------------- *)

module Detect = Tdat_study.Detect

(* One targeted corruption of a valid encoded message: the header
   (marker, length field, type), the UPDATE's section lengths, the
   AS_PATH segment framing, NLRI lengths above 32 or overrunning the
   message, and trailing bytes past the length field.  [which] picks the
   field, [a] and [b] the damage; a choice that does not apply to the
   message leaves it valid. *)
let mutate_msg s ~which ~a ~b =
  let bt = Bytes.of_string s in
  let total = String.length s in
  let set8 i v = Bytes.set_uint8 bt i (v land 0xff) in
  let set16 i v = Bytes.set_uint16_be bt i (v land 0xffff) in
  let u8 i = Bytes.get_uint8 bt i and u16 i = Bytes.get_uint16_be bt i in
  let update = total > 18 && u8 18 = 2 in
  let wlen = if update then u16 19 else 0 in
  let apos = 21 + wlen in
  let alen = if update then u16 apos else 0 in
  let nlri = apos + 2 + alen in
  (* Start offsets of the NLRI entries. *)
  let rec entries o acc =
    if o >= total then List.rev acc
    else entries (o + 1 + ((u8 o + 7) / 8)) (o :: acc)
  in
  let rec as_path o =
    if o >= nlri then None
    else
      let ext = u8 o land 0x10 <> 0 in
      let vlen = if ext then u16 (o + 2) else u8 (o + 2) in
      let voff = o + if ext then 4 else 3 in
      if u8 (o + 1) = 2 && vlen >= 2 then Some voff else as_path (voff + vlen)
  in
  let tail = ref "" in
  (match which with
  | 0 -> set8 (a mod 16) (b mod 255)
  | 1 -> set16 16 (b mod 4200)
  | 2 -> set16 16 (max 0 (total - 1 - (a mod 4)))
  | 3 -> set8 18 (a mod 8)
  | 4 when update -> set16 19 (wlen + (a mod 7) - 3)
  | 5 when update -> set16 apos (alen + (a mod 7) - 3)
  | 6 when update -> (
      match as_path (apos + 2) with
      | Some seg ->
          if a mod 2 = 0 then set8 seg (b mod 4) else set8 (seg + 1) (b mod 256)
      | None -> ())
  | 7 when update && nlri < total ->
      let es = entries nlri [] in
      set8 (List.nth es (a mod List.length es)) (33 + (b mod 223))
  | 8 when update && nlri < total ->
      let es = entries nlri [] in
      let last = List.nth es (List.length es - 1) in
      set8 last (u8 last + (8 * (1 + (a mod 3))))
  | 9 -> tail := String.make (1 + (a mod 8)) (Char.chr (b land 0xff))
  | _ -> ());
  Bytes.to_string bt ^ !tail

let gen_damage =
  QCheck.Gen.(
    let* which = frequency [ (3, return (-1)); (10, int_bound 9) ] in
    let* a = int_bound 1000 in
    let* b = int_bound 0xffff in
    return (which, a, b))

(* Validator input: one message, maybe damaged, at a random position in
   a buffer with random bytes around it, and a random cut. *)
let gen_validate_input =
  QCheck.Gen.(
    let* msg = gen_msg in
    let* which, a, b = gen_damage in
    let m = mutate_msg (Msg.encode msg) ~which ~a ~b in
    let* pre = string_size ~gen:char (int_bound 4) in
    let* post = string_size ~gen:char (int_bound 6) in
    let buf = pre ^ m ^ post in
    let pos = String.length pre in
    let* limit =
      frequency
        [ (4, return (pos + String.length m)); (1, int_range pos (String.length buf)) ]
    in
    return (buf, pos, limit))

let arb_validate_input =
  QCheck.make
    ~print:(fun (buf, pos, limit) ->
      Printf.sprintf "pos %d limit %d: %S" pos limit buf)
    gen_validate_input

let validator_props =
  [
    prop ~count:1000 "validator accepts iff decode_slice decodes"
      arb_validate_input (fun (buf, pos, limit) ->
        let v = Msg.validate (Bytes.of_string buf) ~pos ~limit in
        match
          Msg.decode_slice (Tdat_pkt.Slice.of_string ~len:limit buf) pos
        with
        | Some (msg, _) ->
            let ty = match msg with
              | Msg.Open _ -> 1 | Msg.Update _ -> 2
              | Msg.Notification _ -> 3 | Msg.Keepalive -> 4
            in
            v >= 0 && v land 7 = ty && v lsr 3 = Msg.nlri_count msg
        | None -> v = -1
        | exception _ -> v = -1);
  ]

(* Archives for the summary-fold parity: a few peers' sessions (state
   changes, OPENs, UPDATEs, NOTIFICATIONs, KEEPALIVEs) over time, with
   some records damaged — their embedded message (as above), their
   state-change codes, their subtype, or their body cut short — and,
   now and then, the whole archive truncated, bit-flipped or extended. *)
let gen_study_archive =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* steps =
      list_repeat n
        (let* gap = frequency [ (6, int_bound 2_000_000); (1, return 8_000_000) ] in
         let* peer = int_bound 2 in
         let* entry = gen_entry in
         let* damage = gen_damage in
         let* record_damage = frequency [ (12, return 0); (1, return 1); (1, return 2) ] in
         let* cut = int_bound 19 in
         return (gap, peer, entry, damage, record_damage, cut))
    in
    let ts = ref 0 in
    let records =
      List.map
        (fun (gap, peer, entry, (which, a, b), record_damage, cut) ->
          ts := !ts + gap;
          let peer_as = 64500 + peer and peer_ip = Int32.of_int (0x0A000001 + peer) in
          let entry =
            match entry with
            | Mrt.Message r -> Mrt.Message { r with Mrt.ts = !ts; peer_as; peer_ip }
            | Mrt.State s ->
                Mrt.State
                  { s with Mrt.sc_ts = !ts; sc_peer_as = peer_as; sc_peer_ip = peer_ip }
          in
          let r = Mrt.encode_entries [ entry ] in
          (* ET header (12), microseconds (4), peer fields (16), then the
             message or the two state codes. *)
          let head = String.sub r 0 32 and rest = String.sub r 32 (String.length r - 32) in
          let rest =
            match entry with
            | Mrt.Message _ -> mutate_msg rest ~which ~a ~b
            | Mrt.State _ when which >= 0 ->
                let bt = Bytes.of_string rest in
                Bytes.set_uint16_be bt (2 * (a mod 2)) (b mod 9);
                Bytes.to_string bt
            | Mrt.State _ -> rest
          in
          let record = Bytes.of_string (head ^ rest) in
          let record =
            match record_damage with
            | 1 -> Bytes.set_uint16_be record 6 (2 + (a mod 4)); record
            | 2 -> Bytes.sub record 0 (12 + cut)
            | _ -> record
          in
          Bytes.set_int32_be record 8 (Int32.of_int (Bytes.length record - 12));
          Bytes.to_string record)
        steps
    in
    let data = String.concat "" records in
    frequency [ (5, return data); (1, gen_mutated data) ])

let arb_study_archive =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "archive of %d bytes" (String.length s))
    gen_study_archive

let study_config =
  { Detect.quiet_gap = 5_000_000; min_prefixes = 3 }

(* Both paths over one archive: the entry fold feeding [Detect.feed]
   (what [Archive.scan_entries] runs) and the summary fold feeding
   [Detect.observe] (what [Archive.scan_file] runs).  Each returns the
   records' immediates, the diagnostics, the stats and the transfers. *)
let via_entries ~strict ~config data =
  let d = Detect.create ~config ~source:"a" () in
  let diags = ref [] in
  let seen, stats =
    Mrt.fold_string ~strict ~on_diag:(fun x -> diags := x :: !diags) data
      ~init:[] (fun acc e ->
        Detect.feed d e;
        let ip a = Int32.to_int a land 0xFFFF_FFFF in
        match e with
        | Mrt.Message r ->
            ( r.Mrt.ts, r.Mrt.peer_as, ip r.Mrt.peer_ip,
              Mrt.Kind.of_msg r.Mrt.msg, Msg.nlri_count r.Mrt.msg )
            :: acc
        | Mrt.State s ->
            ( s.Mrt.sc_ts, s.Mrt.sc_peer_as, ip s.Mrt.sc_peer_ip,
              Mrt.Kind.of_new_state s.Mrt.new_state, 0 )
            :: acc)
  in
  (List.rev seen, List.rev !diags, stats, Detect.finish d)

let via_summary ~strict ~config data =
  let d = Detect.create ~config ~source:"a" () in
  let diags = ref [] in
  let seen, stats =
    Mrt.fold_summary_string ~strict ~on_diag:(fun x -> diags := x :: !diags)
      data ~init:[] (fun acc ~ts ~peer_as ~peer_ip ~kind ~nlri ->
        Detect.observe d ~ts ~peer_as ~peer_ip ~kind ~nlri;
        (ts, peer_as, peer_ip, kind, nlri) :: acc)
  in
  (List.rev seen, List.rev !diags, stats, Detect.finish d)

let summary_props =
  let same ~strict data =
    List.for_all
      (fun config ->
        match
          ( outcome (fun () -> via_entries ~strict ~config data),
            outcome (fun () -> via_summary ~strict ~config data) )
        with
        | Ok a, Ok b -> a = b
        | Error ea, Error eb -> ea = eb
        | _ -> false)
      [ study_config; Detect.default_config ]
  in
  [
    prop ~count:400 "summary fold == entry fold + Detect.feed (salvage mode)"
      arb_study_archive (same ~strict:false);
    prop ~count:400 "summary fold == entry fold + Detect.feed (strict mode)"
      arb_study_archive (same ~strict:true);
  ]

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

(* The study budget on its own: with the packet budgets out of reach,
   an impossible per-record budget must still fail the gate, by name.
   The scan measures 0 words per record, so only a budget below 0 is
   impossible. *)
let test_perf_gate_rejects_tight_study_budget () =
  let tight = Filename.temp_file "tdat_gate" ".json" in
  let out = Filename.temp_file "tdat_gate" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ tight; out ])
    (fun () ->
      let oc = open_out tight in
      output_string oc
        "{ \"analyze_minor_words_per_packet_max\": 1e9,\n\
        \  \"decode_minor_words_per_packet_max\": 1e9,\n\
        \  \"study_minor_words_per_record_max\": -1 }\n";
      close_out oc;
      let cmd =
        Printf.sprintf "%s perf_gate --baseline %s > %s 2>&1"
          (Filename.quote bench_exe) (Filename.quote tight) (Filename.quote out)
      in
      let rc = Sys.command cmd in
      let failed =
        In_channel.with_open_bin out In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (String.ends_with ~suffix:"FAIL")
      in
      Alcotest.(check bool) "tight study budget fails the gate" true (rc <> 0);
      Alcotest.(check (list string)) "only the study budget fails"
        [ "study_minor_words_per_record_max" ]
        (List.map
           (fun l -> List.nth (String.split_on_char ' ' l) 1)
           failed))

let scratch_suite =
  [
    Alcotest.test_case "MCT: sequential /24s count distinctly" `Quick
      test_sequential_slash24_clustering;
    Alcotest.test_case "MCT: 30k sequential /24s scan in linear time" `Slow
      test_sequential_slash24_linear_time;
    Alcotest.test_case "MCT: a prefix repeated in its own NLRI is no duplicate"
      `Quick test_repeat_in_own_nlri;
    Alcotest.test_case "MCT: churn reports the pre-batch prefix count" `Quick
      test_churn_keeps_pre_batch_count;
    Alcotest.test_case "MCT: running out of batch tags re-tags" `Quick
      test_tag_exhaustion;
    Alcotest.test_case "MCT: no state leaks between scans on a domain" `Quick
      test_no_state_across_scans;
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
    Alcotest.test_case "perf gate rejects a tightened study budget" `Quick
      test_perf_gate_rejects_tight_study_budget;
  ]

let suite =
  decode_props @ reasm_props @ transfer_props @ validator_props
  @ summary_props @ scratch_suite
