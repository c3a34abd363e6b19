(* Decode-equivalence properties: the slice-based decoders must be
   byte-for-byte indistinguishable from the frozen pre-slice references
   in [Legacy_ref] — same records, same diagnostics, same salvage stats
   — over random valid captures AND randomly corrupted ones (truncated,
   bit-flipped, garbage-extended).  Plus the three pcap entry points
   against each other, the columnar trace's partition and reassembly vs
   the segment-record references, the column-reading profile, ACK shift
   and series generation vs their record-based references, the streaming and
   list transfer-end scans vs the frozen extract-then-scan pipeline, the
   one-load NLRI key and the array timer detector vs their frozen
   byte-loop and list versions, and the [Scratch] arena's cross-domain
   isolation. *)

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

(* Three peers talking to one collector endpoint, as in a monitoring
   capture: connections share an endpoint, so a bug that keys a
   connection by one endpoint id, or mixes the ids up, shows. *)
let peers =
  [ ep1; Endpoint.of_quad 10 0 0 3 20001; Endpoint.of_quad 10 0 0 1 20002 ]

let all_flags =
  Seg.
    [
      data_flags; ack_flags; flags ~syn:true (); flags ~syn:true ~ack:true ();
      flags ~fin:true ~ack:true (); flags ~rst:true (); flags ~psh:true ();
    ]

(* Timestamps from a narrow range, so ties (broken by seq, then by
   capture order) are common; every payload byte random, so a payload
   slice read at the wrong offset or length shows. *)
let gen_segment ~seq_bound =
  QCheck.Gen.(
    let* ts = map (fun t -> t * 1_000) (int_bound 40) in
    let* seq = int_bound seq_bound in
    let* ack = int_bound 1_000_000 in
    let* window = int_bound 65535 in
    let* len = int_bound 600 in
    let* mss = opt (int_range 500 1500) in
    let* flags = oneofl all_flags in
    let* peer = oneofl peers in
    let* flip = bool in
    let* payload = string_size ~gen:char (return len) in
    let src, dst = if flip then (peer, ep2) else (ep2, peer) in
    return
      (Seg.v ~ts ~src ~dst ~seq ~ack ~window ~flags ?mss_opt:mss ~payload ()))

(* Pcap bytes with the records in the given order: [Pcap.encode] writes
   a trace, always in time order, so each record is cut from the
   encoding of a one-segment trace. *)
let encode_in_order segs =
  let header = Pcap.encode (Trace.of_segments []) in
  let record s =
    let one = Pcap.encode (Trace.of_segments [ s ]) in
    String.sub one 24 (String.length one - 24)
  in
  String.concat "" (header :: List.map record segs)

let gen_capture_segments ~seq_bound =
  QCheck.Gen.(list_size (int_range 0 20) (gen_segment ~seq_bound))

let gen_pcap_bytes =
  QCheck.Gen.(
    let* segs = gen_capture_segments ~seq_bound:1_000_000 in
    gen_mutated (encode_in_order segs))

let arb_pcap_bytes =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "capture of %d bytes" (String.length s))
    gen_pcap_bytes

(* A multi-connection capture, records out of time order, decoded by
   the reader: the trace the partition and reassembly oracles check.
   Sequence numbers stay small so the reassembled streams overlap. *)
let arb_capture_trace =
  QCheck.make
    ~print:(fun t ->
      String.concat "\n"
        (List.map (Format.asprintf "%a" Seg.pp) (Trace.segments t)))
    QCheck.Gen.(
      map
        (fun segs -> (Pcap.decode_result (encode_in_order segs)).Pcap.trace)
        (gen_capture_segments ~seq_bound:3_000))

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

let same_decode (a : Pcap.result) (b : Legacy_ref.pcap_result) =
  Trace.segments a.Pcap.trace = b.Legacy_ref.segments
  && a.Pcap.diags = b.Legacy_ref.diags
  && a.Pcap.stats = b.Legacy_ref.stats

let decode_props =
  [
    prop ~count:300 "pcap slice decode == legacy decode (salvage mode)"
      arb_pcap_bytes
      (fun data ->
        same_decode (Pcap.decode_result data)
          (Legacy_ref.pcap_decode_result data));
    prop ~count:300 "pcap slice decode == legacy decode (strict mode)"
      arb_pcap_bytes
      (fun data ->
        let a = outcome (fun () -> Pcap.decode_result ~strict:true data) in
        let b =
          outcome (fun () -> Legacy_ref.pcap_decode_result ~strict:true data)
        in
        match (a, b) with
        | Ok a, Ok b -> same_decode a b
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

(* --- the three pcap entry points decode alike ---------------------------- *)

(* A reader over [data] that hands out at most the next chunk size of
   [chunks] (cycled) per call: short reads at random boundaries. *)
let short_reader data chunks =
  let pos = ref 0 and k = ref 0 in
  fun buf off len ->
    let chunk = chunks.(!k mod Array.length chunks) in
    incr k;
    let n = min (min len chunk) (String.length data - !pos) in
    Bytes.blit_string data !pos buf off n;
    pos := !pos + n;
    n

let same_result (a : Pcap.result) (b : Pcap.result) =
  Trace.segments a.trace = Trace.segments b.trace
  && a.diags = b.diags && a.stats = b.stats

(* Each entry point's outcome in one mode: the result, or the error. *)
let entry_points ~strict data chunks =
  let path = Filename.temp_file "tdat_entry" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      [
        outcome (fun () -> Pcap.decode_result ~strict data);
        outcome (fun () -> Pcap.read_file ~strict path);
        outcome (fun () ->
            Pcap.read_source ~strict (short_reader data chunks));
      ])

let entry_props =
  let arb =
    QCheck.make
      ~print:(fun (s, chunks) ->
        Printf.sprintf "capture of %d bytes, reads of [%s]" (String.length s)
          (String.concat "; " (Array.to_list (Array.map string_of_int chunks))))
      QCheck.Gen.(
        pair gen_pcap_bytes
          (array_size (int_range 1 6)
             (frequency [ (3, int_range 1 20); (1, int_range 21 5_000) ])))
  in
  List.map
    (fun strict ->
      prop ~count:300
        (Printf.sprintf
           "decode_result == read_file == read_source (short reads, %s)"
           (if strict then "strict" else "salvage"))
        arb
        (fun (data, chunks) ->
          match entry_points ~strict data chunks with
          | [ Ok a; Ok b; Ok c ] -> same_result a b && same_result a c
          | [ Error a; Error b; Error c ] -> a = b && a = c
          | _ -> false))
    [ false; true ]

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
        let r = Legacy_ref.Fresh_reasm.create () in
        let l = Legacy_ref.List_reasm.create () in
        List.iter
          (fun seg ->
            Legacy_ref.Fresh_reasm.feed r seg;
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
        let r = Legacy_ref.Fresh_reasm.create () in
        let l = Legacy_ref.List_reasm.create () in
        List.for_all
          (fun seg ->
            Legacy_ref.Fresh_reasm.feed r seg;
            Legacy_ref.List_reasm.feed l seg;
            let n = Stream_reassembly.contiguous_length r in
            n = 0
            || Stream_reassembly.delivery_time r (n - 1)
               = Legacy_ref.List_reasm.delivery_time l (n - 1)
               && Stream_reassembly.delivery_time r (n / 2)
                  = Legacy_ref.List_reasm.delivery_time l (n / 2))
          segs);
  ]

(* --- columnar trace == the segment-record references ---------------------- *)

(* Every connection's sub-trace equals the frozen rescan split, payloads
   included, under the same keys in the same order. *)
let partition_matches t =
  let parts = Trace.partition_connections t in
  List.map fst parts = Trace.connections t
  && List.for_all
       (fun ((a, b), sub) ->
         Trace.segments sub
         = Trace.segments (Legacy_ref.split_connection t ~sender:a ~receiver:b))
       parts

(* Reassembly of one direction read from the columns equals a fresh
   reassembler fed the same direction's segment records. *)
let reassembly_matches t ~flow =
  let data =
    List.filter
      (fun s -> Flow.is_to_receiver flow s && Seg.is_data s)
      (Trace.segments t)
  in
  let base =
    List.fold_left (fun m (s : Seg.t) -> min m s.Seg.seq) max_int data
  in
  let reference =
    Legacy_ref.Fresh_reasm.of_segments
      (List.map (fun (s : Seg.t) -> { s with Seg.seq = s.Seg.seq - base }) data)
  in
  let r =
    Msg_reader.reassemble_from_trace ~scratch:(Legacy_ref.Fresh_reasm.cell ()) t
      ~flow
  in
  let n = Stream_reassembly.contiguous_length r in
  n = Stream_reassembly.contiguous_length reference
  && Stream_reassembly.contiguous r = Stream_reassembly.contiguous reference
  && List.for_all
       (fun off ->
         Stream_reassembly.delivery_time r off
         = Stream_reassembly.delivery_time reference off)
       (List.init n Fun.id)
  && Stream_reassembly.total_gaps r = Stream_reassembly.total_gaps reference
  && Stream_reassembly.duplicate_bytes r
     = Stream_reassembly.duplicate_bytes reference

let column_props =
  [
    prop ~count:300
      "partition == frozen per-connection split (decoded captures)"
      arb_capture_trace partition_matches;
    prop ~count:300 "partition == frozen per-connection split (of_segments)"
      (QCheck.make (gen_capture_segments ~seq_bound:3_000))
      (fun segs -> partition_matches (Trace.of_segments segs));
    prop ~count:300 "reassembly from columns == fed segment records"
      arb_capture_trace (fun t ->
        List.for_all
          (fun (key, sub) ->
            let flow = Trace.infer_sender sub key in
            let reverse =
              Flow.v ~sender:flow.Flow.receiver ~receiver:flow.Flow.sender
            in
            reassembly_matches sub ~flow
            && reassembly_matches sub ~flow:reverse
            && reassembly_matches t ~flow)
          (Trace.partition_connections t));
  ]

(* --- column analyzer == the record-based references ------------------ *)

module Conn_profile = Tdat.Conn_profile
module Ack_shift = Tdat.Ack_shift
module Series_gen = Tdat.Series_gen
module Span_set = Tdat_timerange.Span_set
module Span = Tdat_timerange.Span

let label_name : Conn_profile.label -> string = function
  | In_order -> "in-order"
  | Above_hole -> "above-hole"
  | Fill_reorder -> "fill-reorder"
  | Fill_retransmission -> "fill-retransmission"
  | Redelivery -> "redelivery"

let ref_label_name : Legacy_ref.Profile_ref.label -> string = function
  | In_order -> "in-order"
  | Above_hole -> "above-hole"
  | Fill_reorder -> "fill-reorder"
  | Fill_retransmission -> "fill-retransmission"
  | Redelivery -> "redelivery"

let episodes l =
  List.map
    (fun (e : Conn_profile.loss_episode) -> (e.span, e.packets, e.bytes))
    l

let ref_episodes l =
  List.map
    (fun (e : Legacy_ref.Profile_ref.loss_episode) ->
      (e.span, e.packets, e.bytes))
    l

(* Packet [i]'s header record, as the references hold it. *)
let header t i = { (Trace.get t i) with Seg.payload = "" }

(* The profile's ACK records at their (possibly shifted) times. *)
let ack_records (p : Conn_profile.t) =
  Array.mapi
    (fun k i -> { (header p.trace i) with Seg.ts = p.ack_ts.(k) })
    p.acks

let same_profile (p : Conn_profile.t) (r : Legacy_ref.Profile_ref.t) =
  p.start_time = r.start_time && p.end_time = r.end_time
  && p.syn_rtt = r.syn_rtt && p.upstream_rtt = r.upstream_rtt
  && p.rtt = r.rtt && p.mss = r.mss && p.max_adv_window = r.max_adv_window
  && Array.map (header p.trace) p.data
     = Array.map (fun (d : Legacy_ref.Profile_ref.data_packet) -> d.seg) r.data
  && Array.map label_name p.labels
     = Array.map
         (fun (d : Legacy_ref.Profile_ref.data_packet) -> ref_label_name d.label)
         r.data
  && ack_records p = r.acks
  && episodes p.upstream_episodes = ref_episodes r.upstream_episodes
  && episodes p.downstream_episodes = ref_episodes r.downstream_episodes
  && Span_set.to_list p.voids = Span_set.to_list r.voids

let flights l =
  List.map
    (fun (f : Ack_shift.flight_shift) ->
      (f.span, f.n_acks, f.estimates, f.applied))
    l

let ref_flights l =
  List.map
    (fun (f : Legacy_ref.Shift_ref.flight_shift) ->
      (f.span, f.n_acks, f.estimates, f.applied))
    l

(* Profile, shift and every series of [Series_defs.all], events and
   span sets, against the references on one connection. *)
let analysis_matches ?window t ~flow =
  let p = Conn_profile.of_trace t ~flow in
  let r = Legacy_ref.Profile_ref.of_trace t ~flow in
  let shifted, infos = Ack_shift.shift p in
  let r_shifted, r_infos = Legacy_ref.Shift_ref.shift r in
  let g = Series_gen.generate ?window shifted in
  let rg = Legacy_ref.Series_ref.generate ?window r_shifted in
  same_profile p r
  && same_profile shifted r_shifted
  && flights infos = ref_flights r_infos
  && List.for_all
       (fun d ->
         Tdat_timerange.Series.to_list (Series_gen.events g d)
         = Tdat_timerange.Series.to_list (Legacy_ref.Series_ref.events rg d)
         && Span_set.to_list (Series_gen.spans g d)
            = Span_set.to_list (Legacy_ref.Series_ref.spans rg d))
       Tdat.Series_defs.all

(* One connection, both directions drawn at random: data segments at
   sequence numbers from a small grid, so holes, late and quick fills,
   and redeliveries are all common; ACKs with cumulative acks, windows
   (zero and small included) and timestamps that interleave with the
   data; a handshake in half the cases, and ties in time throughout. *)
let gen_conn_trace =
  QCheck.Gen.(
    let sender = ep1 and receiver = ep2 in
    let* handshake = bool in
    let* n_data = int_range 0 50 in
    let* n_acks = int_range 0 50 in
    let ts = int_range 0 400 >|= fun t -> t * 500 in
    let* data =
      list_repeat n_data
        (let* ts = ts in
         let* k = int_bound 24 in
         let* len = oneofl [ 1000; 1000; 1000; 400; 60 ] in
         return
           (Seg.v ~ts ~src:sender ~dst:receiver ~seq:(k * 1000) ~ack:0 ~len
              ~flags:Seg.data_flags ()))
    in
    let* acks =
      list_repeat n_acks
        (let* ts = ts in
         let* ack = int_bound 25 in
         let* window = oneofl [ 0; 500; 2_000; 16_000; 65_535 ] in
         let* flags = oneofl [ Seg.ack_flags; Seg.ack_flags; Seg.flags () ] in
         return
           (Seg.v ~ts ~src:receiver ~dst:sender ~seq:0 ~ack:(ack * 1000)
              ~window ~flags ()))
    in
    let* hs_ts = int_range 0 3 in
    let shake =
      if not handshake then []
      else
        [
          Seg.v ~ts:hs_ts ~src:sender ~dst:receiver ~seq:0 ~ack:0
            ~flags:(Seg.flags ~syn:true ()) ~mss_opt:1000 ();
          Seg.v ~ts:(hs_ts + 900) ~src:receiver ~dst:sender ~seq:0 ~ack:0
            ~flags:(Seg.flags ~syn:true ~ack:true ()) ();
          Seg.v ~ts:(hs_ts + 1_700) ~src:sender ~dst:receiver ~seq:0 ~ack:0
            ~flags:Seg.ack_flags ();
        ]
    in
    let* window =
      opt
        (let* a = int_range 0 100_000 in
         let* len = int_range 1 200_000 in
         return (Span.v a (a + len)))
    in
    return (Trace.of_segments (shake @ data @ acks), window))

let arb_conn_trace =
  QCheck.make
    ~print:(fun (t, _) ->
      String.concat "\n" (List.map (Format.asprintf "%a" Seg.pp) (Trace.segments t)))
    gen_conn_trace

let conn_flow = Flow.v ~sender:ep1 ~receiver:ep2

(* Simulated transfers: a paced one, one over a lossy upstream, one
   behind a shallow collector buffer, and a site capture of three. *)
let scenario_traces =
  lazy
    (let module Scenario = Tdat_bgpsim.Scenario in
     let lossy =
       Tdat_tcpsim.Connection.path ~delay:5_000
         ~data_loss:
           (Tdat_netsim.Loss.gilbert (Tdat_rng.Rng.create 99) ~p_enter:0.05
              ~p_exit:0.3 ~p_loss_bad:0.9)
         ()
     in
     [
       (Scenario.run ~seed:21
          [ Scenario.router ~table_prefixes:3000 ~timer_interval:200_000 ~quota:20 1 ])
         .Scenario.site_trace;
       (Scenario.run ~seed:24 [ Scenario.router ~table_prefixes:3000 ~upstream:lossy 1 ])
         .Scenario.site_trace;
       (Scenario.run ~seed:25
          ~collector_local:
            (Tdat_tcpsim.Connection.path ~delay:50 ~bandwidth_bps:20_000_000
               ~buffer_pkts:6 ())
          [ Scenario.router ~table_prefixes:3000 1 ])
         .Scenario.site_trace;
       (Scenario.run ~seed:26
          [
            Scenario.router ~table_prefixes:1500 1;
            Scenario.router ~table_prefixes:2000 ~timer_interval:100_000 2;
            Scenario.router ~table_prefixes:1000 ~upstream:lossy 3;
          ])
         .Scenario.site_trace;
     ])

let test_scenarios_match_references () =
  List.iteri
    (fun n t ->
      List.iter
        (fun (key, sub) ->
          let flow = Trace.infer_sender sub key in
          let transfer = Tdat.Transfer_id.identify sub ~flow in
          let window = Option.map Tdat.Transfer_id.span transfer in
          Alcotest.(check bool)
            (Printf.sprintf "scenario %d: %s" n
               (Format.asprintf "%a" Flow.pp flow))
            true
            (analysis_matches sub ~flow && analysis_matches ?window sub ~flow))
        (Trace.partition_connections t))
    (Lazy.force scenario_traces)

let analyzer_props =
  [
    prop ~count:500
      "profile, shift and series from columns == record-based references"
      arb_conn_trace (fun (t, window) ->
        analysis_matches t ~flow:conn_flow
        && analysis_matches ?window t ~flow:conn_flow);
    prop ~count:200
      "profile, shift and series from columns == references, flow reversed"
      arb_conn_trace
      (fun (t, window) ->
        let flow = Flow.v ~sender:ep2 ~receiver:ep1 in
        analysis_matches ?window t ~flow);
    Alcotest.test_case
      "profile, shift and series on simulated transfers == references" `Quick
      test_scenarios_match_references;
  ]

(* --- streaming transfer-end == extract-then-scan ------------------------ *)

let flow = Flow.v ~sender:ep2 ~receiver:ep1

(* The sender's stream reassembled into a buffer of its own. *)
let reassemble t =
  Msg_reader.reassemble_from_trace ~scratch:(Legacy_ref.Fresh_reasm.cell ()) t
    ~flow

(* A BGP byte stream (some duplicate announcements so churn detection
   can fire, optional trailing garbage so the malformed-stop path is
   exercised) cut into in-order TCP segments with random sizes and
   inter-arrival gaps, one of which is exactly the tight config's quiet
   gap (the boundary the scans must agree on). *)
let gen_transfer_trace_of ?(max_msgs = 30) gen_prefix =
  QCheck.Gen.(
    let* n_msgs = int_range 0 max_msgs in
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
    let* gap = oneofl [ 1_000; 50_000; 1_000_000; 5_000_000; 6_000_000 ] in
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
   full /0-/32 generator above almost never repeats one.  Up to 150
   messages, so many streams outgrow the reassembly buffer's initial
   4 KiB. *)
let arb_small_pool_trace =
  QCheck.make ~print:print_trace
    QCheck.Gen.(
      let* pool = array_size (int_range 2 40) gen_prefix in
      gen_transfer_trace_of ~max_msgs:150 (oneofa pool))

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
        (reassemble t)
    in
    legacy = streaming && legacy = Mct.transfer_end ?config ~start updates
  in
  (* The same under both configs, and again with the seen set limited to
     2 and 3 batch tags so it runs out of tags and re-tags every few
     batches.  The streaming scan also runs over a reassembly backed by
     a scratch cell, as [Transfer_id.identify] runs it: the cell starts
     holding stale bytes and must grow, contents kept, past them. *)
  let check_small_pool t =
    let start = 0 in
    let updates =
      Legacy_ref.of_timed_msgs (Msg_reader.extract_from_trace t ~flow)
    in
    let scratch_scan config =
      let cell = { Scratch.buf = Bytes.make 4096 '\xff'; busy = true } in
      Mct.transfer_end_of_reasm ?config ~start
        (Msg_reader.reassemble_from_trace ~scratch:cell t ~flow)
    in
    List.for_all
      (fun config ->
        let legacy = Legacy_ref.transfer_end ?config ~start updates in
        check config t
        && legacy = scratch_scan config
        && List.for_all
             (fun max_tag ->
               legacy
               = Mct.Private.transfer_end_of_reasm ~max_tag ?config ~start
                   (reassemble t)
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
    Mct.transfer_end_of_reasm ~start (reassemble t)
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
    Mct.transfer_end_of_reasm ~start:0 (reassemble t)
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
    let reasm = reassemble (trace_of_batches batches) in
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

(* Streams denser than the seen set's sizing expects: the set starts at
   [len / 10] slots (at least 256, rounded up to a power of two) for a
   [len]-byte stream and grows past 7/8 load, and these streams carry
   more distinct prefixes than that, so the set grows mid-scan under
   every batch-tag limit.  Each ends with a churn batch. *)
let check_dense_stream what ~distinct batches =
  let len =
    List.fold_left
      (fun n (_, nlri) -> n + String.length (Msg.encode (Msg.update ~nlri ())))
      0 batches
  in
  let slots = ref 256 in
  while !slots < len / 10 do
    slots := 2 * !slots
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d prefixes in %d bytes overfill %d slots" what
       distinct len !slots)
    true
    (8 * distinct > 7 * !slots);
  let n = List.length batches - 1 in
  let end_ts, _ = List.nth batches (n - 1) in
  List.iter
    (fun max_tag ->
      scan_both ?max_tag ~config:Mct.default_config batches
      |> check_result
           (match max_tag with
           | None -> what
           | Some m -> Printf.sprintf "%s, max_tag %d" what m)
           ~end_ts ~prefixes:distinct ~updates:n)
    [ None; Some 2; Some 3 ]

(* Every prefix of length 0 to 8, one batch per length, at 1 or 2 bytes
   an entry (the /0 repeated inside its batch): 511 prefixes in ~1.8 KB,
   so the 256-slot set grows twice.  Then 6000 /16s at 3 bytes an entry,
   in six batches that also repeat the /0 and two /8s. *)
let test_dense_stream_grows () =
  let short l i = Prefix.of_quad (i lsl (8 - l)) 0 0 0 l in
  let p0 = short 0 0 in
  check_dense_stream "/0-/8 stream" ~distinct:511
    (List.init 9 (fun l ->
         ( 1_000 * (l + 1),
           List.init (1 lsl l) (short l) @ if l = 0 then [ p0; p0 ] else [] ))
    @ [ (10_000, List.init 256 (short 8)) ]);
  let p16 i = Prefix.of_quad (1 + (i / 256)) (i mod 256) 0 0 16 in
  let slash16s from = List.init 1000 (fun i -> p16 (from + i)) in
  check_dense_stream "/16 stream" ~distinct:(3 + 6_000)
    (List.init 6 (fun b ->
         ( 1_000 * (b + 1),
           (p0 :: slash16s (1000 * b)) @ [ short 8 3; short 8 9 ] ))
    @ [ (7_000, slash16s 0) ])

(* The seen set is reused across scans on a domain: scanning a large
   connection first must not change the answer for a small one that
   re-announces the large one's prefixes. *)
let test_no_state_across_scans () =
  let config = { Mct.dup_fraction = 0.5; min_seen = 4; quiet_gap = 5_000_000 } in
  let small =
    reassemble
      (trace_of_batches (List.init 20 (fun i -> (1_000 * (i + 1), [ p24 i ]))))
  in
  let large = reassemble (sequential_slash24_trace 5_000) in
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

(* NLRI key: an entry of each length 0-32 at a random offset of a
   buffer of random bytes, often in its last 1-5 bytes, so that both the
   one-load read (with random bytes past the entry) and the byte loop
   near the buffer's end are compared with the frozen byte loop. *)
let gen_key_input =
  QCheck.Gen.(
    let* len = int_range 1 16 in
    let* noise = string_size ~gen:char (return len) in
    let* k = frequency [ (3, int_range 1 5); (1, int_range 1 len) ] in
    return (noise, len - min k len))

let key_props =
  [
    prop ~count:1000 "one-load NLRI key == byte-loop key, plen 0-32"
      (QCheck.make
         ~print:(fun (noise, p) -> Printf.sprintf "p %d: %S" p noise)
         gen_key_input)
      (fun (noise, p) ->
        List.for_all
          (fun plen ->
            p + 1 + ((plen + 7) / 8) > String.length noise
            ||
            let buf = Bytes.of_string noise in
            Bytes.set_uint8 buf p plen;
            Mct.Private.pack_at buf p plen = Legacy_ref.mct_pack_at buf p plen)
          (List.init 33 Fun.id));
  ]

(* Header check: a header at a random offset of a buffer with random
   bytes around it, with a random length field and then each length at
   or next to either bound in turn, and each of its 16 marker bytes
   corrupted in turn; and random offsets, some of whose headers run past
   the buffer, where both checks must raise. *)
let length_edges =
  [ 0; Msg.header_size - 1; Msg.header_size; Msg.header_size + 1;
    Msg.max_size - 1; Msg.max_size; Msg.max_size + 1; 0xffff ]

let gen_header_input =
  QCheck.Gen.(
    let* pre = int_bound 9 in
    let* post = int_bound 9 in
    let* total = int_bound 0xffff in
    let* noise = string_size ~gen:char (return (pre + Msg.header_size + post)) in
    let* bad = int_bound 0xfe in
    let* p = int_range (-2) (pre + post + 2) in
    return (noise, pre, total, bad, p))

let arb_header_input =
  QCheck.make
    ~print:(fun (noise, pre, total, bad, p) ->
      Printf.sprintf "pre %d total %d bad %d p %d: %S" pre total bad p noise)
    gen_header_input

let header_props =
  let agree buf p =
    let run check =
      match check buf p with
      | total -> Some total
      | exception Invalid_argument _ -> None
    in
    Option.equal Int.equal
      (run Legacy_ref.msg_header_length)
      (run Msg.header_length)
  in
  [
    prop ~count:500 "header_length == byte-loop check, each marker byte bad"
      arb_header_input (fun (noise, pre, total, bad, p) ->
        let buf = Bytes.of_string noise in
        Bytes.fill buf pre 16 '\xff';
        let with_length total =
          let b = Bytes.copy buf in
          Bytes.set_uint16_be b (pre + 16) total;
          b
        in
        let buf = with_length total in
        agree buf pre && agree buf p
        && List.for_all (fun total -> agree (with_length total) pre) length_edges
        && List.for_all
             (fun i ->
               let b = Bytes.copy buf in
               Bytes.set_uint8 b (pre + i) bad;
               agree b pre)
             (List.init 16 Fun.id));
  ]

(* Timer detector: random gap sets around a cluster value [c] (tight,
   spread, or straddling the ±15% window; in some sets drawn from a few
   values, so ties are common), with other gaps all above or all below
   it (the cluster at either end of the sorted curve) or on both sides,
   gaps outside [\[min_gap, max_gap\]], set sizes on both sides of
   [min_count], and random parameters. *)
type timer_input = {
  gaps : int array;
  min_gap : int option;
  max_gap : int option;
  min_count : int option;
  cluster_fraction : float option;
}

let gen_timer_input =
  QCheck.Gen.(
    let* c = int_range 20_000 1_000_000 in
    let* spread = oneofl [ 0; 100; c / 20; c / 6 ] in
    let* ties = bool in
    let* pool = array_size (int_range 1 4) (int_range (c - spread) (c + spread)) in
    let* n_cluster = int_bound 40 in
    let* cluster =
      list_repeat n_cluster
        (if ties then oneofa pool else int_range (c - spread) (c + spread))
    in
    let above = int_range (2 * c) 3_000_000 and below = int_range 1 (c / 2) in
    let* other =
      oneofl [ above; below; oneof [ above; below ] ]
    in
    let* others = list_size (int_bound 30) other in
    let* outside =
      list_size (int_bound 6)
        (oneof [ int_range 1 19_999; int_range 2_000_001 5_000_000 ])
    in
    let* gaps = shuffle_l (cluster @ others @ outside) in
    let* min_gap = opt ~ratio:0.2 (int_range 1 (2 * c)) in
    let* max_gap = opt ~ratio:0.2 (int_range c 4_000_000) in
    let* min_count = opt ~ratio:0.5 (int_bound 15) in
    let* cluster_fraction = opt ~ratio:0.5 (oneofl [ 0.1; 0.3; 0.5; 0.75; 1.0 ]) in
    return
      { gaps = Array.of_list gaps; min_gap; max_gap; min_count; cluster_fraction })

let print_timer_input t =
  let o f = function None -> "-" | Some v -> f v in
  Printf.sprintf "min_gap %s max_gap %s min_count %s fraction %s gaps [%s]"
    (o string_of_int t.min_gap) (o string_of_int t.max_gap)
    (o string_of_int t.min_count) (o string_of_float t.cluster_fraction)
    (String.concat "; " (Array.to_list (Array.map string_of_int t.gaps)))

let timer_props =
  [
    prop ~count:1000 "timer detector == list pipeline on random gap sets"
      (QCheck.make ~print:print_timer_input gen_timer_input)
      (fun t ->
        let before = Array.copy t.gaps in
        let detected =
          Tdat.Detect_timer.detect_gaps ?min_gap:t.min_gap ?max_gap:t.max_gap
            ?min_count:t.min_count ?cluster_fraction:t.cluster_fraction t.gaps
        in
        detected
        = Legacy_ref.detect_timer_gaps ?min_gap:t.min_gap ?max_gap:t.max_gap
            ?min_count:t.min_count ?cluster_fraction:t.cluster_fraction
            (Array.to_list t.gaps)
        && t.gaps = before);
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

(* Both paths over one archive: the entry fold feeding the test copy of
   [Detect.feed] (what [Legacy_ref.Entry_scan.scan_entries] runs) and the
   summary fold feeding [Detect.observe] (what [Archive.scan_file] runs).  Each returns the
   records' immediates, the diagnostics, the stats and the transfers. *)
let via_entries ~strict ~config data =
  let d = Detect.create ~config ~source:"a" () in
  let diags = ref [] in
  let seen, stats =
    Mrt.fold_string ~strict ~on_diag:(fun x -> diags := x :: !diags) data
      ~init:[] (fun acc e ->
        Legacy_ref.Entry_scan.feed d e;
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

(* --- the exception-free validator == the raising one ---------------------- *)

module Raising = Legacy_ref.Msg_raising

(* Validator input for the staged checks: one message of each type,
   maybe damaged in a targeted field and then in up to four random
   bytes, at a random position among random bytes, with a random cut. *)
let gen_stage_input =
  QCheck.Gen.(
    let* buf, pos, limit = gen_validate_input in
    let* flips =
      frequency
        [ (2, return []);
          (1, list_size (int_range 1 4) (pair (int_bound 4200) (int_bound 255)));
        ]
    in
    let b = Bytes.of_string buf in
    List.iter
      (fun (i, v) -> Bytes.set_uint8 b (i mod Bytes.length b) v)
      flips;
    let* cut = int_range (-2) (Bytes.length b + 2) in
    return (Bytes.to_string b, pos, limit, cut))

(* A check's answer, with a violation of either kind and a range outside
   the buffer each mapped to one value. *)
let answer f =
  match f () with
  | v when v = Msg.malformed -> `Malformed
  | v -> `Value v
  | exception Raising.Malformed -> `Malformed
  | exception Invalid_argument _ -> `Out_of_range

let stage_props =
  [
    prop ~count:10_000 "exception-free validator == raising validator"
      (QCheck.make
         ~print:(fun (buf, pos, limit, cut) ->
           Printf.sprintf "pos %d limit %d cut %d: %S" pos limit cut buf)
         gen_stage_input)
      (fun (buf, pos, limit, cut) ->
        let b = Bytes.of_string buf in
        let same f g = answer f = answer g in
        let ty =
          if pos + 18 < Bytes.length b then Bytes.get_uint8 b (pos + 18) else 0
        in
        let boff = pos + Msg.header_size in
        same
          (fun () -> Msg.validate b ~pos ~limit)
          (fun () -> Raising.validate b ~pos ~limit)
        && same
             (fun () -> Msg.validate b ~pos ~limit:cut)
             (fun () -> Raising.validate b ~pos ~limit:cut)
        && same
             (fun () -> Msg.header_length b pos)
             (fun () -> Raising.header_length b pos)
        && same
             (fun () -> Msg.header_length b cut)
             (fun () -> Raising.header_length b cut)
        && same
             (fun () -> Msg.check_body b ~ty ~boff ~limit)
             (fun () -> Raising.check_body b ~ty ~boff ~limit)
        && same
             (fun () -> Msg.check_body b ~ty ~boff ~limit:cut)
             (fun () -> Raising.check_body b ~ty ~boff ~limit:cut)
        && same
             (fun () -> Msg.check_prefixes b ~pos ~limit)
             (fun () -> Raising.check_prefixes b ~pos ~limit)
        && same
             (fun () -> Msg.check_prefixes b ~pos:boff ~limit:cut)
             (fun () -> Raising.check_prefixes b ~pos:boff ~limit:cut));
  ]

(* --- the in-place framer == the fill-based framer ------------------------- *)

module Fill = Legacy_ref.Mrt_fill

(* What a fold delivered: its entries (or summaries) in order, its
   diagnostics and its stats — or, in strict mode, its error. *)
let entry_fold fold =
  outcome (fun () ->
      let diags = ref [] in
      let entries, stats =
        fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[] (fun acc e ->
            e :: acc)
      in
      (List.rev entries, List.rev !diags, stats))

let summary_fold fold =
  outcome (fun () ->
      let diags = ref [] in
      let seen, stats =
        fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[]
          (fun acc ~ts ~peer_as ~peer_ip ~kind ~nlri ->
            (ts, peer_as, peer_ip, kind, nlri) :: acc)
      in
      (List.rev seen, List.rev !diags, stats))

(* The frozen folds over [data], the oracle every in-place path must
   match. *)
let fill_entries ~strict data =
  entry_fold (fun ~on_diag ~init f ->
      Fill.fold_string ~strict ~on_diag data ~init f)

let fill_summaries ~strict data =
  summary_fold (fun ~on_diag ~init f ->
      Fill.fold_summary_string ~strict ~on_diag data ~init f)

(* Each case starts from a 16 KiB chunk, so records straddle its end at
   the offsets the archive puts there, not at a size an earlier case's
   large record left behind. *)
let fresh_chunk () =
  let cell = Scratch.cell_at (Scratch.get ()) Scratch.slot_mrt_chunk in
  cell.Scratch.buf <- Bytes.create 16384

let with_archive_file data k =
  let path = Filename.temp_file "tdat_frame" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      k path)

(* A record of an unsupported type (M005) whose whole length is [n]
   bytes, at least 12. *)
let filler n =
  let b = Bytes.make n 'f' in
  Bytes.set_int32_be b 0 7l;
  Bytes.set_uint16_be b 4 99;
  Bytes.set_uint16_be b 6 0;
  Bytes.set_int32_be b 8 (Int32.of_int (n - 12));
  Bytes.to_string b

(* Archives that cross the 16 KiB chunk: a filler record that puts the
   chunk's end at a random offset among a damaged study archive's
   records (or in the filler's own header), and sometimes a record
   longer than the chunk somewhere among them. *)
let gen_chunked_archive =
  QCheck.Gen.(
    let* lead = int_range (16384 - 3000) (16384 + 20) in
    let* a = gen_study_archive in
    let* b = gen_study_archive in
    let* big =
      frequency
        [ (2, return ""); (1, map filler (int_range 16385 40000));
          (1, map filler (int_range 12 200)) ]
    in
    let* c = gen_study_archive in
    return (filler lead ^ a ^ big ^ b ^ c))

let arb_chunked_archive =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "archive of %d bytes" (String.length s))
    gen_chunked_archive

(* Short reads of random sizes, counting the bytes handed out. *)
let counted_reader data chunks =
  let read = short_reader data chunks and taken = ref 0 in
  ( (fun buf off len ->
      let n = read buf off len in
      taken := !taken + n;
      n),
    taken )

let gen_read_sizes =
  QCheck.Gen.(
    array_size (int_range 1 6)
      (frequency [ (3, int_range 1 20); (1, int_range 21 20_000) ]))

(* Every in-place path over [data] against the frozen string folds, in
   both modes: the string folds, [decode_result], the file folds, and
   [fold_source] over random short reads, which must also leave the
   reader where the frozen read-as-asked fold left it. *)
let frames_alike data chunks =
  List.for_all
    (fun strict ->
      fresh_chunk ();
      let entries = fill_entries ~strict data in
      let summaries = fill_summaries ~strict data in
      (* The reader is left where the fold stopped reading it. *)
      let via_source fold =
        let read, taken = counted_reader data chunks in
        let r =
          entry_fold (fun ~on_diag ~init f -> fold ~on_diag read ~init f)
        in
        (r, !taken)
      in
      let in_place = via_source (fun ~on_diag read ~init f ->
          Mrt.fold_source ~strict ~on_diag read ~init f)
      in
      with_archive_file data (fun path ->
          entry_fold (fun ~on_diag ~init f ->
              Mrt.fold_string ~strict ~on_diag data ~init f)
          = entries
          && summary_fold (fun ~on_diag ~init f ->
                 Mrt.fold_summary_string ~strict ~on_diag data ~init f)
             = summaries
          && outcome (fun () ->
                 let r = Mrt.decode_result ~strict data in
                 (r.Mrt.entries, r.Mrt.diags, r.Mrt.stats))
             = entries
          && entry_fold (fun ~on_diag ~init f ->
                 Mrt.fold_file ~strict ~on_diag path ~init f)
             = entries
          && summary_fold (fun ~on_diag ~init f ->
                 Mrt.fold_summary_file ~strict ~on_diag path ~init f)
             = summaries
          && in_place
             = via_source (fun ~on_diag read ~init f ->
                   Fill.fold_read ~strict ~on_diag read ~init f)
          && fst in_place = entries))
    [ false; true ]

let arb_with_reads gen =
  QCheck.make
    ~print:(fun (s, chunks) ->
      Printf.sprintf "archive of %d bytes, reads of [%s]" (String.length s)
        (String.concat "; " (Array.to_list (Array.map string_of_int chunks))))
    (QCheck.Gen.pair gen gen_read_sizes)

(* A file that grows while it is read: [data] is written in pieces cut
   at random offsets, the first before the fold starts and each next one
   when the fold's [~follow] policy is asked about an end of file. *)
let follow_alike (data, cuts) =
  let cuts =
    List.sort_uniq compare
      (List.map (fun c -> c mod (String.length data + 1)) cuts)
  in
  let pieces =
    let rec go from = function
      | [] -> [ String.sub data from (String.length data - from) ]
      | c :: rest -> String.sub data from (c - from) :: go c rest
    in
    go 0 cuts
  in
  let grow path =
    let rest = ref (List.tl pieces) in
    fun _total ->
      match !rest with
      | [] -> false
      | p :: more ->
          rest := more;
          Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
            (fun oc -> output_string oc p);
          true
  in
  let run fold =
    let path = Filename.temp_file "tdat_follow" ".mrt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc ->
            output_string oc (List.hd pieces));
        fold path (grow path))
  in
  fresh_chunk ();
  run (fun path follow ->
      entry_fold (fun ~on_diag ~init f ->
          Mrt.fold_file ~on_diag ~follow path ~init f))
  = fill_entries ~strict:false data
  && run (fun path follow ->
         summary_fold (fun ~on_diag ~init f ->
             Mrt.fold_summary_file ~on_diag ~follow path ~init f))
     = fill_summaries ~strict:false data

let frame_props =
  [
    prop ~count:300 "in-place framer == fill-based framer (damaged archives)"
      (arb_with_reads gen_study_archive) (fun (data, chunks) ->
        frames_alike data chunks);
    prop ~count:300 "in-place framer == fill-based framer (mutated archives)"
      (arb_with_reads gen_mrt_bytes) (fun (data, chunks) ->
        frames_alike data chunks);
    prop ~count:100 "in-place framer == fill-based framer (across the chunk)"
      (arb_with_reads gen_chunked_archive) (fun (data, chunks) ->
        frames_alike data chunks);
    prop ~count:25 "in-place framer == fill-based framer (a growing file)"
      (QCheck.make
         ~print:(fun (s, cuts) ->
           Printf.sprintf "archive of %d bytes, cut at [%s]" (String.length s)
             (String.concat "; " (List.map string_of_int cuts)))
         QCheck.Gen.(
           pair
             (frequency [ (3, gen_study_archive); (1, gen_chunked_archive) ])
             (list_size (int_range 1 3) (int_bound 60_000))))
      follow_alike;
  ]

(* --- perf gate negative control ----------------------------------------- *)

let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

(* Run the gate against [baseline] (JSON text); its exit code and the
   budget names on its FAIL lines. *)
let run_gate baseline =
  let tight = Filename.temp_file "tdat_gate" ".json" in
  let out = Filename.temp_file "tdat_gate" ".out" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ tight; out ])
    (fun () ->
      Out_channel.with_open_bin tight (fun oc -> output_string oc baseline);
      let cmd =
        Printf.sprintf "%s perf_gate --baseline %s > %s 2>&1"
          (Filename.quote bench_exe) (Filename.quote tight) (Filename.quote out)
      in
      let rc = Sys.command cmd in
      let failed =
        In_channel.with_open_bin out In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (String.ends_with ~suffix:"FAIL")
        |> List.map (fun l -> List.nth (String.split_on_char ' ' l) 1)
      in
      (rc, failed))

(* The allocation gate is only trustworthy if it can actually fail: run
   it against a deliberately impossible baseline and require it to fail
   on exactly the budgets made impossible — not on a missing key, and
   not because the executable is missing.  (The positive direction — the
   real baseline passing — is covered by `dune runtest` itself via the
   @perf-gate alias.) *)
let test_perf_gate_rejects_tight_baseline () =
  let rc, failed =
    run_gate
      "{ \"analyze_minor_words_per_packet_max\": 1,\n\
      \  \"decode_minor_words_per_packet_max\": 1,\n\
      \  \"analyze_forced_minor_collections_max\": 1e9,\n\
      \  \"study_minor_words_per_record_max\": 1e9 }\n"
  in
  Alcotest.(check bool) "tightened baseline fails the gate" true (rc <> 0);
  Alcotest.(check (list string)) "only the packet budgets fail"
    [ "analyze_minor_words_per_packet_max"; "decode_minor_words_per_packet_max" ]
    failed

(* The study budget on its own: with the packet budgets out of reach,
   an impossible per-record budget must still fail the gate, by name.
   The scan measures 0 words per record, so only a budget below 0 is
   impossible. *)
let test_perf_gate_rejects_tight_study_budget () =
  let rc, failed =
    run_gate
      "{ \"analyze_minor_words_per_packet_max\": 1e9,\n\
      \  \"decode_minor_words_per_packet_max\": 1e9,\n\
      \  \"analyze_forced_minor_collections_max\": 1e9,\n\
      \  \"study_minor_words_per_record_max\": -1 }\n"
  in
  Alcotest.(check bool) "tight study budget fails the gate" true (rc <> 0);
  Alcotest.(check (list string)) "only the study budget fails"
    [ "study_minor_words_per_record_max" ]
    failed

(* The forced-collection budget on its own.  The measure can read below
   0 only by the minor heap's fill before the first measured run, at
   most 1/20 of a collection, so a budget of -1 is impossible and the
   gate must fail on that budget alone. *)
let test_perf_gate_rejects_tight_forced_budget () =
  let rc, failed =
    run_gate
      "{ \"analyze_minor_words_per_packet_max\": 1e9,\n\
      \  \"decode_minor_words_per_packet_max\": 1e9,\n\
      \  \"analyze_forced_minor_collections_max\": -1,\n\
      \  \"study_minor_words_per_record_max\": 1e9 }\n"
  in
  Alcotest.(check bool) "tight forced-collection budget fails the gate" true
    (rc <> 0);
  Alcotest.(check (list string)) "only the forced-collection budget fails"
    [ "analyze_forced_minor_collections_max" ]
    failed

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
    Alcotest.test_case "MCT: a dense stream grows the seen set" `Quick
      test_dense_stream_grows;
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
    Alcotest.test_case "perf gate rejects a tightened forced-collection budget"
      `Quick test_perf_gate_rejects_tight_forced_budget;
  ]

let suite =
  decode_props @ entry_props @ reasm_props @ column_props @ analyzer_props @ transfer_props @ validator_props
  @ key_props @ header_props @ timer_props @ summary_props @ stage_props
  @ frame_props @ scratch_suite
