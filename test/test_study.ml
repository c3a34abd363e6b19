(* Measurement-study subsystem tests: MRT entry codec (including
   BGP4MP_STATE_CHANGE), the malformed-archive salvage corpus (M0xx
   diagnostics), the table-transfer detector's rules, the longitudinal
   aggregator's jobs-determinism, and end-to-end ground-truth recall
   against `simgen --emit-mrt` fleets. *)

open Tdat_bgp
module Study = Tdat_study

(* The subprocess tests must work both from the test stanza's runtest
   (cwd [_build/default/test]) and from the root-level [@study-smoke]
   alias (cwd [_build/default]), so locate sibling executables relative
   to this test binary rather than the cwd. *)
let bin_exe name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))

let simgen_exe = bin_exe "simgen.exe"
let tdat_exe = bin_exe "tdat_cli.exe"

let tmpdir () =
  let f = Filename.temp_file "tdat_study" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let read_all path = In_channel.with_open_bin path In_channel.input_all

(* --- entry builders ------------------------------------------------------- *)

let peer_ip = 0x0A000001l
let local_ip = 0x0A000002l

let prefixes_chunk base n =
  List.init n (fun i ->
      Prefix.of_quad 10
        ((base + i) / 256 mod 256)
        ((base + i) mod 256)
        0 24)

let update_msg base n = Msg.update ~nlri:(prefixes_chunk base n) ()

let message ?(peer_as = 64500) ?(ip = peer_ip) ts msg =
  Mrt.Message
    { Mrt.ts; peer_as; local_as = 65000; peer_ip = ip; local_ip; msg }

let state ?(peer_as = 64500) ?(ip = peer_ip) ts old_state new_state =
  Mrt.State
    {
      Mrt.sc_ts = ts;
      sc_peer_as = peer_as;
      sc_local_as = 65000;
      sc_peer_ip = ip;
      sc_local_ip = local_ip;
      old_state;
      new_state;
    }

let sample_entries =
  [
    state 1_000_000 Mrt.Open_confirm Mrt.Established;
    message 1_100_000
      (Msg.Open
         { Msg.version = 4; my_as = 64500; hold_time = 180; bgp_id = 0x0A000001l });
    message 2_000_000 (update_msg 0 40);
    message 2_500_000 Msg.Keepalive;
    state 3_000_000 Mrt.Established Mrt.Idle;
  ]

(* --- MRT entry codec ------------------------------------------------------ *)

let test_entry_roundtrip () =
  let r = Mrt.decode_result (Mrt.encode_entries sample_entries) in
  Alcotest.(check bool) "entries" true (r.Mrt.entries = sample_entries);
  Alcotest.(check bool) "no diags" true (r.Mrt.diags = []);
  Alcotest.(check int) "records" 5 r.Mrt.stats.Mrt.records;
  Alcotest.(check int) "messages" 3 r.Mrt.stats.Mrt.bgp_messages;
  Alcotest.(check int) "state changes" 2 r.Mrt.stats.Mrt.state_changes;
  Alcotest.(check int) "skipped" 0 r.Mrt.stats.Mrt.skipped

let test_legacy_decode_skips_state_changes () =
  let records =
    Mrt.messages
      (Mrt.decode_result ~strict:true (Mrt.encode_entries sample_entries))
        .Mrt.entries
  in
  Alcotest.(check int) "messages only" 3 (List.length records);
  Alcotest.(check bool) "same as messages" true
    (records = Mrt.messages sample_entries)

(* --- malformed-archive salvage corpus ------------------------------------- *)

let codes (r : Mrt.result) =
  List.map (fun (d : Mrt.Diag.t) -> d.Mrt.Diag.code) r.Mrt.diags

let has_code c r = List.exists (fun x -> String.equal x c) (codes r)

let strict_message data =
  match Mrt.decode_result ~strict:true data with
  | _ -> None
  | exception Bgp_error.Decode_error { context; message } ->
      Some (context, message)

let put_u16be b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let put_u32be b v =
  put_u16be b ((v lsr 16) land 0xFFFF);
  put_u16be b (v land 0xFFFF)

(* A raw MRT record with an arbitrary type/subtype/body. *)
let raw_record ?(sec = 1) ?(ty = 17) ~subtype body =
  let b = Buffer.create 64 in
  put_u32be b sec;
  put_u16be b ty;
  put_u16be b subtype;
  put_u32be b (String.length body);
  Buffer.add_string b body;
  Buffer.contents b

let good_record ts = Mrt.encode_entries [ message ts Msg.Keepalive ]

let test_truncated_header () =
  let data = good_record 1_000_000 ^ String.sub (good_record 2_000_000) 0 7 in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged" 1 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M001" true (has_code "M001" r);
  Alcotest.(check (option (pair string string))) "strict raises legacy message"
    (Some ("Mrt.decode", "truncated header"))
    (strict_message data)

let test_truncated_record () =
  let second = good_record 2_000_000 in
  let data =
    good_record 1_000_000 ^ String.sub second 0 (String.length second - 3)
  in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged" 1 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M002" true (has_code "M002" r);
  Alcotest.(check (option (pair string string))) "strict raises legacy message"
    (Some ("Mrt.decode", "truncated record"))
    (strict_message data)

let test_bad_embedded_message () =
  (* A well-framed BGP4MP_ET message record whose embedded message is
     garbage: salvage skips it and keeps the surrounding records. *)
  let body = Buffer.create 64 in
  put_u32be body 0 (* usec *);
  put_u16be body 64500;
  put_u16be body 65000;
  put_u16be body 0;
  put_u16be body 1;
  put_u32be body 0x0A000001;
  put_u32be body 0x0A000002;
  Buffer.add_string body (String.make 19 '\xAA');
  let bad = raw_record ~subtype:1 (Buffer.contents body) in
  let data = good_record 1_000_000 ^ bad ^ good_record 2_000_000 in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M004" true (has_code "M004" r);
  Alcotest.(check int) "skipped" 1 r.Mrt.stats.Mrt.skipped;
  Alcotest.(check (option (pair string string))) "strict raises legacy message"
    (Some ("Mrt.decode", "bad embedded BGP message"))
    (strict_message data)

let test_short_body () =
  let bad = raw_record ~subtype:1 (String.make 10 '\x00') in
  let data = good_record 1_000_000 ^ bad ^ good_record 2_000_000 in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M003" true (has_code "M003" r);
  Alcotest.(check (option (pair string string))) "strict raises legacy message"
    (Some ("Mrt.decode", "short BGP4MP body"))
    (strict_message data)

let test_unsupported_type_skipped () =
  (* TABLE_DUMP (type 12) must be skipped losslessly — info diagnostic
     only, and the legacy strict decoder must not raise (it never did). *)
  let dump = raw_record ~ty:12 ~subtype:1 (String.make 24 '\x00') in
  let data = good_record 1_000_000 ^ dump ^ good_record 2_000_000 in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M005" true (has_code "M005" r);
  Alcotest.(check bool) "info only" true
    (List.for_all
       (fun (d : Mrt.Diag.t) ->
         match d.Mrt.Diag.severity with
         | Mrt.Diag.Info -> true
         | Mrt.Diag.Error | Mrt.Diag.Warning -> false)
       r.Mrt.diags);
  Alcotest.(check int) "strict still decodes" 2
    (List.length
       (Mrt.messages (Mrt.decode_result ~strict:true data).Mrt.entries))

let test_bad_state_change () =
  let body = Buffer.create 64 in
  put_u32be body 0;
  put_u16be body 64500;
  put_u16be body 65000;
  put_u16be body 0;
  put_u16be body 1;
  put_u32be body 0x0A000001;
  put_u32be body 0x0A000002;
  put_u16be body 6;
  put_u16be body 9 (* not an FSM state *);
  let bad = raw_record ~subtype:0 (Buffer.contents body) in
  let data = good_record 1_000_000 ^ bad ^ good_record 2_000_000 in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M006" true (has_code "M006" r)

let test_oversized_record () =
  let b = Buffer.create 16 in
  put_u32be b 1;
  put_u16be b 17;
  put_u16be b 1;
  put_u32be b 20_000_000 (* > 16 MiB cap *);
  let data = good_record 1_000_000 ^ Buffer.contents b in
  let r = Mrt.decode_result data in
  Alcotest.(check int) "salvaged prior" 1 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M007" true (has_code "M007" r)

let test_fold_file_matches_decode_result () =
  let dir = tmpdir () in
  let path = Filename.concat dir "a.mrt" in
  Mrt.to_file_entries path sample_entries;
  let entries, stats =
    Mrt.fold_file path ~init:[] (fun acc e -> e :: acc)
  in
  Alcotest.(check bool) "same entries" true
    (List.rev entries = sample_entries);
  Alcotest.(check int) "records" 5 stats.Mrt.records;
  Alcotest.(check bool) "of_file messages" true
    (Mrt.messages (Mrt.read_file ~strict:true path).Mrt.entries
    = Mrt.messages sample_entries)

(* A file fold reads in 16 KiB chunks: records straddle chunk
   boundaries, one record (an unsupported type, skipped) is larger than
   a chunk, and the file ends mid-record.  Both file folds must see what
   the string folds see. *)
let test_file_folds_across_chunks () =
  let updates k =
    List.init 400 (fun i ->
        message ((k * 10_000_000) + (i * 1_000)) (update_msg (i * 7) 7))
  in
  let data =
    Mrt.encode_entries (updates 0)
    ^ raw_record ~ty:12 ~subtype:1 (String.make 150_000 '\x01')
    ^ Mrt.encode_entries (updates 1)
  in
  let data = String.sub data 0 (String.length data - 3) in
  let path = Filename.concat (tmpdir ()) "chunks.mrt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
  let collect fold =
    let diags = ref [] in
    let acc, stats =
      fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[] (fun acc e ->
          e :: acc)
    in
    (List.rev acc, List.rev !diags, stats)
  in
  let summary fold =
    let diags = ref [] in
    let acc, stats =
      fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[]
        (fun acc ~ts ~peer_as ~peer_ip ~kind ~nlri ->
          (ts, peer_as, peer_ip, kind, nlri) :: acc)
    in
    (List.rev acc, List.rev !diags, stats)
  in
  let ((entries, _, stats) as from_string) =
    collect (fun ~on_diag ~init f -> Mrt.fold_string ~on_diag data ~init f)
  in
  Alcotest.(check bool) "archive spans several chunks" true
    (String.length data > 3 * 65536 && List.length entries = 799);
  Alcotest.(check int) "the large record is skipped" 1 stats.Mrt.skipped;
  Alcotest.(check bool) "fold_file == fold_string" true
    (collect (fun ~on_diag ~init f -> Mrt.fold_file ~on_diag path ~init f)
    = from_string);
  Alcotest.(check bool) "fold_summary_file == fold_summary_string" true
    (summary (fun ~on_diag ~init f ->
         Mrt.fold_summary_file ~on_diag path ~init f)
    = summary (fun ~on_diag ~init f ->
          Mrt.fold_summary_string ~on_diag data ~init f))

let test_fold_fd_pipe_fed () =
  (* A pipe delivers the archive in dribs and drabs — short reads land
     mid-header and mid-record, and the writer pacing makes some reads
     return nothing yet.  [fold_fd] must reassemble every record. *)
  let archive =
    Mrt.encode_entries
      (List.concat_map
         (fun k ->
           [
             state (k * 1_000_000) Mrt.Open_confirm Mrt.Established;
             message ((k * 1_000_000) + 10_000) (update_msg (k * 50) 50);
             message ((k * 1_000_000) + 20_000) Msg.Keepalive;
           ])
         (List.init 40 Fun.id))
  in
  let r, w = Unix.pipe ~cloexec:false () in
  let writer =
    Domain.spawn (fun () ->
        let len = String.length archive in
        let pos = ref 0 in
        while !pos < len do
          let n = min 97 (len - !pos) in
          let wrote =
            Tdat_pkt.Ingest_io.retry_eintr (Unix.write_substring w) archive
              !pos n
          in
          pos := !pos + wrote;
          if !pos mod (97 * 13) < 97 then Unix.sleepf 0.001
        done;
        Unix.close w)
  in
  let entries, stats = Mrt.fold_fd r ~init:[] (fun acc e -> e :: acc) in
  Domain.join writer;
  Unix.close r;
  Alcotest.(check int) "all records seen" 120 stats.Mrt.records;
  Alcotest.(check bool) "byte-identical re-encode" true
    (String.equal (Mrt.encode_entries (List.rev entries)) archive)

(* --- qcheck: entry codec under random archives ---------------------------- *)

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
        ( 4,
          let* nlri = list_size (int_range 0 30) gen_prefix in
          let* withdrawn = list_size (int_range 0 5) gen_prefix in
          let* hops = int_range 1 6 in
          let* asns = list_repeat hops (int_range 1 65535) in
          return
            (Msg.update ~withdrawn
               ~attrs:
                 [
                   Attr.Origin Attr.Igp;
                   Attr.As_path (As_path.of_asns asns);
                   Attr.Next_hop 0x0A000001l;
                 ]
               ~nlri ()) );
        (1, return Msg.Keepalive);
        ( 1,
          let* hold_time = int_bound 400 in
          return
            (Msg.Open
               {
                 Msg.version = 4;
                 my_as = 64500;
                 hold_time;
                 bgp_id = 0x0A000001l;
               }) );
        ( 1,
          let* code = int_range 1 6 in
          let* subcode = int_bound 10 in
          return (Msg.Notification { Msg.code; subcode; data = "cease" }) );
      ])

let gen_fsm_state =
  QCheck.Gen.oneofl
    [ Mrt.Idle; Mrt.Connect; Mrt.Active; Mrt.Open_sent; Mrt.Open_confirm;
      Mrt.Established ]

let gen_entries =
  QCheck.Gen.(
    let* n = int_range 0 30 in
    let* raw =
      list_repeat n
        (let* dt = int_range 1 5_000_000 in
         let* peer_as = int_range 1 65535 in
         let* is_state = int_bound 4 in
         if is_state = 0 then
           let* old_state = gen_fsm_state in
           let* new_state = gen_fsm_state in
           return (`State (dt, peer_as, old_state, new_state))
         else
           let* msg = gen_msg in
           return (`Msg (dt, peer_as, msg)))
    in
    let _, entries =
      List.fold_left
        (fun (ts, acc) item ->
          match item with
          | `State (dt, peer_as, old_state, new_state) ->
              (ts + dt, state ~peer_as (ts + dt) old_state new_state :: acc)
          | `Msg (dt, peer_as, msg) ->
              (ts + dt, message ~peer_as (ts + dt) msg :: acc))
        (0, []) raw
    in
    return (List.rev entries))

let arb_entries =
  QCheck.make
    ~print:(fun es -> Printf.sprintf "%d entries" (List.length es))
    gen_entries

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mrt entry codec roundtrip (random archives)"
       ~count:150 arb_entries (fun entries ->
         let r = Mrt.decode_result (Mrt.encode_entries entries) in
         r.Mrt.entries = entries
         && r.Mrt.diags = []
         && r.Mrt.stats.Mrt.records = List.length entries))

(* --- detector rules ------------------------------------------------------- *)

let detect ?config entries = Study.Detect.over_entries ?config entries

let test_detect_anchored () =
  (* STATE_CHANGE to Established, then the archived OPEN, then updates:
     the transfer start is the state change (first anchor wins). *)
  let entries =
    [
      state 1_000_000 Mrt.Open_confirm Mrt.Established;
      message 1_050_000
        (Msg.Open
           { Msg.version = 4; my_as = 64500; hold_time = 180;
             bgp_id = 0x0A000001l });
      message 2_000_000 (update_msg 0 40);
      message 3_000_000 (update_msg 40 40);
      message 4_000_000 Msg.Keepalive;
    ]
  in
  match detect entries with
  | [ t ] ->
      Alcotest.(check int) "start = establishment" 1_000_000
        t.Study.Transfer.start_ts;
      Alcotest.(check int) "end = last update" 3_000_000
        t.Study.Transfer.end_ts;
      Alcotest.(check int) "prefixes" 80 t.Study.Transfer.prefixes;
      Alcotest.(check int) "messages" 2 t.Study.Transfer.messages;
      Alcotest.(check bool) "anchored" true t.Study.Transfer.anchored
  | ts -> Alcotest.failf "expected 1 transfer, got %d" (List.length ts)

let test_detect_gap_split () =
  let gap = Study.Detect.default_config.Study.Detect.quiet_gap in
  let t0 = 1_000_000 in
  let t1 = t0 + gap + 10_000_000 in
  let entries =
    [
      message t0 (update_msg 0 40);
      message (t0 + 2_000_000) (update_msg 40 40);
      message t1 (update_msg 0 40);
      message (t1 + 1_000_000) (update_msg 40 40);
    ]
  in
  match detect entries with
  | [ a; b ] ->
      Alcotest.(check bool) "unanchored" false a.Study.Transfer.anchored;
      Alcotest.(check int) "first start" t0 a.Study.Transfer.start_ts;
      Alcotest.(check int) "first end" (t0 + 2_000_000)
        a.Study.Transfer.end_ts;
      Alcotest.(check int) "second start" t1 b.Study.Transfer.start_ts;
      Alcotest.(check int) "second end" (t1 + 1_000_000)
        b.Study.Transfer.end_ts
  | ts -> Alcotest.failf "expected 2 transfers, got %d" (List.length ts)

let test_detect_gap_exact_boundary () =
  (* The paper counts "gaps of 200 s or more" as transfer boundaries, so
     the comparison is inclusive: silence of exactly [quiet_gap] splits,
     one microsecond less does not. *)
  let gap = Study.Detect.default_config.Study.Detect.quiet_gap in
  let t0 = 1_000_000 in
  let entries_at dt =
    [ message t0 (update_msg 0 40); message (t0 + dt) (update_msg 40 40) ]
  in
  (match detect (entries_at gap) with
  | [ a; b ] ->
      Alcotest.(check int) "first transfer is the first burst" 40
        a.Study.Transfer.prefixes;
      Alcotest.(check int) "second starts at the late update" (t0 + gap)
        b.Study.Transfer.start_ts
  | ts ->
      Alcotest.failf "silence = quiet_gap must split: got %d transfer(s)"
        (List.length ts));
  match detect (entries_at (gap - 1)) with
  | [ only ] ->
      Alcotest.(check int) "one transfer spans both bursts" 80
        only.Study.Transfer.prefixes;
      Alcotest.(check int) "ends at the late update" (t0 + gap - 1)
        only.Study.Transfer.end_ts
  | ts ->
      Alcotest.failf "silence < quiet_gap must not split: got %d transfer(s)"
        (List.length ts)

let test_detect_reset_closes () =
  let entries =
    [
      state 1_000_000 Mrt.Open_confirm Mrt.Established;
      message 2_000_000 (update_msg 0 40);
      state 3_000_000 Mrt.Established Mrt.Idle;
      (* session re-established; a second, separate transfer *)
      state 10_000_000 Mrt.Open_confirm Mrt.Established;
      message 11_000_000 (update_msg 0 40);
      message 12_000_000 (update_msg 40 40);
    ]
  in
  match detect entries with
  | [ a; b ] ->
      Alcotest.(check int) "first ends at last update" 2_000_000
        a.Study.Transfer.end_ts;
      Alcotest.(check int) "second anchored at re-establishment" 10_000_000
        b.Study.Transfer.start_ts;
      Alcotest.(check bool) "both anchored" true
        (a.Study.Transfer.anchored && b.Study.Transfer.anchored)
  | ts -> Alcotest.failf "expected 2 transfers, got %d" (List.length ts)

let test_detect_churn_filtered () =
  (* A burst below min_prefixes is steady-state churn, not a transfer. *)
  let entries =
    [ message 1_000_000 (update_msg 0 5); message 2_000_000 (update_msg 5 5) ]
  in
  Alcotest.(check int) "churn dropped" 0 (List.length (detect entries));
  let config = { Study.Detect.default_config with Study.Detect.min_prefixes = 8 } in
  Alcotest.(check int) "threshold is configurable" 1
    (List.length (detect ~config entries))

(* The churn threshold sums NLRI entries, it does not count distinct
   prefixes: 20 prefixes announced twice are a 40-entry burst and pass
   the default threshold of 32.  Pinned on both detector inputs — decoded
   entries and the archive scan's summary fold. *)
let test_detect_repeats_count () =
  let entries =
    [ message 1_000_000 (update_msg 0 20); message 2_000_000 (update_msg 0 20) ]
  in
  let check what = function
    | [ t ] ->
        Alcotest.(check int) (what ^ ": prefixes") 40 t.Study.Transfer.prefixes;
        Alcotest.(check int) (what ^ ": messages") 2 t.Study.Transfer.messages
    | ts -> Alcotest.failf "%s: expected 1 transfer, got %d" what (List.length ts)
  in
  check "entries" (detect entries);
  let path = Filename.temp_file "tdat_repeats" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mrt.to_file_entries path entries;
      check "archive scan" (Study.Archive.scan_file path).Study.Archive.transfers)

let test_detect_notification_closes () =
  let entries =
    [
      message 1_000_000 (update_msg 0 40);
      message 2_000_000
        (Msg.Notification { Msg.code = 6; subcode = 0; data = "" });
      message 3_000_000 (update_msg 0 40);
    ]
  in
  match detect entries with
  | [ a; b ] ->
      Alcotest.(check int) "first closed by NOTIFICATION" 1_000_000
        a.Study.Transfer.end_ts;
      Alcotest.(check int) "second restarts" 3_000_000
        b.Study.Transfer.start_ts
  | ts -> Alcotest.failf "expected 2 transfers, got %d" (List.length ts)

let test_detect_multi_peer () =
  (* Interleaved peers must be tracked independently. *)
  let entries =
    [
      state ~peer_as:1 ~ip:0x0A000001l 1_000_000 Mrt.Open_confirm
        Mrt.Established;
      state ~peer_as:2 ~ip:0x0A000009l 1_500_000 Mrt.Open_confirm
        Mrt.Established;
      message ~peer_as:1 ~ip:0x0A000001l 2_000_000 (update_msg 0 40);
      message ~peer_as:2 ~ip:0x0A000009l 2_500_000 (update_msg 0 40);
      message ~peer_as:1 ~ip:0x0A000001l 3_000_000 (update_msg 40 40);
      message ~peer_as:2 ~ip:0x0A000009l 5_500_000 (update_msg 40 40);
    ]
  in
  match detect entries with
  | [ a; b ] ->
      Alcotest.(check int) "peer 1 first (by start)" 1 a.Study.Transfer.peer_as;
      Alcotest.(check int) "peer 1 end" 3_000_000 a.Study.Transfer.end_ts;
      Alcotest.(check int) "peer 2 end" 5_500_000 b.Study.Transfer.end_ts
  | ts -> Alcotest.failf "expected 2 transfers, got %d" (List.length ts)

(* --- aggregation, reports, determinism ------------------------------------ *)

let write_archive dir name entries =
  let path = Filename.concat dir name in
  Mrt.to_file_entries path entries;
  path

let fleet_archives dir =
  (* Three peers; the third is 30x slower than the others, so the
     mean + 3*stddev cut classifies exactly it as slow. *)
  let fast ip base_ts =
    [
      state ~ip base_ts Mrt.Open_confirm Mrt.Established;
      message ~ip (base_ts + 1_000_000) (update_msg 0 40);
      message ~ip (base_ts + 2_000_000) (update_msg 40 40);
    ]
  in
  let slow_entries =
    [
      state ~ip:0x0A000009l 1_000_000 Mrt.Open_confirm Mrt.Established;
      message ~ip:0x0A000009l 2_000_000 (update_msg 0 40);
      message ~ip:0x0A000009l 61_000_000 (update_msg 40 40);
    ]
  in
  [
    write_archive dir "a.mrt" (fast 0x0A000001l 1_000_000);
    write_archive dir "b.mrt" (fast 0x0A000002l 5_000_000);
    write_archive dir "c.mrt" slow_entries;
  ]

let test_aggregate_slow_classification () =
  let dir = tmpdir () in
  let files = fleet_archives dir in
  let report = Study.Aggregate.run ~jobs:1 ~slow_threshold_s:30. files in
  Alcotest.(check int) "transfers" 3
    (List.length report.Study.Aggregate.transfers);
  (match report.Study.Aggregate.slow with
  | [ t ] ->
      Alcotest.(check int32) "slow peer" 0x0A000009l t.Study.Transfer.peer_ip
  | ts -> Alcotest.failf "expected 1 slow transfer, got %d" (List.length ts));
  Alcotest.(check bool) "fixed threshold" false
    report.Study.Aggregate.threshold_auto;
  (* Auto threshold: the paper's mean + 3*stddev cut. *)
  let auto = Study.Aggregate.run ~jobs:1 files in
  let durations =
    List.map Study.Transfer.duration_s auto.Study.Aggregate.transfers
  in
  Alcotest.(check (float 1e-9)) "auto = mean + 3*stddev"
    (Tdat_stats.Descriptive.slow_threshold durations)
    auto.Study.Aggregate.slow_threshold_s

let test_report_jobs_deterministic () =
  let dir = tmpdir () in
  let files = fleet_archives dir in
  let r1 = Study.Aggregate.run ~jobs:1 files in
  let r3 = Study.Aggregate.run ~jobs:3 files in
  Alcotest.(check string) "text identical"
    (Study.Report.to_text r1) (Study.Report.to_text r3);
  Alcotest.(check string) "json identical"
    (Study.Report.to_json r1) (Study.Report.to_json r3)

let test_peer_summaries () =
  let dir = tmpdir () in
  let files = fleet_archives dir in
  let report = Study.Aggregate.run ~jobs:1 files in
  Alcotest.(check int) "three peers" 3
    (List.length report.Study.Aggregate.peers);
  List.iter
    (fun (p : Study.Aggregate.peer_summary) ->
      Alcotest.(check int) "one transfer each" 1 p.Study.Aggregate.transfers;
      Alcotest.(check int) "80 prefixes each" 80
        p.Study.Aggregate.prefixes_total;
      Alcotest.(check int) "anchored" 1 p.Study.Aggregate.anchored)
    report.Study.Aggregate.peers

(* --- ground truth --------------------------------------------------------- *)

let test_truth_roundtrip_and_recall () =
  let dir = tmpdir () in
  let path = Filename.concat dir "truth.tsv" in
  let truth =
    [
      {
        Study.Truth.source = "a.mrt";
        peer_as = 64500;
        peer_ip;
        start_ts = 1_000_000;
        end_ts = 3_000_000;
        prefixes = 80;
        messages = 2;
      };
    ]
  in
  Study.Truth.to_file path truth;
  let back = Study.Truth.of_file path in
  Alcotest.(check bool) "roundtrip" true (back = truth);
  let detected =
    detect
      [
        state 1_000_000 Mrt.Open_confirm Mrt.Established;
        message 2_000_000 (update_msg 0 40);
        message 3_000_000 (update_msg 40 40);
      ]
  in
  Alcotest.(check (float 1e-9)) "exact recall" 1.0
    (Study.Truth.recall ~truth detected);
  let off_by_one =
    List.map
      (fun t -> { t with Study.Truth.start_ts = t.Study.Truth.start_ts + 1 })
      truth
  in
  Alcotest.(check (float 1e-9)) "exact mode misses" 0.0
    (Study.Truth.recall ~truth:off_by_one detected);
  Alcotest.(check (float 1e-9)) "tolerance recovers" 1.0
    (Study.Truth.recall ~tol:1_000 ~truth:off_by_one detected)

(* --- end to end against simgen --emit-mrt --------------------------------- *)

let run_quiet cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

let emit_fleet dir ~routers ~prefixes ~seed =
  let archives = Filename.concat dir "archives" in
  let cmd =
    Printf.sprintf "%s %s --emit-mrt %s --routers %d --prefixes %d --seed %d"
      (Filename.quote simgen_exe)
      (Filename.quote (Filename.concat dir "out.pcap"))
      (Filename.quote archives) routers prefixes seed
  in
  Alcotest.(check int) "simgen exit" 0 (run_quiet cmd);
  let files =
    Sys.readdir archives |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mrt")
    |> List.sort String.compare
    |> List.map (Filename.concat archives)
  in
  (files, Study.Truth.of_file (Filename.concat archives "ground_truth.tsv"))

let test_ground_truth_recall () =
  let dir = tmpdir () in
  let files, truth = emit_fleet dir ~routers:4 ~prefixes:250 ~seed:11 in
  Alcotest.(check int) "one archive per router" 4 (List.length files);
  Alcotest.(check int) "truth covers the fleet" 4 (List.length truth);
  let report = Study.Aggregate.run ~jobs:1 files in
  Alcotest.(check int) "every transfer detected" 4
    (List.length report.Study.Aggregate.transfers);
  let recall =
    Study.Truth.recall ~truth report.Study.Aggregate.transfers
  in
  if recall < 0.95 then
    Alcotest.failf "ground-truth recall %.2f below the 95%% acceptance bar"
      recall;
  (* Boundaries are exact on clean archives, so expect full recall. *)
  Alcotest.(check (float 1e-9)) "exact boundaries" 1.0 recall;
  (* Prefix and message accounting must match the simulator's records. *)
  List.iter
    (fun (t : Study.Truth.t) ->
      match
        List.find_opt
          (fun d -> Study.Truth.matches t d)
          report.Study.Aggregate.transfers
      with
      | None -> Alcotest.failf "no match for %s" t.Study.Truth.source
      | Some d ->
          Alcotest.(check int) "prefixes" t.Study.Truth.prefixes
            d.Study.Transfer.prefixes;
          Alcotest.(check int) "messages" t.Study.Truth.messages
            d.Study.Transfer.messages)
    truth

let test_cli_jobs_byte_identical () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:3 ~prefixes:200 ~seed:23 in
  let quoted = String.concat " " (List.map Filename.quote files) in
  let out jobs json =
    let path =
      Filename.concat dir (Printf.sprintf "out_%d_%b.txt" jobs json)
    in
    let cmd =
      Printf.sprintf "%s study %s --jobs %d%s > %s 2>/dev/null"
        (Filename.quote tdat_exe) quoted jobs
        (if json then " --json" else "")
        (Filename.quote path)
    in
    Alcotest.(check int) "tdat study exit" 0 (Sys.command cmd);
    read_all path
  in
  let t1 = out 1 false and t4 = out 4 false in
  Alcotest.(check bool) "text output non-empty" true (String.length t1 > 0);
  Alcotest.(check string) "text byte-identical across --jobs" t1 t4;
  let j1 = out 1 true and j4 = out 4 true in
  Alcotest.(check string) "json byte-identical across --jobs" j1 j4

let test_cli_strict_salvage () =
  (* A truncated archive: default mode salvages and reports, --strict
     exits 2. *)
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:1 ~prefixes:200 ~seed:31 in
  let path = List.hd files in
  let data = read_all path in
  let clipped = Filename.concat dir "clipped.mrt" in
  Out_channel.with_open_bin clipped (fun oc ->
      Out_channel.output_string oc
        (String.sub data 0 (String.length data - 5)));
  let run extra =
    Sys.command
      (Printf.sprintf "%s study %s%s >/dev/null 2>&1"
         (Filename.quote tdat_exe) (Filename.quote clipped) extra)
  in
  Alcotest.(check int) "salvage mode succeeds" 0 (run "");
  Alcotest.(check int) "strict mode is a user error" 2 (run " --strict");
  let report = Study.Aggregate.run ~jobs:1 [ clipped ] in
  match report.Study.Aggregate.files with
  | [ f ] ->
      Alcotest.(check bool) "M002 reported" true
        (List.exists
           (fun (d : Mrt.Diag.t) -> String.equal d.Mrt.Diag.code "M002")
           f.Study.Archive.diags)
  | fs -> Alcotest.failf "expected 1 file report, got %d" (List.length fs)

let suite =
  [
    Alcotest.test_case "mrt entry roundtrip" `Quick test_entry_roundtrip;
    Alcotest.test_case "legacy decode skips state changes" `Quick
      test_legacy_decode_skips_state_changes;
    Alcotest.test_case "truncated header salvage" `Quick test_truncated_header;
    Alcotest.test_case "truncated record salvage" `Quick test_truncated_record;
    Alcotest.test_case "bad embedded message salvage" `Quick
      test_bad_embedded_message;
    Alcotest.test_case "short body salvage" `Quick test_short_body;
    Alcotest.test_case "unsupported type skipped" `Quick
      test_unsupported_type_skipped;
    Alcotest.test_case "bad state change salvage" `Quick test_bad_state_change;
    Alcotest.test_case "oversized record stops salvage" `Quick
      test_oversized_record;
    Alcotest.test_case "fold_file streaming" `Quick
      test_fold_file_matches_decode_result;
    Alcotest.test_case "file folds across read chunks" `Quick
      test_file_folds_across_chunks;
    Alcotest.test_case "fold_fd pipe-fed stream" `Quick test_fold_fd_pipe_fed;
    qcheck_roundtrip;
    Alcotest.test_case "detector: anchored start" `Quick test_detect_anchored;
    Alcotest.test_case "detector: quiet-gap split" `Quick
      test_detect_gap_split;
    Alcotest.test_case "detector: quiet-gap inclusive boundary" `Quick
      test_detect_gap_exact_boundary;
    Alcotest.test_case "detector: reset closes" `Quick
      test_detect_reset_closes;
    Alcotest.test_case "detector: churn filtered" `Quick
      test_detect_churn_filtered;
    Alcotest.test_case "detector: repeated prefixes count toward the threshold"
      `Quick test_detect_repeats_count;
    Alcotest.test_case "detector: notification closes" `Quick
      test_detect_notification_closes;
    Alcotest.test_case "detector: multi-peer" `Quick test_detect_multi_peer;
    Alcotest.test_case "aggregate: slow classification" `Quick
      test_aggregate_slow_classification;
    Alcotest.test_case "aggregate: jobs-deterministic reports" `Quick
      test_report_jobs_deterministic;
    Alcotest.test_case "aggregate: per-peer summaries" `Quick
      test_peer_summaries;
    Alcotest.test_case "ground truth roundtrip + recall" `Quick
      test_truth_roundtrip_and_recall;
    Alcotest.test_case "e2e: simgen --emit-mrt ground-truth recall" `Quick
      test_ground_truth_recall;
    Alcotest.test_case "e2e: tdat study --jobs byte-identical" `Quick
      test_cli_jobs_byte_identical;
    Alcotest.test_case "e2e: salvage vs --strict" `Quick
      test_cli_strict_salvage;
  ]
