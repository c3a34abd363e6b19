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

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh directory, removed with everything in it when the suite
   exits. *)
let tmpdir () =
  let f = Filename.temp_file "tdat_study" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  at_exit (fun () -> try rm_rf f with Sys_error _ -> ());
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
  let r = Archive_file.read (Archive_file.encode sample_entries) in
  Alcotest.(check bool) "entries" true (r.Mrt.entries = sample_entries);
  Alcotest.(check bool) "no diags" true (r.Mrt.diags = []);
  Alcotest.(check int) "records" 5 r.Mrt.stats.Mrt.records;
  Alcotest.(check int) "messages" 3 r.Mrt.stats.Mrt.bgp_messages;
  Alcotest.(check int) "state changes" 2 r.Mrt.stats.Mrt.state_changes;
  Alcotest.(check int) "skipped" 0 r.Mrt.stats.Mrt.skipped

let test_legacy_decode_skips_state_changes () =
  let records =
    Mrt.messages
      (Archive_file.read ~strict:true (Archive_file.encode sample_entries))
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
  match Archive_file.read ~strict:true data with
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

let good_record ts = Archive_file.encode [ message ts Msg.Keepalive ]

let test_truncated_header () =
  let data = good_record 1_000_000 ^ String.sub (good_record 2_000_000) 0 7 in
  let r = Archive_file.read data in
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
  let r = Archive_file.read data in
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
  let r = Archive_file.read data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M004" true (has_code "M004" r);
  Alcotest.(check int) "skipped" 1 r.Mrt.stats.Mrt.skipped;
  Alcotest.(check (option (pair string string))) "strict raises legacy message"
    (Some ("Mrt.decode", "bad embedded BGP message"))
    (strict_message data)

let test_short_body () =
  let bad = raw_record ~subtype:1 (String.make 10 '\x00') in
  let data = good_record 1_000_000 ^ bad ^ good_record 2_000_000 in
  let r = Archive_file.read data in
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
  let r = Archive_file.read data in
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
       (Mrt.messages (Archive_file.read ~strict:true data).Mrt.entries))

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
  let r = Archive_file.read data in
  Alcotest.(check int) "salvaged around" 2 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M006" true (has_code "M006" r)

let test_oversized_record () =
  let b = Buffer.create 16 in
  put_u32be b 1;
  put_u16be b 17;
  put_u16be b 1;
  put_u32be b 20_000_000 (* > 16 MiB cap *);
  let data = good_record 1_000_000 ^ Buffer.contents b in
  let r = Archive_file.read data in
  Alcotest.(check int) "salvaged prior" 1 (List.length r.Mrt.entries);
  Alcotest.(check bool) "M007" true (has_code "M007" r)

let test_fold_file_matches_read_file () =
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
   the frozen string folds see. *)
let test_file_folds_across_chunks () =
  let updates k =
    List.init 400 (fun i ->
        message ((k * 10_000_000) + (i * 1_000)) (update_msg (i * 7) 7))
  in
  let data =
    Archive_file.encode (updates 0)
    ^ raw_record ~ty:12 ~subtype:1 (String.make 150_000 '\x01')
    ^ Archive_file.encode (updates 1)
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
    collect (fun ~on_diag ~init f ->
        Legacy_ref.Mrt_fill.fold_string ~on_diag data ~init f)
  in
  Alcotest.(check bool) "archive spans several chunks" true
    (String.length data > 3 * 65536 && List.length entries = 799);
  Alcotest.(check int) "the large record is skipped" 1 stats.Mrt.skipped;
  Alcotest.(check bool) "fold_file == the frozen string fold" true
    (collect (fun ~on_diag ~init f -> Mrt.fold_file ~on_diag path ~init f)
    = from_string);
  Alcotest.(check bool) "fold_summary_file == the frozen string fold" true
    (summary (fun ~on_diag ~init f ->
         Mrt.fold_summary_file ~on_diag path ~init f)
    = summary (fun ~on_diag ~init f ->
          Legacy_ref.Mrt_fill.fold_summary_string ~on_diag data ~init f))

let test_fold_file_fifo_fed () =
  (* A pipe delivers the archive in dribs and drabs — short reads land
     mid-header and mid-record, and the writer pacing makes some reads
     return nothing yet.  [fold_file] over a named pipe must reassemble
     every record. *)
  let archive =
    Archive_file.encode
      (List.concat_map
         (fun k ->
           [
             state (k * 1_000_000) Mrt.Open_confirm Mrt.Established;
             message ((k * 1_000_000) + 10_000) (update_msg (k * 50) 50);
             message ((k * 1_000_000) + 20_000) Msg.Keepalive;
           ])
         (List.init 40 Fun.id))
  in
  let path = Filename.concat (tmpdir ()) "fifo.mrt" in
  Unix.mkfifo path 0o600;
  let writer =
    Domain.spawn (fun () ->
        let w = Unix.openfile path [ Unix.O_WRONLY ] 0 in
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
  let entries, stats = Mrt.fold_file path ~init:[] (fun acc e -> e :: acc) in
  Domain.join writer;
  Alcotest.(check int) "all records seen" 120 stats.Mrt.records;
  Alcotest.(check bool) "byte-identical re-encode" true
    (String.equal (Archive_file.encode (List.rev entries)) archive)

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

(* Up to 30 entries, [peers] distinct peer ASes. *)
let gen_entries_of ~peers =
  QCheck.Gen.(
    let* n = int_range 0 30 in
    let* raw =
      list_repeat n
        (let* dt = int_range 1 5_000_000 in
         let* peer_as = int_range 1 peers in
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

let gen_entries = gen_entries_of ~peers:65535

let arb_entries =
  QCheck.make
    ~print:(fun es -> Printf.sprintf "%d entries" (List.length es))
    gen_entries

let qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mrt entry codec roundtrip (random archives)"
       ~count:150 arb_entries (fun entries ->
         let r = Archive_file.read (Archive_file.encode entries) in
         r.Mrt.entries = entries
         && r.Mrt.diags = []
         && r.Mrt.stats.Mrt.records = List.length entries))

(* --- detector rules ------------------------------------------------------- *)

let detect ?config entries = Legacy_ref.Entry_scan.over_entries ?config entries

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
  let gap = Study.Detect.Private.default_config.Study.Detect.quiet_gap in
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
  let gap = Study.Detect.Private.default_config.Study.Detect.quiet_gap in
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
  let config = { Study.Detect.Private.default_config with Study.Detect.min_prefixes = 8 } in
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

(* Quiet gaps equal to gaps the archive really has between two of one
   peer's updates: the largest, the median and the smallest, so a scan
   that puts the inclusive boundary one microsecond off splits where the
   other does not. *)
let boundary_gaps entries =
  let last = Hashtbl.create 4 in
  let gaps =
    List.filter_map
      (function
        | Mrt.Message { Mrt.ts; peer_as; peer_ip; msg = Msg.Update _; _ } ->
            let key = (peer_as, peer_ip) in
            let gap =
              Option.map (fun t -> ts - t) (Hashtbl.find_opt last key)
            in
            Hashtbl.replace last key ts;
            Option.bind gap (fun g -> if g > 0 then Some g else None)
        | Mrt.Message _ | Mrt.State _ -> None)
      entries
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let n = Array.length gaps in
  if n = 0 then []
  else List.sort_uniq Int.compare [ gaps.(0); gaps.(n / 2); gaps.(n - 1) ]

(* The streaming archive scan ([Archive.scan_file]: summary fold and
   [Detect.observe]) must equal the in-memory scan of the strict
   whole-buffer decode (the test copy of [Archive.scan_entries],
   [Legacy_ref.Entry_scan], over
   [Archive_file.read ~strict:true]): the same transfers under the
   default config and under boundary configs, and the decode's stats
   with no diagnostics on a clean archive. *)
let check_scans_agree path =
  let r = Archive_file.read ~strict:true (read_all path) in
  let configs =
    Study.Detect.Private.default_config
    :: List.map
         (fun gap -> { Study.Detect.quiet_gap = gap; min_prefixes = 1 })
         (boundary_gaps r.Mrt.entries)
  in
  Alcotest.(check bool) (path ^ ": boundary configs") true
    (List.length configs > 1);
  List.iter
    (fun (config : Study.Detect.config) ->
      let what =
        Printf.sprintf "%s (gap %d us)" path config.Study.Detect.quiet_gap
      in
      let file = Study.Archive.scan_file ~config path in
      let mem =
        Legacy_ref.Entry_scan.scan_entries ~config ~source:path r.Mrt.entries
      in
      Alcotest.(check bool) (what ^ ": transfers") true
        (file.Study.Archive.transfers = mem.Study.Archive.transfers);
      Alcotest.(check bool) (what ^ ": stats") true
        (file.Study.Archive.stats = r.Mrt.stats);
      Alcotest.(check int) (what ^ ": diagnostics") 0
        (List.length file.Study.Archive.diags))
    configs

(* The same oracle on random archives from two peers, so updates build
   up into transfers, with state changes, OPENs and NOTIFICATIONs, so
   anchors and closes fire: 100 archives from a fixed seed, each scanned
   under the default config and under quiet gaps equal to gaps it has,
   at two prefix thresholds. *)
let test_scans_agree_random () =
  let rand = Random.State.make [| 2021 |] in
  let detected = ref 0 in
  List.iteri
    (fun i entries ->
      let path = Filename.temp_file "tdat_scan" ".mrt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Mrt.to_file_entries path entries;
          let r = Archive_file.read ~strict:true (read_all path) in
          let configs =
            Study.Detect.Private.default_config
            :: List.concat_map
                 (fun gap ->
                   List.map
                     (fun min_prefixes ->
                       { Study.Detect.quiet_gap = gap; min_prefixes })
                     [ 1; 20 ])
                 (boundary_gaps r.Mrt.entries)
          in
          List.iter
            (fun (config : Study.Detect.config) ->
              let what =
                Printf.sprintf "archive %d (gap %d us, min %d)" i
                  config.Study.Detect.quiet_gap
                  config.Study.Detect.min_prefixes
              in
              let file = Study.Archive.scan_file ~config path in
              let mem =
                Legacy_ref.Entry_scan.scan_entries ~config ~source:path r.Mrt.entries
              in
              detected := !detected + List.length file.Study.Archive.transfers;
              Alcotest.(check bool) (what ^ ": transfers") true
                (file.Study.Archive.transfers = mem.Study.Archive.transfers);
              Alcotest.(check bool) (what ^ ": stats") true
                (file.Study.Archive.stats = r.Mrt.stats);
              Alcotest.(check int) (what ^ ": diagnostics") 0
                (List.length file.Study.Archive.diags))
            configs))
    (QCheck.Gen.generate ~rand ~n:100 (gen_entries_of ~peers:2));
  Alcotest.(check bool) "transfers were detected" true (!detected > 0)

(* On a damaged archive the file scan must equal the in-memory scan of
   the salvage decode of the same bytes: the same transfers, stats and
   M0xx findings. *)
let test_scans_agree_damaged () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:1 ~prefixes:300 ~seed:17 in
  let data = read_all (List.hd files) in
  let n = String.length data in
  let flip at =
    String.mapi
      (fun i c -> if i = at then Char.chr (Char.code c lxor 0xff) else c)
      data
  in
  List.iter
    (fun (name, bytes) ->
      let path = Filename.concat dir (name ^ ".mrt") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      let r = Archive_file.read bytes in
      Alcotest.(check bool) (name ^ ": damaged") true (r.Mrt.diags <> []);
      let configs =
        Study.Detect.Private.default_config
        :: List.map
             (fun gap -> { Study.Detect.quiet_gap = gap; min_prefixes = 1 })
             (boundary_gaps r.Mrt.entries)
      in
      List.iter
        (fun (config : Study.Detect.config) ->
          let what =
            Printf.sprintf "%s (gap %d us)" name config.Study.Detect.quiet_gap
          in
          let file = Study.Archive.scan_file ~config path in
          let mem =
            Legacy_ref.Entry_scan.scan_entries ~config ~source:path r.Mrt.entries
          in
          Alcotest.(check bool) (what ^ ": transfers") true
            (file.Study.Archive.transfers = mem.Study.Archive.transfers);
          Alcotest.(check bool) (what ^ ": stats") true
            (file.Study.Archive.stats = r.Mrt.stats);
          Alcotest.(check bool) (what ^ ": diagnostics") true
            (file.Study.Archive.diags = r.Mrt.diags))
        configs)
    [
      ("clipped", String.sub data 0 (n / 2));
      ("cut mid-record", String.sub data 0 (n - 3));
      ("flipped", flip (n / 3));
      ( "zeroed run",
        String.mapi
          (fun i c -> if i >= n / 2 && i < (n / 2) + 64 then '\x00' else c)
          data );
      ("garbage tail", data ^ String.make 9 '\x00');
    ]

let test_ground_truth_recall () =
  let dir = tmpdir () in
  let files, truth = emit_fleet dir ~routers:4 ~prefixes:250 ~seed:11 in
  Alcotest.(check int) "one archive per router" 4 (List.length files);
  List.iter check_scans_agree files;
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
          (fun d -> Study.Truth.Private.matches t d)
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

(* --- the JSON report --------------------------------------------------- *)

module Json = Tdat_json.Json

let json_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

let parse_or_fail what text =
  match Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not JSON: %s" what e

(* The codec may spell a number differently from the printf-built
   report it replaced ([13] for [13.0], [1234570] for [1.23457e+06]),
   but every number must be the same double: both documents parse to
   equal trees, on clean and on damaged archives. *)
let test_report_json_matches_legacy () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:3 ~prefixes:300 ~seed:41 in
  let data = read_all (List.hd files) in
  let damaged name f =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (f (Bytes.of_string data)));
    path
  in
  let clipped =
    damaged "clipped.mrt" (fun b -> Bytes.sub_string b 0 (Bytes.length b / 2))
  in
  let flipped =
    damaged "flipped.mrt" (fun b ->
        let i = Bytes.length b / 3 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        Bytes.to_string b)
  in
  (* Whole-second durations, printed [%.1f] by the old report. *)
  let whole = fleet_archives dir in
  List.iter
    (fun (name, paths, slow_threshold_s) ->
      let r = Study.Aggregate.run ~jobs:1 ?slow_threshold_s paths in
      Alcotest.check json_t name
        (parse_or_fail "legacy report" (Legacy_ref.Study_json.to_json r))
        (parse_or_fail "report" (Study.Report.to_json r)))
    [
      ("clean archives", files, None);
      ("damaged archives", clipped :: flipped :: files, None);
      ("whole-second durations", whole, None);
      ("whole-second threshold", whole, Some 13.);
      ("six-digit threshold", files, Some 1234567.8);
    ]

let run_study dir args =
  let out = Filename.concat dir "study.out" in
  let err = Filename.concat dir "study.err" in
  let rc =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote tdat_exe) args
         (Filename.quote out) (Filename.quote err))
  in
  (rc, read_all out, read_all err)

(* JSON has no [inf]: an infinite fixed threshold must still yield a
   document a strict parser accepts, carrying the same infinity. *)
let test_cli_infinite_threshold_json () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:1 ~prefixes:200 ~seed:31 in
  let rc, out, _ =
    run_study dir
      ("study --slow-threshold inf --json " ^ Filename.quote (List.hd files))
  in
  Alcotest.(check int) "tdat study exit" 0 rc;
  let doc = parse_or_fail "tdat study --json" out in
  Alcotest.(check (option json_t)) "threshold is infinite"
    (Some (Json.Num Float.infinity)) (Json.member "slow_threshold_s" doc);
  Alcotest.(check (option json_t)) "nothing is slower than infinity"
    (Some (Json.Num 0.)) (Json.member "slow_transfers" doc)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A directory where a file belongs is a usage error (cmdliner's 124),
   not an uncaught [Sys_error] (125). *)
let test_cli_directory_argument () =
  let dir = tmpdir () in
  List.iter
    (fun cmd ->
      let rc, _, err = run_study dir (cmd ^ " " ^ Filename.quote dir) in
      Alcotest.(check int) (cmd ^ " DIR exit") 124 rc;
      Alcotest.(check bool) (cmd ^ " DIR raises nothing") false
        (contains err "uncaught exception"))
    [ "study"; "analyze"; "check" ]

(* The study's option check on the command line: a gap that is not a
   number of seconds from 1e-06 to 4e12 (1e-9 would count 0 us), or a
   NaN or negative threshold, is a usage error naming the option. *)
let test_cli_bad_option_values () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:1 ~prefixes:200 ~seed:31 in
  let archive = Filename.quote (List.hd files) in
  List.iter
    (fun (opt, v) ->
      let arg = Printf.sprintf "%s=%s" opt v in
      let rc, out, err =
        run_study dir (Printf.sprintf "study %s %s" arg archive)
      in
      Alcotest.(check int) (arg ^ " exit") 124 rc;
      Alcotest.(check string) (arg ^ " prints no report") "" out;
      Alcotest.(check bool) (arg ^ " names the option") true (contains err opt);
      Alcotest.(check bool) (arg ^ " raises nothing") false
        (contains err "uncaught exception"))
    [
      ("--gap", "nan"); ("--gap", "inf"); ("--gap", "-5"); ("--gap", "0");
      ("--gap", "1e-9"); ("--gap", "9e12");
      ("--slow-threshold", "nan"); ("--slow-threshold", "-1");
    ]

(* --- the study's option check ---------------------------------------- *)

let check_seconds = Study.Aggregate.check_seconds

(* A quiet gap (or a poll interval) is counted in whole microseconds:
   every value the check accepts comes back unchanged and counts from 1
   to [max_int] microseconds, and every value it refuses is NaN,
   infinite, below 1e-06 or above 4e12 s.  A log-uniform sweep from
   1e-12 to 1e20, both signs, on top of the edges. *)
let test_check_gap_seconds () =
  let accepted x = Result.is_ok (check_seconds ~positive:true x) in
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%g accepted" x) true (accepted x))
    [ 1e-6; 1e-3; 1.; 200.; 4e12 ];
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%g refused" x) false (accepted x))
    [
      Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; -5.; 1e-9;
      9.99e-7; 4.0001e12; 9e12; Float.max_float;
    ];
  let rand = Random.State.make [| 4 |] in
  for _ = 1 to 20_000 do
    let x =
      (if Random.State.int rand 8 = 0 then -1. else 1.)
      *. (10. ** (Random.State.float rand 32. -. 12.))
    in
    match check_seconds ~positive:true x with
    | Ok s ->
        let us = Tdat_timerange.Time_us.of_s s in
        if s <> x || us < 1 then
          Alcotest.failf "%h accepted as %h, counting %d us" x s us
    | Error _ ->
        if x >= 1e-6 && x <= 4e12 then Alcotest.failf "%h refused" x
  done

(* A fixed slow threshold is any number of seconds at least 0; infinity
   stays valid and classifies nothing as slow. *)
let test_check_threshold_seconds () =
  let accepted x = Result.is_ok (check_seconds ~positive:false x) in
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%g accepted" x) true (accepted x))
    [ 0.; -0.; 1e-9; 13.; 1e300; Float.infinity ];
  List.iter
    (fun x ->
      Alcotest.(check bool) (Printf.sprintf "%g refused" x) false (accepted x))
    [ Float.nan; -1.; -1e-300; Float.neg_infinity ];
  match (check_seconds ~positive:false 1., check_seconds ~positive:true 0.) with
  | Ok 1., Error why ->
      Alcotest.(check bool) "the reason names the range" true
        (contains why "1e-06")
  | _ -> Alcotest.fail "check_seconds results"

(* The accepted ends of the check on the command line.  The largest gap
   still counts within the int range, so the session stays one transfer
   (a gap that wrapped negative would split it at every update); the
   smallest splits it at every update that is a microsecond or more
   after the last; a zero threshold marks every transfer slow. *)
let test_cli_option_bounds () =
  let dir = tmpdir () in
  let files, _ = emit_fleet dir ~routers:1 ~prefixes:200 ~seed:31 in
  let archive = Filename.quote (List.hd files) in
  let study args =
    let rc, out, err =
      run_study dir
        (Printf.sprintf "study --json --min-prefixes 1 %s %s" args archive)
    in
    Alcotest.(check int) (args ^ " exit") 0 rc;
    Alcotest.(check string) (args ^ " stderr") "" err;
    let doc = parse_or_fail ("study " ^ args) out in
    match (Json.member "transfers" doc, Json.member "slow_transfers" doc) with
    | Some (Json.Arr ts), Some (Json.Num slow) -> (List.length ts, slow)
    | _ -> Alcotest.failf "study %s: report shape" args
  in
  let default, _ = study "" in
  Alcotest.(check int) "one transfer by default" 1 default;
  let widest, _ = study "--gap 4e12" in
  Alcotest.(check int) "--gap 4e12 keeps one transfer" 1 widest;
  let narrowest, _ = study "--gap 1e-06" in
  Alcotest.(check bool) "--gap 1e-06 splits it" true (narrowest > 1);
  let n, slow = study "--slow-threshold 0" in
  Alcotest.(check int) "--slow-threshold 0 marks every transfer slow" n
    (int_of_float slow)

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
      test_fold_file_matches_read_file;
    Alcotest.test_case "file folds across read chunks" `Quick
      test_file_folds_across_chunks;
    Alcotest.test_case "fold_file over a pipe-fed FIFO" `Quick
      test_fold_file_fifo_fed;
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
    Alcotest.test_case "json report equals the printf-built one" `Quick
      test_report_json_matches_legacy;
    Alcotest.test_case "e2e: --slow-threshold inf --json parses" `Quick
      test_cli_infinite_threshold_json;
    Alcotest.test_case "e2e: a directory argument is a usage error" `Quick
      test_cli_directory_argument;
    Alcotest.test_case "e2e: a bad --gap or --slow-threshold is a usage error"
      `Quick test_cli_bad_option_values;
    Alcotest.test_case "scan_file == strict scan_entries (random archives)"
      `Quick test_scans_agree_random;
    Alcotest.test_case "scan_file == salvage scan_entries (damaged archives)"
      `Quick test_scans_agree_damaged;
    Alcotest.test_case "option check: an accepted gap counts 1 us to max_int"
      `Quick test_check_gap_seconds;
    Alcotest.test_case "option check: a threshold is any number at least 0"
      `Quick test_check_threshold_seconds;
    Alcotest.test_case "e2e: --gap and --slow-threshold at their bounds"
      `Quick test_cli_option_bounds;
  ]
