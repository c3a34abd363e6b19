(* batch: the measured process of the fleet, fulltable and study
   workloads (README.md in this directory).

     batch.exe MODE WORKLOAD INPUT_DIR SECONDS [TRACE_OUT]

   MODE is [setup] (read the inputs, run one cold op, report the time
   and exit), [measure] (then run ops for SECONDS and report every op's
   wall time) or [trace] (alternate plain ops with ops split into
   per-layer spans, for SECONDS, and write the spans as Chrome trace
   JSON to TRACE_OUT).  The result is one JSON object on stdout; run.py
   turns it into the benchmark's metrics.

   Beside the set-up and after every op, it asks calib.exe (a process
   of its own, started before the set-up clock) to run the reference
   kernel once, and reports for each op and for the set-up the mean of
   the kernel times just before and just after it.  run.py scales the
   times by them to take the host's speed out.

   The program under test is called only through its public modules:
   [Tdat_pkt.Pcap]/[Trace], [Tdat.Analyzer] and its stage modules,
   [Tdat_serve.Render], [Tdat_bgp.Mrt] and [Tdat_study.Archive]/
   [Aggregate]/[Report].  Nothing here touches the GC settings: forcing
   collections between ops moves GC work out of the timed region and
   measures a different program.  Every op's output is checked against
   the digest of the CLI's output on the same input; a mismatch counts
   as a failed op. *)

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* [path \t md5] lines written by run.py from `tdat analyze -j 1` (or
   `tdat study -j 1`) output. *)
let read_manifest dir =
  read_lines (Filename.concat dir "manifest.tsv")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ path; md5 ] -> (path, md5)
         | _ -> failwith ("batch: bad manifest line: " ^ l))

let vm_hwm_kb () =
  read_lines "/proc/self/status"
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> kb)
         | _ -> None)
  |> Option.value ~default:0

(* --- spans ------------------------------------------------------------ *)

type span = { name : string; op : int; parent : string; t0 : int64; t1 : int64 }

let spans : span list ref = ref []
let origin = now_ns ()

(* Per-op accumulators of the traced run: self time (ms) and minor
   words per layer span, summed over the op's calls into that layer,
   and counts (or times measured beside the op) reported as they are. *)
let layer_ms : (string, float) Hashtbl.t = Hashtbl.create 32
let layer_words : (string, float) Hashtbl.t = Hashtbl.create 32
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let layer ~op name f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  spans := { name; op; parent = "op"; t0; t1 } :: !spans;
  bump layer_ms name (ms_between t0 t1);
  bump layer_words name (w1 -. w0);
  r

let write_chrome_trace path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%S}}"
            s.name
            (ms_between origin s.t0 *. 1e3)
            (ms_between s.t0 s.t1 *. 1e3)
            s.op s.parent)
        (List.rev !spans);
      output_string oc "\n]}\n")

(* --- workloads ------------------------------------------------------- *)

type workload = {
  inputs : int;
  units : int -> int;  (** Work units (packets, MRT records) of input [i]. *)
  plain : int -> string;  (** The op as users run it; returns its output. *)
  aside : op:int -> unit;  (** Run untimed just before a traced op. *)
  traced : op:int -> int -> string;  (** Same output, split into layers. *)
  check : int -> string -> bool;
}

let digest_ok expected out = String.equal (Digest.to_hex (Digest.string out)) expected

(* fleet / fulltable: decode → analyze_all ~jobs:1 → render, on one
   capture held in memory. *)
let capture_workload dir =
  let manifest = Array.of_list (read_manifest dir) in
  let bytes =
    Array.map (fun (p, _) -> In_channel.with_open_bin p In_channel.input_all) manifest
  in
  (* Counted on first use, after the set-up clock has stopped. *)
  let packets =
    Array.map
      (fun b -> lazy (Tdat_pkt.Trace.length (Tdat_pkt.Pcap.decode_result b).trace))
      bytes
  in
  let plain i =
    let r = Tdat_pkt.Pcap.decode_result bytes.(i) in
    Tdat_serve.Render.analysis (Tdat.Analyzer.analyze_all ~jobs:1 r.trace)
  in
  (* Analyzer.analyze_all's stage order, one span per public call. *)
  let traced ~op i =
    let layer n f = layer ~op n f in
    let r = layer "pkt.pcap_decode" (fun () -> Tdat_pkt.Pcap.decode_result bytes.(i)) in
    let parts =
      layer "pkt.partition" (fun () ->
          List.map
            (fun (key, sub) -> (Tdat_pkt.Trace.infer_sender sub key, sub))
            (Tdat_pkt.Trace.partition_connections r.trace))
    in
    bump counts "pkt.connections" (float_of_int (List.length parts));
    let analyze (flow, sub) =
      let open Tdat in
      let profile = layer "core.conn_profile" (fun () -> Conn_profile.of_trace sub ~flow) in
      let shifted, shifts = layer "core.ack_shift" (fun () -> Ack_shift.shift profile) in
      let transfer = layer "core.transfer_id" (fun () -> Transfer_id.identify sub ~flow) in
      let window = Option.map Transfer_id.span transfer in
      let series =
        layer "core.series_gen" (fun () -> Series_gen.generate ?window shifted)
      in
      let factors = layer "core.factors" (fun () -> Factors.compute series) in
      let problems =
        {
          Analyzer.timer = layer "core.detect_timer" (fun () -> Detect_timer.detect series);
          consecutive_losses =
            layer "core.detect_loss" (fun () -> Detect_loss.detect series);
          peer_group_suspects =
            layer "core.detect_peer_group" (fun () -> Detect_peer_group.suspects series);
          zero_ack_bug =
            layer "core.detect_zero_ack" (fun () -> Detect_zero_ack.detect series);
        }
      in
      ( flow,
        {
          Analyzer.profile;
          shifted;
          shifts;
          transfer;
          series;
          factors;
          problems;
          audit = [];
          timings = [];
          total_s = 0.;
        } )
    in
    let results = List.map analyze parts in
    let out = layer "serve.render" (fun () -> Tdat_serve.Render.analysis results) in
    bump counts "serve.render.bytes" (float_of_int (String.length out));
    out
  in
  {
    inputs = Array.length manifest;
    units = (fun i -> Lazy.force packets.(i));
    plain;
    aside = (fun ~op:_ -> ());
    traced;
    check = (fun i out -> digest_ok (snd manifest.(i)) out);
  }

(* study: Aggregate.run ~jobs:1 over every archive, then Report.to_text
   (the `tdat study -j 1` path).  The traced op runs Aggregate.run's own
   steps (scan_file per archive, then of_reports); a decode-only
   Mrt.fold_file pass just before it, untimed by the op, prices the
   decoder inside the scan. *)
let study_workload dir =
  let paths = read_lines (Filename.concat dir "archives.txt") in
  let expected = snd (List.hd (read_manifest dir)) in
  let truth = Tdat_study.Truth.of_file (Filename.concat dir "ground_truth.tsv") in
  let last_transfers = ref [] and records = ref 0 in
  let finish (report : Tdat_study.Aggregate.report) =
    last_transfers := report.transfers;
    records :=
      List.fold_left
        (fun n (f : Tdat_study.Archive.file_report) -> n + f.stats.records)
        0 report.files;
    Tdat_study.Report.to_text report
  in
  let plain _ = finish (Tdat_study.Aggregate.run ~jobs:1 paths) in
  let aside ~op =
    List.iter
      (fun p ->
        let t0 = now_ns () in
        let (), st = Tdat_bgp.Mrt.fold_file p ~init:() (fun () _ -> ()) in
        let t1 = now_ns () in
        spans := { name = "bgp.mrt_decode"; op; parent = "decode-pass"; t0; t1 } :: !spans;
        bump counts "bgp.mrt_decode.ms" (ms_between t0 t1);
        bump counts "bgp.mrt.records" (float_of_int st.records);
        bump counts "bgp.mrt.skipped" (float_of_int st.skipped))
      paths
  in
  let traced ~op _ =
    let files =
      List.map (fun p -> layer ~op "study.scan" (fun () -> Tdat_study.Archive.scan_file p)) paths
    in
    let report = layer ~op "study.aggregate" (fun () -> Tdat_study.Aggregate.of_reports files) in
    bump counts "study.transfers" (float_of_int (List.length report.transfers));
    layer ~op "study.report" (fun () -> finish report)
  in
  {
    inputs = 1;
    units = (fun _ -> !records);
    plain;
    aside;
    traced;
    check =
      (fun _ out ->
        digest_ok expected out
        && Tdat_study.Truth.recall ~truth !last_transfers >= 0.95);
  }

(* --- measurement ------------------------------------------------------ *)

(* The reference kernel in calib.exe, beside this process. *)
let calib_start () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calib.exe" in
  Unix.open_process_args exe [| exe |]

let calib_ms (ic, oc) =
  output_char oc '\n';
  flush oc;
  Int64.to_float (Int64.of_string (input_line ic)) /. 1e6

let json_floats l =
  "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") l) ^ "]"

let () =
  let mode, name, dir, seconds, trace_out =
    match Array.to_list Sys.argv with
    | [ _; mode; name; dir; seconds ] -> (mode, name, dir, float_of_string seconds, None)
    | [ _; mode; name; dir; seconds; out ] ->
        (mode, name, dir, float_of_string seconds, Some out)
    | _ ->
        prerr_endline "usage: batch.exe setup|measure|trace WORKLOAD DIR SECONDS [TRACE_OUT]";
        exit 2
  in
  let calib = calib_start () in
  let last_ref = ref (calib_ms calib) in
  (* The mean kernel time around the work just done. *)
  let ref_around () =
    let before = !last_ref in
    last_ref := calib_ms calib;
    (before +. !last_ref) /. 2.
  in
  let t0 = now_ns () in
  let w =
    match name with
    | "fleet" | "fulltable" -> capture_workload dir
    | "study" -> study_workload dir
    | _ ->
        prerr_endline ("batch: unknown workload " ^ name);
        exit 2
  in
  let cold = w.plain 0 in
  let setup_s = ms_between t0 (now_ns ()) /. 1e3 in
  let setup_ref_ms = ref_around () in
  let attempted = ref 1 and failed = ref 0 in
  if not (w.check 0 cold) then incr failed;
  let plain_ms = ref [] and plain_units = ref [] and plain_ok = ref [] in
  let plain_ref = ref [] and traced_ref = ref [] in
  let traced_ms = ref [] and residual_ms = ref [] in
  let per_layer : (string, float list) Hashtbl.t = Hashtbl.create 32 in
  let gc_minor = ref [] and gc_major = ref [] in
  let run_op ~traced i =
    let input = i mod w.inputs in
    let units = w.units input in
    Hashtbl.reset layer_ms;
    Hashtbl.reset layer_words;
    Hashtbl.reset counts;
    if traced then w.aside ~op:i;
    let g0 = Gc.quick_stat () in
    let s = now_ns () in
    let out = if traced then w.traced ~op:i input else w.plain input in
    let ms = ms_between s (now_ns ()) in
    let g1 = Gc.quick_stat () in
    let around = ref_around () in
    incr attempted;
    let ok = w.check input out in
    if not ok then incr failed;
    if traced then begin
      traced_ms := ms :: !traced_ms;
      traced_ref := around :: !traced_ref;
      let self = Hashtbl.fold (fun _ v acc -> acc +. v) layer_ms 0. in
      residual_ms := (ms -. self) :: !residual_ms;
      let add k v =
        Hashtbl.replace per_layer k
          (v :: Option.value ~default:[] (Hashtbl.find_opt per_layer k))
      in
      Hashtbl.iter (fun k v -> add (k ^ ".ms") v) layer_ms;
      Hashtbl.iter (fun k v -> add (k ^ ".minor_words") v) layer_words;
      Hashtbl.iter add counts;
      gc_minor := float_of_int (g1.minor_collections - g0.minor_collections) :: !gc_minor;
      gc_major := float_of_int (g1.major_collections - g0.major_collections) :: !gc_major
    end
    else begin
      plain_ms := ms :: !plain_ms;
      plain_ref := around :: !plain_ref;
      plain_units := float_of_int units :: !plain_units;
      plain_ok := (if ok then 1. else 0.) :: !plain_ok
    end
  in
  (match mode with
  | "setup" -> ()
  | "measure" | "trace" ->
      let traced = mode = "trace" in
      let start = now_ns () in
      let i = ref 0 in
      while ms_between start (now_ns ()) < seconds *. 1e3 do
        run_op ~traced:(traced && !i land 1 = 1) !i;
        incr i
      done
  | _ ->
      prerr_endline ("batch: unknown mode " ^ mode);
      exit 2);
  ignore (Unix.close_process calib);
  Option.iter write_chrome_trace trace_out;
  let layers =
    Hashtbl.fold
      (fun k v acc -> Printf.sprintf "%S:%s" k (json_floats (List.rev v)) :: acc)
      per_layer []
    |> List.sort compare
  in
  Printf.printf
    "{\"setup_s\":%.6f,\"setup_ref_ms\":%.6f,\"attempted\":%d,\"failed\":%d,\"mem_peak_kb\":%d,\"op_ms\":%s,\"op_ref_ms\":%s,\"op_units\":%s,\"op_ok\":%s,\"traced_ms\":%s,\"traced_ref_ms\":%s,\"residual_ms\":%s,\"gc_minor\":%s,\"gc_major\":%s,\"layers\":{%s}}\n"
    setup_s setup_ref_ms !attempted !failed (vm_hwm_kb ())
    (json_floats (List.rev !plain_ms))
    (json_floats (List.rev !plain_ref))
    (json_floats (List.rev !plain_units))
    (json_floats (List.rev !plain_ok))
    (json_floats (List.rev !traced_ms))
    (json_floats (List.rev !traced_ref))
    (json_floats (List.rev !residual_ms))
    (json_floats (List.rev !gc_minor))
    (json_floats (List.rev !gc_major))
    (String.concat "," layers)
