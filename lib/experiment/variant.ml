(* The variant registry.  Every entry pairs two implementations that both
   run in production and that the codebase claims are equivalent — the
   claim each past optimization rested on — and projects both onto a
   canonical Doc so the Diff kernel can adjudicate field by field.

   Variant closures run inside an Engine worker domain, so everything
   here is sequential ([~jobs:1]): the experiment parallelizes across
   corpus files, not within one. *)

module Json = Tdat_json.Json

type input_kind = Pcap | Mrt

type t = {
  name : string;
  input : input_kind;
  control_name : string;
  candidate_name : string;
  summary : string;
  self_test : bool;
  control : string -> Json.t;
  candidate : string -> Json.t;
}

let kind_name = function Pcap -> "pcap" | Mrt -> "mrt"
let equal_kind a b = match (a, b) with
  | Pcap, Pcap | Mrt, Mrt -> true
  | (Pcap | Mrt), _ -> false

let read_all path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let kind_of_file path =
  let magic =
    try In_channel.with_open_bin path (fun ic -> In_channel.really_input_string ic 4)
    with End_of_file | Sys_error _ -> None
  in
  match magic with
  | Some ("\xa1\xb2\xc3\xd4" | "\xd4\xc3\xb2\xa1" | "\xa1\xb2\x3c\x4d"
         | "\x4d\x3c\xb2\xa1") ->
      Pcap
  | Some _ | None -> Mrt

(* --- shared pipeline pieces ---------------------------------------------- *)

let analyze_trace trace = Tdat.Analyzer.analyze_all ~jobs:1 trace

let analysis_of_result (r : Tdat_pkt.Pcap.result) =
  Doc.analysis_doc (analyze_trace r.Tdat_pkt.Pcap.trace)

(* Orient and anchor one connection exactly as Transfer_id.identify
   does, then hand the sub-trace to a transfer-end estimator. *)
let per_connection_transfers trace estimate =
  List.map
    (fun (key, sub) ->
      let flow = Tdat_pkt.Trace.infer_sender sub key in
      let transfer =
        match Tdat.Transfer_id.connection_start sub ~flow with
        | None -> None
        | Some start_ts -> (
            match estimate sub ~flow ~start_ts with
            | None -> None
            | Some (r : Tdat_bgp.Mct.result) ->
                Some
                  {
                    Tdat.Transfer_id.start_ts;
                    end_ts = r.Tdat_bgp.Mct.end_ts;
                    prefixes = r.Tdat_bgp.Mct.prefixes;
                    updates = r.Tdat_bgp.Mct.updates;
                    source = Tdat.Transfer_id.Reconstructed;
                  })
      in
      (flow, transfer))
    (Tdat_pkt.Trace.partition_connections trace)

let transfer_doc_of_file path estimate =
  let r = Tdat_pkt.Pcap.read_file path in
  Doc.transfer_doc (per_connection_transfers r.Tdat_pkt.Pcap.trace estimate)

(* --- concrete control/candidate pairs ------------------------------------ *)

let strict_pcap =
  {
    name = "strict-pcap";
    input = Pcap;
    control_name = "strict";
    candidate_name = "salvage";
    summary =
      "strict pcap ingestion vs fault-tolerant salvage; clean captures \
       must analyze identically";
    self_test = false;
    control =
      (fun path -> analysis_of_result (Tdat_pkt.Pcap.read_file ~strict:true path));
    candidate =
      (fun path -> analysis_of_result (Tdat_pkt.Pcap.read_file path));
  }

let mrt_ingest =
  {
    name = "mrt-ingest";
    input = Mrt;
    control_name = "whole-buffer-strict";
    candidate_name = "streaming-scan";
    summary =
      "strict whole-buffer MRT decode + in-memory scan vs the \
       bounded-memory streaming archive scan";
    self_test = false;
    control =
      (fun path ->
        let r = Tdat_bgp.Mrt.decode_result ~strict:true (read_all path) in
        let fr =
          Tdat_study.Archive.scan_entries ~source:path r.Tdat_bgp.Mrt.entries
        in
        Doc.study_doc { fr with Tdat_study.Archive.stats = r.Tdat_bgp.Mrt.stats });
    candidate = (fun path -> Doc.study_doc (Tdat_study.Archive.scan_file path));
  }

(* PR-8 routed reassembly buffers through the per-domain scratch arena. *)
let reasm_scratch =
  {
    name = "reasm-scratch";
    input = Pcap;
    control_name = "fresh-buffer";
    candidate_name = "scratch-arena";
    summary =
      "stream reassembly into a fresh buffer vs the per-domain scratch \
       arena slot used on the production path";
    self_test = false;
    control =
      (fun path ->
        transfer_doc_of_file path (fun sub ~flow ~start_ts ->
            let reasm = Tdat_bgp.Msg_reader.reassemble_from_trace sub ~flow in
            Tdat_bgp.Mct.transfer_end_of_reasm ~start:start_ts reasm));
    candidate =
      (fun path ->
        transfer_doc_of_file path (fun sub ~flow ~start_ts ->
            Tdat_parallel.Scratch.(with_bytes ~slot:slot_reassembly 4096)
              (fun cell ->
                let reasm =
                  Tdat_bgp.Msg_reader.reassemble_from_trace ~scratch:cell sub
                    ~flow
                in
                Tdat_bgp.Mct.transfer_end_of_reasm ~start:start_ts reasm)));
  }

(* --- harness self-test ---------------------------------------------------- *)

(* Nudge connections[0].factors.ratios.<first factor> by +1e-3 so the
   diff must surface exactly that path.  A document with no connection
   (or no ratio) grows a top-level "perturbed" member instead, which
   diffs as Missing_control — the self-test diverges either way. *)
let perturb_doc doc =
  let update_assoc k f ms =
    let hit = ref false in
    let ms =
      List.map
        (fun (k', v) ->
          if (not !hit) && String.equal k' k then
            match f v with
            | Some v' ->
                hit := true;
                (k', v')
            | None -> (k', v)
          else (k', v))
        ms
    in
    if !hit then Some ms else None
  in
  let obj f = function Json.Obj ms -> Option.map (fun ms -> Json.Obj ms) (f ms) | _ -> None in
  let bump_first_ratio =
    obj (fun ms ->
        let hit = ref false in
        let ms =
          List.map
            (fun (k, v) ->
              match v with
              | Json.Num r when not !hit ->
                  hit := true;
                  (k, Json.Num (r +. 1e-3))
              | _ -> (k, v))
            ms
        in
        if !hit then Some ms else None)
  in
  let in_factors = obj (update_assoc "ratios" bump_first_ratio) in
  let in_connection = obj (update_assoc "factors" in_factors) in
  let in_connections = function
    | Json.Arr (c0 :: rest) ->
        Option.map (fun c0 -> Json.Arr (c0 :: rest)) (in_connection c0)
    | _ -> None
  in
  match obj (update_assoc "connections" in_connections) doc with
  | Some doc -> doc
  | None -> (
      match doc with
      | Json.Obj ms -> Json.Obj (ms @ [ ("perturbed", Json.Bool true) ])
      | other -> other)

let perturb =
  {
    name = "perturb";
    input = Pcap;
    control_name = "identity";
    candidate_name = "perturbed-ratios";
    summary =
      "harness self-test: the candidate deliberately nudges one factor \
       ratio by 1e-3, so a healthy harness MUST report a mismatch at \
       connections[0].factors.ratios";
    self_test = true;
    control = (fun path -> analysis_of_result (Tdat_pkt.Pcap.read_file path));
    candidate =
      (fun path ->
        perturb_doc (analysis_of_result (Tdat_pkt.Pcap.read_file path)));
  }

let all =
  [
    strict_pcap;
    mrt_ingest;
    reasm_scratch;
    perturb;
  ]

let defaults = List.filter (fun v -> not v.self_test) all

let find name = List.find_opt (fun v -> String.equal v.name name) all
