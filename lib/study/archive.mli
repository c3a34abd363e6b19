(** Scanning one MRT archive file: stream it through the summary fold
    of the {!Tdat_bgp.Mrt} reader ({!Tdat_bgp.Mrt.fold_summary_file},
    which validates each embedded BGP message without decoding it) and
    the {!Detect} state machine in bounded memory, collecting transfers,
    diagnostics and counters. *)

type file_report = {
  path : string;
  transfers : Transfer.t list;  (** In {!Transfer.compare} order. *)
  diags : Tdat_bgp.Mrt.Diag.t list;  (** M0xx findings, in file order. *)
  stats : Tdat_bgp.Mrt.stats;
}

val scan_file :
  ?strict:bool -> ?config:Detect.config -> string -> file_report
(** Salvages by default; [~strict:true] raises
    [Tdat_bgp.Bgp_error.Decode_error] on the first malformed record. *)

val scan_entries :
  ?config:Detect.config -> ?source:string -> Tdat_bgp.Mrt.entry list ->
  file_report
(** In-memory variant for already-decoded entries (no diagnostics). *)
