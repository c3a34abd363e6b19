(** Canonical report documents: project an analysis (or study) result
    onto a deterministic {!Tdat_json.Json} tree the {!Diff} kernel can
    compare field by field.

    Every field a variant pair is expected to agree on appears here —
    connection profiles, transfer bounds, the 8-factor / 3-group ratio
    vectors, the 34 series sizes, every detector verdict — with fixed
    member order and canonical number rendering, so an identity
    experiment diffs to zero and a real divergence names one concrete
    field. *)

val analysis_doc : (Tdat_pkt.Flow.t * Tdat.Analyzer.t) list -> Tdat_json.Json.t
(** Full per-connection analysis document (the richest comparison
    surface; used by the decode/partition variants, which must agree on
    everything downstream of ingestion). *)

val transfer_doc :
  (Tdat_pkt.Flow.t * Tdat.Transfer_id.t option) list -> Tdat_json.Json.t
(** Transfer-identification document only (used by the transfer-end
    estimator variants, whose seam is upstream of series generation). *)

val study_doc : Tdat_study.Archive.file_report -> Tdat_json.Json.t
(** Per-archive measurement-study document: detected transfers plus
    salvage statistics. *)

val error_doc : exn -> Tdat_json.Json.t
(** An [{"error": ...}] document: a variant that raises still produces
    a comparable document, so control/candidate disagreement on
    {e whether} the input decodes surfaces as an ordinary field
    mismatch at [report.error]. *)
