(** Structured field-by-field comparison of two canonical report
    documents (control vs candidate), the diff kernel of the
    differential-analysis harness (DESIGN.md, "Differential analysis").

    Documents are {!Tdat_json.Json} values built by {!Doc}; the diff
    walks both trees together and addresses every divergence by path —
    [connections[3].factors.ratios.tcp_adv_window] — so a mismatch
    names the exact field, not just the file. *)

type kind =
  | Value_mismatch   (** Same type, different value (beyond tolerance). *)
  | Type_mismatch    (** Different JSON constructors at the same path. *)
  | Missing_control  (** Path present only on the candidate side. *)
  | Missing_candidate  (** Path present only on the control side. *)

type entry = {
  path : string;  (** Dotted/indexed field address, rooted at ["report"]. *)
  kind : kind;
  control : string;  (** Canonical JSON rendering; ["(absent)"] when missing. *)
  candidate : string;
}

val kind_name : kind -> string
val equal_kind : kind -> kind -> bool
val equal_entry : entry -> entry -> bool

val compare_entry : entry -> entry -> int
(** Path, then kind, then rendered values — the deterministic report
    order. *)

val run :
  ?tolerance:float ->
  control:Tdat_json.Json.t ->
  candidate:Tdat_json.Json.t ->
  unit ->
  entry list * int
(** [run ~control ~candidate] returns the divergences in document order
    and the number of leaf fields compared (a missing or type-mismatched
    path counts as one compared field).  Two numbers agree when they are
    bit-equal, both NaN, or within [tolerance] relative to
    [max 1. (max |a| |b|)] ([tolerance] defaults to [0.] — the variants
    under experiment are expected to be exactly equivalent; a non-zero
    tolerance is for deliberately approximate candidates).  Object
    members are matched by key (order-insensitively); array elements by
    index. *)
