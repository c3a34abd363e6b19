(** The variant registry: named control/candidate implementation pairs
    already latent in the codebase, each projected to a canonical
    {!Doc} document from one input file.

    The control side is the older / simpler / slower implementation
    whose behavior is trusted; the candidate is the optimized path that
    actually runs in production.  An identity experiment (zero
    mismatches over a corpus) is the evidence that lets the next
    hot-path surgery proceed; the [perturb] self-test variant proves
    the harness can see a divergence at all. *)

type input_kind = Pcap | Mrt

type t = {
  name : string;  (** Registry key, e.g. ["partition"]. *)
  input : input_kind;
  control_name : string;  (** e.g. ["rescan-split"]. *)
  candidate_name : string;  (** e.g. ["single-pass-partition"]. *)
  summary : string;  (** One line for [tdat experiment list]. *)
  self_test : bool;
      (** Deliberately diverging harness self-test; excluded from the
          default variant set. *)
  control : string -> Tdat_json.Json.t;
  candidate : string -> Tdat_json.Json.t;
}

val all : t list
(** Every registered variant, [perturb] included, in registry order. *)

val defaults : t list
(** {!all} minus the self-tests — what [tdat experiment run] runs when
    no [--variant] is named. *)

val find : string -> t option

val kind_of_file : string -> input_kind
(** Sniff a corpus file by magic: the four libpcap magics mean
    {!Pcap}, anything else is treated as MRT (MRT has no magic; the
    reader's own diagnostics catch misfiled inputs). *)

val kind_name : input_kind -> string
val equal_kind : input_kind -> input_kind -> bool
