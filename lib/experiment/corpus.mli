(** The mismatch corpus: every diverging input is copied next to a JSON
    drill-down of exactly which fields disagreed, so a divergence found
    on a thousand-file fleet overnight replays from one small
    self-contained directory.

    Layout under the corpus directory:
    {v
    index.json                   run summary + entry manifest
    000_<basename>               verbatim copy of the diverging input
    000_<basename>.diff.json     field-by-field drill-down for it
    001_<basename> ...
    v} *)

type entry = {
  input : string;  (** Corpus-relative copy name, e.g. ["000_f3.pcap"]. *)
  source : string;  (** Original path at capture time. *)
  mismatches : int;
}

type index = {
  variant : string;
  control_name : string;
  candidate_name : string;
  tolerance : float;
  entries : entry list;
}

val mismatch_json : Diff.entry -> Tdat_json.Json.t
(** The drill-down rendering of one divergence (shared with {!Report}). *)

val write : dir:string -> Engine.t -> int
(** [write ~dir report] creates [dir] (one level) if needed, copies each
    mismatching input plus its drill-down, writes [index.json], and
    returns the number of entries.  A report with zero mismatches still
    writes [index.json] (with an empty manifest) so replay can tell "no
    corpus was captured" from "the corpus directory is wrong". *)

val read_index : dir:string -> (index, string) result
(** Parse [dir/index.json]; [Error] explains a missing or malformed
    index. *)

val replay :
  ?jobs:int -> ?tolerance:float -> dir:string -> unit ->
  (Engine.t, string) result
(** Re-run the recorded variant over the copied inputs.  [tolerance]
    defaults to the recorded one.  [Error]
    when the index is unreadable or names a variant this build no longer
    registers. *)
