(** The typed rule registry.

    Every lint rule is declared here once — id, severity, per-file vs
    whole-repo pass, library-only flag, default-enabled flag and
    documentation — so emitters (SARIF rule metadata), the [--rules]
    selector and DESIGN.md's rule table all derive from one source. *)

type pass =
  | Per_file  (** Decided from one parsetree in isolation. *)
  | Whole_repo
      (** Needs the cross-module index (call graph, mutable-state
          ownership). *)

type rule = {
  id : string;
  severity : Finding.severity;
  pass : pass;
  lib_only : bool;
      (** Only enforced on files under a [lib] directory (or with
          [--treat-as-lib]). *)
  default_enabled : bool;
  summary : string;  (** One line, used as the SARIF short description. *)
  doc : string;  (** Full rationale. *)
}

val all : rule list
(** Every rule, in id order, from L000 (parse failure) on. *)

val find : string -> rule option
val severity_of : string -> Finding.severity

type selection
(** An enabled-rule set. *)

val default_selection : selection
(** All rules with [default_enabled = true] (currently: every rule). *)

val enabled : selection -> string -> bool

val apply_spec : string -> (selection, string) result
(** [apply_spec "+L007,-L003"] starts from {!default_selection} and
    applies [+id] / [-id] clauses left to right.  A bare [id] counts as
    [+id].  Unknown ids are an error. *)
