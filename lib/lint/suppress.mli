(** Attribute-based finding suppression.

    [[@tdat.lint.allow "L007"]] on an expression, [[@@tdat.lint.allow
    "L007 L009"]] on a let-binding or module (or on a [val] in an
    interface), and a floating
    [[@@@tdat.lint.allow "L00x"]] at file scope all allowlist the named
    rules for the source lines the attributed node spans (the whole file
    for the floating form; no payload allows every rule).  Suppressions
    that match nothing are themselves reported as L010, so a fixed
    violation cannot leave a stale allowlist behind. *)

type codes = All | Codes of string list

type t = {
  file : string;
  codes : codes;
  line_start : int;
  line_end : int;
  at_line : int;
  at_col : int;
  mutable used : bool;
}

val collect : file:string -> Parsetree.structure -> t list
(** Every [tdat.lint.allow] attribute in the file, with its scope. *)

val collect_signature : file:string -> Parsetree.signature -> t list
(** The same for an interface: [[@@tdat.lint.allow ...]] on a [val] or
    module declaration covers that item; the floating form covers the
    file. *)

val apply : t list -> Finding.t list -> Finding.t list
(** Drop findings covered by a suppression, marking those suppressions
    used.  L010 findings pass through untouched. *)

val unused_findings :
  rule_was_enabled:(string -> bool) -> t list -> Finding.t list
(** L010 findings for suppressions still unused after {!apply}.  A
    suppression naming only rules that were disabled this run is skipped
    (we cannot know whether it would have fired). *)
