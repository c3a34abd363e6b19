(* L012 fixture: library exports and how other files reach them.  Data
   for test_lint.ml, never compiled. *)

val dead : int
(** Named only from test/, which the linter does not scan: L012. *)

val via_alias : int
val via_open : int
val via_local_open : int
val ( +! ) : int -> int -> int

val allowed : int
(* Kept for a caller outside the linted roots. *)
[@@tdat.lint.allow "L012"]

val stale : int
(* Used from bin/, so this allow suppresses nothing: L010. *)
[@@tdat.lint.allow "L012"]

module Private : sig
  val internal : int
end
