(** Lint findings: one typed diagnostic per rule violation.

    A finding pins a rule code to a 0-based column / 1-based line in a
    source file.  Ordering is fully deterministic ({!compare}
    tie-breaks file, line, column, code, then message), so emitted
    reports are byte-stable across runs and [--jobs] values. *)

type severity = Error | Warning

val severity_name : severity -> string

type t = {
  file : string;
  line : int;
  col : int;
  code : string;
  severity : severity;
  message : string;
}

val v :
  file:string ->
  line:int ->
  col:int ->
  code:string ->
  severity:severity ->
  string ->
  t

val of_loc : Location.t -> code:string -> severity:severity -> string -> t
(** Finding at the start of a compiler-libs location. *)

val sort : t list -> t list

val to_line : t -> string
(** The classic one-line text form: [file:line:col: [code] message]. *)
