(** Longident and path helpers shared by the rule passes. *)

val last_module : Longident.t -> string option
(** The innermost qualifying module of a dotted path:
    [Tdat_pkt.Trace.length] and [Trace.length] both give ["Trace"]. *)

val name : Longident.t -> string option
(** The final component: [Trace.length] gives ["length"]. *)

val module_of_path : string -> string
(** The OCaml module a source path compiles to:
    ["lib/pkt/trace.ml"] gives ["Trace"]. *)

val in_lib : string -> bool
(** Whether the path has a ["lib"] directory component — the
    library-only-rule fence.  Works for relative, [./]-prefixed,
    absolute and [_build]-expanded paths alike. *)
