(** The per-file syntactic rules: L001-L006 and the L009 allocation
    lint.

    Each check works on one parsetree in isolation and returns its
    findings — the pass keeps no module-level state, so the engine can
    run it on pool workers (the linter satisfies its own L007). *)

type hot_scope =
  | All  (** Every top-level binding of the module is a hot path. *)
  | Funcs of string list  (** Only the named top-level bindings. *)

val default_hot_paths : (string * hot_scope) list
(** The protected set the allocation-light ROADMAP item names: pcap and
    MRT streaming decode, the Span_set kernels and
    [Trace.connection_subtraces]. *)

val check :
  enabled:(string -> bool) ->
  in_lib:bool ->
  hot_paths:(string * hot_scope) list ->
  module_name:string ->
  Parsetree.structure ->
  Finding.t list
(** Run every enabled per-file rule.  [in_lib] gates the library-only
    rules (L005, L006); [module_name] (the file's compiled module name)
    keys the [hot_paths] table for L009. *)
