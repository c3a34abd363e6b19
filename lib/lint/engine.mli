(** The lint driver.

    Walks the configured roots for [.ml] files, scans them on a
    [Tdat_parallel.Pool] (parsing serialized under a mutex —
    compiler-libs keeps lexer state in module-level mutable tables,
    exactly what L007 is for), runs the whole-repo passes over the
    merged index, applies [[@tdat.lint.allow]] suppressions and returns
    the findings in the deterministic {!Finding.compare} order, so
    output is byte-identical for every [jobs] value. *)

type config = {
  roots : string list;  (** Files or directories; missing ones skipped. *)
  treat_as_lib : bool;
      (** Force library-only rules on every file (fixtures/tests). *)
  jobs : int option;  (** Pool width; [None] = recommended domain count. *)
  selection : Registry.selection;
  extra_hot : (string * Rules_file.hot_scope) list;
      (** Prepended to {!Rules_file.default_hot_paths}, so a test can
          make its fixture module hot for L009. *)
}

val default_config : config
(** Roots [lib bin bench examples], auto jobs, all default rules. *)

type outcome = { findings : Finding.t list; files_scanned : int }

val run : config -> outcome

