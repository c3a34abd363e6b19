(** Per-file summaries for L012: which library exports each file
    declares and which module values it names.

    A library [.ml]'s exports are the [val]s of the [.mli] beside it,
    nested submodule signatures included and any [Private] submodule
    excluded.  A file's uses are every value it names, resolved through
    [module X = ...M] aliases, [open] and local opens ([M.( ... )]); a
    module passed to a functor, packed as a first-class module or
    [include]d counts as used whole.  Modules are keyed by their
    innermost name, so same-named modules merge and the rule errs toward
    silence. *)

type export = { x_module : string; x_name : string; x_line : int; x_col : int }

type t = {
  u_file : string;  (** The [.ml] the summary was built from. *)
  u_mli : string;  (** Its [.mli] path (exports are reported there). *)
  u_exports : export list;  (** Empty unless the file is library code. *)
  u_uses : (string * string) list;  (** [(module, value)] keys named. *)
  u_whole : string list;  (** Modules used whole. *)
}

val of_file :
  file:string -> exports:Parsetree.signature option -> Parsetree.structure -> t
(** [exports] is the parsed [.mli] of a library file, [None] otherwise. *)

val check : t list -> Finding.t list
(** L012: one finding per export that no file other than its own [.ml]
    uses. *)
