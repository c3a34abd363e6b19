(* Per-file extraction for the whole-repo passes: module-level mutable
   bindings, a conservative call-graph approximation (one node per
   top-level binding, edges = every ident the binding's body mentions),
   mutation sites, and Domain-pool worker entry points.  Everything is
   purely syntactic — an untyped over-approximation the runtime audit
   (A007) backstops. *)

type target = Local of string | Qualified of string * string

type mutable_binding = {
  m_module : string;
  m_name : string;
  m_file : string;
  m_line : int;
  m_col : int;
  m_kind : string;
  m_in_lib : bool;
}

type node = {
  n_module : string;
  n_name : string;
  n_file : string;
  n_file_module : string;
  n_refs : target list;
  n_mutations : (target * (int * int)) list;
}

type entry = {
  e_label : string;
  e_module : string;
  e_file_module : string;
  e_targets : target list;
}

type t = {
  i_file : string;
  i_module : string;
  i_in_lib : bool;
  i_mutables : mutable_binding list;
  i_nodes : node list;
  i_entries : entry list;
}

(* --- classification tables ------------------------------------------------ *)

(* RHS constructors that make a top-level binding shared mutable state.
   [Atomic.make], [Mutex.create], [Condition.create], [Semaphore.*] and
   [Domain.DLS.new_key] are the sanctioned guards and are deliberately
   not indexed. *)
let mutable_maker lm n =
  match (lm, n) with
  | (None | Some "Stdlib"), "ref" -> Some "ref"
  | Some (("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Dynarray") as m),
    "create" ->
      Some (m ^ ".create")
  | Some "Array",
    (("make" | "create" | "init" | "make_matrix" | "of_list" | "copy"
     | "append" | "concat" | "sub") as f) ->
      Some ("Array." ^ f)
  | Some "Bytes", (("create" | "make" | "of_string" | "init") as f) ->
      Some ("Bytes." ^ f)
  | _ -> None

let guarded_maker lm n =
  match (lm, n) with
  | Some "Atomic", "make" -> true
  | Some "Mutex", "create" -> true
  | Some "Condition", "create" -> true
  | Some "Semaphore", _ -> true
  | Some "DLS", "new_key" -> true
  | _ -> false

(* Functions whose application mutates their first argument in place. *)
let mutator lm n =
  match (lm, n) with
  | (None | Some "Stdlib"), (":=" | "incr" | "decr") -> true
  | Some "Hashtbl",
    ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
    ->
      true
  | Some "Buffer",
    ("add_char" | "add_string" | "add_bytes" | "add_substring"
    | "add_subbytes" | "add_channel" | "add_buffer" | "clear" | "reset"
    | "truncate") ->
      true
  | Some "Queue", ("add" | "push" | "pop" | "take" | "clear" | "transfer") ->
      true
  | Some "Stack", ("push" | "pop" | "clear") -> true
  | Some "Array",
    ("set" | "fill" | "blit" | "sort" | "stable_sort" | "fast_sort"
    | "unsafe_set") ->
      true
  | Some "Bytes", ("set" | "fill" | "blit" | "blit_string" | "unsafe_set") ->
      true
  | _ -> false

(* Worker entry points: closures handed to these run on pool or
   service worker domains.  The approximation seeds reachability with
   every ident mentioned in the call's arguments. *)
let entry_point lm n =
  match (lm, n) with
  | Some "Pool", ("map" | "with_pool") -> true
  | Some "Service", "submit" -> true
  | Some "Analyzer", "analyze_all" -> true
  | Some "Aggregate", "run" -> true
  | _ -> false

(* --- expression helpers --------------------------------------------------- *)

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> peel e
  | _ -> e

let target_of_expr (e : Parsetree.expression) =
  match (peel e).pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } -> Some (Local n)
  | Pexp_ident { txt; _ } -> (
      match (Ident.last_module txt, Ident.name txt) with
      | Some m, Some n -> Some (Qualified (m, n))
      | _ -> None)
  | _ -> None

let target_of_lid txt =
  match txt with
  | Longident.Lident n -> Some (Local n)
  | _ -> (
      match (Ident.last_module txt, Ident.name txt) with
      | Some m, Some n -> Some (Qualified (m, n))
      | _ -> None)

(* Every ident referenced anywhere inside [e]. *)
let collect_refs (e : Parsetree.expression) =
  let refs = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match target_of_lid txt with
        | Some t -> refs := t :: !refs
        | None -> ())
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter e;
  List.rev !refs

(* Mutation sites inside [e]: [x := v] / [incr x] / [x.f <- v] /
   [Hashtbl.replace x ...] and friends, recorded with their location. *)
let collect_mutations (e : Parsetree.expression) =
  let muts = ref [] in
  let record t (loc : Location.t) =
    let p = loc.Location.loc_start in
    muts := (t, (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)) :: !muts
  in
  let super = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arg0) :: _) -> (
        match (Ident.last_module txt, Ident.name txt) with
        | lm, Some n when mutator lm n -> (
            match target_of_expr arg0 with
            | Some t -> record t e.pexp_loc
            | None -> ())
        | _ -> ())
    | Pexp_setfield (lhs, _, _) -> (
        match target_of_expr lhs with
        | Some t -> record t e.pexp_loc
        | None -> ())
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter e;
  List.rev !muts

(* Entry-point applications inside [e], each with the idents its
   arguments mention. *)
let collect_entries ~modname ~file_module (e : Parsetree.expression) =
  let entries = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match (Ident.last_module txt, Ident.name txt) with
        | (Some lm as lmo), Some n when entry_point lmo n ->
            entries :=
              {
                e_label = lm ^ "." ^ n;
                e_module = modname;
                e_file_module = file_module;
                e_targets =
                  List.concat_map (fun (_, a) -> collect_refs a) args;
              }
              :: !entries
        | _ -> ())
    | _ -> ());
    super.expr iter e
  in
  let iter = { super with expr } in
  iter.expr iter e;
  List.rev !entries

(* --- structure walk ------------------------------------------------------- *)

(* Field labels declared [mutable] anywhere in the file: a top-level
   record literal using one is itself module-level mutable state. *)
let mutable_field_labels (str : Parsetree.structure) =
  let labels = ref [] in
  let super = Ast_iterator.default_iterator in
  let type_declaration iter (td : Parsetree.type_declaration) =
    (match td.ptype_kind with
    | Ptype_record fields ->
        List.iter
          (fun (f : Parsetree.label_declaration) ->
            match f.pld_mutable with
            | Mutable -> labels := f.pld_name.txt :: !labels
            | Immutable -> ())
          fields
    | _ -> ());
    super.type_declaration iter td
  in
  let iter = { super with type_declaration } in
  iter.structure iter str;
  !labels

let classify_mutable ~mutable_labels (e : Parsetree.expression) =
  let e = peel e in
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      let lm = Ident.last_module txt and n = Ident.name txt in
      match n with
      | Some n when guarded_maker lm n -> None
      | Some n -> mutable_maker lm n
      | None -> None)
  | Pexp_array [] -> None (* a zero-length array is immutable in practice *)
  | Pexp_array _ -> Some "array literal"
  | Pexp_record (fields, _)
    when List.exists
           (fun (({ txt; _ } : Longident.t Location.loc), _) ->
             match Ident.name txt with
             | Some n -> List.mem n mutable_labels
             | None -> false)
           fields ->
      Some "mutable-field record"
  | _ -> None

let of_structure ~file ~in_lib (str : Parsetree.structure) =
  let file_module = Ident.module_of_path file in
  let mutable_labels = mutable_field_labels str in
  let mutables = ref [] in
  let nodes = ref [] in
  let entries = ref [] in
  let anon = ref 0 in
  let rec walk modname (items : Parsetree.structure) =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                let name =
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt; _ } -> txt
                  | _ ->
                      incr anon;
                      Printf.sprintf "(toplevel-%d)" !anon
                in
                (match classify_mutable ~mutable_labels vb.pvb_expr with
                | Some kind ->
                    let p = vb.pvb_loc.Location.loc_start in
                    mutables :=
                      {
                        m_module = modname;
                        m_name = name;
                        m_file = file;
                        m_line = p.Lexing.pos_lnum;
                        m_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
                        m_kind = kind;
                        m_in_lib = in_lib;
                      }
                      :: !mutables
                | None -> ());
                let refs = collect_refs vb.pvb_expr in
                nodes :=
                  {
                    n_module = modname;
                    n_name = name;
                    n_file = file;
                    n_file_module = file_module;
                    n_refs = refs;
                    n_mutations = collect_mutations vb.pvb_expr;
                  }
                  :: !nodes;
                let es = collect_entries ~modname ~file_module vb.pvb_expr in
                (* A binding that hands work to the pool is itself a
                   worker root: the closure typically captures locals
                   defined earlier in the same body, which the call's
                   argument subtree alone cannot see.  Conservatively
                   seed reachability with everything the binding
                   mentions. *)
                let es =
                  match es with
                  | [] -> es
                  | { e_label; _ } :: _ ->
                      {
                        e_label;
                        e_module = modname;
                        e_file_module = file_module;
                        e_targets = refs;
                      }
                      :: es
                in
                entries := List.rev_append es !entries)
              vbs
        | Pstr_eval (e, _) ->
            let es = collect_entries ~modname ~file_module e in
            let es =
              match es with
              | [] -> es
              | { e_label; _ } :: _ ->
                  {
                    e_label;
                    e_module = modname;
                    e_file_module = file_module;
                    e_targets = collect_refs e;
                  }
                  :: es
            in
            entries := List.rev_append es !entries
        | Pstr_module
            { pmb_name = { txt = Some sub; _ };
              pmb_expr = { pmod_desc = Pmod_structure sub_items; _ };
              _ } ->
            walk sub sub_items
        | _ -> ())
      items
  in
  walk file_module str;
  {
    i_file = file;
    i_module = file_module;
    i_in_lib = in_lib;
    i_mutables = List.rev !mutables;
    i_nodes = List.rev !nodes;
    i_entries = List.rev !entries;
  }
