(* L012: an export of a library [.mli] that no scanned file other than
   its own [.ml] names.  Everything is syntactic and keyed by innermost
   module name, like L007's index: a use resolves through the file's
   aliases and opens to every candidate module it could mean, so a
   doubtful reference keeps an export alive rather than flagging it. *)

type export = { x_module : string; x_name : string; x_line : int; x_col : int }

type t = {
  u_file : string;
  u_mli : string;
  u_exports : export list;
  u_uses : (string * string) list;
  u_whole : string list;
}

let last_component = function
  | Longident.Lident m | Longident.Ldot (_, m) -> Some m
  | Longident.Lapply _ -> None

(* --- exports -------------------------------------------------------------- *)

let exports_of_signature ~file_module (sg : Parsetree.signature) =
  let acc = ref [] in
  let rec walk modname (sg : Parsetree.signature) =
    List.iter
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
            let p = item.psig_loc.Location.loc_start in
            acc :=
              {
                x_module = modname;
                x_name = vd.pval_name.txt;
                x_line = p.Lexing.pos_lnum;
                x_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
              }
              :: !acc
        | Psig_module
            { pmd_name = { txt = Some sub; _ };
              pmd_type = { pmty_desc = Pmty_signature items; _ };
              _ }
          when not (String.equal sub "Private") ->
            walk sub items
        | _ -> ())
      sg
  in
  walk file_module sg;
  List.rev !acc

(* --- uses ----------------------------------------------------------------- *)

let uses_of_structure ~file_module (str : Parsetree.structure) =
  let qualified = ref [] and locals = ref [] in
  let opens = ref [] and whole = ref [] and aliases = ref [] in
  let add_mod r (lid : Longident.t) =
    match last_component lid with Some m -> r := m :: !r | None -> ()
  in
  let alias name (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ }
    | Pmod_constraint ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) -> (
        match (name, last_component txt) with
        | Some x, Some m -> aliases := (x, m) :: !aliases
        | _ -> ())
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> locals := n :: !locals
    | Pexp_ident { txt; _ } -> (
        match (Ident.last_module txt, Ident.name txt) with
        | Some m, Some n -> qualified := (m, n) :: !qualified
        | _ -> ())
    | Pexp_open
        ({ popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }, _) ->
        add_mod opens txt
    | Pexp_letmodule ({ txt; _ }, me, _) -> alias txt me
    | Pexp_pack { pmod_desc = Pmod_ident { txt; _ }; _ } -> add_mod whole txt
    | _ -> ());
    super.expr iter e
  in
  let module_expr iter (me : Parsetree.module_expr) =
    (match me.pmod_desc with
    | Pmod_apply (_, { pmod_desc = Pmod_ident { txt; _ }; _ }) ->
        add_mod whole txt
    | _ -> ());
    super.module_expr iter me
  in
  let structure_item iter (it : Parsetree.structure_item) =
    (match it.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
        add_mod opens txt
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
      ->
        add_mod whole txt
    | Pstr_module { pmb_name = { txt; _ }; pmb_expr; _ } -> alias txt pmb_expr
    | _ -> ());
    super.structure_item iter it
  in
  let iter = { super with expr; module_expr; structure_item } in
  iter.structure iter str;
  (* Every name a module key can stand for in this file: itself plus
     what it aliases, transitively. *)
  let rec meanings seen m =
    if List.exists (String.equal m) seen then seen
    else
      List.fold_left
        (fun seen (x, target) ->
          if String.equal x m then meanings seen target else seen)
        (m :: seen) !aliases
  in
  let expand ms =
    List.sort_uniq String.compare (List.concat_map (meanings []) ms)
  in
  let scopes = expand (file_module :: !opens) in
  let qualified =
    List.concat_map
      (fun (m, n) -> List.map (fun m -> (m, n)) (meanings [] m))
      !qualified
  in
  let locals =
    List.concat_map
      (fun n -> List.map (fun m -> (m, n)) scopes)
      (List.sort_uniq String.compare !locals)
  in
  let uses =
    List.sort_uniq
      (fun (a, b) (c, d) ->
        match String.compare a c with 0 -> String.compare b d | k -> k)
      (qualified @ locals)
  in
  (uses, expand !whole)

let of_file ~file ~exports str =
  let file_module = Ident.module_of_path file in
  let u_uses, u_whole = uses_of_structure ~file_module str in
  {
    u_file = file;
    u_mli = file ^ "i";
    u_exports =
      (match exports with
      | Some sg -> exports_of_signature ~file_module sg
      | None -> []);
    u_uses;
    u_whole;
  }

(* --- L012 ----------------------------------------------------------------- *)

let check (summaries : t list) =
  let users : (string * string, string) Hashtbl.t = Hashtbl.create 4096 in
  let whole : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter (fun k -> Hashtbl.add users k u.u_file) u.u_uses;
      List.iter (fun m -> Hashtbl.add whole m u.u_file) u.u_whole)
    summaries;
  let elsewhere own files =
    List.exists (fun f -> not (String.equal f own)) files
  in
  List.concat_map
    (fun u ->
      List.filter_map
        (fun x ->
          if
            elsewhere u.u_file (Hashtbl.find_all users (x.x_module, x.x_name))
            || elsewhere u.u_file (Hashtbl.find_all whole x.x_module)
          then None
          else
            Some
              (Finding.v ~file:u.u_mli ~line:x.x_line ~col:x.x_col ~code:"L012"
                 ~severity:(Registry.severity_of "L012")
                 (Printf.sprintf
                    "%s.%s is exported but no scanned file outside %s uses \
                     it; delete it, drop it from the interface, move it to \
                     test/, or put it under Private"
                    x.x_module x.x_name u.u_file)))
        u.u_exports)
    summaries
