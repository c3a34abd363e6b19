let attr_name = "tdat.lint.allow"

type codes = All | Codes of string list

type t = {
  file : string;
  codes : codes;
  line_start : int;
  line_end : int;
  at_line : int;  (** Where the attribute itself sits (unused reporting). *)
  at_col : int;
  mutable used : bool;
}

let covers s ~code ~file ~line =
  String.equal s.file file
  && line >= s.line_start
  && line <= s.line_end
  && (match s.codes with
     | All -> true
     | Codes cs -> List.exists (String.equal code) cs)

(* Codes are given as string-literal payload(s): ["L007"], ["L007 L009"],
   ["L007,L009"].  No payload means "allow everything here". *)
let codes_of_payload (p : Parsetree.payload) =
  let split s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun c -> not (String.equal c ""))
  in
  let rec strings_of_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> split s
    | Pexp_tuple es -> List.concat_map strings_of_expr es
    | Pexp_apply (f, args) ->
        strings_of_expr f @ List.concat_map (fun (_, a) -> strings_of_expr a) args
    | _ -> []
  in
  match p with
  | PStr items ->
      let cs =
        List.concat_map
          (fun (it : Parsetree.structure_item) ->
            match it.pstr_desc with
            | Pstr_eval (e, _) -> strings_of_expr e
            | _ -> [])
          items
      in
      if cs = [] then All else Codes cs
  | _ -> All

let of_attribute ~file ~line_start ~line_end (a : Parsetree.attribute) =
  if String.equal a.attr_name.txt attr_name then
    let p = a.attr_loc.Location.loc_start in
    Some
      {
        file;
        codes = codes_of_payload a.attr_payload;
        line_start;
        line_end;
        at_line = p.Lexing.pos_lnum;
        at_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        used = false;
      }
  else None

let range (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_lnum, loc.Location.loc_end.Lexing.pos_lnum)

let collector ~file =
  let acc = ref [] in
  let add ~line_start ~line_end attrs =
    List.iter
      (fun a ->
        match of_attribute ~file ~line_start ~line_end a with
        | Some s -> acc := s :: !acc
        | None -> ())
      attrs
  in
  (acc, add)

let collect ~file (str : Parsetree.structure) =
  let acc, add = collector ~file in
  let super = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    let line_start, line_end = range e.pexp_loc in
    add ~line_start ~line_end e.pexp_attributes;
    super.expr iter e
  in
  let structure_item iter (it : Parsetree.structure_item) =
    (match it.pstr_desc with
    | Pstr_attribute a ->
        (* Floating [@@@tdat.lint.allow ...]: whole-file scope. *)
        add ~line_start:0 ~line_end:max_int [ a ]
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let line_start, line_end = range vb.pvb_loc in
            add ~line_start ~line_end vb.pvb_attributes)
          vbs
    | Pstr_module mb ->
        let line_start, line_end = range mb.pmb_loc in
        add ~line_start ~line_end mb.pmb_attributes
    | _ -> ());
    super.structure_item iter it
  in
  let iter = { super with expr; structure_item } in
  iter.structure iter str;
  List.rev !acc

(* An interface's allows sit on [val] items and module declarations
   ([[@@tdat.lint.allow "L012"]]) or float at file scope. *)
let collect_signature ~file (sg : Parsetree.signature) =
  let acc, add = collector ~file in
  let super = Ast_iterator.default_iterator in
  let signature_item iter (it : Parsetree.signature_item) =
    let line_start, line_end = range it.psig_loc in
    (match it.psig_desc with
    | Psig_attribute a -> add ~line_start:0 ~line_end:max_int [ a ]
    | Psig_value vd -> add ~line_start ~line_end vd.pval_attributes
    | Psig_module md -> add ~line_start ~line_end md.pmd_attributes
    | _ -> ());
    super.signature_item iter it
  in
  let iter = { super with signature_item } in
  iter.signature iter sg;
  List.rev !acc

let apply suppressions findings =
  List.filter
    (fun (f : Finding.t) ->
      (* L010 findings are never self-suppressed by the suppression they
         report on. *)
      String.equal f.Finding.code "L010"
      || not
           (List.exists
              (fun s ->
                let hit =
                  covers s ~code:f.Finding.code ~file:f.Finding.file
                    ~line:f.Finding.line
                in
                if hit then s.used <- true;
                hit)
              suppressions))
    findings

let unused_findings ~rule_was_enabled suppressions =
  List.filter_map
    (fun s ->
      if s.used then None
      else
        let relevant =
          match s.codes with
          | All -> true
          | Codes cs -> List.exists rule_was_enabled cs
        in
        if not relevant then None
        else
          let codes_txt =
            match s.codes with
            | All -> "all codes"
            | Codes cs -> String.concat ", " cs
          in
          Some
            (Finding.v ~file:s.file ~line:s.at_line ~col:s.at_col ~code:"L010"
               ~severity:(Registry.severity_of "L010")
               (Printf.sprintf
                  "unused lint suppression (%s): no finding matched; delete \
                   the [@%s ...] attribute"
                  codes_txt attr_name)))
    suppressions
