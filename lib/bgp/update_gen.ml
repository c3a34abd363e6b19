let group_routes (table : Table.t) =
  (* Group by attribute signature, preserving first-appearance order. *)
  let groups : (string, Attr.t list * Prefix.t list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  let visit (r : Table.route) =
    let key = Attr.signature r.attrs in
    match Hashtbl.find_opt groups key with
    | Some (_, prefixes) -> prefixes := r.prefix :: !prefixes
    | None ->
        Hashtbl.add groups key (r.attrs, ref [ r.prefix ]);
        order := key :: !order
  in
  List.iter visit table;
  (* [order] accumulated in reverse; rev_map restores first-appearance
     order in one pass. *)
  List.rev_map
    (fun key ->
      let attrs, prefixes = Hashtbl.find groups key in
      (attrs, List.rev !prefixes))
    !order

let pack table =
  let messages = ref [] in
  let emit_group (attrs, prefixes) =
    (* Fixed overhead: header + withdrawn length + attr length + attrs. *)
    let attr_bytes =
      let buf = Buffer.create 64 in
      List.iter (Attr.encode buf) attrs;
      Buffer.length buf
    in
    let overhead = Msg.header_size + 2 + 2 + attr_bytes in
    let flush nlri =
      if nlri <> [] then
        messages := Msg.update ~attrs ~nlri:(List.rev nlri) () :: !messages
    in
    let rec fill nlri used = function
      | [] -> flush nlri
      | p :: rest ->
          let sz = Prefix.encoded_size p in
          if used + sz > Msg.max_size then begin
            flush nlri;
            fill [ p ] (overhead + sz) rest
          end
          else fill (p :: nlri) (used + sz) rest
    in
    fill [] overhead prefixes
  in
  List.iter emit_group (group_routes table);
  List.rev !messages

