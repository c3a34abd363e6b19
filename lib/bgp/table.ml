type route = { prefix : Prefix.t; attrs : Attr.t list }
type t = route list

(* Prefix-length mixture loosely matching the global table circa 2010:
   /24 dominates (~55%), then /16..../23, a few shorter. *)
let prefix_length_dist =
  [
    (2.0, 8);
    (1.0, 12);
    (3.0, 14);
    (8.0, 16);
    (4.0, 18);
    (6.0, 19);
    (8.0, 20);
    (7.0, 21);
    (9.0, 22);
    (7.0, 23);
    (55.0, 24);
  ]

let path_length_dist =
  [ (5.0, 2); (20.0, 3); (35.0, 4); (25.0, 5); (10.0, 6); (5.0, 7) ]

let gen_prefix rng seen =
  let module R = Tdat_rng.Rng in
  let rec fresh () =
    let len = R.weighted rng prefix_length_dist in
    (* Draw in 1.0.0.0 .. 223.255.255.255 to stay in unicast space. *)
    let a = R.int_in rng 1 223 in
    let b = R.int rng 256 in
    let c = R.int rng 256 in
    let d = R.int rng 256 in
    let p = Prefix.of_quad a b c d len in
    if Hashtbl.mem seen p then fresh ()
    else begin
      Hashtbl.add seen p ();
      p
    end
  in
  fresh ()

let gen_attrs rng ~as_pool ~next_hop =
  let module R = Tdat_rng.Rng in
  let hops = R.weighted rng path_length_dist in
  let path = List.init hops (fun _ -> 1 + R.int rng as_pool) in
  [
    Attr.Origin Attr.Igp;
    Attr.As_path (As_path.of_asns path);
    Attr.Next_hop next_hop;
  ]

let generate ~rng ~n_prefixes ?(as_pool = 2000) ?path_pool ?next_hop () =
  let module R = Tdat_rng.Rng in
  let next_hop =
    match next_hop with
    | Some ip -> ip
    | None -> (Tdat_pkt.Endpoint.of_quad 10 0 0 1 0).Tdat_pkt.Endpoint.ip
  in
  (* Real tables share AS paths heavily (one origin AS announces many
     prefixes): draw attribute sets from a bounded pool so UPDATE packing
     batches prefixes as routers do. *)
  let pool_size =
    match path_pool with
    | Some n -> max 1 n
    | None -> max 1 (n_prefixes / 6)
  in
  let pool =
    Array.init pool_size (fun _ -> gen_attrs rng ~as_pool ~next_hop)
  in
  let seen = Hashtbl.create (2 * n_prefixes) in
  List.init n_prefixes (fun _ ->
      { prefix = gen_prefix rng seen; attrs = R.choose rng pool })

