module Mrt = Tdat_bgp.Mrt

type file_report = {
  path : string;
  transfers : Transfer.t list;
  diags : Mrt.Diag.t list;
  stats : Mrt.stats;
}

let scan_file ?(strict = false) ?follow ?config path =
  let detector = Detect.create ?config ~source:path () in
  let diags = ref [] in
  let (), stats =
    Mrt.fold_summary_file ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      ?follow path ~init:()
      (fun () ~ts ~peer_as ~peer_ip ~kind ~nlri ->
        Detect.observe detector ~ts ~peer_as ~peer_ip ~kind ~nlri)
  in
  {
    path;
    transfers = Detect.finish detector;
    diags = List.rev !diags;
    stats;
  }
