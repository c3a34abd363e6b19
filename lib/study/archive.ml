module Mrt = Tdat_bgp.Mrt

type file_report = {
  path : string;
  transfers : Transfer.t list;
  diags : Mrt.Diag.t list;
  stats : Mrt.stats;
}

let scan_file ?(strict = false) ?config path =
  let detector = Detect.create ?config ~source:path () in
  let diags = ref [] in
  let (), stats =
    Mrt.fold_summary_file ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      path ~init:()
      (fun () ~ts ~peer_as ~peer_ip ~kind ~nlri ->
        Detect.observe detector ~ts ~peer_as ~peer_ip ~kind ~nlri)
  in
  {
    path;
    transfers = Detect.finish detector;
    diags = List.rev !diags;
    stats;
  }

let scan_entries ?config ?(source = "") entries =
  let transfers = Detect.over_entries ?config ~source entries in
  let count f = List.length (List.filter f entries) in
  {
    path = source;
    transfers;
    diags = [];
    stats =
      {
        Mrt.records = List.length entries;
        bgp_messages = count (function Mrt.Message _ -> true | Mrt.State _ -> false);
        state_changes = count (function Mrt.State _ -> true | Mrt.Message _ -> false);
        skipped = 0;
      };
  }
