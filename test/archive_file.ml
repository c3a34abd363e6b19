(* Archives held as bytes, read back through the file entry points: the
   MRT reader frames only files, so a test that builds or damages an
   archive in memory writes it to a temporary file first. *)

module Mrt = Tdat_bgp.Mrt

let with_file data k =
  let path = Filename.temp_file "tdat_archive" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      k path)

(* The bytes [Mrt.to_file_entries] writes for [entries]. *)
let encode entries =
  let path = Filename.temp_file "tdat_archive" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mrt.to_file_entries path entries;
      In_channel.with_open_bin path In_channel.input_all)

let read ?strict data = with_file data (Mrt.read_file ?strict)

let fold ?strict ?on_diag data ~init f =
  with_file data (fun path -> Mrt.fold_file ?strict ?on_diag path ~init f)

let fold_summary ?strict ?on_diag data ~init f =
  with_file data (fun path ->
      Mrt.fold_summary_file ?strict ?on_diag path ~init f)
