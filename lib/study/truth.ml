module Time_us = Tdat_timerange.Time_us

exception Parse_error of string

type t = {
  source : string;
  peer_as : int;
  peer_ip : int32;
  start_ts : Time_us.t;
  end_ts : Time_us.t;
  prefixes : int;
  messages : int;
}

let to_file path ts =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# source\tpeer_as\tpeer_ip\tstart_us\tend_us\tprefixes\tmessages\n";
      List.iter
        (fun t ->
          Printf.fprintf oc "%s\t%d\t%ld\t%d\t%d\t%d\t%d\n" t.source t.peer_as
            t.peer_ip t.start_ts t.end_ts t.prefixes t.messages)
        ts)

let parse_line line =
  match String.split_on_char '\t' line with
  | [ source; peer_as; peer_ip; start_ts; end_ts; prefixes; messages ] -> (
      match
        ( int_of_string_opt peer_as,
          Int32.of_string_opt peer_ip,
          int_of_string_opt start_ts,
          int_of_string_opt end_ts,
          int_of_string_opt prefixes,
          int_of_string_opt messages )
      with
      | Some peer_as, Some peer_ip, Some start_ts, Some end_ts, Some prefixes,
        Some messages ->
          { source; peer_as; peer_ip; start_ts; end_ts; prefixes; messages }
      | _ -> raise (Parse_error ("Truth.of_file: bad field in: " ^ line)))
  | _ -> raise (Parse_error ("Truth.of_file: bad line: " ^ line))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            let acc =
              if String.equal line "" || (String.length line > 0 && line.[0] = '#')
              then acc
              else parse_line line :: acc
            in
            go acc
        | exception End_of_file -> List.rev acc
      in
      go [])

let matches ?(tol = 0) t (d : Transfer.t) =
  Int.equal t.peer_as d.Transfer.peer_as
  && Int32.equal t.peer_ip d.Transfer.peer_ip
  && abs Time_us.(t.start_ts - d.Transfer.start_ts) <= tol
  && abs Time_us.(t.end_ts - d.Transfer.end_ts) <= tol

let recall ?tol ~truth detected =
  match truth with
  | [] -> 1.
  | _ ->
      let hit t = List.exists (fun d -> matches ?tol t d) detected in
      let hits = List.length (List.filter hit truth) in
      float_of_int hits /. float_of_int (List.length truth)

module Private = struct
  let matches = matches
end
