module Descriptive = Tdat_stats.Descriptive
module Knee = Tdat_stats.Knee

(* Study instruments (DESIGN.md, "Observability"): all stable — counts
   of scanned files and detected transfers are pure functions of the
   archive set, whatever [jobs] is. *)
module Obs = Tdat_obs.Metrics

let m_files = Obs.Counter.make "study.files"
let m_transfers = Obs.Counter.make "study.transfers"
let m_anchored = Obs.Counter.make "study.transfers_anchored"

type peer_summary = {
  peer_as : int;
  peer_ip : int32;
  transfers : int;
  anchored : int;
  slow : int;
  prefixes_total : int;
  duration : Descriptive.summary;
}

type report = {
  files : Archive.file_report list;
  transfers : Transfer.t list;
  slow_threshold_s : float;
  threshold_auto : bool;
  slow : Transfer.t list;
  duration_knee_s : float option;
  peers : peer_summary list;
}

let is_slow ~threshold t = Transfer.duration_s t > threshold

let peer_summaries ~threshold transfers =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (t : Transfer.t) ->
      let key = (t.Transfer.peer_as, t.Transfer.peer_ip) in
      let prev = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key (t :: prev))
    transfers;
  Hashtbl.fold
    (fun (peer_as, peer_ip) ts acc ->
      let ts = List.rev ts in
      {
        peer_as;
        peer_ip;
        transfers = List.length ts;
        anchored = List.length (List.filter (fun t -> t.Transfer.anchored) ts);
        slow = List.length (List.filter (is_slow ~threshold) ts);
        prefixes_total =
          List.fold_left (fun n t -> n + t.Transfer.prefixes) 0 ts;
        duration = Descriptive.summarize (List.map Transfer.duration_s ts);
      }
      :: acc)
    tbl []
  |> List.sort (fun a b ->
         let c = Int.compare a.peer_as b.peer_as in
         if c <> 0 then c else Int32.compare a.peer_ip b.peer_ip)

let check_seconds ~positive s =
  if positive then
    (* Counted in whole microseconds ([Time_us.of_s]): at least one, and
       within the int range ([max_int] microseconds is about 4.6e12 s;
       past it the count wraps negative and every update splits). *)
    if s >= 1e-6 && s <= 4e12 then Ok s
    else Error "must be a number of seconds from 1e-06 to 4e12"
  else if Float.is_nan s || s < 0. then
    Error "must be a number of seconds at least 0"
  else Ok s

let of_reports ?slow_threshold_s files =
  let transfers =
    List.concat_map (fun r -> r.Archive.transfers) files
    |> List.sort Transfer.compare
  in
  let durations = List.map Transfer.duration_s transfers in
  let threshold_auto = Option.is_none slow_threshold_s in
  let slow_threshold_s =
    match slow_threshold_s with
    | Some t -> t
    | None -> (
        match durations with
        | [] -> Float.nan
        | _ -> Descriptive.slow_threshold durations)
  in
  let slow =
    if Float.is_nan slow_threshold_s then []
    else List.filter (is_slow ~threshold:slow_threshold_s) transfers
  in
  {
    files;
    transfers;
    slow_threshold_s;
    threshold_auto;
    slow;
    duration_knee_s = Knee.knee_of_sorted durations;
    peers = peer_summaries ~threshold:slow_threshold_s transfers;
  }

let run ?(jobs = 1) ?strict ?config ?slow_threshold_s paths =
  let jobs = if jobs < 1 then 1 else jobs in
  let scan path =
    Tdat_obs.Span.with_ ~name:"study-scan" (fun () ->
        let r = Archive.scan_file ?strict ?config path in
        Obs.Counter.incr m_files;
        Obs.Counter.add m_transfers (List.length r.Archive.transfers);
        Obs.Counter.add m_anchored
          (List.length
             (List.filter (fun t -> t.Transfer.anchored) r.Archive.transfers));
        r)
  in
  let files =
    Tdat_parallel.Pool.with_pool ~jobs (fun pool ->
        Tdat_parallel.Pool.map pool scan paths)
  in
  of_reports ?slow_threshold_s files
