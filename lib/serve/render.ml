(* The one place the human-readable analysis text is assembled.  Both
   `tdat analyze` (stdout) and a serve analyze response (the "output"
   member) call this, so the daemon's answer is byte-identical to the
   batch CLI's by construction — the acceptance bar for PR 8. *)

module Json = Tdat_json.Json

(* --- the `tdat top` dashboard ------------------------------------------- *)

(* One frame of the live dashboard, rendered from a `stats` result.
   Everything is defensive (missing members render as zero): `tdat
   top` must degrade gracefully against an older or newer daemon
   rather than crash the operator's terminal. *)

let mem_float json name =
  match Json.member name json with
  | Some v -> Option.value (Json.to_float_opt v) ~default:0.
  | None -> 0.

let mem_int json name = int_of_float (mem_float json name)

let mem_bool json name =
  match Json.member name json with
  | Some v -> Option.value (Json.to_bool_opt v) ~default:false
  | None -> false

let mem_str json name =
  match Json.member name json with
  | Some v -> Option.value (Json.to_string_opt v) ~default:""
  | None -> ""

let hit_pct cache =
  let hits = mem_float cache "hits" and misses = mem_float cache "misses" in
  if hits +. misses <= 0. then 0. else 100. *. hits /. (hits +. misses)

let truncate_line s limit =
  if String.length s <= limit then s else String.sub s 0 (limit - 3) ^ "..."

let dashboard ?(address = "") stats =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "tdat serve%s · up %.0fs · jobs %d · draining %s\n"
    (if String.equal address "" then "" else " @ " ^ address)
    (mem_float stats "uptime_s") (mem_int stats "jobs")
    (if mem_bool stats "draining" then "yes" else "no");
  add "requests %d · errors %d · queue %d/%d · in-flight %d · conns %d\n"
    (mem_int stats "requests") (mem_int stats "errors")
    (mem_int stats "queue_depth")
    (mem_int stats "queue_capacity")
    (mem_int stats "in_flight")
    (mem_int stats "connections");
  (match Json.member "cache" stats with
  | Some cache ->
      add "cache %de %.1f%%h · " (mem_int cache "entries") (hit_pct cache)
  | None -> ());
  add "scratch fallbacks %d\n" (mem_int stats "scratch_fallbacks");
  (match Json.member "windows" stats with
  | Some (Json.Obj windows) ->
      let window_s =
        match windows with
        | (_, w) :: _ -> mem_float w "window_s"
        | [] -> 0.
      in
      add "\nendpoint     count     rps    p50_us    p95_us    p99_us   (last %.0fs)\n"
        window_s;
      List.iter
        (fun (endpoint, w) ->
          add "%-10s %7d %7.2f %9.0f %9.0f %9.0f\n" endpoint
            (mem_int w "count") (mem_float w "rps") (mem_float w "p50_us")
            (mem_float w "p95_us") (mem_float w "p99_us"))
        windows
  | Some _ | None -> ());
  (match Json.member "exemplars" stats with
  | Some (Json.Arr (_ :: _ as exemplars)) ->
      Buffer.add_string buf "\nworst requests\n";
      List.iteri
        (fun i e ->
          let queue_wait =
            match Json.member "stages" e with
            | Some stages -> mem_float stages "queue_wait"
            | None -> 0.
          in
          add "%3d. %9.1f ms  %-8s trace=%s  queue_wait %.1f ms\n" (i + 1)
            (mem_float e "duration_us" /. 1e3)
            (mem_str e "endpoint") (mem_str e "trace") (queue_wait /. 1e3);
          let req = mem_str e "request" in
          if not (String.equal req "") then
            add "     %s\n" (truncate_line req 120))
        exemplars
  | Some _ | None -> ());
  Buffer.contents buf

let analysis ?(series = false) results =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (_flow, (a : Tdat.Analyzer.t)) ->
      Buffer.add_string buf (Tdat.Report.to_string a);
      Buffer.add_char buf '\n';
      if series then begin
        Buffer.add_string buf "-- event series --\n";
        Buffer.add_string buf
          (Tdat.Report.series_timeline a.Tdat.Analyzer.series)
      end;
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf
