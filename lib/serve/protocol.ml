(* The serve wire protocol: one JSON object per line, both directions
   (DESIGN.md, "Service architecture").

   Requests name a verb in ["cmd"] and carry an optional ["id"] the
   response echoes verbatim, so clients may pipeline.  Responses are
   [{"id":.., "ok":true, "cmd":.., "result":{..}}] or
   [{"id":.., "ok":false, "error":{"code":.., "status":.., "message":..}}]
   with HTTP-flavoured status numbers: 400 malformed, 404 unreadable
   path, 429 admission queue full, 503 draining, 500 internal. *)

module Json = Tdat_json.Json

type error = { code : string; status : int; message : string }

let err_bad_json message = { code = "bad_json"; status = 400; message }
let err_bad_request message = { code = "bad_request"; status = 400; message }
let err_not_found message = { code = "not_found"; status = 404; message }

let err_busy =
  {
    code = "busy";
    status = 429;
    message = "admission queue full; retry later";
  }

let err_draining =
  { code = "draining"; status = 503; message = "server is draining" }

let err_internal message = { code = "internal"; status = 500; message }

type follow = { idle_s : float; limit_s : float }

type request =
  | Ping
  | Stats
  | Metrics of { stable_only : bool }
  | Shutdown
  | Sleep of { ms : float }
  | Analyze of {
      path : string;
      series : bool;
      sender_side : bool;
      follow : follow option;
    }
  | Check of { path : string }
  | Study of {
      paths : string list;
      gap_s : float;
      min_prefixes : int;
      slow_threshold_s : float option;
      follow : follow option;
    }

let cmd_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics _ -> "metrics"
  | Shutdown -> "shutdown"
  | Sleep _ -> "sleep"
  | Analyze _ -> "analyze"
  | Check _ -> "check"
  | Study _ -> "study"

type parsed = {
  id : Json.t;
  trace : string option;  (* client-supplied trace id, job verbs only *)
  timings : bool;  (* echo the stage breakdown in the response *)
  request : (request, error) result;
}

(* --- request parsing --------------------------------------------------- *)

let field_string json name =
  match Json.member name json with
  | Some v -> (
      match Json.to_string_opt v with
      | Some s -> Ok (Some s)
      | None -> Error (err_bad_request (name ^ " must be a string")))
  | None -> Ok None

let field_float json name =
  match Json.member name json with
  | Some Json.Null | None -> Ok None
  | Some v -> (
      match Json.to_float_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (err_bad_request (name ^ " must be a number")))

let field_int json name =
  match Json.member name json with
  | Some Json.Null | None -> Ok None
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Ok (Some i)
      | None -> Error (err_bad_request (name ^ " must be an integer")))

let field_bool json name =
  match Json.member name json with
  | Some v -> (
      match Json.to_bool_opt v with
      | Some b -> Ok (Some b)
      | None -> Error (err_bad_request (name ^ " must be a boolean")))
  | None -> Ok None

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* A number of seconds that must pass the study's own option check. *)
let field_seconds json name ~positive =
  let* v = field_float json name in
  match v with
  | None -> Ok None
  | Some s -> (
      match Tdat_study.Aggregate.check_seconds ~positive s with
      | Ok s -> Ok (Some s)
      | Error why -> Error (err_bad_request (name ^ " " ^ why)))

let required name = function
  | Some v -> Ok v
  | None -> Error (err_bad_request ("missing required field " ^ name))

(* Tailing options shared by analyze/study: [follow_idle_s] opts in,
   [follow_limit_s] bounds the whole wait (default 60 s — a daemon
   must not hold a worker forever on a file that stopped growing). *)
let parse_follow json =
  let* idle = field_float json "follow_idle_s" in
  match idle with
  | None -> Ok None
  | Some idle_s when idle_s > 0. ->
      let* limit = field_float json "follow_limit_s" in
      let limit_s = Option.value limit ~default:60. in
      if limit_s > 0. then Ok (Some { idle_s; limit_s })
      else Error (err_bad_request "follow_limit_s must be positive")
  | Some _ -> Error (err_bad_request "follow_idle_s must be positive")

let parse_request json =
  let* cmd = field_string json "cmd" in
  let* cmd = required "cmd" cmd in
  match cmd with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "metrics" ->
      let* stable_only = field_bool json "stable_only" in
      Ok (Metrics { stable_only = Option.value stable_only ~default:false })
  | "shutdown" -> Ok Shutdown
  | "sleep" ->
      let* ms = field_float json "ms" in
      let ms = Option.value ms ~default:0. in
      if ms < 0. || ms > 60_000. then
        Error (err_bad_request "ms must be in [0, 60000]")
      else Ok (Sleep { ms })
  | "analyze" ->
      let* path = field_string json "path" in
      let* path = required "path" path in
      let* series = field_bool json "series" in
      let* sender_side = field_bool json "sender_side" in
      let* follow = parse_follow json in
      Ok
        (Analyze
           {
             path;
             series = Option.value series ~default:false;
             sender_side = Option.value sender_side ~default:false;
             follow;
           })
  | "check" ->
      let* path = field_string json "path" in
      let* path = required "path" path in
      Ok (Check { path })
  | "study" ->
      let* paths =
        match Json.member "paths" json with
        | None -> Error (err_bad_request "missing required field paths")
        | Some v -> (
            match Json.to_list_opt v with
            | None -> Error (err_bad_request "paths must be an array")
            | Some xs ->
                let rec strings acc = function
                  | [] -> Ok (List.rev acc)
                  | x :: rest -> (
                      match Json.to_string_opt x with
                      | Some s -> strings (s :: acc) rest
                      | None ->
                          Error
                            (err_bad_request "paths must be an array of strings"))
                in
                strings [] xs)
      in
      if paths = [] then Error (err_bad_request "paths must be non-empty")
      else
        let* gap_s = field_seconds json "gap_s" ~positive:true in
        let* min_prefixes = field_int json "min_prefixes" in
        let* slow_threshold_s =
          field_seconds json "slow_threshold_s" ~positive:false
        in
        let* follow = parse_follow json in
        if follow <> None && List.length paths > 1 then
          Error (err_bad_request "follow_idle_s requires a single path")
        else
          Ok
            (Study
               {
                 paths;
                 gap_s = Option.value gap_s ~default:200.;
                 min_prefixes = Option.value min_prefixes ~default:32;
                 slow_threshold_s;
                 follow;
               })
  | other -> Error (err_bad_request ("unknown cmd " ^ other))

(* The tracing envelope shared by every verb: an optional
   client-supplied ["trace"] id (bounded so it stays printable in
   dashboards) and a ["timings"] opt-in echoing the stage breakdown in
   the response. *)
let parse_envelope json =
  let* trace = field_string json "trace" in
  let* trace =
    match trace with
    | None -> Ok None
    | Some "" -> Error (err_bad_request "trace must be non-empty")
    | Some t when String.length t > 128 ->
        Error (err_bad_request "trace must be at most 128 bytes")
    | Some _ as t -> Ok t
  in
  let* timings = field_bool json "timings" in
  Ok (trace, Option.value timings ~default:false)

let parse_line line =
  match Json.parse line with
  | Error msg ->
      { id = Json.Null; trace = None; timings = false;
        request = Error (err_bad_json msg) }
  | Ok json -> (
      let id = Option.value (Json.member "id" json) ~default:Json.Null in
      match json with
      | Json.Obj _ -> (
          match parse_envelope json with
          | Error e -> { id; trace = None; timings = false; request = Error e }
          | Ok (trace, timings) ->
              { id; trace; timings; request = parse_request json })
      | _ ->
          { id; trace = None; timings = false;
            request = Error (err_bad_request "request must be a JSON object") })

(* --- response rendering ------------------------------------------------ *)

let response_ok ~id ~cmd ?trace result =
  let trace_field =
    match trace with Some tr -> [ ("trace", Json.Str tr) ] | None -> []
  in
  Json.to_string
    (Json.Obj
       ([ ("id", id); ("ok", Json.Bool true); ("cmd", Json.Str cmd) ]
       @ trace_field
       @ [ ("result", result) ]))

let response_error ~id err =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("ok", Json.Bool false);
         ( "error",
           Json.Obj
             [
               ("code", Json.Str err.code);
               ("status", Json.int err.status);
               ("message", Json.Str err.message);
             ] );
       ])
