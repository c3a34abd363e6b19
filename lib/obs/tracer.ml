type ph = B | E | X

type event = {
  name : string;
  ph : ph;
  ts : float;
  dur : float;  (* X events only; 0. for B/E *)
  tid : int;
  trace : string option;
}

let on = Atomic.make false
let set_enabled v = Atomic.set on v
let enabled () = Atomic.get on

(* Every domain records into its own buffer (a reversed event list
   reached through a DLS key), so emission is contention-free; the
   buffers register themselves in [buffers] on first use and survive
   their domain's termination. *)
(* Worker-reachable by design: this is the per-domain buffer registry.
   Registration (the only mutation) happens under [bmutex]; recording
   itself goes to the domain-local ref, never through this list.  The
   L007 allowlist asserts exactly that discipline. *)
let buffers : event list ref list ref =
  ref [] [@@tdat.lint.allow "L007"]

let bmutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r = ref [] in
      Mutex.lock bmutex;
      buffers := r :: !buffers;
      Mutex.unlock bmutex;
      r)

(* The current request's trace id, domain-local so a pool worker
   executing a traced job stamps every span it emits — this is what
   connects queue-wait, decode, analyze and render into one tree per
   request. *)
let ctx_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_context () = !(Domain.DLS.get ctx_key)

let with_context trace f =
  let r = Domain.DLS.get ctx_key in
  let saved = !r in
  r := trace;
  Fun.protect ~finally:(fun () -> r := saved) f

let push e =
  let buf = Domain.DLS.get key in
  buf := e :: !buf

let emit ph name =
  push
    {
      name;
      ph;
      ts = Clock.now_us ();
      dur = 0.;
      tid = (Domain.self () :> int);
      trace = current_context ();
    }

let begin_span name = if Atomic.get on then emit B name
let end_span name = if Atomic.get on then emit E name

(* Retroactive spans (queue wait, measured only once the job starts)
   emit as Chrome "X" complete events: a begin timestamp in the past
   would break the B/E nesting of events already recorded on this
   domain, while an X event carries its own duration and nests
   freely. *)
let complete_span ~name ~begin_us ~dur_us =
  if Atomic.get on then
    push
      {
        name;
        ph = X;
        ts = begin_us;
        dur = (if dur_us < 0. then 0. else dur_us);
        tid = (Domain.self () :> int);
        trace = current_context ();
      }

let clear () =
  Mutex.lock bmutex;
  List.iter (fun r -> r := []) !buffers;
  Mutex.unlock bmutex

let events () =
  Mutex.lock bmutex;
  let all = List.concat_map (fun r -> List.rev !r) !buffers in
  Mutex.unlock bmutex;
  (* Stable: same-timestamp events of one domain keep emission order. *)
  List.stable_sort (fun a b -> Float.compare a.ts b.ts) all

let balanced () =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun e ->
      let stack = Option.value (Hashtbl.find_opt stacks e.tid) ~default:[] in
      match e.ph with
      | B -> Hashtbl.replace stacks e.tid (e.name :: stack)
      | E -> (
          match stack with
          | top :: rest when String.equal top e.name ->
              Hashtbl.replace stacks e.tid rest
          | _ -> ok := false)
      | X -> ())
    (events ());
  Hashtbl.iter (fun _ stack -> if stack <> [] then ok := false) stacks;
  !ok

module Json = Tdat_json.Json

let event_json e =
  let ph = match e.ph with B -> "B" | E -> "E" | X -> "X" in
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str "tdat");
       ("ph", Json.Str ph);
       ("ts", Json.Num e.ts);
     ]
    @ (match e.ph with X -> [ ("dur", Json.Num e.dur) ] | B | E -> [])
    @ (match e.trace with
      | Some t -> [ ("args", Json.Obj [ ("trace", Json.Str t) ]) ]
      | None -> [])
    @ [ ("pid", Json.int 0); ("tid", Json.int e.tid) ])

(* Written event by event through the codec's writer: a long trace
   never exists as one document tree, only as one small tree per
   event. *)
let to_json () =
  let evs = events () in
  let buf = Buffer.create (256 + (96 * List.length evs)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n';
      Json.add buf (event_json e))
    evs;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json ()))

module Private = struct
  let current_context = current_context
  let to_json = to_json
end
