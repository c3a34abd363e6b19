type level = Error | Warn | Info | Debug

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" -> Ok (Some Error)
  | "warn" | "warning" -> Ok (Some Warn)
  | "info" -> Ok (Some Info)
  | "debug" -> Ok (Some Debug)
  | "quiet" | "off" | "none" -> Ok None
  | other ->
      Result.Error
        (Printf.sprintf
           "unknown log level %S (expected quiet, error, warn, info or debug)"
           other)

let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

(* -1 = silent.  An atomic int so [would_log] is one load + compare from
   any domain. *)
let current = Atomic.make (rank Warn)

let set_level = function
  | None -> Atomic.set current (-1)
  | Some l -> Atomic.set current (rank l)

let current_level () =
  match Atomic.get current with
  | 0 -> Some Error
  | 1 -> Some Warn
  | 2 -> Some Info
  | 3 -> Some Debug
  | _ -> None

let would_log l = rank l <= Atomic.get current

type dest = [ `Stderr | `File of string | `Buffer of Buffer.t | `Null ]

type sink =
  | To_channel of out_channel  (* not owned: stderr *)
  | To_file of out_channel     (* owned: closed on [close] *)
  | To_buffer of Buffer.t
  | To_null

(* Worker-reachable by design: pool workers log.  Every read and write
   of [sink] happens under [mutex] below, which is what the L007
   allowlist asserts. *)
let sink = ref (To_channel Stdlib.stderr) [@@tdat.lint.allow "L007"]

(* One mutex serializes emission from concurrent domains (pool workers
   log too); it also guards [sink] swaps. *)
let mutex = Mutex.create ()

let close_current_file () =
  match !sink with
  | To_file oc ->
      close_out_noerr oc;
      sink := To_channel Stdlib.stderr
  | To_channel _ | To_buffer _ | To_null -> ()

let set_destination (d : dest) =
  Mutex.lock mutex;
  close_current_file ();
  (sink :=
     match d with
     | `Stderr -> To_channel Stdlib.stderr
     | `Null -> To_null
     | `Buffer b -> To_buffer b
     | `File path ->
         To_file (open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path));
  Mutex.unlock mutex

let close () =
  Mutex.lock mutex;
  close_current_file ();
  Mutex.unlock mutex

(* key=value with the value quoted only when it would not survive
   whitespace splitting. *)
let append_kv buf (k, v) =
  Buffer.add_char buf ' ';
  Buffer.add_string buf k;
  Buffer.add_char buf '=';
  let needs_quote =
    v = "" || String.exists (fun c -> c = ' ' || c = '"' || c = '\n') v
  in
  if needs_quote then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf v

let emit level kv msg =
  let buf = Buffer.create (64 + String.length msg) in
  Buffer.add_string buf "tdat: [";
  Buffer.add_string buf (level_name level);
  Buffer.add_string buf "] ";
  Buffer.add_string buf msg;
  List.iter (append_kv buf) kv;
  Buffer.add_char buf '\n';
  let line = Buffer.contents buf in
  Mutex.lock mutex;
  (match !sink with
  | To_channel oc | To_file oc ->
      output_string oc line;
      flush oc
  | To_buffer b -> Buffer.add_string b line
  | To_null -> ());
  Mutex.unlock mutex

type ('a, 'b) msgf =
  (?kv:(string * string) list ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a) ->
  'b

let kmsg level msgf =
  if would_log level then
    msgf (fun ?(kv = []) fmt ->
        Format.kasprintf (fun msg -> emit level kv msg) fmt)

let err msgf = kmsg Error msgf
let warn msgf = kmsg Warn msgf
let info msgf = kmsg Info msgf
let debug msgf = kmsg Debug msgf

module Private = struct
  let current_level = current_level
  let set_destination = set_destination
  let err = err
  let warn = warn
  let debug = debug
end
