type record = {
  ts : Tdat_timerange.Time_us.t;
  peer_as : int;
  local_as : int;
  peer_ip : int32;
  local_ip : int32;
  msg : Msg.t;
}

type fsm_state = Idle | Connect | Active | Open_sent | Open_confirm | Established

let fsm_state_code = function
  | Idle -> 1
  | Connect -> 2
  | Active -> 3
  | Open_sent -> 4
  | Open_confirm -> 5
  | Established -> 6

let fsm_state_of_code = function
  | 1 -> Some Idle
  | 2 -> Some Connect
  | 3 -> Some Active
  | 4 -> Some Open_sent
  | 5 -> Some Open_confirm
  | 6 -> Some Established
  | _ -> None

let equal_fsm_state a b = Int.equal (fsm_state_code a) (fsm_state_code b)

type state_change = {
  sc_ts : Tdat_timerange.Time_us.t;
  sc_peer_as : int;
  sc_local_as : int;
  sc_peer_ip : int32;
  sc_local_ip : int32;
  old_state : fsm_state;
  new_state : fsm_state;
}

type entry = Message of record | State of state_change

let messages entries =
  List.filter_map (function Message r -> Some r | State _ -> None) entries

module Diag = Tdat_pkt.Pcap.Diag

type stats = {
  records : int;
  bgp_messages : int;
  state_changes : int;
  skipped : int;
}

type result = { entries : entry list; diags : Diag.t list; stats : stats }

let bgp4mp = 16
let bgp4mp_et = 17
let subtype_state_change = 0
let subtype_message = 1

(* A BGP4MP body is a 16- or 20-byte fixed part plus at most one 4 KiB
   BGP message; anything declaring megabytes is corrupted framing. *)
let max_record_len = 1 lsl 24

(* --- encoding ------------------------------------------------------------- *)

let encode_header buf ~ts ~subtype ~body_len =
  Buffer.add_int32_be buf (Int32.of_int (ts / 1_000_000));
  Buffer.add_uint16_be buf bgp4mp_et;
  Buffer.add_uint16_be buf subtype;
  (* ET records count the 4-byte microsecond field in the length. *)
  Buffer.add_int32_be buf (Int32.of_int (body_len + 4));
  Buffer.add_int32_be buf (Int32.of_int (ts mod 1_000_000))

let encode_record buf r =
  let msg_bytes = Msg.encode r.msg in
  (* BGP4MP_MESSAGE body: peer AS, local AS, ifindex, AFI, peer IP,
     local IP, then the raw BGP message. *)
  let body_len = 2 + 2 + 2 + 2 + 4 + 4 + String.length msg_bytes in
  encode_header buf ~ts:r.ts ~subtype:subtype_message ~body_len;
  Buffer.add_uint16_be buf r.peer_as;
  Buffer.add_uint16_be buf r.local_as;
  Buffer.add_uint16_be buf 0;
  Buffer.add_uint16_be buf 1 (* AFI IPv4 *);
  Buffer.add_int32_be buf r.peer_ip;
  Buffer.add_int32_be buf r.local_ip;
  Buffer.add_string buf msg_bytes

let encode_state_change buf s =
  (* BGP4MP_STATE_CHANGE body: peer AS, local AS, ifindex, AFI, peer IP,
     local IP, old state, new state. *)
  let body_len = 2 + 2 + 2 + 2 + 4 + 4 + 2 + 2 in
  encode_header buf ~ts:s.sc_ts ~subtype:subtype_state_change ~body_len;
  Buffer.add_uint16_be buf s.sc_peer_as;
  Buffer.add_uint16_be buf s.sc_local_as;
  Buffer.add_uint16_be buf 0;
  Buffer.add_uint16_be buf 1 (* AFI IPv4 *);
  Buffer.add_int32_be buf s.sc_peer_ip;
  Buffer.add_int32_be buf s.sc_local_ip;
  Buffer.add_uint16_be buf (fsm_state_code s.old_state);
  Buffer.add_uint16_be buf (fsm_state_code s.new_state)

let encode_entry buf = function
  | Message r -> encode_record buf r
  | State s -> encode_state_change buf s

let encode_entries entries =
  let buf = Buffer.create 4096 in
  List.iter (encode_entry buf) entries;
  Buffer.contents buf

(* --- streaming decode ----------------------------------------------------- *)

module Slice = Tdat_pkt.Slice

module Kind = struct
  type t = Open | Update | Notification | Keepalive | Up | Down

  let of_type_code = function
    | 1 -> Open
    | 2 -> Update
    | 3 -> Notification
    | 4 -> Keepalive
    | _ -> invalid_arg "Mrt.Kind.of_type_code: not a BGP message type"

  let of_new_state s = if equal_fsm_state s Established then Up else Down
end

(* What one complete record body came to: an entry, or the reason it
   was skipped.  Constant constructors, so the per-record path
   allocates nothing to report it. *)
type outcome =
  | Message_entry
  | State_entry
  | Short_body  (* M003 *)
  | Bad_message  (* M004 *)
  | Unsupported  (* M005 *)
  | Bad_state  (* M006 *)

(* The diagnostic of a skipped record: cold, outside the hot set, so the
   formatting allocation stays off the per-record path (L009). *)
let skip_diag ~idx ~ty ~subtype outcome =
  let warn code message =
    { Diag.code; severity = Diag.Warning; record = Some idx; message }
  in
  match outcome with
  | Short_body -> warn "M003" "short BGP4MP body"
  | Bad_message -> warn "M004" "bad embedded BGP message"
  | Bad_state -> warn "M006" "bad state-change body"
  | Unsupported ->
      {
        Diag.code = "M005";
        severity = Diag.Info;
        record = Some idx;
        message =
          Printf.sprintf "skipped record (type %d, subtype %d)" ty subtype;
      }
  | Message_entry | State_entry -> invalid_arg "Mrt.skip_diag: not a skip"

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)
let[@inline] u16 buf p = (byte buf p lsl 8) lor byte buf (p + 1)
let[@inline] u32 buf p = (u16 buf p lsl 16) lor u16 buf (p + 2)

(* Parse the BGP4MP fixed part of one complete record body, the bytes
   of [buf] from [b] up to [limit], and hand what follows it to the
   fold's own [message] or [state] step.  The header has already
   framed the record, so every problem here is skippable: salvage
   continues at the next record.  Every read is below [limit], which
   the framing loop has proved to lie inside [buf]; [p] is the offset
   of the peer fields, past an ET record's microsecond field, and the
   embedded BGP message of a [message] record starts at [p + 16]. *)
let parse_body ~message ~state ~sec ~ty ~subtype buf b limit =
  if ty <> bgp4mp && ty <> bgp4mp_et then Unsupported
  else if subtype <> subtype_message && subtype <> subtype_state_change then
    Unsupported
  else begin
    let p = if ty = bgp4mp_et then b + 4 else b in
    let fixed = if subtype = subtype_message then 16 else 20 in
    if p + fixed > limit then Short_body
    else begin
      let usec = if p > b then u32 buf b else 0 in
      let ts = (sec * 1_000_000) + usec in
      if subtype = subtype_message then message ~ts buf p limit
      else
        match
          ( fsm_state_of_code (u16 buf (p + 16)),
            fsm_state_of_code (u16 buf (p + 18)) )
        with
        | Some old_state, Some new_state ->
            state ~ts buf p ~old_state ~new_state
        | _ -> Bad_state
    end
  end

(* Reader throughput instruments (DESIGN.md, "Observability").  The
   counters are stable — derived only from the archive's contents —
   while the records-per-second gauge is wall-clock and volatile. *)

module Obs = Tdat_obs.Metrics

let m_records = Obs.Counter.make "mrt.records"
let m_messages = Obs.Counter.make "mrt.messages"
let m_state_changes = Obs.Counter.make "mrt.state_changes"
let m_skipped = Obs.Counter.make "mrt.skipped"
let m_bytes = Obs.Counter.make "mrt.bytes"
let g_records_per_s = Obs.Gauge.make ~stable:false "mrt.records_per_s"

module Scratch = Tdat_parallel.Scratch
module Ingest_io = Tdat_pkt.Ingest_io

(* The records are framed in [buf], from [pos], the first byte not yet
   framed, up to [avail].  [buf] is a per-domain arena buffer ([cell])
   that later records and archives reuse, filled from the archive's
   descriptor as far as it goes. *)
type input = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable avail : int;
  cell : Scratch.cell;
  read : Ingest_io.read;
}

(* Make [n] bytes available from [t.pos]; [false] at the end of input
   (the reader retries EINTR and, with [~follow], polls a growing
   source).  Cold: about once per chunk.  The bytes not yet framed move
   to the buffer's front first, and a record longer than the buffer
   grows it to fit. *)
let refill t n =
  let have = t.avail - t.pos in
  Bytes.blit t.buf t.pos t.buf 0 have;
  t.pos <- 0;
  t.avail <- have;
  if n > Bytes.length t.buf then t.buf <- Scratch.ensure_keep t.cell n;
  let want = Bytes.length t.buf in
  let eof = ref false in
  while t.avail < n && not !eof do
    let r = t.read t.buf t.avail (want - t.avail) in
    if r = 0 then eof := true else t.avail <- t.avail + r
  done;
  not !eof

(* The one record loop behind every fold: frame each record where it
   lies in [t], emit the M001/M002/M007 framing diagnostics and the skip
   diagnostics, raise in strict mode, and keep the [stats] and the
   [mrt.*] counters.  [message] and [state] are the fold's steps, which
   deliver its entries themselves; a new record type or subtype is one
   more case of [parse_body]. *)
let frame ?(strict = false) ?(on_diag = fun _ -> ()) t ~message ~state =
  let emit d =
    on_diag d;
    if strict then
      match d.Diag.severity with
      | Diag.Error | Diag.Warning ->
          Bgp_error.fail ~context:"Mrt.decode" "%s" d.Diag.message
      | Diag.Info -> ()
  in
  let records = ref 0 in
  let bgp_messages = ref 0 in
  let state_changes = ref 0 in
  let framing code message =
    emit { Diag.code; severity = Diag.Warning; record = Some !records; message }
  in
  let rec go () =
    if t.avail - t.pos < 12 && not (refill t 12) then begin
      if t.avail > t.pos then framing "M001" "truncated header"
    end
    else begin
      let rec_len = u32 t.buf (t.pos + 8) in
      if rec_len > max_record_len then framing "M007" "oversized record"
      else if t.avail - t.pos < 12 + rec_len && not (refill t (12 + rec_len))
      then framing "M002" "truncated record"
      else begin
        (* Read after [refill], which may have moved the record. *)
        let buf = t.buf and h = t.pos in
        let ty = u16 buf (h + 4) and subtype = u16 buf (h + 6) in
        let b = h + 12 in
        t.pos <- b + rec_len;
        let idx = !records in
        incr records;
        Obs.Counter.incr m_records;
        (* +12: the MRT common header travels with the body. *)
        Obs.Counter.add m_bytes (rec_len + 12);
        (match
           parse_body ~message ~state ~sec:(u32 buf h) ~ty ~subtype buf b
             (b + rec_len)
         with
        | Message_entry ->
            incr bgp_messages;
            Obs.Counter.incr m_messages
        | State_entry ->
            incr state_changes;
            Obs.Counter.incr m_state_changes
        | (Short_body | Bad_message | Unsupported | Bad_state) as skip ->
            Obs.Counter.incr m_skipped;
            emit (skip_diag ~idx ~ty ~subtype skip));
        go ()
      end
    end
  in
  let t_read = if Obs.enabled Obs.default then Tdat_obs.Clock.now_s () else 0. in
  Tdat_obs.Span.with_ ~name:"mrt-read" go;
  if Obs.enabled Obs.default then begin
    let dt = Tdat_obs.Clock.now_s () -. t_read in
    if dt > 0. then Obs.Gauge.set g_records_per_s (float_of_int !records /. dt)
  end;
  {
    records = !records;
    bgp_messages = !bgp_messages;
    state_changes = !state_changes;
    skipped = !records - !bgp_messages - !state_changes;
  }

(* The entry fold: each record decoded to an [entry], its embedded
   message through [Msg.decode_slice]. *)
let fold_input ?strict ?on_diag t ~init f =
  let acc = ref init in
  let message ~ts buf p limit =
    match Msg.decode_slice (Slice.of_bytes ~len:limit buf) (p + 16) with
    | Some (msg, _) ->
        acc :=
          f !acc
            (Message
               {
                 ts;
                 peer_as = u16 buf p;
                 local_as = u16 buf (p + 2);
                 peer_ip = Int32.of_int (u32 buf (p + 8));
                 local_ip = Int32.of_int (u32 buf (p + 12));
                 msg;
               });
        Message_entry
    | None -> Bad_message
    | exception Bgp_error.Decode_error _ -> Bad_message
  in
  let state ~ts buf p ~old_state ~new_state =
    acc :=
      f !acc
        (State
           {
             sc_ts = ts;
             sc_peer_as = u16 buf p;
             sc_local_as = u16 buf (p + 2);
             sc_peer_ip = Int32.of_int (u32 buf (p + 8));
             sc_local_ip = Int32.of_int (u32 buf (p + 12));
             old_state;
             new_state;
           });
    State_entry
  in
  let stats = frame ?strict ?on_diag t ~message ~state in
  (!acc, stats)

(* The summary fold: each record reduced to immediates, its embedded
   message checked by the shared validator ([Msg.validate]) instead of
   decoded.  Nothing per record is allocated. *)
let summary_input ?strict ?on_diag t ~init f =
  let acc = ref init in
  let message ~ts buf p limit =
    let v = Msg.validate buf ~pos:(p + 16) ~limit in
    if v < 0 then Bad_message
    else begin
      acc :=
        f !acc ~ts ~peer_as:(u16 buf p) ~peer_ip:(u32 buf (p + 8))
          ~kind:(Kind.of_type_code (v land 7))
          ~nlri:(v lsr 3);
      Message_entry
    end
  in
  let state ~ts buf p ~old_state:_ ~new_state =
    acc :=
      f !acc ~ts ~peer_as:(u16 buf p) ~peer_ip:(u32 buf (p + 8))
        ~kind:(Kind.of_new_state new_state) ~nlri:0;
    State_entry
  in
  let stats = frame ?strict ?on_diag t ~message ~state in
  (!acc, stats)

(* The fold opens the file itself and reads it ahead, in 16 KiB
   chunks: nobody else reads it, and it is closed on return.  It is read
   through the descriptor of an [open_in_bin] channel that stays open
   until the fold returns, though the channel's own buffer is never
   read.  So a file that cannot be opened raises [open_in_bin]'s
   [Sys_error], as the pcap reader does, and the channel's buffer counts
   against the major GC's pace, which a scan that allocates nothing per
   record needs to keep a study's peak memory down (DESIGN.md,
   "Performance & parallelism").  Read errors are re-raised as the
   [Sys_error] [input] would raise. *)
let with_file ?follow path k =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let read = Ingest_io.of_fd ?follow (Unix.descr_of_in_channel ic) in
      let read buf off len =
        try read buf off len
        with Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))
      in
      Scratch.with_bytes ~slot:Scratch.slot_mrt_chunk 16384 @@ fun cell ->
      k { buf = cell.Scratch.buf; pos = 0; avail = 0; cell; read })

let fold_file ?strict ?on_diag ?follow path ~init f =
  with_file ?follow path (fun t -> fold_input ?strict ?on_diag t ~init f)

let fold_summary_file ?strict ?on_diag ?follow path ~init f =
  with_file ?follow path (fun t -> summary_input ?strict ?on_diag t ~init f)

let read_file ?(strict = false) path =
  let diags = ref [] in
  let entries, stats =
    fold_file ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      path ~init:[]
      (fun acc e -> e :: acc)
  in
  { entries = List.rev entries; diags = List.rev !diags; stats }

let to_file_entries path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_entries entries))

let to_file path records =
  to_file_entries path (List.map (fun r -> Message r) records)
