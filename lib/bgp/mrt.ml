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

let fsm_state_name = function
  | Idle -> "Idle"
  | Connect -> "Connect"
  | Active -> "Active"
  | Open_sent -> "OpenSent"
  | Open_confirm -> "OpenConfirm"
  | Established -> "Established"

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

let entry_ts = function Message r -> r.ts | State s -> s.sc_ts

let messages entries =
  List.filter_map (function Message r -> Some r | State _ -> None) entries

module Diag = struct
  type severity = Error | Warning | Info

  type t = {
    code : string;
    severity : severity;
    record : int option;
    message : string;
  }

  let severity_name = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  let is_error d = match d.severity with Error -> true | Warning | Info -> false

  let pp ppf d =
    Format.fprintf ppf "%s %s" d.code (severity_name d.severity);
    (match d.record with
    | Some i -> Format.fprintf ppf " [record %d]" i
    | None -> ());
    Format.fprintf ppf " %s" d.message
end

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

  let of_msg = function
    | Msg.Open _ -> Open
    | Msg.Update _ -> Update
    | Msg.Notification _ -> Notification
    | Msg.Keepalive -> Keepalive

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

(* Parse the BGP4MP fixed part of one complete record body, [len] bytes
   of the reused buffer [body], and hand what follows it to the fold's
   own [message] or [state] step.  The header has already framed the
   record, so every problem here is skippable: salvage continues at the
   next record.  Every read is below [len], which the framing loop has
   proved to lie inside [body]; [p] is the offset of the peer fields,
   past an ET record's microsecond field, and the embedded BGP message
   of a [message] record starts at [p + 16]. *)
let parse_body ~message ~state ~sec ~ty ~subtype body len =
  if ty <> bgp4mp && ty <> bgp4mp_et then Unsupported
  else if subtype <> subtype_message && subtype <> subtype_state_change then
    Unsupported
  else begin
    let p = if ty = bgp4mp_et then 4 else 0 in
    let fixed = if subtype = subtype_message then 16 else 20 in
    if p + fixed > len then Short_body
    else begin
      let usec = if p = 4 then u32 body 0 else 0 in
      let ts = (sec * 1_000_000) + usec in
      if subtype = subtype_message then message ~ts body p len
      else
        match
          ( fsm_state_of_code (u16 body (p + 16)),
            fsm_state_of_code (u16 body (p + 18)) )
        with
        | Some old_state, Some new_state -> state ~ts body p ~old_state ~new_state
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

(* The one framing loop behind every fold: frame each record, emit the
   M001/M002/M007 framing diagnostics and the skip diagnostics, raise in
   strict mode, and keep the [stats] and the [mrt.*] counters.  [fill buf
   n] reads up to [n] bytes into [buf] and returns the count actually
   read — the only primitive the input sources differ in; [body] is the
   fold's [parse_body] step, which delivers its entries itself. *)
let frame ?(strict = false) ?(on_diag = fun _ -> ()) fill body =
  let emit d =
    on_diag d;
    if strict then
      match d.Diag.severity with
      | Diag.Error | Diag.Warning ->
          Bgp_error.fail ~context:"Mrt.decode" "%s" d.Diag.message
      | Diag.Info -> ()
  in
  (* The record-body buffer is a per-domain arena slot: successive
     records (and successive archives on the same worker domain) reuse
     one high-water-mark buffer instead of allocating per record. *)
  Tdat_parallel.Scratch.(with_bytes ~slot:slot_mrt_body 4096) @@ fun bcell ->
  let hdr = Bytes.create 12 in
  let records = ref 0 in
  let bgp_messages = ref 0 in
  let state_changes = ref 0 in
  let skipped = ref 0 in
  let framing code message =
    emit { Diag.code; severity = Diag.Warning; record = Some !records; message }
  in
  let rec go () =
    let got = fill hdr 12 in
    if got = 0 then ()
    else if got < 12 then framing "M001" "truncated header"
    else begin
      let sec = u32 hdr 0 in
      let ty = u16 hdr 4 in
      let subtype = u16 hdr 6 in
      let rec_len = u32 hdr 8 in
      if rec_len > max_record_len then framing "M007" "oversized record"
      else begin
        let buf = Tdat_parallel.Scratch.ensure bcell rec_len in
        if fill buf rec_len < rec_len then framing "M002" "truncated record"
        else begin
          let idx = !records in
          incr records;
          Obs.Counter.incr m_records;
          (* +12: the MRT common header travels with the body. *)
          Obs.Counter.add m_bytes (rec_len + 12);
          (match body ~sec ~ty ~subtype buf rec_len with
          | Message_entry ->
              incr bgp_messages;
              Obs.Counter.incr m_messages
          | State_entry ->
              incr state_changes;
              Obs.Counter.incr m_state_changes
          | (Short_body | Bad_message | Unsupported | Bad_state) as skip ->
              incr skipped;
              Obs.Counter.incr m_skipped;
              emit (skip_diag ~idx ~ty ~subtype skip));
          go ()
        end
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
    skipped = !skipped;
  }

(* The entry fold: each record decoded to an [entry], its embedded
   message through [Msg.decode_slice]. *)
let fold_fill ?strict ?on_diag fill ~init f =
  let acc = ref init in
  let message ~ts body p len =
    match Msg.decode_slice (Slice.of_bytes ~len body) (p + 16) with
    | Some (msg, _) ->
        let peer_ip = Int32.of_int (u32 body (p + 8)) in
        let local_ip = Int32.of_int (u32 body (p + 12)) in
        acc :=
          f !acc
            (Message
               {
                 ts;
                 peer_as = u16 body p;
                 local_as = u16 body (p + 2);
                 peer_ip;
                 local_ip;
                 msg;
               });
        Message_entry
    | None -> Bad_message
    | exception Bgp_error.Decode_error _ -> Bad_message
  in
  let state ~ts body p ~old_state ~new_state =
    acc :=
      f !acc
        (State
           {
             sc_ts = ts;
             sc_peer_as = u16 body p;
             sc_local_as = u16 body (p + 2);
             sc_peer_ip = Int32.of_int (u32 body (p + 8));
             sc_local_ip = Int32.of_int (u32 body (p + 12));
             old_state;
             new_state;
           });
    State_entry
  in
  let stats = frame ?strict ?on_diag fill (parse_body ~message ~state) in
  (!acc, stats)

(* The summary fold: each record reduced to immediates, its embedded
   message checked by the shared validator ([Msg.validate]) instead of
   decoded.  Nothing per record is allocated. *)
let summary_fill ?strict ?on_diag fill ~init f =
  let acc = ref init in
  let message ~ts body p len =
    let v = Msg.validate body ~pos:(p + 16) ~limit:len in
    if v < 0 then Bad_message
    else begin
      acc :=
        f !acc ~ts ~peer_as:(u16 body p) ~peer_ip:(u32 body (p + 8))
          ~kind:(Kind.of_type_code (v land 7))
          ~nlri:(v lsr 3);
      Message_entry
    end
  in
  let state ~ts body p ~old_state:_ ~new_state =
    acc :=
      f !acc ~ts ~peer_as:(u16 body p) ~peer_ip:(u32 body (p + 8))
        ~kind:(Kind.of_new_state new_state) ~nlri:0;
    State_entry
  in
  let stats = frame ?strict ?on_diag fill (parse_body ~message ~state) in
  (!acc, stats)

let string_fill s =
  let pos = ref 0 in
  let len = String.length s in
  fun buf n ->
    let take = Stdlib.min n (len - !pos) in
    Bytes.blit_string s !pos buf 0 take;
    pos := !pos + take;
    take

(* Turn an [Ingest_io] reader into the [fill buf n] primitive the folds
   want: loop short reads until the frame is complete or the reader
   reports a true EOF.  The reader itself retries EINTR and (with
   [~follow]) polls a still-growing source, so a partial [fill] result
   here really is end-of-capture, never a transient condition.  A
   top-level loop, so a fill allocates no closure. *)
let rec fill_from (read : Tdat_pkt.Ingest_io.read) buf n pos =
  if pos >= n then pos
  else
    let r = read buf pos (n - pos) in
    if r = 0 then pos else fill_from read buf n (pos + r)

let fill_of_read read buf n = fill_from read buf n 0

(* A file the fold opens itself is read through its descriptor, in
   16 KiB chunks of an arena buffer, so framing a record costs two blits
   instead of two channel reads (each a C call taking the channel's
   lock).  Reading ahead is harmless: nobody else reads the file, and it
   is closed on return.  A caller's descriptor ({!fold_fd}) is read as
   asked, never past the last record framed.

   The descriptor must come from [open_in_bin], and the channel must
   stay open until the fold returns, though its own buffer is never
   read.  Two things rest on that.  A file that cannot be opened raises
   [open_in_bin]'s [Sys_error], as the pcap reader does.  And the
   runtime counts every open channel's buffer against the pace of the
   major GC: the summary fold allocates nothing per record, so without
   that count a study's major collections lapse and the garbage of its
   reports lingers.  Measured on perfbench [study] (DESIGN.md,
   "Performance & parallelism"): a bare [Unix.openfile] descriptor, or
   reading through the channel itself (which touches its 64 KiB buffer),
   puts the peak resident set outside the benchmark's 10% memory bound.
   Read errors are re-raised as the [Sys_error] [input] would raise. *)
type chunks = {
  source : Tdat_pkt.Ingest_io.read;
  chunk : Bytes.t;
  mutable pos : int;
  mutable avail : int;
}

let rec chunk_fill c buf n got =
  if got >= n then got
  else if c.pos < c.avail then begin
    let take = Stdlib.min (n - got) (c.avail - c.pos) in
    Bytes.blit c.chunk c.pos buf got take;
    c.pos <- c.pos + take;
    chunk_fill c buf n (got + take)
  end
  else begin
    let r = c.source c.chunk 0 (Bytes.length c.chunk) in
    if r = 0 then got
    else begin
      c.pos <- 0;
      c.avail <- r;
      chunk_fill c buf n got
    end
  end

let with_file_fill ?follow path k =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let read =
        Tdat_pkt.Ingest_io.of_fd ?follow (Unix.descr_of_in_channel ic)
      in
      let source buf off len =
        try read buf off len
        with Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))
      in
      Tdat_parallel.Scratch.(with_bytes ~slot:slot_mrt_chunk 16384)
      @@ fun cell ->
      let c =
        { source; chunk = cell.Tdat_parallel.Scratch.buf; pos = 0; avail = 0 }
      in
      k (fun buf n -> chunk_fill c buf n 0))

let fold_string ?strict ?on_diag s ~init f =
  fold_fill ?strict ?on_diag (string_fill s) ~init f

let fold_fd ?strict ?on_diag ?follow fd ~init f =
  fold_fill ?strict ?on_diag
    (fill_of_read (Tdat_pkt.Ingest_io.of_fd ?follow fd))
    ~init f

let fold_file ?strict ?on_diag ?follow path ~init f =
  with_file_fill ?follow path (fun fill -> fold_fill ?strict ?on_diag fill ~init f)

let fold_summary_string ?strict ?on_diag s ~init f =
  summary_fill ?strict ?on_diag (string_fill s) ~init f

let fold_summary_file ?strict ?on_diag ?follow path ~init f =
  with_file_fill ?follow path (fun fill ->
      summary_fill ?strict ?on_diag fill ~init f)

let result_of_fold fold =
  let diags = ref [] in
  let entries, stats =
    fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[] (fun acc e ->
        e :: acc)
  in
  { entries = List.rev entries; diags = List.rev !diags; stats }

let decode_result ?(strict = false) s =
  result_of_fold (fun ~on_diag ~init f -> fold_string ~strict ~on_diag s ~init f)

let read_file ?(strict = false) path =
  result_of_fold (fun ~on_diag ~init f -> fold_file ~strict ~on_diag path ~init f)

let to_file_entries path entries =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_entries entries))

let to_file path records =
  to_file_entries path (List.map (fun r -> Message r) records)
