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

(* Cold branch of [parse_body], hoisted out of the hot set so the
   formatting allocation stays off the per-record path (L009). *)
let skipped_note ~idx ~ty ~subtype =
  `Diag
    {
      Diag.code = "M005";
      severity = Diag.Info;
      record = Some idx;
      message = Printf.sprintf "skipped record (type %d, subtype %d)" ty subtype;
    }

(* Parse one complete record body (a borrowed [Slice.t] over the reused
   record buffer) into an entry, or a diagnostic.  The header has
   already framed the record, so every problem here is skippable:
   salvage continues at the next record. *)
let parse_body ~idx ~sec ~ty ~subtype body =
  let len = Slice.length body in
  let warn code message =
    `Diag { Diag.code; severity = Diag.Warning; record = Some idx; message }
  in
  if ty <> bgp4mp && ty <> bgp4mp_et then skipped_note ~idx ~ty ~subtype
  else if subtype <> subtype_message && subtype <> subtype_state_change then
    skipped_note ~idx ~ty ~subtype
  else if ty = bgp4mp_et && len < 4 then warn "M003" "short BGP4MP body"
  else begin
    let usec, p = if ty = bgp4mp_et then (Slice.u32be body 0, 4) else (0, 0) in
    let ts = (sec * 1_000_000) + usec in
    if subtype = subtype_message then begin
      if p + 16 > len then warn "M003" "short BGP4MP body"
      else begin
        let peer_as = Slice.u16be body p in
        let local_as = Slice.u16be body (p + 2) in
        let peer_ip = Slice.i32be body (p + 8) in
        let local_ip = Slice.i32be body (p + 12) in
        match Msg.decode_slice body (p + 16) with
        | Some (msg, _) ->
            `Entry (Message { ts; peer_as; local_as; peer_ip; local_ip; msg })
        | None -> warn "M004" "bad embedded BGP message"
        | exception Bgp_error.Decode_error _ ->
            warn "M004" "bad embedded BGP message"
      end
    end
    else begin
      (* BGP4MP_STATE_CHANGE *)
      if p + 20 > len then warn "M003" "short BGP4MP body"
      else begin
        let old_code = Slice.u16be body (p + 16) in
        let new_code = Slice.u16be body (p + 18) in
        match (fsm_state_of_code old_code, fsm_state_of_code new_code) with
        | Some old_state, Some new_state ->
            `Entry
              (State
                 {
                   sc_ts = ts;
                   sc_peer_as = Slice.u16be body p;
                   sc_local_as = Slice.u16be body (p + 2);
                   sc_peer_ip = Slice.i32be body (p + 8);
                   sc_local_ip = Slice.i32be body (p + 12);
                   old_state;
                   new_state;
                 })
        | _ -> warn "M006" "bad state-change body"
      end
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

(* [fill buf n] reads up to [n] bytes into [buf] and returns the count
   actually read — the only primitive the two input sources differ in. *)
let fold_fill ?(strict = false) ?(on_diag = fun _ -> ()) fill ~init f =
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
  let hdr_s = Slice.of_bytes hdr in
  let records = ref 0 in
  let bgp_messages = ref 0 in
  let state_changes = ref 0 in
  let skipped = ref 0 in
  let rec go acc =
    let got = fill hdr 12 in
    if got = 0 then acc
    else if got < 12 then begin
      emit
        {
          Diag.code = "M001";
          severity = Diag.Warning;
          record = Some !records;
          message = "truncated header";
        };
      acc
    end
    else begin
      let sec = Slice.u32be hdr_s 0 in
      let ty = Slice.u16be hdr_s 4 in
      let subtype = Slice.u16be hdr_s 6 in
      let rec_len = Slice.u32be hdr_s 8 in
      if rec_len > max_record_len then begin
        emit
          {
            Diag.code = "M007";
            severity = Diag.Warning;
            record = Some !records;
            message = "oversized record";
          };
        acc
      end
      else begin
        let body = Tdat_parallel.Scratch.ensure bcell rec_len in
        let got = fill body rec_len in
        if got < rec_len then begin
          emit
            {
              Diag.code = "M002";
              severity = Diag.Warning;
              record = Some !records;
              message = "truncated record";
            };
          acc
        end
        else begin
          let idx = !records in
          incr records;
          Obs.Counter.incr m_records;
          (* +12: the MRT common header travels with the body. *)
          Obs.Counter.add m_bytes (rec_len + 12);
          match
            parse_body ~idx ~sec ~ty ~subtype (Slice.of_bytes ~len:rec_len body)
          with
          | `Entry e ->
              (match e with
              | Message _ ->
                  incr bgp_messages;
                  Obs.Counter.incr m_messages
              | State _ ->
                  incr state_changes;
                  Obs.Counter.incr m_state_changes);
              go (f acc e)
          | `Diag d ->
              incr skipped;
              Obs.Counter.incr m_skipped;
              emit d;
              go acc
        end
      end
    end
  in
  let t_read = if Obs.enabled Obs.default then Tdat_obs.Clock.now_s () else 0. in
  let acc = Tdat_obs.Span.with_ ~name:"mrt-read" (fun () -> go init) in
  if Obs.enabled Obs.default then begin
    let dt = Tdat_obs.Clock.now_s () -. t_read in
    if dt > 0. then Obs.Gauge.set g_records_per_s (float_of_int !records /. dt)
  end;
  ( acc,
    {
      records = !records;
      bgp_messages = !bgp_messages;
      state_changes = !state_changes;
      skipped = !skipped;
    } )

let fold_string ?strict ?on_diag s ~init f =
  let pos = ref 0 in
  let len = String.length s in
  let fill buf n =
    let take = Stdlib.min n (len - !pos) in
    Bytes.blit_string s !pos buf 0 take;
    pos := !pos + take;
    take
  in
  fold_fill ?strict ?on_diag fill ~init f

(* Turn an [Ingest_io] reader into the [fill buf n] primitive the fold
   wants: loop short reads until the frame is complete or the reader
   reports a true EOF.  The reader itself retries EINTR and (with
   [~follow]) polls a still-growing source, so a partial [fill] result
   here really is end-of-capture, never a transient condition. *)
let fill_of_read (read : Tdat_pkt.Ingest_io.read) buf n =
  let rec go pos =
    if pos >= n then pos
    else
      let r = read buf pos (n - pos) in
      if r = 0 then pos else go (pos + r)
  in
  go 0

let fold_channel ?strict ?on_diag ?follow ic ~init f =
  fold_fill ?strict ?on_diag
    (fill_of_read (Tdat_pkt.Ingest_io.of_channel ?follow ic))
    ~init f

let fold_fd ?strict ?on_diag ?follow fd ~init f =
  fold_fill ?strict ?on_diag
    (fill_of_read (Tdat_pkt.Ingest_io.of_fd ?follow fd))
    ~init f

let fold_file ?strict ?on_diag ?follow path ~init f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> fold_channel ?strict ?on_diag ?follow ic ~init f)

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
