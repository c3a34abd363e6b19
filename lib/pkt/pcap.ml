let magic_us = 0xA1B2C3D4
let magic_ns = 0xA1B23C4D

let ethernet_header_len = 14
let ipv4_header_len = 20

(* Records claiming more captured bytes than this are treated as corrupt
   framing: no sane snaplen reaches 64 MB, and trusting a garbage length
   would make the reader allocate (and mis-skip) gigabytes. *)
let max_record_len = 0x0400_0000

exception Decode_error of string
exception Encode_error of string

(* --- diagnostics ----------------------------------------------------- *)

module Diag = struct
  type severity = Error | Warning | Info

  type t = {
    code : string;
    severity : severity;
    record : int option;
    message : string;
  }

  let make severity ?record ~code fmt =
    Format.kasprintf (fun message -> { code; severity; record; message }) fmt

  let error ?record ~code fmt = make Error ?record ~code fmt
  let warning ?record ~code fmt = make Warning ?record ~code fmt
  let info ?record ~code fmt = make Info ?record ~code fmt

  let severity_name = function
    | Error -> "error"
    | Warning -> "warning"
    | Info -> "info"

  let is_error d = match d.severity with Error -> true | Warning | Info -> false

  (* Errors and warnings abort a strict decode; infos never do. *)
  let is_problem d =
    match d.severity with Error | Warning -> true | Info -> false

  let pp ppf d =
    match d.record with
    | Some i ->
        Format.fprintf ppf "%s %s [record %d] %s" d.code
          (severity_name d.severity) i d.message
    | None ->
        Format.fprintf ppf "%s %s %s" d.code (severity_name d.severity)
          d.message
end

(* --- observability ----------------------------------------------------

   Reader throughput instruments (DESIGN.md, "Observability").  Record,
   segment, skip and byte counters are stable — pure functions of the
   input capture — while the records-per-second gauge is wall-clock and
   therefore volatile.  With metrics disabled each point costs one
   atomic load. *)

module Obs = Tdat_obs.Metrics

let m_records = Obs.Counter.make "pcap.records"
let m_segments = Obs.Counter.make "pcap.segments"
let m_skipped = Obs.Counter.make "pcap.skipped"
let m_bytes = Obs.Counter.make "pcap.bytes"

let h_record_bytes =
  Obs.Histogram.make ~buckets:Obs.Histogram.size_buckets "pcap.record_bytes"

let g_records_per_s = Obs.Gauge.make ~stable:false "pcap.records_per_s"

(* --- encoding --------------------------------------------------------- *)

let encode_packet buf (s : Tcp_segment.t) =
  if s.ts < 0 then
    raise (Encode_error (Printf.sprintf "Pcap.encode: negative timestamp %d" s.ts));
  let ts_sec = s.ts / 1_000_000 in
  if ts_sec > 0xFFFF_FFFF then
    raise
      (Encode_error
         (Printf.sprintf
            "Pcap.encode: timestamp %d overflows pcap's unsigned 32-bit \
             seconds"
            s.ts));
  let tcp_options_len = if s.mss_opt <> None then 4 else 0 in
  let tcp_header_len = 20 + tcp_options_len in
  let ip_total = ipv4_header_len + tcp_header_len + s.len in
  if ip_total > 0xFFFF then
    raise
      (Encode_error
         (Printf.sprintf
            "Pcap.encode: segment length %d overflows the IPv4 total length"
            s.len));
  let frame_len = ethernet_header_len + ip_total in
  (* pcap record header (little endian).  [Int32.of_int] keeps the low 32
     bits, so seconds in [2^31, 2^32) — post-2038 timestamps — retain
     their unsigned on-disk encoding. *)
  let hdr = Bytes.create 16 in
  Bytes.set_int32_le hdr 0 (Int32.of_int ts_sec);
  Bytes.set_int32_le hdr 4 (Int32.of_int (s.ts mod 1_000_000));
  Bytes.set_int32_le hdr 8 (Int32.of_int frame_len);
  Bytes.set_int32_le hdr 12 (Int32.of_int frame_len);
  Buffer.add_bytes buf hdr;
  let frame = Bytes.make frame_len '\000' in
  (* Ethernet: zero MACs, ethertype IPv4. *)
  Bytes.set_uint16_be frame 12 0x0800;
  (* IPv4 header *)
  let ip = ethernet_header_len in
  Bytes.set_uint8 frame ip 0x45;
  Bytes.set_uint16_be frame (ip + 2) ip_total;
  Bytes.set_uint8 frame (ip + 8) 64 (* TTL *);
  Bytes.set_uint8 frame (ip + 9) 6 (* protocol TCP *);
  Bytes.set_int32_be frame (ip + 12) s.src.Endpoint.ip;
  Bytes.set_int32_be frame (ip + 16) s.dst.Endpoint.ip;
  (* TCP header *)
  let tcp = ip + ipv4_header_len in
  Bytes.set_uint16_be frame tcp s.src.Endpoint.port;
  Bytes.set_uint16_be frame (tcp + 2) s.dst.Endpoint.port;
  Bytes.set_int32_be frame (tcp + 4) (Int32.of_int (s.seq land 0xFFFFFFFF));
  Bytes.set_int32_be frame (tcp + 8) (Int32.of_int (s.ack land 0xFFFFFFFF));
  let data_offset = tcp_header_len / 4 in
  Bytes.set_uint8 frame (tcp + 12) (data_offset lsl 4);
  Bytes.set_uint8 frame (tcp + 13) (Tcp_segment.flag_bits s.flags);
  Bytes.set_uint16_be frame (tcp + 14) (min s.window 0xFFFF);
  (match s.mss_opt with
  | Some mss ->
      Bytes.set_uint8 frame (tcp + 20) 2;
      Bytes.set_uint8 frame (tcp + 21) 4;
      Bytes.set_uint16_be frame (tcp + 22) mss
  | None -> ());
  (* Payload.  A payload shorter than [len] (not materialized, or clipped
     by the capture snaplen) is zero-filled to the declared length so
     stream offsets stay exact. *)
  let pl = min (String.length s.payload) s.len in
  if pl > 0 then Bytes.blit_string s.payload 0 frame (tcp + tcp_header_len) pl;
  Buffer.add_bytes buf frame

let encode trace =
  let buf = Buffer.create 4096 in
  let ghdr = Bytes.create 24 in
  Bytes.set_int32_le ghdr 0 (Int32.of_int magic_us);
  Bytes.set_uint16_le ghdr 4 2;
  Bytes.set_uint16_le ghdr 6 4;
  Bytes.set_int32_le ghdr 8 0l;
  Bytes.set_int32_le ghdr 12 0l;
  Bytes.set_int32_le ghdr 16 65535l;
  Bytes.set_int32_le ghdr 20 1l (* LINKTYPE_ETHERNET *);
  Buffer.add_bytes buf ghdr;
  for i = 0 to Trace.length trace - 1 do
    encode_packet buf (Trace.get trace i)
  done;
  Buffer.contents buf

(* --- decoding --------------------------------------------------------- *)

type endianness = Le | Be

let get_u32 e s off =
  match e with Le -> Slice.u32le s off | Be -> Slice.u32be s off

type stats = { records : int; decoded : int; skipped : int; clipped : int }

type result = { trace : Trace.t; diags : Diag.t list; stats : stats }

(* Internal: abandon the current record (after emitting its diagnostic). *)
exception Skip_record

(* Internal: salvage mode stops reading; everything decoded so far is
   kept. *)
exception Stop_reading

(* Emit a record's diagnostic and abandon the record.  Top-level, like
   the option scan below, so a decoded frame allocates no closure. *)
let skip emit d =
  emit d;
  raise_notrace Skip_record

(* TCP option scan over [o, limit), bounded by both the declared header
   end and the captured bytes: clipped options end the scan silently,
   options that overrun their own header are malformed (P008).  The
   scan threads the found MSS as a plain int (-1 = absent) so a clean
   frame costs no ref cell and no [Some] box. *)
let rec scan_options ~emit ~ri frame ~hdr_end ~limit o mss =
  if o >= limit then mss
  else
    match Slice.u8 frame o with
    | 0 -> mss (* end of options *)
    | 1 ->
        (* no-op padding *)
        scan_options ~emit ~ri frame ~hdr_end ~limit (o + 1) mss
    | kind ->
        if o + 2 > limit then begin
          if limit >= hdr_end then
            emit
              (Diag.warning ~record:ri ~code:"P008"
                 "TCP option %d overruns the header" kind);
          mss
        end
        else begin
          let olen = Slice.u8 frame (o + 1) in
          if olen < 2 then begin
            emit
              (Diag.warning ~record:ri ~code:"P008"
                 "TCP option %d has bad length %d" kind olen);
            mss
          end
          else if o + olen > hdr_end then begin
            emit
              (Diag.warning ~record:ri ~code:"P008"
                 "TCP option %d (length %d) overruns the header" kind olen);
            mss
          end
          else if o + olen > limit then mss (* snaplen-clipped options *)
          else
            scan_options ~emit ~ri frame ~hdr_end ~limit (o + olen)
              (if kind = 2 && olen = 4 then Slice.u16be frame (o + 2) else mss)
        end

(* Decode one captured frame, the [incl] bytes at [base] of the capture
   buffer [data], into a row of the trace's columns; [false] when the
   record yields no segment.  The frame is parsed snaplen-correctly:
   the segment's [len] comes from the declared IP/TCP header lengths,
   the payload keeps only the captured bytes (possibly fewer than
   [len]).  Everything is read in place, and the payload column names
   the bytes where they lie; only diagnostics and a first-seen endpoint
   allocate.  Offsets are absolute, so one slice serves every frame:
   each read is checked against the frame's end ([stop]) before it is
   made, and the slice bounds the buffer. *)
let decode_frame b ~emit ~clipped ~ri ~ts ~base ~incl data =
  let stop = base + incl in
  try
    if incl < ethernet_header_len then
      skip emit
        (Diag.info ~record:ri ~code:"P009" "runt frame (%d captured bytes)"
           incl);
    let vlan = Slice.u16be data (base + 12) = 0x8100 in
    if vlan then begin
      if incl < ethernet_header_len + 4 then
        skip emit (Diag.info ~record:ri ~code:"P009" "runt 802.1Q frame");
      emit (Diag.info ~record:ri ~code:"P010" "802.1Q VLAN-tagged frame")
    end;
    (* The ethertype is the last field before the IPv4 header. *)
    let l2 =
      base + if vlan then ethernet_header_len + 4 else ethernet_header_len
    in
    let ethertype = Slice.u16be data (l2 - 2) in
    if ethertype <> 0x0800 then
      skip emit
        (Diag.info ~record:ri ~code:"P009" "non-IPv4 frame (ethertype 0x%04x)"
           ethertype);
    if l2 + ipv4_header_len > stop then
      skip emit
        (Diag.warning ~record:ri ~code:"P006"
           "capture ends inside the IPv4 header");
    let vihl = Slice.u8 data l2 in
    if vihl lsr 4 <> 4 then
      skip emit
        (Diag.warning ~record:ri ~code:"P006" "IP version %d" (vihl lsr 4));
    let ihl = (vihl land 0x0F) * 4 in
    if ihl < ipv4_header_len then
      skip emit (Diag.warning ~record:ri ~code:"P006" "bad IHL %d" ihl);
    let proto = Slice.u8 data (l2 + 9) in
    if proto <> 6 then raise_notrace Skip_record (* non-TCP traffic *);
    let ip_total = Slice.u16be data (l2 + 2) in
    let tcp = l2 + ihl in
    if tcp + 20 > stop then
      skip emit
        (Diag.warning ~record:ri ~code:"P007"
           "capture ends inside the TCP header");
    let doff = (Slice.u8 data (tcp + 12) lsr 4) * 4 in
    if doff < 20 then
      skip emit
        (Diag.warning ~record:ri ~code:"P007" "bad TCP data offset %d" doff);
    if ihl + doff > ip_total then
      skip emit
        (Diag.warning ~record:ri ~code:"P007"
           "TCP data offset overruns the IP datagram (IHL %d + offset %d > \
            total %d)"
           ihl doff ip_total);
    (* Snaplen-correct length: trust the declared header lengths, keep
       whatever payload bytes the sniffer captured. *)
    let len = ip_total - ihl - doff in
    let payload_off = tcp + doff in
    let captured = max 0 (min len (stop - payload_off)) in
    if captured < len then incr clipped;
    let hdr_end = tcp + doff in
    let mss =
      scan_options ~emit ~ri data ~hdr_end ~limit:(min hdr_end stop) (tcp + 20)
        (-1)
    in
    let src =
      Trace.Builder.endpoint b ~ip:(Slice.u32be data (l2 + 12))
        ~port:(Slice.u16be data tcp)
    in
    let dst =
      Trace.Builder.endpoint b ~ip:(Slice.u32be data (l2 + 16))
        ~port:(Slice.u16be data (tcp + 2))
    in
    Trace.Builder.add b ~ts ~src ~dst
      ~seq:(Slice.u32be data (tcp + 4))
      ~ack:(Slice.u32be data (tcp + 8))
      ~len
      ~window:(Slice.u16be data (tcp + 14))
      ~flags:(Slice.u8 data (tcp + 13) land 0x1F)
      ~mss ~off:payload_off ~captured;
    true
  with Skip_record -> false

(* The diagnostics in order, plus the final [P011] snaplen-clipping
   summary when any record was clipped. *)
let with_clip_summary stats rev_diags =
  let diags = List.rev rev_diags in
  if stats.clipped > 0 then
    diags
    @ [
        Diag.info ~code:"P011"
          "%d of %d records snaplen-clipped (captured payload shorter than \
           the declared TCP length)"
          stats.clipped stats.records;
      ]
  else diags

(* The capture buffer: [data] slices the bytes read so far out of the
   buffer ([data.buf]) every frame is sliced from and every payload
   column points into.  [read] is [None] when the whole capture is
   already there. *)
type source = { mutable data : Slice.t; read : Ingest_io.read option }

(* Make [need] bytes available, reading as required; [false] at the
   end of input.  The buffer grows (by doubling, at least to [need])
   only once it is full, so a buffer one byte longer than the input
   learns of the end by a read into that byte and is never
   reallocated. *)
let rec ensure src need =
  let { Slice.buf; len = avail; _ } = src.data in
  avail >= need
  ||
  match src.read with
  | None -> false
  | Some read ->
      let buf =
        if avail < Bytes.length buf then buf
        else Bytes.extend buf 0 (max (need - avail) avail)
      in
      let got = read buf avail (Bytes.length buf - avail) in
      got > 0
      && begin
           src.data <- Slice.of_bytes ~len:(avail + got) buf;
           ensure src need
         end

(* Complete records in the bytes already read: the row count the
   columns start with, exact for a capture held whole.  Only the
   record headers are read. *)
let count_records data endian =
  let rec go pos n =
    if pos + 16 > Slice.length data then n
    else
      let incl = get_u32 endian data (pos + 8) in
      if incl > max_record_len || pos + 16 + incl > Slice.length data then n
      else go (pos + 16 + incl) (n + 1)
  in
  go 24 0

(* The decoder every entry point runs: records are framed in place in
   the capture buffer, each decoded straight into the trace's columns,
   and the buffer becomes the trace's payload buffer. *)
let read_records ?(strict = false) src =
  let records = ref 0
  and decoded = ref 0
  and skipped = ref 0
  and clipped = ref 0 in
  let diags = ref [] in
  let emit (d : Diag.t) =
    diags := d :: !diags;
    if strict && Diag.is_problem d then
      raise (Decode_error ("Pcap.decode: " ^ d.Diag.message))
  in
  let fatal d =
    emit d;
    raise_notrace Stop_reading
  in
  let t_read = if Obs.enabled Obs.default then Tdat_obs.Clock.now_s () else 0. in
  Tdat_obs.Span.with_ ~name:"pcap-read" @@ fun () ->
  let b = ref None in
  (try
     if not (ensure src 24) then
       fatal (Diag.error ~code:"P002" "truncated header");
     let endian, ns =
       match (get_u32 Le src.data 0, get_u32 Be src.data 0) with
       | m, _ when m = magic_us -> (Le, false)
       | m, _ when m = magic_ns -> (Le, true)
       | _, m when m = magic_us -> (Be, false)
       | _, m when m = magic_ns -> (Be, true)
       | _ -> fatal (Diag.error ~code:"P001" "bad magic")
     in
     let link_type = get_u32 endian src.data 20 in
     if link_type <> 1 then
       fatal (Diag.error ~code:"P003" "unsupported link type");
     let builder =
       Trace.Builder.create ~packets:(count_records src.data endian)
     in
     b := Some builder;
     let pos = ref 24 in
     let stop = ref false in
     while not !stop do
       if not (ensure src (!pos + 16)) then begin
         let n = Slice.length src.data - !pos in
         if n > 0 then
           emit
             (Diag.warning ~record:!records ~code:"P004"
                "truncated record header (%d trailing bytes)" n);
         stop := true
       end
       else begin
         let incl = get_u32 endian src.data (!pos + 8) in
         if incl > max_record_len then begin
           emit
             (Diag.warning ~record:!records ~code:"P005"
                "implausible record length %d" incl);
           stop := true
         end
         else if not (ensure src (!pos + 16 + incl)) then begin
           emit (Diag.warning ~record:!records ~code:"P005" "truncated packet");
           stop := true
         end
         else begin
           let ts_sec = get_u32 endian src.data !pos in
           let ts_sub = get_u32 endian src.data (!pos + 4) in
           let ts_us = if ns then ts_sub / 1000 else ts_sub in
           let ts = (ts_sec * 1_000_000) + ts_us in
           let ri = !records in
           let base = !pos + 16 in
           incr records;
           Obs.Counter.incr m_records;
           (* +16: the per-record pcap header travels with the frame. *)
           Obs.Counter.add m_bytes (incl + 16);
           Obs.Histogram.observe h_record_bytes (float_of_int incl);
           if
             decode_frame builder ~emit ~clipped ~ri ~ts ~base ~incl src.data
           then begin
             incr decoded;
             Obs.Counter.incr m_segments
           end
           else begin
             incr skipped;
             Obs.Counter.incr m_skipped
           end;
           pos := base + incl
         end
       end
     done
   with Stop_reading -> ());
  if Obs.enabled Obs.default then begin
    let dt = Tdat_obs.Clock.now_s () -. t_read in
    if dt > 0. then Obs.Gauge.set g_records_per_s (float_of_int !records /. dt)
  end;
  let stats =
    {
      records = !records;
      decoded = !decoded;
      skipped = !skipped;
      clipped = !clipped;
    }
  in
  let diags = with_clip_summary stats !diags in
  let builder =
    match !b with Some b -> b | None -> Trace.Builder.create ~packets:0
  in
  (* Room read into but never filled is zeroed, so two reads of one
     capture give equal traces. *)
  let { Slice.buf; len = avail; _ } = src.data in
  Bytes.fill buf avail (Bytes.length buf - avail) '\000';
  { trace = Trace.Builder.finish builder ~payload:src.data; diags; stats }

let decode_result ?strict data =
  read_records ?strict { data = Slice.of_string data; read = None }

(* The file reader shares the [Ingest_io] channel reader: EINTR retried,
   short reads looped by [ensure], and — with [~follow] — EOF turned
   into polling so a still-growing capture can be tailed.  The buffer
   is the file's size plus the spare byte that tells its end, and the
   file is read whole before the first record is decoded, so the
   columns are sized from an exact record count. *)
let read_file ?strict ?follow path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = (Unix.fstat (Unix.descr_of_in_channel ic)).Unix.st_size in
      let src =
        {
          data = Slice.of_bytes ~len:0 (Bytes.create (size + 1));
          read = Some (Ingest_io.of_channel ?follow ic);
        }
      in
      ignore (ensure src size);
      read_records ?strict src)

let to_file path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode trace))
