let magic_us = 0xA1B2C3D4l
let magic_ns = 0xA1B23C4Dl

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
  let flag_bits =
    (if s.flags.Tcp_segment.fin then 0x01 else 0)
    lor (if s.flags.syn then 0x02 else 0)
    lor (if s.flags.rst then 0x04 else 0)
    lor (if s.flags.psh then 0x08 else 0)
    lor if s.flags.ack then 0x10 else 0
  in
  Bytes.set_uint8 frame (tcp + 13) flag_bits;
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
  Bytes.set_int32_le ghdr 0 magic_us;
  Bytes.set_uint16_le ghdr 4 2;
  Bytes.set_uint16_le ghdr 6 4;
  Bytes.set_int32_le ghdr 8 0l;
  Bytes.set_int32_le ghdr 12 0l;
  Bytes.set_int32_le ghdr 16 65535l;
  Bytes.set_int32_le ghdr 20 1l (* LINKTYPE_ETHERNET *);
  Buffer.add_bytes buf ghdr;
  List.iter (encode_packet buf) (Trace.segments trace);
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

(* Decode one captured frame (a [Slice.t] over the captured bytes of the
   reused record buffer) into a TCP segment.  The frame is parsed
   snaplen-correctly: the segment's [len] comes from the declared IP/TCP
   header lengths, the payload keeps only the captured bytes (possibly
   fewer than [len]).  Everything is read in place through the slice;
   the only allocations are the outputs kept past this record (the
   segment, its payload, any diagnostics). *)
let decode_frame ~emit ~clipped ~ri ~ts frame =
  let incl = Slice.length frame in
  let skip d =
    emit d;
    raise_notrace Skip_record
  in
  try
    if incl < ethernet_header_len then
      skip (Diag.info ~record:ri ~code:"P009" "runt frame (%d captured bytes)" incl);
    let ethertype = Slice.u16be frame 12 in
    let l2, ethertype =
      if ethertype = 0x8100 then begin
        if incl < ethernet_header_len + 4 then
          skip (Diag.info ~record:ri ~code:"P009" "runt 802.1Q frame");
        emit (Diag.info ~record:ri ~code:"P010" "802.1Q VLAN-tagged frame");
        (ethernet_header_len + 4, Slice.u16be frame 16)
      end
      else (ethernet_header_len, ethertype)
    in
    if ethertype <> 0x0800 then
      skip
        (Diag.info ~record:ri ~code:"P009" "non-IPv4 frame (ethertype 0x%04x)"
           ethertype);
    if l2 + ipv4_header_len > incl then
      skip
        (Diag.warning ~record:ri ~code:"P006"
           "capture ends inside the IPv4 header");
    let vihl = Slice.u8 frame l2 in
    if vihl lsr 4 <> 4 then
      skip (Diag.warning ~record:ri ~code:"P006" "IP version %d" (vihl lsr 4));
    let ihl = (vihl land 0x0F) * 4 in
    if ihl < ipv4_header_len then
      skip (Diag.warning ~record:ri ~code:"P006" "bad IHL %d" ihl);
    let proto = Slice.u8 frame (l2 + 9) in
    if proto <> 6 then raise_notrace Skip_record (* non-TCP traffic *);
    let ip_total = Slice.u16be frame (l2 + 2) in
    let tcp = l2 + ihl in
    if tcp + 20 > incl then
      skip
        (Diag.warning ~record:ri ~code:"P007"
           "capture ends inside the TCP header");
    let doff = (Slice.u8 frame (tcp + 12) lsr 4) * 4 in
    if doff < 20 then
      skip (Diag.warning ~record:ri ~code:"P007" "bad TCP data offset %d" doff);
    if ihl + doff > ip_total then
      skip
        (Diag.warning ~record:ri ~code:"P007"
           "TCP data offset overruns the IP datagram (IHL %d + offset %d > \
            total %d)"
           ihl doff ip_total);
    (* Snaplen-correct length: trust the declared header lengths, keep
       whatever payload bytes the sniffer captured. *)
    let len = ip_total - ihl - doff in
    let payload_off = tcp + doff in
    let captured = max 0 (min len (incl - payload_off)) in
    if captured < len then incr clipped;
    let payload =
      if captured = 0 then ""
      else Slice.sub_string frame ~off:payload_off ~len:captured
    in
    (* Option scan, bounded by both the declared header end and the
       captured bytes: clipped options end the scan silently, options
       that overrun their own header are malformed (P008).  The scan
       threads the found MSS as a plain int (-1 = absent) so a clean
       frame costs no ref cell and no [Some] box. *)
    let hdr_end = tcp + doff in
    let limit = min hdr_end incl in
    let rec scan o mss =
      if o >= limit then mss
      else
        match Slice.u8 frame o with
        | 0 -> mss (* end of options *)
        | 1 -> scan (o + 1) mss (* no-op padding *)
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
                scan (o + olen)
                  (if kind = 2 && olen = 4 then Slice.u16be frame (o + 2)
                   else mss)
            end
    in
    let mss = scan (tcp + 20) (-1) in
    let mss_opt = if mss < 0 then None else Some mss in
    let src_ip = Slice.i32be frame (l2 + 12) in
    let dst_ip = Slice.i32be frame (l2 + 16) in
    let src_port = Slice.u16be frame tcp in
    let dst_port = Slice.u16be frame (tcp + 2) in
    let seq = Slice.u32be frame (tcp + 4) in
    let ack = Slice.u32be frame (tcp + 8) in
    let fl = Slice.u8 frame (tcp + 13) in
    let window = Slice.u16be frame (tcp + 14) in
    let flags =
      Tcp_segment.flags ~fin:(fl land 0x01 <> 0) ~syn:(fl land 0x02 <> 0)
        ~rst:(fl land 0x04 <> 0) ~psh:(fl land 0x08 <> 0)
        ~ack:(fl land 0x10 <> 0) ()
    in
    Some
      (Tcp_segment.v ~ts
         ~src:(Endpoint.v src_ip src_port)
         ~dst:(Endpoint.v dst_ip dst_port)
         ~seq ~ack ~len ~window ~flags ?mss_opt ~payload ())
  with Skip_record -> None

(* Read until [len] bytes sit in [buf] or [read] reports EOF; the count
   read.  A top-level loop, so a record read allocates no closure. *)
let rec read_from (read : Ingest_io.read) buf len off =
  if off >= len then off
  else
    let n = read buf off (len - off) in
    if n = 0 then off else read_from read buf len (off + n)

(* The streaming core: pull records one at a time from [read] (a
   [Stdlib.input]-style function) into a reused, bounded frame buffer, so
   arbitrarily large captures decode in memory proportional to the
   largest record, not the file. *)
let fold_read ?(strict = false) ?(on_diag = fun (_ : Diag.t) -> ()) ~read ~init
    f =
  let records = ref 0
  and decoded = ref 0
  and skipped = ref 0
  and clipped = ref 0 in
  let emit (d : Diag.t) =
    on_diag d;
    if strict && Diag.is_problem d then
      raise (Decode_error ("Pcap.decode: " ^ d.Diag.message))
  in
  let fatal d =
    emit d;
    raise_notrace Stop_reading
  in
  let read_upto buf len = read_from read buf len 0 in
  let acc = ref init in
  let t_read = if Obs.enabled Obs.default then Tdat_obs.Clock.now_s () else 0. in
  Tdat_obs.Span.with_ ~name:"pcap-read" @@ fun () ->
  (* The record buffer is a per-domain arena slot: folds on the same
     domain (each pool worker streams many captures) reuse one
     high-water-mark buffer instead of allocating 64 KiB per file. *)
  Tdat_parallel.Scratch.(with_bytes ~slot:slot_pcap_frame 65536) @@ fun fcell ->
  (try
     let ghdr = Bytes.create 24 in
     let ghdr_s = Slice.of_bytes ghdr in
     if read_upto ghdr 24 < 24 then
       fatal (Diag.error ~code:"P002" "truncated header");
     let raw_le = get_u32 Le ghdr_s 0 in
     let endian, ns =
       if Int32.equal (Int32.of_int raw_le) magic_us then (Le, false)
       else if Int32.equal (Int32.of_int raw_le) magic_ns then (Le, true)
       else begin
         let raw_be = get_u32 Be ghdr_s 0 in
         if Int32.equal (Int32.of_int raw_be) magic_us then (Be, false)
         else if Int32.equal (Int32.of_int raw_be) magic_ns then (Be, true)
         else fatal (Diag.error ~code:"P001" "bad magic")
       end
     in
     let link_type = get_u32 endian ghdr_s 20 in
     if link_type <> 1 then
       fatal (Diag.error ~code:"P003" "unsupported link type");
     let rhdr = Bytes.create 16 in
     let rhdr_s = Slice.of_bytes rhdr in
     let stop = ref false in
     while not !stop do
       let n = read_upto rhdr 16 in
       if n = 0 then stop := true
       else if n < 16 then begin
         emit
           (Diag.warning ~record:!records ~code:"P004"
              "truncated record header (%d trailing bytes)" n);
         stop := true
       end
       else begin
         let incl = get_u32 endian rhdr_s 8 in
         if incl > max_record_len then begin
           emit
             (Diag.warning ~record:!records ~code:"P005"
                "implausible record length %d" incl);
           stop := true
         end
         else begin
           let frame = Tdat_parallel.Scratch.ensure fcell incl in
           let got = read_upto frame incl in
           if got < incl then begin
             emit
               (Diag.warning ~record:!records ~code:"P005" "truncated packet");
             stop := true
           end
           else begin
             let ts_sec = get_u32 endian rhdr_s 0 in
             let ts_sub = get_u32 endian rhdr_s 4 in
             let ts_us = if ns then ts_sub / 1000 else ts_sub in
             let ts = (ts_sec * 1_000_000) + ts_us in
             let ri = !records in
             incr records;
             Obs.Counter.incr m_records;
             (* +16: the per-record pcap header travels with the frame. *)
             Obs.Counter.add m_bytes (incl + 16);
             Obs.Histogram.observe h_record_bytes (float_of_int incl);
             match
               decode_frame ~emit ~clipped ~ri ~ts
                 (Slice.of_bytes ~len:incl frame)
             with
             | Some seg ->
                 incr decoded;
                 Obs.Counter.incr m_segments;
                 acc := f !acc seg
             | None ->
                 incr skipped;
                 Obs.Counter.incr m_skipped
           end
         end
       end
     done
   with Stop_reading -> ());
  if Obs.enabled Obs.default then begin
    let dt = Tdat_obs.Clock.now_s () -. t_read in
    if dt > 0. then Obs.Gauge.set g_records_per_s (float_of_int !records /. dt)
  end;
  ( !acc,
    {
      records = !records;
      decoded = !decoded;
      skipped = !skipped;
      clipped = !clipped;
    } )

let reader_of_string data =
  let pos = ref 0 in
  fun buf off len ->
    let n = min len (String.length data - !pos) in
    Bytes.blit_string data !pos buf off n;
    pos := !pos + n;
    n

let fold_string ?strict ?on_diag data ~init f =
  fold_read ?strict ?on_diag ~read:(reader_of_string data) ~init f

(* Channel and fd folds share the [Ingest_io] readers: EINTR retried,
   short reads looped by [read_upto], and — with [~follow] — EOF turned
   into polling so a still-growing capture can be tailed. *)
let fold_channel ?strict ?on_diag ?follow ic ~init f =
  fold_read ?strict ?on_diag ~read:(Ingest_io.of_channel ?follow ic) ~init f

let fold_fd ?strict ?on_diag ?follow fd ~init f =
  fold_read ?strict ?on_diag ~read:(Ingest_io.of_fd ?follow fd) ~init f

let fold_file ?strict ?on_diag ?follow path ~init f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> fold_channel ?strict ?on_diag ?follow ic ~init f)

let result_of_fold fold =
  let diags = ref [] in
  let segs, stats =
    fold ~on_diag:(fun d -> diags := d :: !diags) ~init:[] (fun acc s ->
        s :: acc)
  in
  let diags = List.rev !diags in
  let diags =
    if stats.clipped > 0 then
      diags
      @ [
          Diag.info ~code:"P011"
            "%d of %d records snaplen-clipped (captured payload shorter than \
             the declared TCP length)"
            stats.clipped stats.records;
        ]
    else diags
  in
  { trace = Trace.of_segments (List.rev segs); diags; stats }

let decode_result ?(strict = false) data =
  result_of_fold (fun ~on_diag ~init f ->
      fold_string ~strict ~on_diag data ~init f)

let read_file ?(strict = false) path =
  result_of_fold (fun ~on_diag ~init f ->
      fold_file ~strict ~on_diag path ~init f)

let to_file path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode trace))
