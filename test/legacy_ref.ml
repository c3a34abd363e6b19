(* Frozen copies of the pre-slice, string-based decoders, kept verbatim
   (minus metrics instrumentation) as the reference implementation for
   the decode-equivalence property tests.  The library decoders were
   rewritten to parse through [Tdat_pkt.Slice] without intermediate
   copies; these references pin the old behavior — records produced,
   diagnostics emitted, salvage stats — so the rewrite is checked
   byte-for-byte against what shipped before, including on malformed
   input.  The quadratic L-method, the list-scan delivery-time lookup,
   the list-interval reassembler, the per-connection split and the
   list-based MCT scan, the printf-built study report JSON, the study
   scan over decoded MRT entries, the byte-loop BGP header check, the
   byte-loop NLRI key, the list-pipeline timer detector, the
   record-based connection profile, ACK shift and series generation,
   the raising BGP message validator and the fill-based MRT framer are
   kept the same way, as oracles for the code that replaced them.  Do not "improve" this file:
   its value is that it does not change. *)

open Tdat_bgp
module Seg = Tdat_pkt.Tcp_segment
module Endpoint = Tdat_pkt.Endpoint
module Trace = Tdat_pkt.Trace
module P = Tdat_pkt.Pcap

(* --- legacy BGP message decode chain ---------------------------------- *)

let prefix_decode s off =
  if off >= String.length s then
    Bgp_error.fail ~context:"Prefix.decode" "truncated";
  let plen = Char.code s.[off] in
  if plen > 32 then
    Bgp_error.fail ~context:"Prefix.decode" "invalid prefix length";
  let nbytes = (plen + 7) / 8 in
  if off + 1 + nbytes > String.length s then
    Bgp_error.fail ~context:"Prefix.decode" "truncated address";
  let u = ref 0 in
  for i = 0 to nbytes - 1 do
    u := !u lor (Char.code s.[off + 1 + i] lsl (24 - (8 * i)))
  done;
  (Prefix.v (Int32.of_int !u) plen, off + 1 + nbytes)

let as_path_decode s =
  let len = String.length s in
  let read_u16 off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
  let rec segments off acc =
    if off = len then List.rev acc
    else if off + 2 > len then
      Bgp_error.fail ~context:"As_path.decode" "truncated header"
    else begin
      let ty = Char.code s.[off] in
      let n = Char.code s.[off + 1] in
      if off + 2 + (2 * n) > len then
        Bgp_error.fail ~context:"As_path.decode" "truncated";
      let asns = List.init n (fun i -> read_u16 (off + 2 + (2 * i))) in
      let seg =
        match ty with
        | 1 -> As_path.Set asns
        | 2 -> As_path.Seq asns
        | ty -> Bgp_error.fail ~context:"As_path.decode" "segment type %d" ty
      in
      segments (off + 2 + (2 * n)) (seg :: acc)
    end
  in
  segments 0 []

let attr_decode_all s =
  let len = String.length s in
  let read_u16 off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
  let read_u32 off =
    Int32.logor
      (Int32.shift_left (Int32.of_int (Char.code s.[off])) 24)
      (Int32.of_int
         ((Char.code s.[off + 1] lsl 16)
         lor (Char.code s.[off + 2] lsl 8)
         lor Char.code s.[off + 3]))
  in
  let rec go off acc =
    if off = len then List.rev acc
    else if off + 3 > len then
      Bgp_error.fail ~context:"Attr.decode_all" "truncated header"
    else begin
      let flags = Char.code s.[off] in
      let code = Char.code s.[off + 1] in
      let extended = flags land 0x10 <> 0 in
      let vlen, voff =
        if extended then begin
          if off + 4 > len then
            Bgp_error.fail ~context:"Attr.decode_all" "truncated length";
          (read_u16 (off + 2), off + 4)
        end
        else (Char.code s.[off + 2], off + 3)
      in
      if voff + vlen > len then
        Bgp_error.fail ~context:"Attr.decode_all" "truncated value";
      let value = String.sub s voff vlen in
      let attr =
        match code with
        | 1 when vlen = 1 ->
            Attr.Origin
              (match Char.code value.[0] with
              | 0 -> Attr.Igp
              | 1 -> Attr.Egp
              | _ -> Attr.Incomplete)
        | 2 -> Attr.As_path (as_path_decode value)
        | 3 when vlen = 4 -> Attr.Next_hop (read_u32 voff)
        | 4 when vlen = 4 -> Attr.Med (read_u32 voff)
        | 5 when vlen = 4 -> Attr.Local_pref (read_u32 voff)
        | _ -> Attr.Unknown { code; flags; data = value }
      in
      go (voff + vlen) (attr :: acc)
    end
  in
  go 0 []

let msg_peek_length s off =
  if off + Msg.header_size > String.length s then None
  else begin
    for i = 0 to 15 do
      if s.[off + i] <> '\xff' then
        Bgp_error.fail ~context:"Msg.peek_length" "bad marker"
    done;
    let len = (Char.code s.[off + 16] lsl 8) lor Char.code s.[off + 17] in
    if len < Msg.header_size || len > Msg.max_size then
      Bgp_error.fail ~context:"Msg.peek_length" "invalid length %d" len;
    Some len
  end

let msg_decode_prefixes s =
  let n = String.length s in
  let rec go off acc =
    if off = n then List.rev acc
    else begin
      let p, off' = prefix_decode s off in
      go off' (p :: acc)
    end
  in
  go 0 []

let msg_decode s off =
  match msg_peek_length s off with
  | None -> None
  | Some total ->
      if off + total > String.length s then None
      else begin
        let ty = Char.code s.[off + 18] in
        let body =
          String.sub s (off + Msg.header_size) (total - Msg.header_size)
        in
        let blen = String.length body in
        let read_u16 o =
          (Char.code body.[o] lsl 8) lor Char.code body.[o + 1]
        in
        let msg =
          match ty with
          | 1 ->
              if blen < 10 then
                Bgp_error.fail ~context:"Msg.decode" "short OPEN";
              let bgp_id =
                Int32.logor
                  (Int32.shift_left (Int32.of_int (Char.code body.[5])) 24)
                  (Int32.of_int
                     ((Char.code body.[6] lsl 16)
                     lor (Char.code body.[7] lsl 8)
                     lor Char.code body.[8]))
              in
              Msg.Open
                {
                  version = Char.code body.[0];
                  my_as = read_u16 1;
                  hold_time = read_u16 3;
                  bgp_id;
                }
          | 2 ->
              if blen < 4 then
                Bgp_error.fail ~context:"Msg.decode" "short UPDATE";
              let wlen = read_u16 0 in
              if 2 + wlen + 2 > blen then
                Bgp_error.fail ~context:"Msg.decode" "bad withdrawn length";
              let withdrawn = msg_decode_prefixes (String.sub body 2 wlen) in
              let alen = read_u16 (2 + wlen) in
              if 4 + wlen + alen > blen then
                Bgp_error.fail ~context:"Msg.decode" "bad attribute length";
              let attrs = attr_decode_all (String.sub body (4 + wlen) alen) in
              let nlri_off = 4 + wlen + alen in
              let nlri =
                msg_decode_prefixes
                  (String.sub body nlri_off (blen - nlri_off))
              in
              Msg.Update { withdrawn; attrs; nlri }
          | 3 ->
              if blen < 2 then
                Bgp_error.fail ~context:"Msg.decode" "short NOTIFICATION";
              Msg.Notification
                {
                  code = Char.code body.[0];
                  subcode = Char.code body.[1];
                  data = String.sub body 2 (blen - 2);
                }
          | 4 ->
              if blen <> 0 then
                Bgp_error.fail ~context:"Msg.decode" "KEEPALIVE with body";
              Msg.Keepalive
          | ty -> Bgp_error.fail ~context:"Msg.decode" "unknown type %d" ty
        in
        Some (msg, off + total)
      end

(* --- legacy pcap decode ------------------------------------------------ *)

let ethernet_header_len = 14
let ipv4_header_len = 20
let max_record_len = 0x0400_0000
let magic_us = 0xA1B2C3D4l
let magic_ns = 0xA1B23C4Dl

type endianness = Le | Be

let get_u8 b off = Char.code (Bytes.get b off)

let get_u16 e b off =
  match e with
  | Le -> get_u8 b off lor (get_u8 b (off + 1) lsl 8)
  | Be -> (get_u8 b off lsl 8) lor get_u8 b (off + 1)

let get_u32 e b off =
  match e with
  | Le ->
      get_u8 b off
      lor (get_u8 b (off + 1) lsl 8)
      lor (get_u8 b (off + 2) lsl 16)
      lor (get_u8 b (off + 3) lsl 24)
  | Be ->
      (get_u8 b off lsl 24)
      lor (get_u8 b (off + 1) lsl 16)
      lor (get_u8 b (off + 2) lsl 8)
      lor get_u8 b (off + 3)

let diag severity ?record ~code fmt =
  Format.kasprintf
    (fun message -> { P.Diag.code; severity; record; message })
    fmt

let diag_error ?record = diag P.Diag.Error ?record
let diag_warning ?record = diag P.Diag.Warning ?record
let diag_info ?record = diag P.Diag.Info ?record

exception Skip_record
exception Stop_reading

let pcap_decode_frame ~emit ~clipped ~ri ~ts frame incl =
  let skip d =
    emit d;
    raise_notrace Skip_record
  in
  try
    if incl < ethernet_header_len then
      skip
        (diag_info ~record:ri ~code:"P009" "runt frame (%d captured bytes)"
           incl);
    let ethertype = get_u16 Be frame 12 in
    let l2, ethertype =
      if ethertype = 0x8100 then begin
        if incl < ethernet_header_len + 4 then
          skip (diag_info ~record:ri ~code:"P009" "runt 802.1Q frame");
        emit (diag_info ~record:ri ~code:"P010" "802.1Q VLAN-tagged frame");
        (ethernet_header_len + 4, get_u16 Be frame 16)
      end
      else (ethernet_header_len, ethertype)
    in
    if ethertype <> 0x0800 then
      skip
        (diag_info ~record:ri ~code:"P009" "non-IPv4 frame (ethertype 0x%04x)"
           ethertype);
    if l2 + ipv4_header_len > incl then
      skip
        (diag_warning ~record:ri ~code:"P006"
           "capture ends inside the IPv4 header");
    let vihl = get_u8 frame l2 in
    if vihl lsr 4 <> 4 then
      skip (diag_warning ~record:ri ~code:"P006" "IP version %d" (vihl lsr 4));
    let ihl = (vihl land 0x0F) * 4 in
    if ihl < ipv4_header_len then
      skip (diag_warning ~record:ri ~code:"P006" "bad IHL %d" ihl);
    let proto = get_u8 frame (l2 + 9) in
    if proto <> 6 then raise_notrace Skip_record;
    let ip_total = get_u16 Be frame (l2 + 2) in
    let tcp = l2 + ihl in
    if tcp + 20 > incl then
      skip
        (diag_warning ~record:ri ~code:"P007"
           "capture ends inside the TCP header");
    let doff = (get_u8 frame (tcp + 12) lsr 4) * 4 in
    if doff < 20 then
      skip (diag_warning ~record:ri ~code:"P007" "bad TCP data offset %d" doff);
    if ihl + doff > ip_total then
      skip
        (diag_warning ~record:ri ~code:"P007"
           "TCP data offset overruns the IP datagram (IHL %d + offset %d > \
            total %d)"
           ihl doff ip_total);
    let len = ip_total - ihl - doff in
    let payload_off = tcp + doff in
    let captured = max 0 (min len (incl - payload_off)) in
    if captured < len then incr clipped;
    let payload =
      if captured = 0 then "" else Bytes.sub_string frame payload_off captured
    in
    let mss_opt = ref None in
    let hdr_end = tcp + doff in
    let limit = min hdr_end incl in
    let rec scan o =
      if o < limit then
        match get_u8 frame o with
        | 0 -> ()
        | 1 -> scan (o + 1)
        | kind ->
            if o + 2 > limit then begin
              if limit >= hdr_end then
                emit
                  (diag_warning ~record:ri ~code:"P008"
                     "TCP option %d overruns the header" kind)
            end
            else begin
              let olen = get_u8 frame (o + 1) in
              if olen < 2 then
                emit
                  (diag_warning ~record:ri ~code:"P008"
                     "TCP option %d has bad length %d" kind olen)
              else if o + olen > hdr_end then
                emit
                  (diag_warning ~record:ri ~code:"P008"
                     "TCP option %d (length %d) overruns the header" kind olen)
              else if o + olen > limit then ()
              else begin
                if kind = 2 && olen = 4 then
                  mss_opt := Some (get_u16 Be frame (o + 2));
                scan (o + olen)
              end
            end
    in
    scan (tcp + 20);
    let src_ip = Int32.of_int (get_u32 Be frame (l2 + 12)) in
    let dst_ip = Int32.of_int (get_u32 Be frame (l2 + 16)) in
    let src_port = get_u16 Be frame tcp in
    let dst_port = get_u16 Be frame (tcp + 2) in
    let seq = get_u32 Be frame (tcp + 4) in
    let ack = get_u32 Be frame (tcp + 8) in
    let fl = get_u8 frame (tcp + 13) in
    let window = get_u16 Be frame (tcp + 14) in
    let flags =
      Seg.flags ~fin:(fl land 0x01 <> 0) ~syn:(fl land 0x02 <> 0)
        ~rst:(fl land 0x04 <> 0) ~psh:(fl land 0x08 <> 0)
        ~ack:(fl land 0x10 <> 0) ()
    in
    Some
      (Seg.v ~ts
         ~src:(Endpoint.v src_ip src_port)
         ~dst:(Endpoint.v dst_ip dst_port)
         ~seq ~ack ~len ~window ~flags ?mss_opt:!mss_opt ~payload ())
  with Skip_record -> None

let pcap_fold_read ?(strict = false) ?(on_diag = fun (_ : P.Diag.t) -> ())
    ~read ~init f =
  let records = ref 0
  and decoded = ref 0
  and skipped = ref 0
  and clipped = ref 0 in
  let emit (d : P.Diag.t) =
    on_diag d;
    if strict && (match d.P.Diag.severity with
                 | P.Diag.Error | P.Diag.Warning -> true
                 | P.Diag.Info -> false)
    then raise (P.Decode_error ("Pcap.decode: " ^ d.P.Diag.message))
  in
  let fatal d =
    emit d;
    raise_notrace Stop_reading
  in
  let read_upto buf len =
    let rec go off =
      if off >= len then off
      else
        let n = read buf off (len - off) in
        if n = 0 then off else go (off + n)
    in
    go 0
  in
  let acc = ref init in
  (try
     let ghdr = Bytes.create 24 in
     if read_upto ghdr 24 < 24 then
       fatal (diag_error ~code:"P002" "truncated header");
     let raw_le = get_u32 Le ghdr 0 in
     let endian, ns =
       if Int32.equal (Int32.of_int raw_le) magic_us then (Le, false)
       else if Int32.equal (Int32.of_int raw_le) magic_ns then (Le, true)
       else begin
         let raw_be = get_u32 Be ghdr 0 in
         if Int32.equal (Int32.of_int raw_be) magic_us then (Be, false)
         else if Int32.equal (Int32.of_int raw_be) magic_ns then (Be, true)
         else fatal (diag_error ~code:"P001" "bad magic")
       end
     in
     let link_type = get_u32 endian ghdr 20 in
     if link_type <> 1 then
       fatal (diag_error ~code:"P003" "unsupported link type");
     let rhdr = Bytes.create 16 in
     let frame = ref (Bytes.create 65536) in
     let stop = ref false in
     while not !stop do
       let n = read_upto rhdr 16 in
       if n = 0 then stop := true
       else if n < 16 then begin
         emit
           (diag_warning ~record:!records ~code:"P004"
              "truncated record header (%d trailing bytes)" n);
         stop := true
       end
       else begin
         let incl = get_u32 endian rhdr 8 in
         if incl > max_record_len then begin
           emit
             (diag_warning ~record:!records ~code:"P005"
                "implausible record length %d" incl);
           stop := true
         end
         else begin
           if incl > Bytes.length !frame then begin
             let cap = ref (Bytes.length !frame) in
             while incl > !cap do
               cap := !cap * 2
             done;
             frame := Bytes.create !cap
           end;
           let got = read_upto !frame incl in
           if got < incl then begin
             emit
               (diag_warning ~record:!records ~code:"P005" "truncated packet");
             stop := true
           end
           else begin
             let ts_sec = get_u32 endian rhdr 0 in
             let ts_sub = get_u32 endian rhdr 4 in
             let ts_us = if ns then ts_sub / 1000 else ts_sub in
             let ts = (ts_sec * 1_000_000) + ts_us in
             let ri = !records in
             incr records;
             match pcap_decode_frame ~emit ~clipped ~ri ~ts !frame incl with
             | Some seg ->
                 incr decoded;
                 acc := f !acc seg
             | None -> incr skipped
           end
         end
       end
     done
   with Stop_reading -> ());
  ( !acc,
    {
      P.records = !records;
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

(* The decoded segments in [Tcp_segment.compare_ts] order, sorted here
   by a frozen [List.stable_sort] rather than by [Trace]'s columnar
   sort, so the oracle shares no code with the trace it checks. *)
type pcap_result = {
  segments : Seg.t list;
  diags : P.Diag.t list;
  stats : P.stats;
}

let pcap_decode_result ?(strict = false) data =
  let diags = ref [] in
  let segs, stats =
    pcap_fold_read ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      ~read:(reader_of_string data) ~init:[]
      (fun acc s -> s :: acc)
  in
  let diags = List.rev !diags in
  let diags =
    if stats.P.clipped > 0 then
      diags
      @ [
          diag_info ~code:"P011"
            "%d of %d records snaplen-clipped (captured payload shorter than \
             the declared TCP length)"
            stats.P.clipped stats.P.records;
        ]
    else diags
  in
  { segments = List.stable_sort Seg.compare_ts (List.rev segs); diags; stats }

(* --- legacy MRT decode ------------------------------------------------- *)

module M = Mrt

let mrt_max_record_len = 1 lsl 24
let bgp4mp = 16
let bgp4mp_et = 17
let subtype_state_change = 0
let subtype_message = 1

let u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let i32 s off = Int32.of_int (u32 s off)

let bu16 b off =
  (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let bu32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let mrt_skipped_note ~idx ~ty ~subtype =
  `Diag
    {
      M.Diag.code = "M005";
      severity = M.Diag.Info;
      record = Some idx;
      message =
        Printf.sprintf "skipped record (type %d, subtype %d)" ty subtype;
    }

let mrt_parse_body ~idx ~sec ~ty ~subtype body =
  let len = String.length body in
  let warn code message =
    `Diag { M.Diag.code; severity = M.Diag.Warning; record = Some idx; message }
  in
  if ty <> bgp4mp && ty <> bgp4mp_et then mrt_skipped_note ~idx ~ty ~subtype
  else if subtype <> subtype_message && subtype <> subtype_state_change then
    mrt_skipped_note ~idx ~ty ~subtype
  else if ty = bgp4mp_et && len < 4 then warn "M003" "short BGP4MP body"
  else begin
    let usec, p = if ty = bgp4mp_et then (u32 body 0, 4) else (0, 0) in
    let ts = (sec * 1_000_000) + usec in
    if subtype = subtype_message then begin
      if p + 16 > len then warn "M003" "short BGP4MP body"
      else begin
        let peer_as = u16 body p in
        let local_as = u16 body (p + 2) in
        let peer_ip = i32 body (p + 8) in
        let local_ip = i32 body (p + 12) in
        match msg_decode body (p + 16) with
        | Some (msg, _) ->
            `Entry
              (M.Message { ts; peer_as; local_as; peer_ip; local_ip; msg })
        | None -> warn "M004" "bad embedded BGP message"
        | exception Bgp_error.Decode_error _ ->
            warn "M004" "bad embedded BGP message"
      end
    end
    else begin
      if p + 20 > len then warn "M003" "short BGP4MP body"
      else begin
        let old_code = u16 body (p + 16) in
        let new_code = u16 body (p + 18) in
        match (M.fsm_state_of_code old_code, M.fsm_state_of_code new_code) with
        | Some old_state, Some new_state ->
            `Entry
              (M.State
                 {
                   sc_ts = ts;
                   sc_peer_as = u16 body p;
                   sc_local_as = u16 body (p + 2);
                   sc_peer_ip = i32 body (p + 8);
                   sc_local_ip = i32 body (p + 12);
                   old_state;
                   new_state;
                 })
        | _ -> warn "M006" "bad state-change body"
      end
    end
  end

let mrt_fold_fill ?(strict = false) ?(on_diag = fun _ -> ()) fill ~init f =
  let emit d =
    on_diag d;
    if strict then
      match d.M.Diag.severity with
      | M.Diag.Error | M.Diag.Warning ->
          Bgp_error.fail ~context:"Mrt.decode" "%s" d.M.Diag.message
      | M.Diag.Info -> ()
  in
  let hdr = Bytes.create 12 in
  let body = ref (Bytes.create 4096) in
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
          M.Diag.code = "M001";
          severity = M.Diag.Warning;
          record = Some !records;
          message = "truncated header";
        };
      acc
    end
    else begin
      let sec = bu32 hdr 0 in
      let ty = bu16 hdr 4 in
      let subtype = bu16 hdr 6 in
      let rec_len = bu32 hdr 8 in
      if rec_len > mrt_max_record_len then begin
        emit
          {
            M.Diag.code = "M007";
            severity = M.Diag.Warning;
            record = Some !records;
            message = "oversized record";
          };
        acc
      end
      else begin
        if Bytes.length !body < rec_len then body := Bytes.create rec_len;
        let got = fill !body rec_len in
        if got < rec_len then begin
          emit
            {
              M.Diag.code = "M002";
              severity = M.Diag.Warning;
              record = Some !records;
              message = "truncated record";
            };
          acc
        end
        else begin
          let idx = !records in
          incr records;
          let body_s = Bytes.sub_string !body 0 rec_len in
          match mrt_parse_body ~idx ~sec ~ty ~subtype body_s with
          | `Entry e ->
              (match e with
              | M.Message _ -> incr bgp_messages
              | M.State _ -> incr state_changes);
              go (f acc e)
          | `Diag d ->
              incr skipped;
              emit d;
              go acc
        end
      end
    end
  in
  let acc = go init in
  ( acc,
    {
      M.records = !records;
      bgp_messages = !bgp_messages;
      state_changes = !state_changes;
      skipped = !skipped;
    } )

let mrt_decode_result ?(strict = false) s =
  let pos = ref 0 in
  let len = String.length s in
  let fill buf n =
    let take = Stdlib.min n (len - !pos) in
    Bytes.blit_string s !pos buf 0 take;
    pos := !pos + take;
    take
  in
  let diags = ref [] in
  let entries, stats =
    mrt_fold_fill ~strict
      ~on_diag:(fun d -> diags := d :: !diags)
      fill ~init:[]
      (fun acc e -> e :: acc)
  in
  { M.entries = List.rev entries; diags = List.rev !diags; stats }

(* --- byte-loop BGP header check --------------------------------------------- *)

(* [Msg.header_length] as it was before it read the marker with two
   64-bit loads: one byte at a time, after the same range check. *)
let msg_header_length buf p =
  if p < 0 || p + Msg.header_size > Bytes.length buf then
    invalid_arg "Msg.header_length: range outside the buffer";
  let byte p = Char.code (Bytes.get buf p) in
  let ok = ref true and i = ref 0 in
  while !ok && !i < 16 do
    if byte (p + !i) <> 0xff then ok := false;
    incr i
  done;
  let total = (byte (p + 16) lsl 8) lor byte (p + 17) in
  if !ok && total >= Msg.header_size && total <= Msg.max_size then total
  else -1

(* --- byte-loop NLRI key ------------------------------------------------------- *)

(* [Mct]'s packed key of the NLRI entry whose length byte [plen] sits at
   [p], as it was read before the one-load key: one byte per address
   byte the entry holds, then the mask and layout of [Mct.pack]. *)
let mct_pack_at buf p plen =
  let u = ref 0 in
  for i = 0 to ((plen + 7) / 8) - 1 do
    u := !u lor (Char.code (Bytes.get buf (p + 1 + i)) lsl (24 - (8 * i)))
  done;
  let m = if plen = 0 then 0 else 0xFFFFFFFF lsl (32 - plen) land 0xFFFFFFFF in
  ((!u land m) lsl 6) lor plen

(* --- list-pipeline timer detector ------------------------------------------- *)

(* [Tdat.Detect_timer.detect] as it was before it sorted an int array:
   the gap lengths as a list, filtered, mapped to floats, sorted and
   knee-fitted by [Knee.knee_of_sorted], the cluster filtered out of
   the list and its median taken by [Descriptive.median].  [raw] is the
   gap lengths in event order. *)
let detect_timer_gaps ?(min_gap = 20_000) ?(max_gap = 2_000_000)
    ?(min_count = 10) ?(cluster_fraction = 0.5) raw :
    Tdat.Detect_timer.result option =
  let gaps = List.filter (fun d -> d >= min_gap && d <= max_gap) raw in
  if List.length gaps < min_count then None
  else begin
    let as_floats = List.map float_of_int gaps in
    match Tdat_stats.Knee.knee_of_sorted as_floats with
    | None -> None
    | Some knee ->
        let lo = 0.85 *. knee and hi = 1.15 *. knee in
        let clustered =
          List.filter (fun g -> g >= lo && g <= hi) as_floats
        in
        let n_clustered = List.length clustered in
        if
          float_of_int n_clustered
          < cluster_fraction *. float_of_int (List.length gaps)
        then None
        else begin
          let timer =
            int_of_float (Tdat_stats.Descriptive.median clustered)
          in
          let induced =
            List.fold_left ( + ) 0 (List.map int_of_float clustered)
          in
          Some
            {
              Tdat.Detect_timer.timer;
              gaps = n_clustered;
              induced_delay = induced;
            }
        end
  end

(* The gap lengths [Detect_timer.detect] reads off a generated series,
   as [Series.durations] listed them. *)
let detect_timer gen =
  detect_timer_gaps
    (List.map
       (fun (sp, _) -> Tdat_timerange.Span.length sp)
       (Tdat_timerange.Series.to_list
          (Tdat.Series_gen.events gen Tdat.Series_defs.Send_app_limited)))

(* --- legacy L-method knee (O(n^2)) ---------------------------------------- *)

(* [Tdat_stats.Knee.l_method] as it was before the prefix-sum rewrite:
   every split refits both halves from scratch over fresh copies.  The
   oracle for the knee-equivalence property and the quadratic kernel
   the size-ratio guard must reject. *)

type knee_fit = { slope : float; intercept : float; rmse : float }

let knee_linear_fit points =
  let n = Array.length points in
  if n < 2 then invalid_arg "Knee.linear_fit: need at least 2 points";
  let fn = float_of_int n in
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
  Array.iter
    (fun (x, y) ->
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y))
    points;
  let denom = (fn *. !sxx) -. (!sx *. !sx) in
  let slope =
    if abs_float denom < 1e-12 then 0.
    else ((fn *. !sxy) -. (!sx *. !sy)) /. denom
  in
  let intercept = (!sy -. (slope *. !sx)) /. fn in
  let se = ref 0. in
  Array.iter
    (fun (x, y) ->
      let e = y -. ((slope *. x) +. intercept) in
      se := !se +. (e *. e))
    points;
  { slope; intercept; rmse = sqrt (!se /. fn) }

let l_method points =
  let n = Array.length points in
  if n < 4 then None
  else begin
    let fn = float_of_int n in
    let best = ref None in
    (* Split c (1-based count of left points) from 2 to n-2 so both sides
       hold at least two points. *)
    for c = 2 to n - 2 do
      let left = Array.sub points 0 c in
      let right = Array.sub points c (n - c) in
      let fl = knee_linear_fit left and fr = knee_linear_fit right in
      let cost =
        (float_of_int c /. fn *. fl.rmse)
        +. (float_of_int (n - c) /. fn *. fr.rmse)
      in
      match !best with
      | Some (_, best_cost) when best_cost <= cost -> ()
      | _ -> best := Some (c, cost)
    done;
    match !best with
    | None -> None
    | Some (c, _) ->
        let x, _ = points.(c - 1) in
        Some (c - 1, x)
  end

(* --- legacy reassembly delivery bookkeeping (list scan) ------------------- *)

(* The frontier tracking of [Stream_reassembly] before the advances moved
   into arrays: every frontier advance is consed onto a reverse-ordered
   list and [delivery_time] walks the whole list.  Only the interval and
   delivery bookkeeping is kept; the byte buffer does not affect when a
   byte becomes deliverable. *)

type reasm = {
  mutable received : (int * int) list;
  mutable frontier : int;
  mutable deliveries : (int * Tdat_timerange.Time_us.t) list;
}

let reasm_create () = { received = []; frontier = 0; deliveries = [] }

let insert_interval intervals lo hi =
  let rec go acc overlap lo hi = function
    | [] -> (List.rev ((lo, hi) :: acc), overlap)
    | (a, b) :: rest when b < lo -> go ((a, b) :: acc) overlap lo hi rest
    | (a, b) :: rest when hi < a ->
        (List.rev_append acc ((lo, hi) :: (a, b) :: rest), overlap)
    | (a, b) :: rest ->
        let ov = max 0 (min hi b - max lo a) in
        go acc (overlap + ov) (min lo a) (max hi b) rest
  in
  go [] 0 lo hi intervals

let reasm_feed ?(rebase = 0) t (seg : Seg.t) =
  if seg.len > 0 then begin
    let lo = seg.seq - rebase in
    let hi = lo + seg.len in
    if lo < 0 then invalid_arg "Stream_reassembly.feed: negative offset";
    let received, _overlap = insert_interval t.received lo hi in
    t.received <- received;
    match t.received with
    | (0, hi0) :: _ when hi0 > t.frontier ->
        t.frontier <- hi0;
        t.deliveries <- (hi0, seg.ts) :: t.deliveries
    | _ -> ()
  end

let delivery_time t off =
  if off >= t.frontier then
    invalid_arg "Stream_reassembly.delivery_time: offset beyond frontier";
  (* deliveries are reverse-ordered by frontier; find the earliest advance
     covering [off]. *)
  let rec search best = function
    | [] -> best
    | (hi, ts) :: rest -> if hi > off then search ts rest else best
  in
  match t.deliveries with
  | [] -> invalid_arg "Stream_reassembly.delivery_time: no deliveries"
  | (_, latest) :: _ -> search latest t.deliveries

(* --- list-interval stream reassembly -------------------------------------- *)

(* [Stream_reassembly] before its received set moved into a map of the
   intervals past the frontier: every segment walks and rebuilds the
   whole sorted interval list through [insert_interval] above, which is
   quadratic when holes stay open (a lossy capture).  Kept whole, byte
   buffer and all, minus the scratch arena, as the oracle for
   [contiguous], [delivery_time], [total_gaps] and [duplicate_bytes]. *)
module List_reasm = struct
  type t = {
    mutable data : Bytes.t;
    mutable received : (int * int) list;
    mutable frontier : int;
    mutable advances : int array;
    mutable advance_ts : Tdat_timerange.Time_us.t array;
    mutable n_advances : int;
    mutable duplicate_bytes : int;
  }

  let create () =
    {
      data = Bytes.create 4096;
      received = [];
      frontier = 0;
      advances = [||];
      advance_ts = [||];
      n_advances = 0;
      duplicate_bytes = 0;
    }

  let ensure_capacity t needed =
    let cap = Bytes.length t.data in
    if needed > cap then begin
      let cap' = ref cap in
      while needed > !cap' do
        cap' := !cap' * 2
      done;
      let bigger = Bytes.create !cap' in
      Bytes.blit t.data 0 bigger 0 cap;
      t.data <- bigger
    end

  let record_advance t hi ts =
    let n = t.n_advances in
    if n = Array.length t.advances then begin
      let grow a fill =
        let b = Array.make (max 64 (2 * n)) fill in
        Array.blit a 0 b 0 n;
        b
      in
      t.advances <- grow t.advances 0;
      t.advance_ts <- grow t.advance_ts Tdat_timerange.Time_us.zero
    end;
    t.advances.(n) <- hi;
    t.advance_ts.(n) <- ts;
    t.n_advances <- n + 1

  let feed ?(rebase = 0) t (seg : Seg.t) =
    if seg.len > 0 then begin
      let lo = seg.seq - rebase in
      let hi = lo + seg.len in
      if lo < 0 then invalid_arg "Stream_reassembly.feed: negative offset";
      ensure_capacity t hi;
      let received, overlap = insert_interval t.received lo hi in
      let copy = min (String.length seg.payload) seg.len in
      if copy > 0 then Bytes.blit_string seg.payload 0 t.data lo copy;
      if copy < seg.len then
        Bytes.fill t.data (lo + copy) (seg.len - copy) '\000';
      t.received <- received;
      t.duplicate_bytes <- t.duplicate_bytes + overlap;
      match t.received with
      | (0, hi0) :: _ when hi0 > t.frontier ->
          t.frontier <- hi0;
          record_advance t hi0 seg.ts
      | _ -> ()
    end

  let contiguous t = Bytes.sub_string t.data 0 t.frontier

  let delivery_time t off =
    if off >= t.frontier then
      invalid_arg "Stream_reassembly.delivery_time: offset beyond frontier";
    if t.n_advances = 0 then
      invalid_arg "Stream_reassembly.delivery_time: no deliveries";
    let lo = ref 0 and hi = ref (t.n_advances - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.advances.(mid) > off then hi := mid else lo := mid + 1
    done;
    t.advance_ts.(!lo)

  let total_gaps t =
    match t.received with [] -> 0 | (_, _) :: rest -> List.length rest

  let duplicate_bytes t = t.duplicate_bytes
end

(* --- per-connection split (one O(packets) rescan per connection) ---------- *)

(* [Trace.split_connection], which [Trace.partition_connections]
   replaced: count the connection's segments, then fill a pre-sized
   array.  [Trace.t] is abstract here, so the array is read through
   [Trace.get] and handed back through [Trace.of_segments], whose stable
   sort keeps the already time-ordered segments in place. *)
let split_connection t ~sender ~receiver =
  let flow = Tdat_pkt.Flow.v ~sender ~receiver in
  let n = Trace.length t in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Tdat_pkt.Flow.matches flow (Trace.get t i) then incr count
  done;
  if !count = 0 then Trace.of_segments ~voids:(Trace.voids t) []
  else begin
    let out = Array.make !count (Trace.get t 0) in
    let k = ref 0 in
    for i = 0 to n - 1 do
      let seg = Trace.get t i in
      if Tdat_pkt.Flow.matches flow seg then begin
        out.(!k) <- seg;
        incr k
      end
    done;
    Trace.of_segments ~voids:(Trace.voids t) (Array.to_list out)
  end

(* --- list-based MCT transfer end ------------------------------------------ *)

(* [Mct.transfer_end] over a [(Prefix.t, unit) Hashtbl.t], with its own
   copy of the decision rule, and the [of_timed_msgs] adapter that fed it
   extracted messages: the reference the streaming scan and the shared
   rule of [Mct] are both checked against. *)
let transfer_end ?(config = Mct.default_config) ~start updates :
    Mct.result option =
  let seen : (Prefix.t, unit) Hashtbl.t = Hashtbl.create 1024 in
  let relevant = List.filter (fun (ts, _) -> ts >= start) updates in
  let finish last n_updates =
    match last with
    | None -> None
    | Some ts ->
        Some { Mct.end_ts = ts; prefixes = Hashtbl.length seen; updates = n_updates }
  in
  let rec scan last n_updates = function
    | [] -> finish last n_updates
    | (ts, prefixes) :: rest ->
        let quiet =
          match last with
          | Some prev -> ts - prev > config.Mct.quiet_gap
          | None -> false
        in
        if quiet then finish last n_updates
        else begin
          let total = List.length prefixes in
          let dups =
            List.length (List.filter (Hashtbl.mem seen) prefixes)
          in
          let churn =
            total > 0
            && Hashtbl.length seen >= config.Mct.min_seen
            && float_of_int dups >= config.Mct.dup_fraction *. float_of_int total
          in
          if churn then finish last n_updates
          else begin
            List.iter
              (fun p -> if not (Hashtbl.mem seen p) then Hashtbl.add seen p ())
              prefixes;
            scan (Some ts) (n_updates + 1) rest
          end
        end
  in
  scan None 0 relevant

let of_timed_msgs msgs =
  List.filter_map
    (fun (m : Msg_reader.timed_msg) ->
      match m.msg with
      | Msg.Update u when u.Msg.nlri <> [] -> Some (m.ts, u.Msg.nlri)
      | Msg.Update _ | Msg.Open _ | Msg.Keepalive | Msg.Notification _ -> None)
    msgs

(* --- printf-built study report JSON --------------------------------------- *)

(* [Tdat_study.Report.to_json] as it printed the report before the
   shared codec wrote it: every number with [%.1f] (whole values below
   1e15) or [%.6g], so the codec's spelling must parse to the same
   doubles.  Not valid JSON for a non-finite threshold ([inf]). *)
module Study_json = struct
  module Archive = Tdat_study.Archive
  module Aggregate = Tdat_study.Aggregate
  module Transfer = Tdat_study.Transfer
  module Descriptive = Tdat_stats.Descriptive

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_float x =
    if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
      if Float.is_nan x then "null" else Printf.sprintf "%.1f" x
    else Printf.sprintf "%.6g" x

  let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

  let json_of_diag (d : Mrt.Diag.t) =
    Printf.sprintf "{\"code\":\"%s\",\"severity\":\"%s\",\"record\":%s,\"message\":\"%s\"}"
      d.Mrt.Diag.code
      (Mrt.Diag.severity_name d.Mrt.Diag.severity)
      (match d.Mrt.Diag.record with Some i -> string_of_int i | None -> "null")
      (escape d.Mrt.Diag.message)

  let json_of_file (f : Archive.file_report) =
    let s = f.Archive.stats in
    Printf.sprintf
      "{\"path\":\"%s\",\"records\":%d,\"bgp_messages\":%d,\"state_changes\":%d,\
       \"skipped\":%d,\"transfers\":%d,\"diags\":%s}"
      (escape f.Archive.path)
      s.Mrt.records s.Mrt.bgp_messages s.Mrt.state_changes s.Mrt.skipped
      (List.length f.Archive.transfers)
      (json_list json_of_diag f.Archive.diags)

  let json_of_transfer ~threshold (t : Transfer.t) =
    Printf.sprintf
      "{\"source\":\"%s\",\"peer_as\":%d,\"peer_ip\":\"%s\",\"start_us\":%d,\
       \"end_us\":%d,\"duration_s\":%s,\"prefixes\":%d,\"messages\":%d,\
       \"rate_pfx_s\":%s,\"anchored\":%b,\"slow\":%b}"
      (escape t.Transfer.source)
      t.Transfer.peer_as
      (Format.asprintf "%a" Transfer.pp_ip t.Transfer.peer_ip)
      t.Transfer.start_ts t.Transfer.end_ts
      (json_float (Transfer.duration_s t))
      t.Transfer.prefixes t.Transfer.messages
      (json_float (Transfer.rate t))
      t.Transfer.anchored
      ((not (Float.is_nan threshold)) && Transfer.duration_s t > threshold)

  let json_of_peer (p : Aggregate.peer_summary) =
    Printf.sprintf
      "{\"peer_as\":%d,\"peer_ip\":\"%s\",\"transfers\":%d,\"anchored\":%d,\
       \"slow\":%d,\"prefixes_total\":%d,\"duration_mean_s\":%s,\
       \"duration_max_s\":%s}"
      p.Aggregate.peer_as
      (Format.asprintf "%a" Transfer.pp_ip p.Aggregate.peer_ip)
      p.Aggregate.transfers p.Aggregate.anchored p.Aggregate.slow
      p.Aggregate.prefixes_total
      (json_float p.Aggregate.duration.Descriptive.mean)
      (json_float p.Aggregate.duration.Descriptive.max)

  let to_json (r : Aggregate.report) =
    let threshold = r.Aggregate.slow_threshold_s in
    let durations = List.map Transfer.duration_s r.Aggregate.transfers in
    let quantiles =
      match durations with
      | [] -> "null"
      | _ ->
          let q p = json_float (Descriptive.percentile p durations) in
          Printf.sprintf
            "{\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s}"
            (q 50.) (q 90.) (q 99.) (q 100.)
    in
    Printf.sprintf
      "{\"files\":%s,\"transfers\":%s,\"slow_threshold_s\":%s,\
       \"threshold\":\"%s\",\"duration_knee_s\":%s,\"slow_transfers\":%d,\
       \"peers\":%s,\"duration_quantiles_s\":%s}"
      (json_list json_of_file r.Aggregate.files)
      (json_list (json_of_transfer ~threshold) r.Aggregate.transfers)
      (json_float threshold)
      (if r.Aggregate.threshold_auto then "auto" else "fixed")
      (match r.Aggregate.duration_knee_s with
      | Some k -> json_float k
      | None -> "null")
      (List.length r.Aggregate.slow)
      (json_list json_of_peer r.Aggregate.peers)
      quantiles
end

(* --- decoded-entry study scan --------------------------------------------- *)

(* The study scan over already-decoded MRT entries, as the library ran
   it before [Archive.scan_file]'s summary fold was the one scan:
   [Detect.observe] fed from each entry, and a file report whose
   counters are taken from the entries (no diagnostics). *)
module Entry_scan = struct
  module Archive = Tdat_study.Archive
  module Detect = Tdat_study.Detect

  let feed d entry =
    let ip a = Int32.to_int a land 0xFFFF_FFFF in
    match entry with
    | Mrt.State s ->
        Detect.observe d ~ts:s.Mrt.sc_ts ~peer_as:s.Mrt.sc_peer_as
          ~peer_ip:(ip s.Mrt.sc_peer_ip)
          ~kind:(Mrt.Kind.of_new_state s.Mrt.new_state) ~nlri:0
    | Mrt.Message r ->
        Detect.observe d ~ts:r.Mrt.ts ~peer_as:r.Mrt.peer_as
          ~peer_ip:(ip r.Mrt.peer_ip) ~kind:(Mrt.Kind.of_msg r.Mrt.msg)
          ~nlri:(Msg.nlri_count r.Mrt.msg)

  let over_entries ?config ?source entries =
    let d = Detect.create ?config ?source () in
    List.iter (feed d) entries;
    Detect.finish d

  let scan_entries ?config ?(source = "") entries =
    let transfers = over_entries ?config ~source entries in
    let count f = List.length (List.filter f entries) in
    {
      Archive.path = source;
      transfers;
      diags = [];
      stats =
        {
          Mrt.records = List.length entries;
          bgp_messages =
            count (function Mrt.Message _ -> true | Mrt.State _ -> false);
          state_changes =
            count (function Mrt.State _ -> true | Mrt.Message _ -> false);
          skipped = 0;
        };
    }
end

(* --- a reassembler with a buffer of its own --------------------------------- *)

(* [Stream_reassembly] always runs over a scratch cell; tests that want
   a fresh, unshared buffer (what [create] gave without [~scratch]) hand
   it a cell no arena owns.  [feed] is the segment-at-a-time feed the
   reassembler had before it took payload slices. *)
module Fresh_reasm = struct
  let cell () = { Tdat_parallel.Scratch.buf = Bytes.empty; busy = true }
  let create () = Stream_reassembly.create ~scratch:(cell ()) ()

  let feed t (seg : Seg.t) =
    Stream_reassembly.feed t ~rebase:0 ~ts:seg.ts ~seq:seg.seq ~len:seg.len
      (Tdat_pkt.Slice.of_string seg.payload)

  let of_segments segs =
    let t = create () in
    List.iter (feed t) segs;
    t
end

(* --- record-based connection profile, ACK shift and series generation ---

   The analyzer as it was before it read trace columns: [Profile_ref] builds
   one header-only segment record per data and ACK packet, [Shift_ref] copies
   the ACK records with shifted timestamps and re-sorts them, and
   [Series_ref] generates the event series from those records.  Oracles for
   the column-reading [Conn_profile], [Ack_shift] and [Series_gen]. *)

module Profile_ref = struct
  open Tdat_timerange
  module Seg = Tdat_pkt.Tcp_segment
  module Flow = Tdat_pkt.Flow

  type label =
    | In_order
    | Above_hole
    | Fill_reorder
    | Fill_retransmission
    | Redelivery

  type data_packet = { seg : Seg.t; label : label }

  let filler =
    Seg.v ~ts:0 ~src:(Tdat_pkt.Endpoint.v 0l 0) ~dst:(Tdat_pkt.Endpoint.v 0l 0)
      ~seq:0 ~ack:0 ()

  let data_filler = { seg = filler; label = In_order }

  type loss_episode = { span : Span.t; packets : int; bytes : int }

  type t = {
    flow : Flow.t;
    start_time : Time_us.t;
    end_time : Time_us.t;
    syn_rtt : Time_us.t option;
    upstream_rtt : Time_us.t option;
    rtt : Time_us.t;
    mss : int;
    max_adv_window : int;
    data : data_packet array;
    acks : Seg.t array;
    upstream_episodes : loss_episode list;
    downstream_episodes : loss_episode list;
    voids : Span_set.t;
  }

  (* A raw recovery event before merging into episodes. *)
  type recovery = { r_span : Span.t; r_bytes : int }

  let merge_episodes recoveries =
    let spans = List.map (fun r -> (r.r_span, r)) recoveries in
    let sorted =
      List.sort (fun (a, _) (b, _) -> Span.compare a b) spans
    in
    let rec go acc current = function
      | [] -> List.rev (match current with None -> acc | Some e -> e :: acc)
      | (span, r) :: rest -> (
          match current with
          | None ->
              go acc (Some { span; packets = 1; bytes = r.r_bytes }) rest
          | Some e when Span.touches e.span span ->
              go acc
                (Some
                   {
                     span = Span.hull e.span span;
                     packets = e.packets + 1;
                     bytes = e.bytes + r.r_bytes;
                   })
                rest
          | Some e ->
              go (e :: acc) (Some { span; packets = 1; bytes = r.r_bytes }) rest)
    in
    go [] None sorted

  (* Holes: open sequence gaps [lo, hi) with creation time. *)
  type hole = { h_lo : int; h_hi : int; created : Time_us.t }

  let of_trace ?(reorder_factor = 0.25) trace ~flow =
    let module T = Tdat_pkt.Trace in
    let n = T.length trace in
    (* Direction predicates over the columns, endpoints compared by id.
       [to_sender] additionally excludes receiver-bound segments,
       mirroring the partition-then-filter the list pipeline used to
       do. *)
    let sender = T.find_endpoint trace flow.Flow.sender in
    let receiver = T.find_endpoint trace flow.Flow.receiver in
    let to_receiver i = T.src trace i = sender && T.dst trace i = receiver in
    let to_sender i =
      (not (to_receiver i)) && T.src trace i = receiver && T.dst trace i = sender
    in
    let has bit i = T.flags trace i land bit <> 0 in
    let is_data_seg i = to_receiver i && T.len trace i > 0 in
    let is_ack_seg i = to_sender i && has Seg.ack_bit i in
    (* Count-then-fill the two per-direction arrays straight from the
       columns: headers only, with endpoint and flag records shared with
       the trace. *)
    let n_data = ref 0 and n_acks = ref 0 in
    for i = 0 to n - 1 do
      if is_data_seg i then incr n_data;
      if is_ack_seg i then incr n_acks
    done;
    let fill count pred =
      let out = Array.make count filler in
      let k = ref 0 in
      for i = 0 to n - 1 do
        if pred i then begin
          out.(!k) <- { (T.get trace i) with Seg.payload = "" };
          incr k
        end
      done;
      out
    in
    let data_segs = fill !n_data is_data_seg in
    let acks = fill !n_acks is_ack_seg in
    (* The first packet satisfying [pred], or -1. *)
    let find pred =
      let rec go i = if i = n then -1 else if pred i then i else go (i + 1) in
      go 0
    in
    (* Handshake-based RTT: SYN seen at the sniffer to the sender's first
       post-SYN+ACK packet covers the full round trip regardless of the
       sniffer position. *)
    let syn = find (fun i -> to_receiver i && has Seg.syn_bit i) in
    let synack =
      find (fun i -> to_sender i && has Seg.syn_bit i && has Seg.ack_bit i)
    in
    let syn_rtt, upstream_rtt =
      if syn < 0 || synack < 0 then (None, None)
      else begin
        let sa_ts = T.ts trace synack in
        match find (fun i -> to_receiver i && T.ts trace i > sa_ts) with
        | -1 -> (None, None)
        | reply ->
            let reply_ts = T.ts trace reply in
            (Some (reply_ts - T.ts trace syn), Some (reply_ts - sa_ts))
      end
    in
    let start_time =
      if syn >= 0 then T.ts trace syn else if n > 0 then T.ts trace 0 else 0
    in
    let end_time = if n > 0 then T.ts trace (n - 1) else start_time in
    let mss =
      if syn >= 0 && T.mss trace syn >= 0 then T.mss trace syn
      else Array.fold_left (fun acc (s : Seg.t) -> max acc s.len) 536 data_segs
    in
    let max_adv_window =
      Array.fold_left (fun acc (s : Seg.t) -> max acc s.window) 0 acks
    in
    let rtt = max 1_000 (Option.value ~default:1_000 syn_rtt) in
    let reorder_threshold =
      max 1_000 (int_of_float (reorder_factor *. float_of_int rtt))
    in
    (* --- labeling pass ------------------------------------------------ *)
    let expected = ref 0 in
    let holes = ref ([] : hole list) in
    let first_seen : (int, Time_us.t) Hashtbl.t = Hashtbl.create 1024 in
    let upstream = ref [] and downstream = ref [] in
    let label_packet (s : Seg.t) =
      let lo = s.seq and hi = Seg.seq_end s in
      let label =
        if lo >= !expected then begin
          (* In order (possibly above an open hole). *)
          if lo > !expected then
            holes := !holes @ [ { h_lo = !expected; h_hi = lo; created = s.ts } ];
          expected := hi;
          if !holes = [] then In_order else Above_hole
        end
        else begin
          (* Below the frontier: hole fill or redelivery. *)
          let overlapping, rest =
            List.partition (fun h -> lo < h.h_hi && hi > h.h_lo) !holes
          in
          match overlapping with
          | [] ->
              (* All bytes seen before: downstream-loss recovery. *)
              let orig =
                match Hashtbl.find_opt first_seen lo with
                | Some ts -> ts
                | None -> max start_time (s.ts - rtt)
              in
              let span =
                if s.ts > orig then Span.v orig (s.ts + 1) else Span.point s.ts
              in
              downstream := { r_span = span; r_bytes = s.len } :: !downstream;
              (if hi > !expected then expected := hi);
              Redelivery
          | _ ->
              (* Fills at least one hole. *)
              let created =
                List.fold_left (fun acc h -> min acc h.created) max_int
                  overlapping
              in
              let remaining =
                List.concat_map
                  (fun h ->
                    let left =
                      if h.h_lo < lo then
                        [ { h with h_hi = min h.h_hi lo } ]
                      else []
                    in
                    let right =
                      if h.h_hi > hi then
                        [ { h with h_lo = max h.h_lo hi } ]
                      else []
                    in
                    left @ right)
                  overlapping
              in
              holes := rest @ remaining;
              if hi > !expected then expected := hi;
              if s.ts - created <= reorder_threshold then Fill_reorder
              else begin
                let span =
                  if s.ts > created then Span.v created (s.ts + 1)
                  else Span.point s.ts
                in
                upstream := { r_span = span; r_bytes = s.len } :: !upstream;
                Fill_retransmission
              end
        end
      in
      if not (Hashtbl.mem first_seen lo) then Hashtbl.add first_seen lo s.ts;
      { seg = s; label }
    in
    (* Labeling is stateful (hole tracking): fill the pre-sized array in
       order. *)
    let data = Array.make (Array.length data_segs) data_filler in
    Array.iteri (fun i s -> data.(i) <- label_packet s) data_segs;
    {
      flow;
      start_time;
      end_time;
      syn_rtt;
      upstream_rtt;
      rtt;
      mss;
      max_adv_window;
      data;
      acks;
      upstream_episodes = merge_episodes !upstream;
      downstream_episodes = merge_episodes !downstream;
      voids = Tdat_pkt.Trace.voids trace;
    }

  let retransmissions t =
    Array.fold_left
      (fun acc p ->
        match p.label with
        | Fill_retransmission | Redelivery -> acc + 1
        | In_order | Above_hole | Fill_reorder -> acc)
      0 t.data

  let duration t = t.end_time - t.start_time
  let analysis_window t = Span.v t.start_time (t.end_time + 1)

  let pp_summary ppf t =
    Format.fprintf ppf
      "%a: %d data pkts, %d acks, rtt=%a mss=%d maxwin=%d retx=%d (up %d ep, \
       down %d ep)"
      Flow.pp t.flow (Array.length t.data) (Array.length t.acks) Time_us.pp
      t.rtt t.mss t.max_adv_window (retransmissions t)
      (List.length t.upstream_episodes)
      (List.length t.downstream_episodes)

end

module Shift_ref = struct
  open Tdat_timerange
  module Seg = Tdat_pkt.Tcp_segment

  type flight_shift = {
    span : Span.t;
    n_acks : int;
    estimates : int;
    applied : Time_us.t;
  }

  (* d2 estimate for one ACK: the delay until the first data packet that
     this ACK's window-edge advance released.  [allowed_before] is the
     right window edge (ack + win) in force before this ACK. *)
  let estimate_d2 (profile : Profile_ref.t) ~allowed_before
      ~(ack : Seg.t) ~max_wait =
    let edge = ack.Seg.ack + ack.Seg.window in
    if edge <= allowed_before then None
    else begin
      let data = profile.Profile_ref.data in
      let n = Array.length data in
      (* Binary search for the first data packet after the ACK, then scan
         forward within the bounded wait window. *)
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if data.(mid).Profile_ref.seg.Seg.ts <= ack.Seg.ts then lo := mid + 1
        else hi := mid
      done;
      let rec search i =
        if i >= n then None
        else begin
          let s = data.(i).Profile_ref.seg in
          if s.Seg.ts - ack.Seg.ts > max_wait then None
          else begin
            let seq_end = Seg.seq_end s in
            if seq_end > allowed_before && seq_end <= edge then
              Some (s.Seg.ts - ack.Seg.ts)
            else search (i + 1)
          end
        end
      in
      search !lo
    end

  let shift ?flight_gap (profile : Profile_ref.t) =
    let rtt = profile.Profile_ref.rtt in
    let gap =
      match flight_gap with Some g -> g | None -> max 1_000 (rtt / 4)
    in
    let acks = profile.Profile_ref.acks in
    let baseline =
      Option.value ~default:0 profile.Profile_ref.upstream_rtt
    in
    let n = Array.length acks in
    let max_wait = 2 * max rtt 1_000 in
    (* Track the pre-ACK window edge as we walk the ACK stream.  Flights
       are contiguous index ranges [lo, hi] split where the inter-arrival
       gap exceeds [gap] — walked in place, no index lists. *)
    let allowed = ref 0 in
    let shifted = Array.copy acks in
    let infos = ref [] in
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while
        !j + 1 < n && acks.(!j + 1).Seg.ts - acks.(!j).Seg.ts <= gap
      do
        incr j
      done;
      let lo = !i and hi = !j in
      let best = ref max_int and estimates = ref 0 in
      for k = lo to hi do
        let ack = acks.(k) in
        (match
           estimate_d2 profile ~allowed_before:!allowed ~ack ~max_wait
         with
        | Some d2 when d2 >= 0 ->
            incr estimates;
            if d2 < !best then best := d2
        | _ -> ());
        allowed := max !allowed (ack.Seg.ack + ack.Seg.window)
      done;
      let applied = if !estimates = 0 then baseline else !best in
      for k = lo to hi do
        shifted.(k) <-
          { acks.(k) with Seg.ts = acks.(k).Seg.ts + applied }
      done;
      infos :=
        {
          span = Span.v acks.(lo).Seg.ts (acks.(hi).Seg.ts + 1);
          n_acks = hi - lo + 1;
          estimates = !estimates;
          applied;
        }
        :: !infos;
      i := hi + 1
    done;
    (* Shifts rarely reorder ACKs.  [Array.sort] is not stable, so only
       input strictly increasing under [compare_ts] (no ties for the sort
       to permute) skips it, and the result is the same either way. *)
    let strictly_increasing =
      let k = ref 1 in
      while !k < n && Seg.compare_ts shifted.(!k - 1) shifted.(!k) < 0 do
        incr k
      done;
      !k >= n
    in
    if not strictly_increasing then Array.sort Seg.compare_ts shifted;
    ( { profile with Profile_ref.acks = shifted },
      List.rev !infos )

end

module Series_ref = struct
  open Tdat_timerange
  module Series_defs = Tdat.Series_defs
  module Seg = Tdat_pkt.Tcp_segment
  module D = Series_defs

  type config = {
    sniffer_location : [ `Near_sender | `Near_receiver ];
    small_window_mss : int;
    bound_gap_mss : int;
    app_limit_epsilon : Time_us.t;
    keepalive_max_size : int;
    keepalive_min_idle : Time_us.t;
    idle_gap_min : Time_us.t;
    bandwidth_run : int;
  }

  let default_config =
    {
      sniffer_location = `Near_receiver;
      small_window_mss = 3;
      bound_gap_mss = 3;
      app_limit_epsilon = 2_000;
      keepalive_max_size = 100;
      keepalive_min_idle = 25_000_000;
      idle_gap_min = 1_000_000;
      bandwidth_run = 20;
    }

  module Tbl = Hashtbl

  type t = {
    config : config;
    profile : Profile_ref.t;
    window : Span.t;
    events : (D.t, int Series.t) Tbl.t;
    span_cache : (D.t, Span_set.t) Tbl.t;
    customs : (string, Span_set.t) Tbl.t;
  }

  let events t name =
    match Tbl.find_opt t.events name with
    | Some s -> s
    | None -> Series.empty

  let spans t name =
    match Tbl.find_opt t.span_cache name with
    | Some s -> s
    | None ->
        let s = Series.to_span_set (events t name) in
        Tbl.add t.span_cache name s;
        s

  let size t name = Span_set.size (spans t name)

  let ratio_of_spans t set =
    let total = Span.length t.window in
    if total <= 0 then 0.
    else
      float_of_int (Span_set.size (Span_set.clip t.window set))
      /. float_of_int total

  let ratio t name = ratio_of_spans t (spans t name)
  let window t = t.window
  let profile t = t.profile
  let config t = t.config

  let union_spans t names =
    List.fold_left (fun acc n -> Span_set.union acc (spans t n)) Span_set.empty
      names

  let inter_spans t = function
    | [] -> Span_set.empty
    | first :: rest ->
        List.fold_left (fun acc n -> Span_set.inter acc (spans t n))
          (spans t first) rest

  let define t ~name set = Tbl.replace t.customs name (Span_set.clip t.window set)
  let define_inter t ~name names = define t ~name (inter_spans t names)
  let define_union t ~name names = define t ~name (union_spans t names)
  let custom t name = Tbl.find_opt t.customs name

  let custom_ratio t name =
    Option.map (ratio_of_spans t) (custom t name)

  let custom_names t =
    Tbl.fold (fun name _ acc -> name :: acc) t.customs [] |> List.sort String.compare

  (* ---- helpers --------------------------------------------------------- *)

  let clip_series window s = Series.clip window s

  let series_of_spans set =
    let b = Series.builder () in
    Span_set.iter (fun sp -> Series.add b sp 0) set;
    Series.build b

  (* Estimated serialization time of an MSS packet: the smallest positive
     inter-arrival between consecutive near-MSS data packets, capped at
     10 ms — when a trace never shows back-to-back packets the minimum gap
     says nothing about the wire rate. *)
  let estimate_tx_mss (data : Profile_ref.data_packet array) mss =
    let best = ref max_int in
    for i = 1 to Array.length data - 1 do
      let a = data.(i - 1).Profile_ref.seg and b = data.(i).Profile_ref.seg in
      if a.Seg.len >= mss * 9 / 10 && b.Seg.ts > a.Seg.ts then
        best := min !best (b.Seg.ts - a.Seg.ts)
    done;
    if !best = max_int then 10 else max 1 (min !best 10_000)

  let tx_time tx_mss mss len = max 1 (tx_mss * len / max 1 mss)

  (* Group the first [n] timestamps of [ts] into flights: a gap larger
     than [gap] starts a new flight.  Emits one event per flight
     ([first, last+1], count) straight into a series. *)
  let flight_series ts n gap =
    let b = Series.builder () in
    if n > 0 then begin
      let first = ref ts.(0) and last = ref ts.(0) and count = ref 1 in
      for i = 1 to n - 1 do
        let t = ts.(i) in
        if t - !last <= gap then begin
          last := t;
          incr count
        end
        else begin
          Series.add b (Span.v !first (!last + 1)) !count;
          first := t;
          last := t;
          count := 1
        end
      done;
      Series.add b (Span.v !first (!last + 1)) !count
    end;
    Series.build b

  (* ---- generation ------------------------------------------------------ *)

  let generate ?(config = default_config) ?window (p : Profile_ref.t) =
    let win =
      match window with Some w -> w | None -> Profile_ref.analysis_window p
    in
    let ev : (D.t, int Series.t) Tbl.t = Tbl.create 64 in
    let put name series = Tbl.replace ev name (clip_series win series) in
    let put_raw name series = Tbl.replace ev name series in
    let mss = p.Profile_ref.mss in
    let rtt = p.Profile_ref.rtt in
    let data = p.Profile_ref.data in
    let acks = p.Profile_ref.acks in
    let ndata = Array.length data in
    let tx_mss = estimate_tx_mss data mss in

    (* -- extraction: packets ------------------------------------------- *)
    let b = Series.builder () in
    Array.iter
      (fun (d : Profile_ref.data_packet) ->
        Series.add b (Span.point d.Profile_ref.seg.Seg.ts)
          d.Profile_ref.seg.Seg.len)
      data;
    put D.Data_pkt (Series.build b);
    let b = Series.builder () in
    Array.iter (fun (a : Seg.t) -> Series.add b (Span.point a.Seg.ts) a.Seg.window) acks;
    put D.Ack_pkt (Series.build b);

    (* -- transmission --------------------------------------------------- *)
    let b = Series.builder () in
    Array.iter
      (fun (d : Profile_ref.data_packet) ->
        let s = d.Profile_ref.seg in
        Series.add b
          (Span.of_duration s.Seg.ts (tx_time tx_mss mss s.Seg.len))
          s.Seg.len)
      data;
    put D.Transmission (Series.build b);

    (* -- labeling-derived point series ---------------------------------- *)
    let b_retx = Series.builder () and b_oos = Series.builder () in
    Array.iter
      (fun (d : Profile_ref.data_packet) ->
        let s = d.Profile_ref.seg in
        match d.Profile_ref.label with
        | Profile_ref.Redelivery | Profile_ref.Fill_retransmission ->
            Series.add b_retx (Span.point s.Seg.ts) s.Seg.len;
            Series.add b_oos (Span.point s.Seg.ts) s.Seg.len
        | Profile_ref.Fill_reorder ->
            Series.add b_oos (Span.point s.Seg.ts) s.Seg.len
        | Profile_ref.In_order | Profile_ref.Above_hole -> ())
      data;
    put D.Retransmission (Series.build b_retx);
    put D.Out_of_sequence (Series.build b_oos);

    (* -- dup acks -------------------------------------------------------- *)
    let b = Series.builder () in
    let prev_ack = ref (-1) and prev_win = ref (-1) in
    Array.iter
      (fun (a : Seg.t) ->
        if
          a.Seg.len = 0 && a.Seg.ack = !prev_ack && a.Seg.window = !prev_win
          && not a.Seg.flags.Seg.syn
        then Series.add b (Span.point a.Seg.ts) a.Seg.ack;
        prev_ack := a.Seg.ack;
        prev_win := a.Seg.window)
      acks;
    put D.Dup_ack (Series.build b);

    (* -- loss episodes ---------------------------------------------------- *)
    let episode_series eps =
      let b = Series.builder () in
      List.iter
        (fun (e : Profile_ref.loss_episode) ->
          Series.add b e.Profile_ref.span e.Profile_ref.packets)
        eps;
      Series.build b
    in
    put D.Upstream_loss (episode_series p.Profile_ref.upstream_episodes);
    put D.Downstream_loss (episode_series p.Profile_ref.downstream_episodes);

    (* -- advertised window ------------------------------------------------ *)
    let b_win = Series.builder () in
    let n_acks = Array.length acks in
    for i = 0 to n_acks - 1 do
      let a = acks.(i) in
      let stop =
        if i + 1 < n_acks then acks.(i + 1).Seg.ts else Span.stop win
      in
      if stop > a.Seg.ts then
        Series.add b_win (Span.v a.Seg.ts stop) a.Seg.window
    done;
    let adv_window = Series.build b_win in
    put D.Adv_window adv_window;
    let small_thresh = config.small_window_mss * mss in
    let max_adv = p.Profile_ref.max_adv_window in
    let filter_window f =
      Series.filter (fun _ w -> f w) adv_window
    in
    put D.Zero_adv_window (filter_window (fun w -> w = 0));
    put D.Small_adv_window (filter_window (fun w -> w > 0 && w < small_thresh));
    put D.Large_adv_window (filter_window (fun w -> w >= max_adv - small_thresh));

    (* -- flights / idle gaps ----------------------------------------------
       Timestamp working sets live in per-domain scratch int arrays; the
       combined timeline is a two-pointer merge of the two (already
       time-sorted) directions, not a sort of a concatenated list. *)
    let flight_gap = max 1_000 (rtt / 4) in
    let module Scratch = struct
      let slot_series_data_ts = 0
      let slot_series_ack_ts = 1
      let slot_series_all_ts = 2
      let slot_series_small_ts = 3
      let with_ints ~slot:_ n f = f (Array.make n 0)
    end in
    Scratch.with_ints ~slot:Scratch.slot_series_data_ts ndata (fun data_ts ->
        Scratch.with_ints ~slot:Scratch.slot_series_ack_ts n_acks (fun ack_ts ->
            Scratch.with_ints ~slot:Scratch.slot_series_all_ts (ndata + n_acks)
              (fun all_ts ->
                for i = 0 to ndata - 1 do
                  data_ts.(i) <- data.(i).Profile_ref.seg.Seg.ts
                done;
                for i = 0 to n_acks - 1 do
                  ack_ts.(i) <- acks.(i).Seg.ts
                done;
                put D.Data_flight (flight_series data_ts ndata flight_gap);
                put D.Ack_flight (flight_series ack_ts n_acks flight_gap);
                let i = ref 0 and j = ref 0 and k = ref 0 in
                while !i < ndata || !j < n_acks do
                  let take_data =
                    !j >= n_acks || (!i < ndata && data_ts.(!i) <= ack_ts.(!j))
                  in
                  if take_data then begin
                    all_ts.(!k) <- data_ts.(!i);
                    incr i
                  end
                  else begin
                    all_ts.(!k) <- ack_ts.(!j);
                    incr j
                  end;
                  incr k
                done;
                let b = Series.builder () in
                for i = 0 to !k - 2 do
                  if all_ts.(i + 1) - all_ts.(i) > config.idle_gap_min then
                    Series.add b (Span.v all_ts.(i) all_ts.(i + 1)) 0
                done;
                put D.Idle_gap (Series.build b))));

    (* -- keepalive-only periods --------------------------------------------
       Boundaries are the large-packet timestamps framed by the window
       edges; small-packet timestamps are kept sorted in scratch and each
       candidate interval counts its interior by binary search. *)
    let b = Series.builder () in
    Scratch.with_ints ~slot:Scratch.slot_series_small_ts ndata (fun small_ts ->
        let n_small_total = ref 0 in
        for i = 0 to ndata - 1 do
          let s = data.(i).Profile_ref.seg in
          if s.Seg.len <= config.keepalive_max_size then begin
            small_ts.(!n_small_total) <- s.Seg.ts;
            incr n_small_total
          end
        done;
        (* Number of small-packet timestamps strictly inside (a, b'). *)
        let count_small a b' =
          let lo = ref 0 and hi = ref !n_small_total in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if small_ts.(mid) <= a then lo := mid + 1 else hi := mid
          done;
          let first = !lo in
          let lo = ref first and hi = ref !n_small_total in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if small_ts.(mid) < b' then lo := mid + 1 else hi := mid
          done;
          !lo - first
        in
        let ka_interval a b' =
          if b' - a >= config.keepalive_min_idle then begin
            let n_small = count_small a b' in
            if n_small > 0 then Series.add b (Span.v a b') n_small
          end
        in
        let prev = ref (Span.start win) in
        for i = 0 to ndata - 1 do
          let s = data.(i).Profile_ref.seg in
          if s.Seg.len > config.keepalive_max_size then begin
            ka_interval !prev s.Seg.ts;
            prev := s.Seg.ts
          end
        done;
        ka_interval !prev (Span.stop win));
    put D.Keepalive_only (Series.build b);

    (* -- handshake / teardown ----------------------------------------------- *)
    (match (p.Profile_ref.syn_rtt, ndata) with
    | Some srtt, _ ->
        put D.Syn_period
          (Series.of_list
             [ (Span.of_duration p.Profile_ref.start_time (max 1 srtt), 0) ])
    | None, _ -> put_raw D.Syn_period Series.empty);
    put_raw D.Fin_period Series.empty;
    put D.Void_period (series_of_spans p.Profile_ref.voids);

    (* -- the attribution walk ----------------------------------------------
       Explain each inter-transmission gap: window-bounded wait (adv/cwnd),
       then application-limited tail once the pipe drains. *)
    let b_out = Series.builder () in
    let b_adv = Series.builder () in
    let b_zero_adv = Series.builder () in
    let b_cwnd = Series.builder () in
    let b_app = Series.builder () in
    let b_recv_extra = Series.builder () in
    (* Window value in force at a given time (last ack at or before t). *)
    let window_at =
      let arr = acks in
      fun ts ->
        let lo = ref 0 and hi = ref (Array.length arr) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if arr.(mid).Seg.ts <= ts then lo := mid + 1 else hi := mid
        done;
        if !lo = 0 then max_adv else arr.(!lo - 1).Seg.window
    in
    (* First ack index with ts > t. *)
    let ack_after =
      let arr = acks in
      fun ts ->
        let lo = ref 0 and hi = ref (Array.length arr) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if arr.(mid).Seg.ts <= ts then lo := mid + 1 else hi := mid
        done;
        !lo
    in
    let max_sent = ref 0 in
    let classify_wait ~t0 ~t1 ~out ~w =
      if t1 > t0 && out > 0 then begin
        let span = Span.v t0 t1 in
        if w = 0 then begin
          Series.add b_adv span out;
          Series.add b_zero_adv span out
        end
        else if w - out < config.bound_gap_mss * mss then
          Series.add b_adv span out
        else Series.add b_cwnd span out
      end
    in
    (* Track the running cumulative ack as we walk data packets. *)
    let ack_idx = ref 0 and cum_ack = ref 0 in
    let advance_acks_upto ts =
      while
        !ack_idx < Array.length acks && acks.(!ack_idx).Seg.ts <= ts
      do
        cum_ack := max !cum_ack acks.(!ack_idx).Seg.ack;
        incr ack_idx
      done
    in
    let first_data_ts = if ndata > 0 then Some data.(0).Profile_ref.seg.Seg.ts else None in
    (* Pre-transfer application silence: from handshake completion to the
       first data packet. *)
    (match (p.Profile_ref.syn_rtt, first_data_ts) with
    | Some srtt, Some fd ->
        let established = p.Profile_ref.start_time + srtt in
        if fd - established > config.app_limit_epsilon then
          Series.add b_app (Span.v established fd) 0
    | _ -> ());
    for i = 0 to ndata - 1 do
      let s = data.(i).Profile_ref.seg in
      advance_acks_upto s.Seg.ts;
      max_sent := max !max_sent (Seg.seq_end s);
      let sent_i = !max_sent in
      let out_i = max 0 (sent_i - !cum_ack) in
      let t_i = s.Seg.ts + tx_time tx_mss mss s.Seg.len in
      let t_next =
        if i + 1 < ndata then data.(i + 1).Profile_ref.seg.Seg.ts
        else Span.stop win
      in
      let is_last = i = ndata - 1 in
      (* After the final data packet the sender's silence explains nothing:
         the transfer is over on the wire.  Any remaining analysis window
         (an MCT end lagging behind, e.g. a collector draining its backlog)
         is attributed to the receiving application exactly where the
         advertised window shows unconsumed buffer, and left unattributed
         elsewhere. *)
      let attribute_tail_after_wire_end tc =
        let j = ref (ack_after tc) in
        let prev_ts = ref tc and prev_w = ref (window_at tc) in
        while !j < Array.length acks && acks.(!j).Seg.ts < t_next do
          let a = acks.(!j) in
          if a.Seg.ts > !prev_ts && !prev_w < max_adv then
            Series.add b_recv_extra (Span.v !prev_ts a.Seg.ts) !prev_w;
          prev_ts := a.Seg.ts;
          prev_w := a.Seg.window;
          incr j
        done;
        if t_next > !prev_ts && !prev_w < max_adv then
          Series.add b_recv_extra (Span.v !prev_ts t_next) !prev_w
      in
      if t_next > t_i then begin
        (* Outstanding span and clearing time within (t_i, t_next). *)
        let j = ref (ack_after s.Seg.ts) in
        let t_clear = ref None in
        let running = ref !cum_ack in
        while
          !t_clear = None
          && !j < Array.length acks
          && acks.(!j).Seg.ts < t_next
        do
          running := max !running acks.(!j).Seg.ack;
          if !running >= sent_i then t_clear := Some acks.(!j).Seg.ts;
          incr j
        done;
        (match !t_clear with
        | Some tc ->
            let tc = max tc t_i in
            Series.add b_out (Span.v s.Seg.ts (max (s.Seg.ts + 1) tc)) out_i;
            if is_last then begin
              classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i);
              attribute_tail_after_wire_end tc
            end
            else if t_next - tc > config.app_limit_epsilon then begin
              let w_tail = window_at tc in
              if w_tail < mss then begin
                (* Closed-window stall: both the wait and the silence are
                   flow-control bound. *)
                classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i);
                let span = Span.v tc t_next in
                Series.add b_adv span 0;
                if w_tail = 0 then Series.add b_zero_adv span 0
              end
              else
                (* The sender stayed silent after the pipe drained with the
                   window open: nothing but the application limited this
                   whole gap (the ACK wait was not on the critical path). *)
                Series.add b_app (Span.v t_i t_next) 0
            end
            else classify_wait ~t0:t_i ~t1:tc ~out:out_i ~w:(window_at t_i)
        | None ->
            (* Pipe never drained before the next transmission (or before
               the window ends: data still in flight, possibly forever —
               loss episodes cover the pathological cases). *)
            Series.add b_out (Span.v s.Seg.ts t_next) out_i;
            classify_wait ~t0:t_i ~t1:t_next ~out:out_i ~w:(window_at t_i))
      end
      else
        Series.add b_out (Span.point s.Seg.ts) out_i
    done;
    put D.Outstanding (Series.build b_out);
    put D.Send_app_limited (Series.build b_app);
    put D.Adv_bnd_out (Series.build b_adv);
    put D.Zero_adv_bnd_out (Series.build b_zero_adv);
    put D.Cwnd_bnd_out (Series.build b_cwnd);

    (* -- bandwidth-bound runs ----------------------------------------------- *)
    let b = Series.builder () in
    let run_start = ref None and run_len = ref 0 in
    let flush_run last_ts last_len =
      (match (!run_start, !run_len) with
      | Some start, n when n >= config.bandwidth_run ->
          Series.add b
            (Span.v start (last_ts + tx_time tx_mss mss last_len))
            n
      | _ -> ());
      run_start := None;
      run_len := 0
    in
    for i = 0 to ndata - 1 do
      let s = data.(i).Profile_ref.seg in
      (match !run_start with
      | None ->
          run_start := Some s.Seg.ts;
          run_len := 1
      | Some _ ->
          let prev = data.(i - 1).Profile_ref.seg in
          let expected = 2 * tx_time tx_mss mss prev.Seg.len in
          if s.Seg.ts - prev.Seg.ts <= expected then incr run_len
          else begin
            flush_run prev.Seg.ts prev.Seg.len;
            run_start := Some s.Seg.ts;
            run_len := 1
          end);
      if i = ndata - 1 then flush_run s.Seg.ts s.Seg.len
    done;
    put D.Bandwidth_bound (Series.build b);

    (* -- interpretation (sniffer location) ----------------------------------- *)
    let upstream = Tbl.find ev D.Upstream_loss in
    let downstream = Tbl.find ev D.Downstream_loss in
    (match config.sniffer_location with
    | `Near_receiver ->
        put_raw D.Send_local_loss Series.empty;
        put_raw D.Recv_local_loss downstream;
        put_raw D.Network_loss upstream
    | `Near_sender ->
        put_raw D.Send_local_loss upstream;
        put_raw D.Recv_local_loss Series.empty;
        put_raw D.Network_loss downstream);

    (* -- retransmission periods & algebra ------------------------------------ *)
    put_raw D.Retrans_period (Series.merge upstream downstream);
    let t =
      {
        config;
        profile = p;
        window = win;
        events = ev;
        span_cache = Tbl.create 16;
        customs = Tbl.create 4;
      }
    in
    let inter a b' = Span_set.inter (spans t a) (spans t b') in
    put_raw D.Small_adv_bnd_out
      (series_of_spans (inter D.Adv_bnd_out D.Small_adv_window));
    put_raw D.Large_adv_bnd_out
      (series_of_spans (inter D.Adv_bnd_out D.Large_adv_window));
    put_raw D.All_loss
      (series_of_spans
         (union_spans t [ D.Send_local_loss; D.Recv_local_loss; D.Network_loss ]));
    (* The conflict signature: loss-recovery activity while the receiver
       window is shut — "packets get constantly dropped even under low
       transmission rate".  The paper writes ZeroAdvBndOut ∩ UpstreamLoss;
       the window-bound refinement is subsumed by loss periods in this
       implementation (loss overrides window attribution), so the raw
       zero-window series is intersected with the whole retransmission
       period instead — same conflict, same drill-down value. *)
    put_raw D.Zero_ack_bug
      (series_of_spans
         (Span_set.union
            (inter D.Zero_adv_window D.Retrans_period)
            (inter D.Zero_adv_bnd_out D.Retrans_period)));
    (* Receiver-app limited: bounded by a small or zero advertised window,
       plus any post-wire drain periods with unconsumed receive buffer. *)
    let recv_app =
      Span_set.union
        (Span_set.clip win (Series.to_span_set (Series.build b_recv_extra)))
        (Span_set.inter (spans t D.Adv_bnd_out)
           (Span_set.union (spans t D.Small_adv_window)
              (spans t D.Zero_adv_window)))
    in
    put_raw D.Recv_app_limited (series_of_spans recv_app);
    (* Invalidate cached span sets for names added after [t] was built. *)
    Tbl.reset t.span_cache;
    t

end

(* --- raising BGP message validator ------------------------------------- *)

(* [Msg]'s staged validator as it was before it stopped raising: each
   public checker made its own range check, and every violation raised
   [Malformed] to [validate]'s handlers. *)
module Msg_raising = struct
  exception Malformed

  let byte buf p = Char.code (Bytes.unsafe_get buf p)
  let u16 buf p = (byte buf p lsl 8) lor byte buf (p + 1)

  let in_buffer what buf ~pos ~limit =
    if pos < 0 || limit > Bytes.length buf then
      invalid_arg (what ^ ": range outside the buffer")

  let check_prefixes buf ~pos ~limit =
    in_buffer "Msg.check_prefixes" buf ~pos ~limit;
    let o = ref pos and n = ref 0 in
    while !o < limit do
      let plen = byte buf !o in
      if plen > 32 then raise Malformed;
      let nbytes = (plen + 7) / 8 in
      if !o + 1 + nbytes > limit then raise Malformed;
      o := !o + 1 + nbytes;
      incr n
    done;
    !n

  let check_as_path buf ~pos ~limit =
    let o = ref pos in
    while !o < limit do
      if !o + 2 > limit then raise Malformed;
      let ty = byte buf !o in
      let n = byte buf (!o + 1) in
      if !o + 2 + (2 * n) > limit then raise Malformed;
      if ty <> 1 && ty <> 2 then raise Malformed;
      o := !o + 2 + (2 * n)
    done

  let check_attrs buf ~pos ~limit =
    let o = ref pos in
    while !o < limit do
      if !o + 3 > limit then raise Malformed;
      let flags = byte buf !o in
      let code = byte buf (!o + 1) in
      let vlen, voff =
        if flags land 0x10 <> 0 then begin
          if !o + 4 > limit then raise Malformed;
          (u16 buf (!o + 2), !o + 4)
        end
        else (byte buf (!o + 2), !o + 3)
      in
      if voff + vlen > limit then raise Malformed;
      if code = 2 then check_as_path buf ~pos:voff ~limit:(voff + vlen);
      o := voff + vlen
    done

  let check_body buf ~ty ~boff ~limit =
    in_buffer "Msg.check_body" buf ~pos:boff ~limit;
    let blen = limit - boff in
    match ty with
    | 1 -> if blen < 10 then raise Malformed else -1
    | 2 ->
        if blen < 4 then raise Malformed;
        let wlen = u16 buf boff in
        if 2 + wlen + 2 > blen then raise Malformed;
        ignore
          (check_prefixes buf ~pos:(boff + 2) ~limit:(boff + 2 + wlen) : int);
        let alen = u16 buf (boff + 2 + wlen) in
        if 4 + wlen + alen > blen then raise Malformed;
        check_attrs buf ~pos:(boff + 4 + wlen) ~limit:(boff + 4 + wlen + alen);
        boff + 4 + wlen + alen
    | 3 -> if blen < 2 then raise Malformed else -1
    | 4 -> if blen <> 0 then raise Malformed else -1
    | _ -> raise Malformed

  let header_length buf p =
    in_buffer "Msg.header_length" buf ~pos:p ~limit:(p + Msg.header_size);
    let marker_ok =
      Int64.equal (Bytes.get_int64_ne buf p) (-1L)
      && Int64.equal (Bytes.get_int64_ne buf (p + 8)) (-1L)
    in
    let total = u16 buf (p + 16) in
    if marker_ok && total >= Msg.header_size && total <= Msg.max_size then total
    else -1

  let validate buf ~pos ~limit =
    in_buffer "Msg.validate" buf ~pos ~limit;
    if pos + Msg.header_size > limit then -1
    else
      let total = header_length buf pos in
      if total < 0 || pos + total > limit then -1
      else
        let ty = byte buf (pos + 18) in
        let mend = pos + total in
        match check_body buf ~ty ~boff:(pos + Msg.header_size) ~limit:mend with
        | exception Malformed -> -1
        | nlri when nlri < 0 -> ty
        | nlri -> (
            match check_prefixes buf ~pos:nlri ~limit:mend with
            | exception Malformed -> -1
            | n -> (n lsl 3) lor ty)
end

(* --- fill-based MRT framer ---------------------------------------------- *)

(* [Mrt]'s framer and folds as they were before records were framed in
   place: every record was copied out of its input through a [fill buf
   n] primitive, its 12-byte header into one buffer and its body into a
   second, and the fold's step ran on the copy.  Minus the [mrt.*]
   counters and the read span; the arena slots are plain buffers.  Kept
   are the string folds and the read-as-asked descriptor fold: the file
   folds framed the same records from a chunked copy of the file, so
   every path is held to the string folds. *)
module Mrt_fill = struct
  type outcome =
    | Message_entry
    | State_entry
    | Short_body
    | Bad_message
    | Unsupported
    | Bad_state

  let skip_diag ~idx ~ty ~subtype outcome =
    let warn code message =
      { M.Diag.code; severity = M.Diag.Warning; record = Some idx; message }
    in
    match outcome with
    | Short_body -> warn "M003" "short BGP4MP body"
    | Bad_message -> warn "M004" "bad embedded BGP message"
    | Bad_state -> warn "M006" "bad state-change body"
    | Unsupported ->
        {
          M.Diag.code = "M005";
          severity = M.Diag.Info;
          record = Some idx;
          message =
            Printf.sprintf "skipped record (type %d, subtype %d)" ty subtype;
        }
    | Message_entry | State_entry -> invalid_arg "Mrt.skip_diag: not a skip"

  let byte buf p = Char.code (Bytes.unsafe_get buf p)
  let u16 buf p = (byte buf p lsl 8) lor byte buf (p + 1)
  let u32 buf p = (u16 buf p lsl 16) lor u16 buf (p + 2)

  let kind_of_type_code = function
    | 1 -> M.Kind.Open
    | 2 -> M.Kind.Update
    | 3 -> M.Kind.Notification
    | 4 -> M.Kind.Keepalive
    | _ -> invalid_arg "Mrt.Kind.of_type_code: not a BGP message type"

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
            ( M.fsm_state_of_code (u16 body (p + 16)),
              M.fsm_state_of_code (u16 body (p + 18)) )
          with
          | Some old_state, Some new_state ->
              state ~ts body p ~old_state ~new_state
          | _ -> Bad_state
      end
    end

  let frame ?(strict = false) ?(on_diag = fun _ -> ()) fill body =
    let emit d =
      on_diag d;
      if strict then
        match d.M.Diag.severity with
        | M.Diag.Error | M.Diag.Warning ->
            Bgp_error.fail ~context:"Mrt.decode" "%s" d.M.Diag.message
        | M.Diag.Info -> ()
    in
    let bbuf = ref (Bytes.create 4096) in
    let hdr = Bytes.create 12 in
    let records = ref 0 in
    let bgp_messages = ref 0 in
    let state_changes = ref 0 in
    let skipped = ref 0 in
    let framing code message =
      emit
        {
          M.Diag.code;
          severity = M.Diag.Warning;
          record = Some !records;
          message;
        }
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
        if rec_len > mrt_max_record_len then framing "M007" "oversized record"
        else begin
          if Bytes.length !bbuf < rec_len then bbuf := Bytes.create rec_len;
          let buf = !bbuf in
          if fill buf rec_len < rec_len then framing "M002" "truncated record"
          else begin
            let idx = !records in
            incr records;
            (match body ~sec ~ty ~subtype buf rec_len with
            | Message_entry -> incr bgp_messages
            | State_entry -> incr state_changes
            | (Short_body | Bad_message | Unsupported | Bad_state) as skip ->
                incr skipped;
                emit (skip_diag ~idx ~ty ~subtype skip));
            go ()
          end
        end
      end
    in
    go ();
    {
      M.records = !records;
      bgp_messages = !bgp_messages;
      state_changes = !state_changes;
      skipped = !skipped;
    }

  let fold_fill ?strict ?on_diag fill ~init f =
    let acc = ref init in
    let message ~ts body p len =
      match Msg.decode_slice (Tdat_pkt.Slice.of_bytes ~len body) (p + 16) with
      | Some (msg, _) ->
          let peer_ip = Int32.of_int (u32 body (p + 8)) in
          let local_ip = Int32.of_int (u32 body (p + 12)) in
          acc :=
            f !acc
              (M.Message
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
          (M.State
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

  let summary_fill ?strict ?on_diag fill ~init f =
    let acc = ref init in
    let message ~ts body p len =
      let v = Msg_raising.validate body ~pos:(p + 16) ~limit:len in
      if v < 0 then Bad_message
      else begin
        acc :=
          f !acc ~ts ~peer_as:(u16 body p) ~peer_ip:(u32 body (p + 8))
            ~kind:(kind_of_type_code (v land 7))
            ~nlri:(v lsr 3);
        Message_entry
      end
    in
    let state ~ts body p ~old_state:_ ~new_state =
      acc :=
        f !acc ~ts ~peer_as:(u16 body p) ~peer_ip:(u32 body (p + 8))
          ~kind:(M.Kind.of_new_state new_state) ~nlri:0;
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

  let rec fill_from (read : Tdat_pkt.Ingest_io.read) buf n pos =
    if pos >= n then pos
    else
      let r = read buf pos (n - pos) in
      if r = 0 then pos else fill_from read buf n (pos + r)

  let fill_of_read read buf n = fill_from read buf n 0

  let fold_string ?strict ?on_diag s ~init f =
    fold_fill ?strict ?on_diag (string_fill s) ~init f

  let fold_read ?strict ?on_diag read ~init f =
    fold_fill ?strict ?on_diag (fill_of_read read) ~init f

  let fold_summary_string ?strict ?on_diag s ~init f =
    summary_fill ?strict ?on_diag (string_fill s) ~init f
end
