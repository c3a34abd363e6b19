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
   byte-loop NLRI key and the list-pipeline timer detector are kept the
   same way, as oracles for the code that replaced them.  Do not "improve" this file:
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
