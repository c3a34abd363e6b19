type open_msg = {
  version : int;
  my_as : int;
  hold_time : int;
  bgp_id : int32;
}

type update = {
  withdrawn : Prefix.t list;
  attrs : Attr.t list;
  nlri : Prefix.t list;
}

type notification = { code : int; subcode : int; data : string }

type t =
  | Open of open_msg
  | Update of update
  | Keepalive
  | Notification of notification

let header_size = 19
let max_size = 4096
let keepalive = Keepalive

let update ?(withdrawn = []) ?(attrs = []) ?(nlri = []) () =
  Update { withdrawn; attrs; nlri }

let type_byte = function
  | Open _ -> 1
  | Update _ -> 2
  | Notification _ -> 3
  | Keepalive -> 4

let body_bytes t =
  let buf = Buffer.create 64 in
  (match t with
  | Open o ->
      Buffer.add_uint8 buf o.version;
      Buffer.add_uint16_be buf o.my_as;
      Buffer.add_uint16_be buf o.hold_time;
      Buffer.add_int32_be buf o.bgp_id;
      Buffer.add_uint8 buf 0 (* no optional parameters *)
  | Update u ->
      let withdrawn = Buffer.create 16 in
      List.iter (Prefix.encode withdrawn) u.withdrawn;
      let attrs = Buffer.create 64 in
      List.iter (Attr.encode attrs) u.attrs;
      Buffer.add_uint16_be buf (Buffer.length withdrawn);
      Buffer.add_buffer buf withdrawn;
      Buffer.add_uint16_be buf (Buffer.length attrs);
      Buffer.add_buffer buf attrs;
      List.iter (Prefix.encode buf) u.nlri
  | Keepalive -> ()
  | Notification n ->
      Buffer.add_uint8 buf n.code;
      Buffer.add_uint8 buf n.subcode;
      Buffer.add_string buf n.data);
  Buffer.contents buf

let encode t =
  let body = body_bytes t in
  let total = header_size + String.length body in
  if total > max_size then
    invalid_arg
      (Printf.sprintf "Msg.encode: message of %d bytes exceeds %d" total
         max_size);
  let buf = Buffer.create total in
  for _ = 1 to 16 do
    Buffer.add_char buf '\xff'
  done;
  Buffer.add_uint16_be buf total;
  Buffer.add_uint8 buf (type_byte t);
  Buffer.add_string buf body;
  Buffer.contents buf

module Slice = Tdat_pkt.Slice

let peek_length_slice s off =
  if off + header_size > Slice.length s then None
  else begin
    for i = 0 to 15 do
      if Slice.u8 s (off + i) <> 0xff then
        Bgp_error.fail ~context:"Msg.peek_length" "bad marker"
    done;
    let len = Slice.u16be s (off + 16) in
    if len < header_size || len > max_size then
      Bgp_error.fail ~context:"Msg.peek_length" "invalid length %d" len;
    Some len
  end

let peek_length s off = peek_length_slice (Slice.of_string s) off

let decode_prefixes_slice s =
  let n = Slice.length s in
  let rec go off acc =
    if off = n then List.rev acc
    else begin
      let p, off' = Prefix.decode_slice s off in
      go off' (p :: acc)
    end
  in
  go 0 []

let decode_slice s off =
  match peek_length_slice s off with
  | None -> None
  | Some total ->
      if off + total > Slice.length s then None
      else begin
        let ty = Slice.u8 s (off + 18) in
        (* A borrowed view of the body: section decoding below reads in
           place instead of materializing per-section copies. *)
        let body =
          Slice.sub s ~off:(off + header_size) ~len:(total - header_size)
        in
        let blen = Slice.length body in
        let msg =
          match ty with
          | 1 ->
              if blen < 10 then Bgp_error.fail ~context:"Msg.decode" "short OPEN";
              Open
                {
                  version = Slice.u8 body 0;
                  my_as = Slice.u16be body 1;
                  hold_time = Slice.u16be body 3;
                  bgp_id = Slice.i32be body 5;
                }
          | 2 ->
              if blen < 4 then Bgp_error.fail ~context:"Msg.decode" "short UPDATE";
              let wlen = Slice.u16be body 0 in
              if 2 + wlen + 2 > blen then
                Bgp_error.fail ~context:"Msg.decode" "bad withdrawn length";
              let withdrawn =
                decode_prefixes_slice (Slice.sub body ~off:2 ~len:wlen)
              in
              let alen = Slice.u16be body (2 + wlen) in
              if 4 + wlen + alen > blen then
                Bgp_error.fail ~context:"Msg.decode" "bad attribute length";
              let attrs =
                Attr.decode_all_slice (Slice.sub body ~off:(4 + wlen) ~len:alen)
              in
              let nlri_off = 4 + wlen + alen in
              let nlri =
                decode_prefixes_slice
                  (Slice.sub body ~off:nlri_off ~len:(blen - nlri_off))
              in
              Update { withdrawn; attrs; nlri }
          | 3 ->
              if blen < 2 then
                Bgp_error.fail ~context:"Msg.decode" "short NOTIFICATION";
              Notification
                {
                  code = Slice.u8 body 0;
                  subcode = Slice.u8 body 1;
                  data = Slice.sub_string body ~off:2 ~len:(blen - 2);
                }
          | 4 ->
              if blen <> 0 then
                Bgp_error.fail ~context:"Msg.decode" "KEEPALIVE with body";
              Keepalive
          | ty -> Bgp_error.fail ~context:"Msg.decode" "unknown type %d" ty
        in
        Some (msg, off + total)
      end

let decode s off = decode_slice (Slice.of_string s) off

(* --- validation without decoding ------------------------------------------ *)

(* The checks [decode_slice] makes, byte for byte and in its order
   (Prefix.decode_slice, As_path.decode_slice, Attr.decode_all_slice and
   the per-type body rules above), over absolute positions in a borrowed
   buffer, building nothing and raising nothing: a violation returns
   [malformed] or [false].  The walkers read only below a [limit] that
   never exceeds the message's end, the condition the decoder's
   per-section slices enforce, so once an entry point has checked its
   range against the buffer ([in_buffer]) no read needs a bounds check. *)

let malformed = -2

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)
let[@inline] u16 buf p = (byte buf p lsl 8) lor byte buf (p + 1)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let in_buffer what buf ~pos ~limit =
  if pos < 0 || limit > Bytes.length buf then
    invalid_arg (what ^ ": range outside the buffer")

(* [n] plus the number of prefixes filling [o] up to [limit]. *)
let rec walk_prefixes buf o limit n =
  if o >= limit then n
  else
    let plen = byte buf o in
    let next = o + 1 + ((plen + 7) lsr 3) in
    if plen > 32 || next > limit then malformed
    else walk_prefixes buf next limit (n + 1)

let rec walk_as_path buf o limit =
  o >= limit
  || o + 2 <= limit
     &&
     let ty = byte buf o in
     let next = o + 2 + (2 * byte buf (o + 1)) in
     next <= limit && (ty = 1 || ty = 2) && walk_as_path buf next limit

let rec walk_attrs buf o limit =
  o >= limit
  || o + 3 <= limit
     &&
     let extended = byte buf o land 0x10 <> 0 in
     (not extended || o + 4 <= limit)
     &&
     let voff = if extended then o + 4 else o + 3 in
     let next =
       voff + if extended then u16 buf (o + 2) else byte buf (o + 2)
     in
     next <= limit
     && (byte buf (o + 1) <> 2 || walk_as_path buf voff next)
     && walk_attrs buf next limit

(* The NLRI's position for an UPDATE, [-1] for any other valid type. *)
let walk_body buf ty boff limit =
  let blen = limit - boff in
  match ty with
  | 1 -> if blen < 10 then malformed else -1
  | 2 ->
      if blen < 4 then malformed
      else
        let apos = boff + 2 + u16 buf boff in
        if apos + 2 > limit || walk_prefixes buf (boff + 2) apos 0 < 0 then
          malformed
        else
          let nlri = apos + 2 + u16 buf apos in
          if nlri > limit || not (walk_attrs buf (apos + 2) nlri) then
            malformed
          else nlri
  | 3 -> if blen < 2 then malformed else -1
  | 4 -> if blen <> 0 then malformed else -1
  | _ -> malformed

(* The 16-byte marker is all ones, which reads as -1 in either byte
   order: one AND of two 64-bit loads checks it. *)
let marker_length buf p =
  let total = u16 buf (p + 16) in
  if
    Int64.equal (Int64.logand (get64u buf p) (get64u buf (p + 8))) (-1L)
    && total >= header_size && total <= max_size
  then total
  else -1

let header_length buf p =
  in_buffer "Msg.header_length" buf ~pos:p ~limit:(p + header_size);
  marker_length buf p

let check_body buf ~ty ~boff ~limit =
  in_buffer "Msg.check_body" buf ~pos:boff ~limit;
  walk_body buf ty boff limit

let check_prefixes buf ~pos ~limit =
  in_buffer "Msg.check_prefixes" buf ~pos ~limit;
  walk_prefixes buf pos limit 0

let validate buf ~pos ~limit =
  in_buffer "Msg.validate" buf ~pos ~limit;
  if pos + header_size > limit then -1
  else
    let total = marker_length buf pos in
    if total < 0 || pos + total > limit then -1
    else
      let ty = byte buf (pos + 18) in
      let mend = pos + total in
      let nlri = walk_body buf ty (pos + header_size) mend in
      if nlri = malformed then -1
      else if nlri < 0 then ty
      else
        let n = walk_prefixes buf nlri mend 0 in
        if n < 0 then -1 else (n lsl 3) lor ty

let nlri_count = function Update u -> List.length u.nlri | _ -> 0

