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

let encoded_size t = header_size + String.length (body_bytes t)

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
   buffer, building nothing.  Each checker reads only below a [limit]
   that never exceeds the message's end, the condition the decoder's
   per-section slices enforce, so once an entry point has checked its
   range against the buffer ([in_buffer]) no read needs its own bounds
   check. *)

exception Malformed

let[@inline] byte buf p = Char.code (Bytes.unsafe_get buf p)
let[@inline] u16 buf p = (byte buf p lsl 8) lor byte buf (p + 1)

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
      ignore (check_prefixes buf ~pos:(boff + 2) ~limit:(boff + 2 + wlen) : int);
      let alen = u16 buf (boff + 2 + wlen) in
      if 4 + wlen + alen > blen then raise Malformed;
      check_attrs buf ~pos:(boff + 4 + wlen) ~limit:(boff + 4 + wlen + alen);
      boff + 4 + wlen + alen
  | 3 -> if blen < 2 then raise Malformed else -1
  | 4 -> if blen <> 0 then raise Malformed else -1
  | _ -> raise Malformed

(* The 16-byte marker is all ones, which reads as -1 in either byte
   order: two 64-bit loads check it. *)
let header_length buf p =
  in_buffer "Msg.header_length" buf ~pos:p ~limit:(p + header_size);
  let marker_ok =
    Int64.equal (Bytes.get_int64_ne buf p) (-1L)
    && Int64.equal (Bytes.get_int64_ne buf (p + 8)) (-1L)
  in
  let total = u16 buf (p + 16) in
  if marker_ok && total >= header_size && total <= max_size then total else -1

let validate buf ~pos ~limit =
  in_buffer "Msg.validate" buf ~pos ~limit;
  if pos + header_size > limit then -1
  else
    let total = header_length buf pos in
    if total < 0 || pos + total > limit then -1
    else
      let ty = byte buf (pos + 18) in
      let mend = pos + total in
      match check_body buf ~ty ~boff:(pos + header_size) ~limit:mend with
      | exception Malformed -> -1
      | nlri when nlri < 0 -> ty
      | nlri -> (
          match check_prefixes buf ~pos:nlri ~limit:mend with
          | exception Malformed -> -1
          | n -> (n lsl 3) lor ty)

let nlri_count = function Update u -> List.length u.nlri | _ -> 0

let pp ppf = function
  | Open o ->
      Format.fprintf ppf "OPEN(as=%d hold=%d)" o.my_as o.hold_time
  | Update u ->
      Format.fprintf ppf "UPDATE(+%d -%d)" (List.length u.nlri)
        (List.length u.withdrawn)
  | Keepalive -> Format.pp_print_string ppf "KEEPALIVE"
  | Notification n -> Format.fprintf ppf "NOTIFICATION(%d/%d)" n.code n.subcode
