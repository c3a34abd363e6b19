type origin = Igp | Egp | Incomplete

type t =
  | Origin of origin
  | As_path of As_path.t
  | Next_hop of int32
  | Med of int32
  | Local_pref of int32
  | Unknown of { code : int; flags : int; data : string }

let type_code = function
  | Origin _ -> 1
  | As_path _ -> 2
  | Next_hop _ -> 3
  | Med _ -> 4
  | Local_pref _ -> 5
  | Unknown { code; _ } -> code

let flag_transitive = 0x40
let flag_optional = 0x80
let flag_extended = 0x10

let value_bytes t =
  let buf = Buffer.create 16 in
  (match t with
  | Origin o ->
      Buffer.add_uint8 buf
        (match o with Igp -> 0 | Egp -> 1 | Incomplete -> 2)
  | As_path p -> As_path.encode buf p
  | Next_hop ip ->
      Buffer.add_int32_be buf ip
  | Med v | Local_pref v -> Buffer.add_int32_be buf v
  | Unknown { data; _ } -> Buffer.add_string buf data);
  Buffer.contents buf

let default_flags = function
  | Origin _ | As_path _ | Next_hop _ | Local_pref _ -> flag_transitive
  | Med _ -> flag_optional
  | Unknown { flags; _ } -> flags

let encode buf t =
  let value = value_bytes t in
  let vlen = String.length value in
  let flags = default_flags t in
  let flags = if vlen > 255 then flags lor flag_extended else flags in
  Buffer.add_uint8 buf flags;
  Buffer.add_uint8 buf (type_code t);
  if flags land flag_extended <> 0 then Buffer.add_uint16_be buf vlen
  else Buffer.add_uint8 buf vlen;
  Buffer.add_string buf value

module Slice = Tdat_pkt.Slice

(* The only copy on this path is the [Unknown] payload, which the
   decoded attribute *keeps*; recognized attributes read their value in
   place through the slice. *)
let decode_all_slice s =
  let len = Slice.length s in
  let rec go off acc =
    if off = len then List.rev acc
    else if off + 3 > len then
      Bgp_error.fail ~context:"Attr.decode_all" "truncated header"
    else begin
      let flags = Slice.u8 s off in
      let code = Slice.u8 s (off + 1) in
      let extended = flags land flag_extended <> 0 in
      let vlen, voff =
        if extended then begin
          if off + 4 > len then
            Bgp_error.fail ~context:"Attr.decode_all" "truncated length";
          (Slice.u16be s (off + 2), off + 4)
        end
        else (Slice.u8 s (off + 2), off + 3)
      in
      if voff + vlen > len then
        Bgp_error.fail ~context:"Attr.decode_all" "truncated value";
      let attr =
        match code with
        | 1 when vlen = 1 ->
            Origin
              (match Slice.u8 s voff with
              | 0 -> Igp
              | 1 -> Egp
              | _ -> Incomplete)
        | 2 -> As_path (As_path.decode_slice (Slice.sub s ~off:voff ~len:vlen))
        | 3 when vlen = 4 -> Next_hop (Slice.i32be s voff)
        | 4 when vlen = 4 -> Med (Slice.i32be s voff)
        | 5 when vlen = 4 -> Local_pref (Slice.i32be s voff)
        | _ ->
            Unknown { code; flags; data = Slice.sub_string s ~off:voff ~len:vlen }
      in
      go (voff + vlen) (attr :: acc)
    end
  in
  go 0 []

let signature attrs =
  let buf = Buffer.create 64 in
  let sorted =
    List.sort (fun a b -> Int.compare (type_code a) (type_code b)) attrs
  in
  List.iter (encode buf) sorted;
  Buffer.contents buf

