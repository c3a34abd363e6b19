type segment = Seq of int list | Set of int list
type t = segment list

let of_asns asns = [ Seq asns ]

let encode_segment buf seg =
  let ty, asns = match seg with Set l -> (1, l) | Seq l -> (2, l) in
  Buffer.add_uint8 buf ty;
  Buffer.add_uint8 buf (List.length asns);
  List.iter (fun asn -> Buffer.add_uint16_be buf asn) asns

let encode buf t = List.iter (encode_segment buf) t

module Slice = Tdat_pkt.Slice

let decode_slice s =
  let len = Slice.length s in
  let rec segments off acc =
    if off = len then List.rev acc
    else if off + 2 > len then
      Bgp_error.fail ~context:"As_path.decode" "truncated header"
    else begin
      let ty = Slice.u8 s off in
      let n = Slice.u8 s (off + 1) in
      if off + 2 + (2 * n) > len then
        Bgp_error.fail ~context:"As_path.decode" "truncated";
      let asns = List.init n (fun i -> Slice.u16be s (off + 2 + (2 * i))) in
      let seg =
        match ty with
        | 1 -> Set asns
        | 2 -> Seq asns
        | ty -> Bgp_error.fail ~context:"As_path.decode" "segment type %d" ty
      in
      segments (off + 2 + (2 * n)) (seg :: acc)
    end
  in
  segments 0 []

let pp_segment ppf = function
  | Seq l ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
        Format.pp_print_int ppf l
  | Set l ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        l

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    pp_segment ppf t
