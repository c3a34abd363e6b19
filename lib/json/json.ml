(* The repository's one JSON codec (DESIGN.md, "Service architecture").

   Every JSON document T-DAT reads or writes goes through here: the
   serve protocol, the study report, the metrics snapshot, the Chrome
   trace, the lint reports and the perf-gate baseline.  This is a
   complete, strict RFC 8259 value codec — objects, arrays, strings
   with escapes (including \uXXXX, encoded back to UTF-8), numbers,
   booleans, null — with two deliberate simplifications: numbers are
   floats (integers are exact up to 2^53, which covers microsecond
   epoch timestamps), and object member order is preserved as
   parsed/built, so emitted documents are deterministic. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- accessors --------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_float_opt = function Num n -> Some n | _ -> None

let to_int_opt = function
  | Num n when Float.is_integer n -> Some (int_of_float n)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr xs -> Some xs | _ -> None

(* --- emitting ---------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integers below 2^53 print as integers (every one of them is exact);
   other finite numbers print in the canonical shortest round-trip form
   ([Canon]), so two emissions of the same value are always the same
   bytes and never longer than the value warrants.  JSON has no literal
   for the non-finite values: infinities print as the overflowing
   [1e999], which reads back as the same infinity, and NaN as [null]. *)
let add_num buf n =
  if Float.is_integer n && Float.abs n < 0x1p53 then
    Buffer.add_string buf (Printf.sprintf "%.0f" n)
  else if Float.is_nan n then Buffer.add_string buf "null"
  else if n = Float.infinity then Buffer.add_string buf "1e999"
  else if n = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else Buffer.add_string buf (Canon.to_string n)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num n -> add_num buf n
  | Str s -> add_escaped buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_escaped buf k;
          Buffer.add_char buf ':';
          add buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

type parser_state = { s : string; mutable pos : int }

let fail_at p msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some got when Char.equal got c -> advance p
  | Some got -> fail_at p (Printf.sprintf "expected %c, got %c" c got)
  | None -> fail_at p (Printf.sprintf "expected %c, got end of input" c)

let literal p word value =
  let n = String.length word in
  if
    p.pos + n <= String.length p.s
    && String.equal (String.sub p.s p.pos n) word
  then begin
    p.pos <- p.pos + n;
    value
  end
  else fail_at p (Printf.sprintf "invalid literal (expected %s)" word)

let hex_digit p c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail_at p "bad \\u escape"

let parse_u16 p =
  if p.pos + 4 > String.length p.s then fail_at p "truncated \\u escape";
  let v =
    (hex_digit p p.s.[p.pos] lsl 12)
    lor (hex_digit p p.s.[p.pos + 1] lsl 8)
    lor (hex_digit p p.s.[p.pos + 2] lsl 4)
    lor hex_digit p p.s.[p.pos + 3]
  in
  p.pos <- p.pos + 4;
  v

(* Encode a Unicode scalar value as UTF-8 (surrogate pairs are combined
   by the caller). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail_at p "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
        advance p;
        match peek p with
        | None -> fail_at p "unterminated escape"
        | Some c ->
            advance p;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let hi = parse_u16 p in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* high surrogate: require the paired low surrogate *)
                  expect p '\\';
                  expect p 'u';
                  let lo = parse_u16 p in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail_at p "unpaired surrogate";
                  add_utf8 buf
                    (0x10000
                    + ((hi - 0xD800) lsl 10)
                    + (lo - 0xDC00))
                end
                else if hi >= 0xDC00 && hi <= 0xDFFF then
                  fail_at p "unpaired surrogate"
                else add_utf8 buf hi
            | _ -> fail_at p "bad escape");
            go ())
    | Some c when Char.code c < 0x20 -> fail_at p "control byte in string"
    | Some c ->
        advance p;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let consume cond =
    let rec go () =
      match peek p with
      | Some c when cond c ->
          advance p;
          go ()
      | _ -> ()
    in
    go ()
  in
  (match peek p with Some '-' -> advance p | _ -> ());
  let is_digit c = c >= '0' && c <= '9' in
  (* RFC 8259 integer part: a single 0, or a nonzero digit followed by
     more digits — "01" is malformed, not a sloppy 1. *)
  (match peek p with
  | Some '0' -> advance p
  | Some c when is_digit c -> consume is_digit
  | _ -> fail_at p "expected a value");
  let consume1 what cond =
    match peek p with
    | Some c when cond c -> consume cond
    | _ -> fail_at p what
  in
  (match peek p with
  | Some '.' ->
      advance p;
      consume1 "digit expected after decimal point" is_digit
  | _ -> ());
  (match peek p with
  | Some ('e' | 'E') ->
      advance p;
      (match peek p with Some ('+' | '-') -> advance p | _ -> ());
      consume1 "digit expected in exponent" is_digit
  | _ -> ());
  match float_of_string_opt (String.sub p.s start (p.pos - start)) with
  | Some n -> Num n
  | None -> fail_at p "bad number"

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail_at p "unexpected end of input"
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then begin
        advance p;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws p;
          let k = parse_string p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              members ((k, v) :: acc)
          | Some '}' ->
              advance p;
              List.rev ((k, v) :: acc)
          | _ -> fail_at p "expected , or } in object"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then begin
        advance p;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              elements (v :: acc)
          | Some ']' ->
              advance p;
              List.rev (v :: acc)
          | _ -> fail_at p "expected , or ] in array"
        in
        Arr (elements [])
      end
  | Some '"' -> Str (parse_string p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some _ -> parse_number p

let parse s =
  let p = { s; pos = 0 } in
  match
    let v = parse_value p in
    skip_ws p;
    if p.pos <> String.length s then fail_at p "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
