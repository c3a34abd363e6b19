type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
}

let flags ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false)
    ?(psh = false) () =
  { syn; ack; fin; rst; psh }

let syn_bit = 0x02
let ack_bit = 0x10

(* The TCP header's flag bits: FIN 0x01, SYN, RST 0x04, PSH 0x08, ACK. *)
let flag_bits f =
  Bool.to_int f.fin lor (Bool.to_int f.syn lsl 1) lor (Bool.to_int f.rst lsl 2)
  lor (Bool.to_int f.psh lsl 3) lor (Bool.to_int f.ack lsl 4)

let data_flags = flags ~ack:true ~psh:true ()
let ack_flags = flags ~ack:true ()

type t = {
  ts : Tdat_timerange.Time_us.t;
  src : Endpoint.t;
  dst : Endpoint.t;
  seq : int;
  ack : int;
  len : int;
  window : int;
  flags : flags;
  mss_opt : int option;
  payload : string;
}

let v ~ts ~src ~dst ~seq ~ack ?len ?(window = 65535) ?(flags = ack_flags)
    ?mss_opt ?(payload = "") () =
  let len =
    match len with
    | None -> String.length payload
    | Some l ->
        (* A payload shorter than [len] is legitimate — snaplen-truncated
           captures keep only a prefix of each segment — but one longer
           than [len] would corrupt stream-offset accounting. *)
        if String.length payload > l then
          invalid_arg "Tcp_segment.v: len disagrees with payload";
        l
  in
  if len < 0 then invalid_arg "Tcp_segment.v: negative len";
  (match mss_opt with
  | Some m when m < 0 -> invalid_arg "Tcp_segment.v: negative MSS"
  | _ -> ());
  { ts; src; dst; seq; ack; len; window; flags; mss_opt; payload }

let seq_end t = t.seq + t.len
let is_data t = t.len > 0

let pp ppf t =
  let flag b c = if b then c else "" in
  Format.fprintf ppf "%a %a>%a seq=%d ack=%d len=%d win=%d %s%s%s%s%s"
    Tdat_timerange.Time_us.pp t.ts Endpoint.pp t.src Endpoint.pp t.dst t.seq
    t.ack t.len t.window (flag t.flags.syn "S") (flag t.flags.ack "A")
    (flag t.flags.fin "F") (flag t.flags.rst "R") (flag t.flags.psh "P")
