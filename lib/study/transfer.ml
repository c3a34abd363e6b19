module Time_us = Tdat_timerange.Time_us

type t = {
  source : string;
  peer_as : int;
  peer_ip : int32;
  start_ts : Time_us.t;
  end_ts : Time_us.t;
  prefixes : int;
  messages : int;
  anchored : bool;
}

let duration t = Time_us.(t.end_ts - t.start_ts)
let duration_s t = Time_us.to_s (duration t)

let rate t =
  let d = duration_s t in
  if d > 0. then float_of_int t.prefixes /. d else 0.

let compare a b =
  let c = Time_us.compare a.start_ts b.start_ts in
  if c <> 0 then c
  else
    let c = Int.compare a.peer_as b.peer_as in
    if c <> 0 then c
    else
      let c = Int32.compare a.peer_ip b.peer_ip in
      if c <> 0 then c
      else
        let c = Time_us.compare a.end_ts b.end_ts in
        if c <> 0 then c else String.compare a.source b.source

let pp_ip ppf ip =
  let b n = Int32.to_int (Int32.logand (Int32.shift_right_logical ip n) 0xFFl) in
  Format.fprintf ppf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)

let pp ppf t =
  Format.fprintf ppf "AS%d %a: %d prefixes in %.3f s (%d msgs, %.0f pfx/s%s)%s"
    t.peer_as pp_ip t.peer_ip t.prefixes (duration_s t) t.messages (rate t)
    (if t.anchored then ", anchored" else "")
    (if String.equal t.source "" then ""
     else Printf.sprintf " [%s]" (Filename.basename t.source))
