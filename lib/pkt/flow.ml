type t = { sender : Endpoint.t; receiver : Endpoint.t }
type direction = To_receiver | To_sender

let v ~sender ~receiver = { sender; receiver }

let key t =
  if Endpoint.compare t.sender t.receiver <= 0 then (t.sender, t.receiver)
  else (t.receiver, t.sender)

let direction_of t (seg : Tcp_segment.t) =
  if Endpoint.equal seg.src t.sender && Endpoint.equal seg.dst t.receiver then
    Some To_receiver
  else if Endpoint.equal seg.src t.receiver && Endpoint.equal seg.dst t.sender
  then Some To_sender
  else None

let is_to_receiver t seg =
  match direction_of t seg with Some To_receiver -> true | _ -> false

let matches t seg = direction_of t seg <> None

let pp ppf t =
  Format.fprintf ppf "%a->%a" Endpoint.pp t.sender Endpoint.pp t.receiver
