type t = { sender : Endpoint.t; receiver : Endpoint.t }
type direction = To_receiver | To_sender

let v ~sender ~receiver = { sender; receiver }

let key t =
  if Endpoint.compare t.sender t.receiver <= 0 then (t.sender, t.receiver)
  else (t.receiver, t.sender)

let pp ppf t =
  Format.fprintf ppf "%a->%a" Endpoint.pp t.sender Endpoint.pp t.receiver
