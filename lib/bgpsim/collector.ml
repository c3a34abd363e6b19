module Engine = Tdat_netsim.Engine
module Connection = Tdat_tcpsim.Connection
module Receiver = Tdat_tcpsim.Receiver
module Msg = Tdat_bgp.Msg
module Mrt = Tdat_bgp.Mrt

type kind = Quagga | Vendor

type session = {
  conn : Connection.t;
  peer_as : int;
  peer_ip : int32;
  mutable parsed_upto : int; (* stream offset parsed into jobs *)
  mutable processing : bool; (* a job for this session is queued/running *)
}

type t = {
  engine : Engine.t;
  kind : kind;
  ip : int32;
  local_as : int;
  proc_time : Tdat_timerange.Time_us.t;
  proc_jitter : float;
  rng : Tdat_rng.Rng.t option;
  tcp : Tdat_tcpsim.Tcp_types.config;
  site : Connection.Site.t;
  mutable sessions : session list;
  mutable cpu_free_at : Tdat_timerange.Time_us.t;
  mutable mrt : Mrt.record list; (* reverse order *)
  mutable processed : int;
  mutable failed : bool;
}

let create ~engine ~kind ~ip ?(local_as = 65000)
    ?(proc_time_per_msg = 150) ?(proc_jitter = 0.) ?rng
    ?(tcp = Tdat_tcpsim.Tcp_types.default) ?local () =
  if proc_jitter > 0. && rng = None then
    invalid_arg "Collector.create: proc_jitter needs an rng";
  let local =
    match local with
    | Some p -> p
    | None -> Connection.path ~delay:50 ~bandwidth_bps:1_000_000_000 ()
  in
  let site = Connection.Site.create ~engine ?rng ~local () in
  {
    engine;
    kind;
    ip;
    local_as;
    proc_time = proc_time_per_msg;
    proc_jitter;
    rng;
    tcp;
    site;
    sessions = [];
    cpu_free_at = 0;
    mrt = [];
    processed = 0;
    failed = false;
  }

let site t = t.site
let tcp_config t = t.tcp
let ip t = t.ip
let mrt t = List.rev t.mrt
let local_drops t = Connection.Site.local_drops t.site

let job_cost t =
  match (t.proc_jitter, t.rng) with
  | j, Some rng when j > 0. ->
      let mult = 1.0 +. Tdat_rng.Rng.exponential rng ~mean:j in
      int_of_float (float_of_int t.proc_time *. mult)
  | _ -> t.proc_time

(* Pump a session: parse complete messages out of the receive buffer and
   run them through the shared CPU one at a time.  The buffer bytes are
   consumed only when their message finishes processing, so a busy CPU
   back-pressures into the advertised window. *)
let rec pump t s =
  if (not s.processing) && not t.failed then begin
    let rcv = Connection.receiver s.conn in
    let stream = Receiver.peek rcv in
    (* [parsed_upto] counts bytes already consumed from the stream; the
       peek buffer always starts at the current consume point. *)
    match Msg.peek_length stream 0 with
    | Some mlen when String.length stream >= mlen ->
        s.processing <- true;
        let now = Engine.now t.engine in
        let start = max now t.cpu_free_at in
        let finish = start + job_cost t in
        t.cpu_free_at <- finish;
        ignore
          (Engine.schedule_at t.engine finish (fun () ->
               if not t.failed then begin
                 let msg_bytes = String.sub stream 0 mlen in
                 (match Msg.decode msg_bytes 0 with
                 | Some (msg, _) ->
                     t.processed <- t.processed + 1;
                     if t.kind = Quagga then
                       t.mrt <-
                         {
                           Mrt.ts = Engine.now t.engine;
                           peer_as = s.peer_as;
                           local_as = t.local_as;
                           peer_ip = s.peer_ip;
                           local_ip = t.ip;
                           msg;
                         }
                         :: t.mrt
                 | None -> ());
                 Receiver.consume rcv mlen;
                 s.parsed_upto <- s.parsed_upto + mlen;
                 s.processing <- false;
                 pump t s
               end))
    | _ -> ()
  end

let attach t conn ~peer_as =
  let flow = Connection.flow conn in
  let peer_ip = flow.Tdat_pkt.Flow.sender.Tdat_pkt.Endpoint.ip in
  let s = { conn; peer_as; peer_ip; parsed_upto = 0; processing = false } in
  t.sessions <- s :: t.sessions;
  Receiver.set_on_data (Connection.receiver conn) (fun () -> pump t s)

let fail_at t at =
  ignore
    (Engine.schedule_at t.engine at (fun () ->
         t.failed <- true;
         List.iter
           (fun s -> Receiver.kill (Connection.receiver s.conn))
           t.sessions))
