module Engine = Tdat_netsim.Engine
module Connection = Tdat_tcpsim.Connection
module Sender = Tdat_tcpsim.Sender
module Endpoint = Tdat_pkt.Endpoint
module Trace = Tdat_pkt.Trace
module Flow = Tdat_pkt.Flow

type router = {
  router_id : int;
  as_number : int;
  table_prefixes : int;
  start_at : Tdat_timerange.Time_us.t;
  sender_tcp : Tdat_tcpsim.Tcp_types.config;
  timer_interval : Tdat_timerange.Time_us.t option;
  timer_jitter : Tdat_timerange.Time_us.t;
  quota : int;
  group_window : int;
  upstream : Tdat_tcpsim.Connection.path;
  keepalive_interval : Tdat_timerange.Time_us.t;
  hold_time : Tdat_timerange.Time_us.t;
}

let router ?as_number ?(table_prefixes = 1500) ?(start_at = 10_000)
    ?(sender_tcp = Tdat_tcpsim.Tcp_types.default) ?timer_interval
    ?(timer_jitter = 0) ?(quota = max_int) ?(group_window = 4096)
    ?(upstream = Connection.path ())
    ?(keepalive_interval = 30_000_000) ?(hold_time = 180_000_000) router_id =
  {
    router_id;
    as_number = (match as_number with Some a -> a | None -> 64500 + router_id);
    table_prefixes;
    start_at;
    sender_tcp;
    timer_interval;
    timer_jitter;
    quota;
    group_window;
    upstream;
    keepalive_interval;
    hold_time;
  }

type outcome = {
  spec : router;
  flow : Flow.t;
  trace : Trace.t;
  tcp_start : Tdat_timerange.Time_us.t;
  mrt : Tdat_bgp.Mrt.record list;
  sender_counters : Sender.counters;
  upstream_drops : int;
  speaker_finished : bool;
  speaker_failed : bool;
  table : Tdat_bgp.Table.t;
}

type run_result = {
  outcomes : outcome list;
  site_trace : Trace.t;
  local_drops : int;
  collector : Collector.t;
}

let router_endpoint r =
  Endpoint.of_quad 10 1 (r.router_id / 250) (1 + (r.router_id mod 250)) (20000 + r.router_id)

let collector_endpoint ip = Endpoint.v ip 179

(* Build the table, the peer-group speaker (single member) and the TCP
   connection for one router; returns finalization hooks. *)
let setup_router ~engine ~rng ~collector r =
  let module R = Tdat_rng.Rng in
  let table_rng = R.split rng in
  let table =
    Tdat_bgp.Table.generate ~rng:table_rng ~n_prefixes:r.table_prefixes ()
  in
  let msgs = Tdat_bgp.Update_gen.pack table in
  let sender_ep = router_endpoint r in
  let receiver_ep = collector_endpoint (Collector.ip collector) in
  let conn_rng = R.split rng in
  let conn =
    Connection.create ~engine ~sender_cfg:r.sender_tcp
      ~receiver_cfg:(Collector.tcp_config collector) ~sender_ep ~receiver_ep
      ~upstream:r.upstream ~site:(Collector.site collector) ~rng:conn_rng ()
  in
  Collector.attach collector conn ~peer_as:r.as_number;
  let speaker_rng = R.split rng in
  let speaker =
    Speaker.create ~engine ~msgs ?timer_interval:r.timer_interval
      ~timer_jitter:r.timer_jitter ~rng:speaker_rng ~quota:r.quota
      ~group_window:r.group_window ~keepalive_interval:r.keepalive_interval
      ~hold_time:r.hold_time ()
  in
  let member =
    Speaker.add_member speaker (Connection.sender conn)
  in
  ignore
    (Engine.schedule_at engine r.start_at (fun () ->
         Connection.start conn;
         Speaker.start speaker));
  (table, conn, speaker, member)

(* [connection_trace site_trace] partitions the site's trace once and
   returns the lookup of one flow's sub-trace in it.  A flow that never
   put a segment on the wire still gets an empty sub-trace carrying the
   site's voids. *)
let connection_trace site_trace =
  let parts = Trace.partition_connections site_trace in
  let empty = Trace.of_segments ~voids:(Trace.voids site_trace) [] in
  fun flow ->
    Option.value ~default:empty (List.assoc_opt (Flow.key flow) parts)

let finalize_outcome ~trace_of (r, table, conn, _speaker, member) =
  let flow = Connection.flow conn in
  {
    spec = r;
    flow;
    trace = trace_of flow;
    tcp_start = r.start_at;
    mrt = [];
    sender_counters = Sender.counters (Connection.sender conn);
    upstream_drops = Connection.upstream_drops conn;
    speaker_finished = Speaker.finished member;
    speaker_failed = Speaker.failed member;
    table;
  }

let run ?(seed = 1) ?(collector_kind = Collector.Quagga) ?collector_tcp
    ?(collector_proc_time = 150) ?(collector_proc_jitter = 0.)
    ?collector_local ?collector_fail_at ?(deadline = 3_600_000_000)
    routers =
  let module R = Tdat_rng.Rng in
  let rng = R.create seed in
  let engine = Engine.create () in
  let collector_ip = (Endpoint.of_quad 10 0 0 2 0).Endpoint.ip in
  let collector =
    Collector.create ~engine ~kind:collector_kind ~ip:collector_ip
      ~proc_time_per_msg:collector_proc_time
      ~proc_jitter:collector_proc_jitter ~rng:(R.split rng)
      ?tcp:collector_tcp ?local:collector_local ()
  in
  (match collector_fail_at with
  | Some at -> Collector.fail_at collector at
  | None -> ());
  let setups =
    List.map
      (fun r ->
        let table, conn, speaker, member =
          setup_router ~engine ~rng ~collector r
        in
        (r, table, conn, speaker, member))
      routers
  in
  Engine.run ~until:deadline engine;
  let site_trace = Connection.Site.trace (Collector.site collector) in
  let trace_of = connection_trace site_trace in
  let all_mrt = Collector.mrt collector in
  let outcomes =
    List.map
      (fun ((r, _, conn, _, _) as setup) ->
        let o = finalize_outcome ~trace_of setup in
        let flow = Connection.flow conn in
        let peer_ip = flow.Flow.sender.Endpoint.ip in
        let mrt =
          List.filter
            (fun (rec_ : Tdat_bgp.Mrt.record) ->
              rec_.Tdat_bgp.Mrt.peer_ip = peer_ip
              && rec_.Tdat_bgp.Mrt.peer_as = r.as_number)
            all_mrt
        in
        { o with mrt })
      setups
  in
  {
    outcomes;
    site_trace;
    local_drops = Collector.local_drops collector;
    collector;
  }

type peer_group_result = {
  quagga_outcome : outcome;
  vendor_outcome : outcome;
  quagga_collector : Collector.t;
  vendor_collector : Collector.t;
  vendor_removed_at : Tdat_timerange.Time_us.t option;
  quagga_removed_at : Tdat_timerange.Time_us.t option;
}

let run_peer_group ?(seed = 1) ?vendor_fail_at ?quagga_fail_at
    ?(deadline = 3_600_000_000) r =
  let module R = Tdat_rng.Rng in
  let rng = R.create seed in
  let engine = Engine.create () in
  let quagga_ip = (Endpoint.of_quad 10 0 0 2 0).Endpoint.ip in
  let vendor_ip = (Endpoint.of_quad 10 0 0 3 0).Endpoint.ip in
  let quagga =
    Collector.create ~engine ~kind:Collector.Quagga ~ip:quagga_ip
      ~rng:(R.split rng) ()
  in
  let vendor =
    Collector.create ~engine ~kind:Collector.Vendor ~ip:vendor_ip
      ~rng:(R.split rng) ()
  in
  (match vendor_fail_at with
  | Some at -> Collector.fail_at vendor at
  | None -> ());
  (match quagga_fail_at with
  | Some at -> Collector.fail_at quagga at
  | None -> ());
  let table_rng = R.split rng in
  let table =
    Tdat_bgp.Table.generate ~rng:table_rng ~n_prefixes:r.table_prefixes ()
  in
  let msgs = Tdat_bgp.Update_gen.pack table in
  let sender_ep_q = router_endpoint r in
  let sender_ep_v =
    Endpoint.v sender_ep_q.Endpoint.ip (sender_ep_q.Endpoint.port + 1)
  in
  let make_conn collector sender_ep =
    let conn =
      Connection.create ~engine ~sender_cfg:r.sender_tcp
        ~receiver_cfg:(Collector.tcp_config collector) ~sender_ep
        ~receiver_ep:(collector_endpoint (Collector.ip collector))
        ~upstream:r.upstream ~site:(Collector.site collector)
        ~rng:(R.split rng) ()
    in
    Collector.attach collector conn ~peer_as:r.as_number;
    conn
  in
  let conn_q = make_conn quagga sender_ep_q in
  let conn_v = make_conn vendor sender_ep_v in
  let speaker =
    Speaker.create ~engine ~msgs ?timer_interval:r.timer_interval
      ~timer_jitter:r.timer_jitter ~rng:(R.split rng) ~quota:r.quota
      ~group_window:r.group_window ~keepalive_interval:r.keepalive_interval
      ~hold_time:r.hold_time ()
  in
  let member_q = Speaker.add_member speaker (Connection.sender conn_q) in
  let member_v = Speaker.add_member speaker (Connection.sender conn_v) in
  ignore
    (Engine.schedule_at engine r.start_at (fun () ->
         Connection.start conn_q;
         Connection.start conn_v;
         Speaker.start speaker));
  Engine.run ~until:deadline engine;
  let outcome_of collector conn member =
    let site_trace = Connection.Site.trace (Collector.site collector) in
    let flow = Connection.flow conn in
    {
      spec = r;
      flow;
      trace = connection_trace site_trace flow;
      tcp_start = r.start_at;
      mrt = Collector.mrt collector;
      sender_counters = Sender.counters (Connection.sender conn);
      upstream_drops = Connection.upstream_drops conn;
      speaker_finished = Speaker.finished member;
      speaker_failed = Speaker.failed member;
      table;
    }
  in
  {
    quagga_outcome = outcome_of quagga conn_q member_q;
    vendor_outcome = outcome_of vendor conn_v member_v;
    quagga_collector = quagga;
    vendor_collector = vendor;
    vendor_removed_at = Speaker.removal_time member_v;
    quagga_removed_at = Speaker.removal_time member_q;
  }
