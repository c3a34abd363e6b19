module R = Tdat_rng.Rng
module Connection = Tdat_tcpsim.Connection
module Tcp_types = Tdat_tcpsim.Tcp_types

type dataset = Isp_vendor | Isp_quagga | Routeviews

let name = function
  | Isp_vendor -> "ISP_A-1 (Vendor)"
  | Isp_quagga -> "ISP_A-2 (Quagga)"
  | Routeviews -> "RV"

let all = [ Isp_vendor; Isp_quagga; Routeviews ]

type meta = {
  dataset : dataset;
  batch : int;
  concurrent : int;
  router_id : int;
  true_timer : Tdat_timerange.Time_us.t option;
  true_pronounced : bool;
  true_loss_burst : bool;
  blocking_incident : bool;
  zero_bug : bool;
}

type record = { meta : meta; outcome : Scenario.outcome }

type summary = {
  transfers : int;
  packets : int;
  bytes : int;
  routers : int;
  mrt_updates : int;
}

(* ---- per-dataset parameters ------------------------------------------- *)

type params = {
  n_routers : int;
  n_transfers : int;
  timers : (float * Tdat_timerange.Time_us.t) list;
  timer_router_frac : float;
  pronounced_prob : float;
  pronounced_ticks : int;  (** Transfer length in ticks when pronounced. *)
  paced_ticks : int;       (** ... when the quota hides the gaps. *)
  delay_range : int * int; (** One-way upstream delay, µs. *)
  table_range : int * int; (** Prefixes per table. *)
  loss_burst_prob : float;
  burst_len_range : int * int;  (** µs. *)
  burst_drop : float;
  bg_loss : float;
  collector_proc : int;         (** µs per message. *)
  collector_window : int;
  local_bandwidth_bps : int;    (** Sniffer→collector local link. *)
  local_buffer_pkts : int;
  local_loss : float;           (** Receiver-local drop rate when congested. *)
  local_loss_prob : float;      (** Probability a batch's local link is congested. *)
  sender_min_rto : int;
  sender_backoff : float;
  storm_sizes : (float * int) list;
  blocking_incidents : int;
  zero_bug_sessions : int;
}

let params = function
  | Isp_vendor ->
      {
        n_routers = 24;
        (* The paper's 10396 transfers (a vendor bug caused constant
           session resets) scaled by a tenth. *)
        n_transfers = 1040;
        timers = [ (0.75, 200_000); (0.25, 400_000) ];
        timer_router_frac = 0.6;
        pronounced_prob = 0.13;
        pronounced_ticks = 25;
        paced_ticks = 5;
        delay_range = (300, 12_000);
        table_range = (3_000, 9_000);
        loss_burst_prob = 0.30;
        burst_len_range = (60_000, 250_000);
        burst_drop = 0.5;
        bg_loss = 0.0003;
        collector_proc = 600;
        collector_window = 65_535;
        local_bandwidth_bps = 300_000_000;
        local_buffer_pkts = 40;
        local_loss = 0.01;
        local_loss_prob = 0.05;
        sender_min_rto = 200_000;
        sender_backoff = 2.0;
        storm_sizes =
          [ (0.25, 1); (0.3, 4); (0.25, 8); (0.15, 12); (0.05, 16) ];
        blocking_incidents = 8;
        zero_bug_sessions = 2;
      }
  | Isp_quagga ->
      {
        n_routers = 27;
        n_transfers = 436;
        timers = [ (0.5, 100_000); (0.5, 200_000) ];
        timer_router_frac = 0.7;
        pronounced_prob = 0.35;
        pronounced_ticks = 90;
        paced_ticks = 20;
        delay_range = (300, 12_000);
        table_range = (3_000, 10_000);
        loss_burst_prob = 0.5;
        burst_len_range = (100_000, 400_000);
        burst_drop = 0.5;
        bg_loss = 0.0003;
        (* The PC-based Quagga collector processes updates much slower
           than the vendor box, and its failures trigger restart storms. *)
        collector_proc = 500;
        collector_window = 65_535;
        local_bandwidth_bps = 150_000_000;
        local_buffer_pkts = 30;
        local_loss = 0.01;
        local_loss_prob = 0.08;
        sender_min_rto = 200_000;
        sender_backoff = 2.0;
        storm_sizes =
          [ (0.35, 1); (0.25, 3); (0.2, 8); (0.12, 16); (0.08, 27) ];
        blocking_incidents = 8;
        zero_bug_sessions = 2;
      }
  | Routeviews ->
      {
        n_routers = 59;
        n_transfers = 94;
        timers = [ (0.5, 80_000); (0.5, 400_000) ];
        timer_router_frac = 0.5;
        pronounced_prob = 0.22;
        pronounced_ticks = 45;
        paced_ticks = 8;
        (* eBGP peers across the Internet. *)
        delay_range = (5_000, 120_000);
        table_range = (4_000, 12_000);
        loss_burst_prob = 0.25;
        burst_len_range = (500_000, 1_500_000);
        burst_drop = 0.25;
        bg_loss = 0.001;
        collector_proc = 200;
        (* RouteViews' much smaller maximum advertised window. *)
        collector_window = 16_384;
        (* A congested collector interface: slow-start bursts overflow the
           small input buffer, producing the receiver-local consecutive
           losses prominent in the RV rows of Tables IV and V. *)
        local_bandwidth_bps = 50_000_000;
        local_buffer_pkts = 6;
        local_loss = 0.02;
        local_loss_prob = 0.35;
        (* "TCP connections back off more aggressively ... RTO increases
           promptly to a few seconds after two or three timeouts". *)
        sender_min_rto = 500_000;
        sender_backoff = 3.0;
        storm_sizes = [ (0.7, 1); (0.2, 2); (0.1, 3) ];
        blocking_incidents = 3;
        zero_bug_sessions = 1;
      }

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let collector_kind = function
  | Isp_vendor -> Collector.Vendor
  | Isp_quagga -> Collector.Quagga
  | Routeviews -> Collector.Vendor

(* ---- router population -------------------------------------------------- *)

type rprofile = {
  rid : int;
  delay : int;
  table_base : int;
  timer : Tdat_timerange.Time_us.t option;
}

let make_population rng p =
  Array.init p.n_routers (fun i ->
      let lo, hi = p.delay_range in
      let tlo, thi = p.table_range in
      {
        rid = i + 1;
        delay = R.int_in rng lo hi;
        table_base = R.int_in rng tlo thi;
        timer =
          (if R.bernoulli rng p.timer_router_frac then
             Some (R.weighted rng p.timers)
           else None);
      })

(* ---- building one transfer spec ------------------------------------------ *)

(* Estimated number of UPDATE messages a table of [prefixes] packs into
   (path pool of prefixes/6, a few prefixes per update). *)
let est_messages prefixes = max 10 (prefixes / 6)

let make_spec rng p ~(router : rprofile) ~start_at =
  let table_prefixes =
    router.table_base * R.int_in rng 90 110 / 100
  in
  let pronounced =
    router.timer <> None && R.bernoulli rng p.pronounced_prob
  in
  let quota =
    match router.timer with
    | None -> max_int
    | Some _ ->
        let msgs = est_messages table_prefixes in
        if pronounced then max 3 (msgs / p.pronounced_ticks)
        else max 20 (msgs / p.paced_ticks)
  in
  let burst = R.bernoulli rng p.loss_burst_prob in
  let data_loss =
    let bg =
      if p.bg_loss > 0. then Tdat_netsim.Loss.bernoulli (R.split rng) p.bg_loss
      else Tdat_netsim.Loss.none
    in
    if burst then begin
      let blo, bhi = p.burst_len_range in
      let len = R.int_in rng blo bhi in
      let t0 = start_at + R.int_in rng 50_000 800_000 in
      let window =
        Tdat_timerange.Span_set.of_span (Tdat_timerange.Span.v t0 (t0 + len))
      in
      Tdat_netsim.Loss.combine bg
        (Tdat_netsim.Loss.bernoulli_during (R.split rng) window p.burst_drop)
    end
    else bg
  in
  let sender_tcp =
    {
      Tcp_types.default with
      min_rto = p.sender_min_rto;
      rto_backoff = p.sender_backoff;
    }
  in
  let upstream =
    Connection.path ~delay:router.delay
      ~bandwidth_bps:1_000_000_000 ~buffer_pkts:256 ~data_loss ()
  in
  (* Pronounced timers tick regularly; the rest wander ("the distribution
     of gap length is less regular", Section II-B1), which is what keeps
     them out of the knee detector. *)
  let timer_jitter =
    match router.timer with
    | Some t when pronounced -> t / 20
    | Some t -> 2 * t
    | None -> 0
  in
  let spec =
    Scenario.router ~table_prefixes ~start_at ~sender_tcp
      ?timer_interval:router.timer ~timer_jitter ~quota ~upstream router.rid
  in
  (spec, pronounced, burst)

let collector_tcp p = { Tcp_types.default with max_adv_window = p.collector_window }

(* ---- main loop -------------------------------------------------------------- *)

let run ?(seed = 9001) ?(scale = 1.0) dataset ~f =
  let p = params dataset in
  let rng = R.create (seed + Hashtbl.hash dataset) in
  let population = make_population rng p in
  let target = scaled scale p.n_transfers in
  let blocking = if scale >= 1.0 then p.blocking_incidents
    else max 1 (scaled scale p.blocking_incidents) in
  let zero_bugs = if scale >= 1.0 then p.zero_bug_sessions
    else min 1 p.zero_bug_sessions in
  let normal = max 0 (target - blocking - zero_bugs) in
  let produced = ref 0 and batch_id = ref 0 in
  (* Rotate through the population so every router contributes transfers
     before any repeats (the paper's per-router stretch analysis needs
     multiple transfers per router, and Table I lists full coverage). *)
  let rotation = ref [] in
  let next_router () =
    (match !rotation with
    | [] ->
        let idx = Array.init p.n_routers Fun.id in
        R.shuffle rng idx;
        rotation := Array.to_list idx
    | _ -> ());
    match !rotation with
    | i :: rest ->
        rotation := rest;
        population.(i)
    | [] -> assert false
  in
  let transfers = ref 0 and packets = ref 0 and bytes = ref 0 in
  let mrt_updates = ref 0 in
  let routers_seen = Hashtbl.create 64 in
  let emit meta (outcome : Scenario.outcome) =
    incr transfers;
    packets := !packets + Tdat_pkt.Trace.length outcome.Scenario.trace;
    bytes := !bytes + Tdat_pkt.Trace.total_bytes outcome.Scenario.trace;
    mrt_updates := !mrt_updates + List.length outcome.Scenario.mrt;
    Hashtbl.replace routers_seen meta.router_id ();
    f { meta; outcome }
  in
  (* Normal batches: storms and singles. *)
  while !produced < normal do
    incr batch_id;
    let size = min (normal - !produced) (R.weighted rng p.storm_sizes) in
    let size = min size p.n_routers in
    let specs =
      (* Draw distinct routers for this storm from the rotation. *)
      let seen = Hashtbl.create 8 in
      let rec draw acc k =
        if k = 0 then List.rev acc
        else begin
          let router = next_router () in
          if Hashtbl.mem seen router.rid then draw acc k
          else begin
            Hashtbl.add seen router.rid ();
            let start_at = 10_000 + R.int rng 2_000_000 in
            let spec, pronounced, burst = make_spec rng p ~router ~start_at in
            draw ((router, spec, pronounced, burst) :: acc) (k - 1)
          end
        end
      in
      draw [] size
    in
    let result =
      Scenario.run ~seed:(seed + (1000 * !batch_id))
        ~collector_kind:(collector_kind dataset)
        ~collector_tcp:(collector_tcp p) ~collector_proc_time:p.collector_proc
        ~collector_local:
          (Connection.path ~delay:50 ~bandwidth_bps:p.local_bandwidth_bps
             ~buffer_pkts:p.local_buffer_pkts
             ~data_loss:
               (if p.local_loss > 0. && R.bernoulli rng p.local_loss_prob
                then
                  (* Bursty interface congestion: clustered drops hit
                     retransmissions too, producing the long consecutive
                     redelivery episodes of Section II-B2. *)
                  Tdat_netsim.Loss.gilbert (R.split rng)
                    ~p_enter:(p.local_loss /. 2.) ~p_exit:0.03
                    ~p_loss_bad:0.6
                else Tdat_netsim.Loss.none)
             ())
        ~deadline:600_000_000
        (List.map (fun (_, s, _, _) -> s) specs)
    in
    List.iter2
      (fun (router, _, pronounced, burst) outcome ->
        emit
          {
            dataset;
            batch = !batch_id;
            concurrent = List.length specs;
            router_id = router.rid;
            true_timer = router.timer;
            true_pronounced = pronounced;
            true_loss_burst = burst;
            blocking_incident = false;
            zero_bug = false;
          }
          outcome)
      specs result.Scenario.outcomes;
    produced := !produced + List.length specs
  done;
  (* Peer-group blocking incidents: the observed member is blocked by the
     failure of its sibling on the other collector. *)
  for k = 1 to blocking do
    incr batch_id;
    let router = next_router () in
    let spec, _, _ = make_spec rng p ~router ~start_at:10_000 in
    (* Blocking is only visible on paced senders still mid-transfer; force
       a modest quota and a small group window. *)
    let spec =
      Scenario.router ~table_prefixes:spec.Scenario.table_prefixes
        ~start_at:10_000 ~sender_tcp:spec.Scenario.sender_tcp
        ~timer_interval:
          (Option.value router.timer ~default:200_000)
        ~quota:6 ~group_window:32 ~upstream:spec.Scenario.upstream
        router.rid
    in
    let fail_at = 400_000 + R.int rng 1_000_000 in
    let pg =
      match collector_kind dataset with
      | Collector.Quagga ->
          (* Observed collector is the Quagga one: the vendor sibling
             fails and blocks the group. *)
          Scenario.run_peer_group ~seed:(seed + (1000 * !batch_id))
            ~vendor_fail_at:fail_at ~deadline:1_200_000_000 spec
      | Collector.Vendor ->
          Scenario.run_peer_group ~seed:(seed + (1000 * !batch_id))
            ~quagga_fail_at:fail_at ~deadline:1_200_000_000 spec
    in
    let outcome =
      match collector_kind dataset with
      | Collector.Quagga -> pg.Scenario.quagga_outcome
      | Collector.Vendor -> pg.Scenario.vendor_outcome
    in
    ignore k;
    emit
      {
        dataset;
        batch = !batch_id;
        concurrent = 1;
        router_id = router.rid;
        true_timer = router.timer;
        true_pronounced = false;
        true_loss_burst = false;
        blocking_incident = true;
        zero_bug = false;
      }
      outcome
  done;
  (* Zero-window-bug sessions: buggy sender against a slow, small-window
     collector with some sender-side drops. *)
  for k = 1 to zero_bugs do
    incr batch_id;
    let router = next_router () in
    let sender_tcp =
      {
        Tcp_types.default with
        min_rto = p.sender_min_rto;
        rto_backoff = p.sender_backoff;
        window_update_loss_prob = 0.5;
      }
    in
    let upstream =
      Connection.path ~delay:router.delay
        ~data_loss:(Tdat_netsim.Loss.bernoulli (R.split rng) 0.05)
        ()
    in
    let spec =
      Scenario.router ~table_prefixes:router.table_base ~start_at:10_000
        ~sender_tcp ~upstream router.rid
    in
    let result =
      Scenario.run ~seed:(seed + (1000 * !batch_id))
        ~collector_kind:(collector_kind dataset)
        ~collector_tcp:{ Tcp_types.default with max_adv_window = 8_192 }
        ~collector_proc_time:2_000 ~deadline:600_000_000 [ spec ]
    in
    ignore k;
    emit
      {
        dataset;
        batch = !batch_id;
        concurrent = 1;
        router_id = router.rid;
        true_timer = None;
        true_pronounced = false;
        true_loss_burst = true;
        blocking_incident = false;
        zero_bug = true;
      }
      (List.hd result.Scenario.outcomes)
  done;
  {
    transfers = !transfers;
    packets = !packets;
    bytes = !bytes;
    routers = Hashtbl.length routers_seen;
    mrt_updates = !mrt_updates;
  }
