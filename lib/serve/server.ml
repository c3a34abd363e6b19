(* The `tdat serve` daemon (DESIGN.md, "Service architecture").

   One event-loop domain owns every socket: it accepts connections,
   frames line-delimited JSON requests, answers control verbs (ping /
   stats / shutdown) inline, and submits analysis verbs to a
   {!Tdat_parallel.Service} — the bounded admission queue its worker
   domains pull from.  Workers never touch a socket: a finished job
   pushes its response line into a mutex-guarded outbox and pokes the
   loop through a self-pipe; the loop routes it to the connection's
   output buffer and writes when the socket is writable.  Admission
   control is visible on the wire: a full queue answers 429 [busy], a
   draining server 503 [draining].

   Graceful drain (SIGTERM or the shutdown verb): stop accepting
   connections and jobs, run every accepted job to completion, flush
   every response, then close.  The invariant is [pending] — accepted
   jobs whose response has not yet reached the outbox — so the loop
   only exits once [pending = 0] and all output buffers are empty: no
   accepted job is ever dropped.

   Each request runs its analysis at [jobs:1]: the request already
   occupies a service worker, and cross-request parallelism is the
   service's job.  Results are identical either way (the analyzer is
   deterministic in [jobs]). *)

module Json = Tdat_json.Json
module Log = Tdat_obs.Log
module Obs = Tdat_obs.Metrics
module Window = Tdat_obs.Window
module Exemplar = Tdat_obs.Exemplar
module Prometheus = Tdat_obs.Prometheus
module Service = Tdat_parallel.Service

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  jobs : int;  (** Worker domains: jobs that run at once. *)
  queue_capacity : int;
      (** Unstarted jobs the queue holds (429 beyond it). *)
}

(* A request line longer than this closes the connection. *)
let max_line_bytes = 1 lsl 20

(* After refusing a line and half-closing, what the daemon still reads
   and discards while it waits for the peer's end of file: closing a
   Unix or TCP socket with input unread makes the peer's next read fail
   with ECONNRESET instead of seeing the end of the stream. *)
let linger_bytes = 1 lsl 20
let linger_s = 1.

(* Each endpoint's rolling latency window: 12 slots of 5 s. *)
let window_slots = 12
let window_slot_s = 5.

(* The slowest requests kept for post-mortems. *)
let exemplar_capacity = 8

(* Analyze and check answers kept (DESIGN.md, "Response cache"), and
   the bytes of answer text they may hold in all. *)
let cache_capacity = 256
let cache_max_bytes = 32 lsl 20

(* The job verbs, each with its own rolling latency window.  Literal
   list — window identity is part of the wire surface (stats/metrics
   label values), not derived from request traffic. *)
let job_endpoints = [ "sleep"; "analyze"; "check"; "study" ]

let m_requests = Obs.Counter.make ~stable:false "serve.requests"
let m_errors = Obs.Counter.make ~stable:false "serve.errors"

let m_request_us =
  Obs.Histogram.make ~stable:false ~buckets:Obs.Histogram.time_us_buckets
    "serve.request_us"

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  inbuf : Buffer.t;  (* bytes received, not yet framed into lines *)
  mutable scanned : int;  (* prefix of [inbuf] known to hold no '\n' *)
  out : Buffer.t;  (* responses not yet taken for writing *)
  mutable sending : string;  (* taken from [out], written up to [sent] *)
  mutable sent : int;
  mutable closing : bool;  (* read no more requests; half-close once flushed *)
  mutable linger_until : float option;  (* half-closed: close at EOF or then *)
  mutable discarded : int;  (* bytes read and dropped since [closing] *)
  mutable dead : bool;  (* peer gone; remove at end of iteration *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound : address;
  service : Service.t;
  cache : (Protocol.request, Json.t) Cache.t;  (* analyze/check answers *)
  outbox_m : Mutex.t;
  outbox : (int * string) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  draining : bool Atomic.t;
  pending : int Atomic.t;
  started_s : float;
  (* Request-scoped telemetry.  Always on (request-rate, not
     packet-rate): [stats], [metrics] and `tdat top` must answer on a
     daemon started without --metrics.  The registry instruments above
     stay gated as before. *)
  req_total : int Atomic.t;
  err_total : int Atomic.t;
  trace_seq : int Atomic.t;  (* server-generated trace ids *)
  windows : (string * Window.t) list;  (* endpoint -> rolling window *)
  exemplars : Exemplar.t;
  mutable loop : unit Domain.t option;
}

let address t = t.bound

(* Wake the event loop out of [select].  Safe from any domain and from
   a signal handler; a full pipe already means a wake-up is pending. *)
let wake t =
  let b = Bytes.make 1 'w' in
  match Unix.write t.wake_w b 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EPIPE | EBADF), _, _)
    ->
      ()

let stop t =
  Atomic.set t.draining true;
  wake t

(* --- job execution (service workers) ----------------------------------- *)

(* A typed mid-job failure: carries the protocol error for the
   response instead of a 500. *)
exception Fail of Protocol.error

let error_of_exn = function
  | Fail e -> e
  | Unix.Unix_error (Unix.ENOENT, _, path) ->
      Protocol.err_not_found (path ^ ": no such file")
  | Unix.Unix_error (e, fn, arg) ->
      Protocol.err_internal (fn ^ "(" ^ arg ^ "): " ^ Unix.error_message e)
  | Sys_error msg -> Protocol.err_not_found msg
  | Tdat_pkt.Pcap.Decode_error msg -> Protocol.err_bad_request msg
  | Tdat_bgp.Bgp_error.Decode_error { context; message } ->
      Protocol.err_bad_request (context ^ ": " ^ message)
  | e -> Protocol.err_internal (Printexc.to_string e)

let ingest_follow (f : Protocol.follow) =
  Tdat_pkt.Ingest_io.follow_idle ~limit_s:f.limit_s ~idle_s:f.idle_s ()

let fail_on_pcap_errors (r : Tdat_pkt.Pcap.result) =
  match List.find_opt Tdat_pkt.Pcap.Diag.is_error r.diags with
  | Some d -> raise (Fail (Protocol.err_bad_request d.Tdat_pkt.Pcap.Diag.message))
  | None -> ()


let pcap_salvage (s : Tdat_pkt.Pcap.stats) =
  Json.Obj
    [
      ("records", Json.int s.records);
      ("decoded", Json.int s.decoded);
      ("skipped", Json.int s.skipped);
      ("clipped", Json.int s.clipped);
    ]

let series_config ~sender_side =
  if sender_side then
    { Tdat.Series_gen.default_config with sniffer_location = `Near_sender }
  else Tdat.Series_gen.default_config

(* Per-request stage instrumentation: every job runs its decode /
   analyze / render phases through [stage], which both emits a span
   (joining the request's trace via the worker's trace context) and
   accumulates the wall-clock breakdown echoed by ["timings": true]
   and kept by the exemplar buffer.  The polymorphic field lets one
   stager thread through differently-typed stages. *)
type stager = { stage : 'a. string -> (unit -> 'a) -> 'a }

let execute_analyze st ~path ~series ~sender_side ~follow =
  let r =
    st.stage "serve.decode" (fun () ->
        let r =
          Tdat_pkt.Pcap.read_file ?follow:(Option.map ingest_follow follow)
            path
        in
        fail_on_pcap_errors r;
        r)
  in
  let results =
    st.stage "serve.analyze" (fun () ->
        Tdat.Analyzer.analyze_all ~config:(series_config ~sender_side) ~jobs:1
          r.Tdat_pkt.Pcap.trace)
  in
  let output = st.stage "serve.render" (fun () -> Render.analysis ~series results) in
  Json.Obj
    [
      ("output", Json.Str output);
      ("connections", Json.int (List.length results));
      ("salvage", pcap_salvage r.Tdat_pkt.Pcap.stats);
    ]

let execute_check st ~path =
  let r, ingest =
    st.stage "serve.decode" (fun () ->
        let r = Tdat_pkt.Pcap.read_file path in
        (r, Tdat_audit.Ingest.of_result r))
  in
  let results =
    st.stage "serve.analyze" (fun () ->
        Tdat.Analyzer.analyze_all
          ~config:(series_config ~sender_side:false)
          ~audit:true ~jobs:1 r.Tdat_pkt.Pcap.trace)
  in
  let render =
    st.stage "serve.render" (fun () ->
        let conn_findings =
          List.fold_left
            (fun n (_, a) -> n + List.length a.Tdat.Analyzer.audit)
            0 results
        in
        let failed =
          Tdat_audit.Diag.errors ingest <> []
          || List.exists
               (fun (_, a) ->
                 Tdat_audit.Diag.errors a.Tdat.Analyzer.audit <> [])
               results
        in
        Json.Obj
          [
            ("ok", Json.Bool (not failed));
            ("capture_findings", Json.int (List.length ingest));
            ("connection_findings", Json.int conn_findings);
            ("connections", Json.int (List.length results));
          ])
  in
  render

(* `tdat study`'s own scan and aggregate, so the report is the batch
   one by construction.  A tailed study names a single archive. *)
let execute_study st ~paths ~gap_s ~min_prefixes ~slow_threshold_s ~follow =
  let config =
    {
      Tdat_study.Detect.quiet_gap = Tdat_timerange.Time_us.of_s gap_s;
      min_prefixes;
    }
  in
  let report =
    st.stage "serve.analyze" (fun () ->
        Tdat_study.Aggregate.of_reports ?slow_threshold_s
          (List.map
             (fun path ->
               Tdat_study.Archive.scan_file
                 ?follow:(Option.map ingest_follow follow)
                 ~config path)
             paths))
  in
  let report_json =
    st.stage "serve.render" (fun () -> Tdat_study.Report.to_json_value report)
  in
  Json.Obj [ ("report", report_json) ]

let with_member result name value =
  match result with
  | Json.Obj fields -> Json.Obj (fields @ [ (name, value) ])
  | other -> Json.Obj [ ("value", other); (name, value) ]

(* An analyze or check answer depends only on the file's bytes and the
   request's options, so the request is the cache key and a hit is the
   bytes a miss renders.  A tailed read is one-shot by definition (the
   file grows under it) and is never cached. *)
let execute t st (req : Protocol.request) =
  let cached ~path run =
    let result, hit = Cache.find_or_load t.cache req ~path ~load:run in
    with_member result "cache_hit" (Json.Bool hit)
  in
  match req with
  | Protocol.Sleep { ms } ->
      st.stage "serve.sleep" (fun () -> Unix.sleepf (ms /. 1000.));
      Json.Obj [ ("slept_ms", Json.Num ms) ]
  | Protocol.Analyze { path; series; sender_side; follow = None } ->
      cached ~path (fun () ->
          execute_analyze st ~path ~series ~sender_side ~follow:None)
  | Protocol.Analyze { path; series; sender_side; follow } ->
      with_member
        (execute_analyze st ~path ~series ~sender_side ~follow)
        "cache_hit" (Json.Bool false)
  | Protocol.Check { path } -> cached ~path (fun () -> execute_check st ~path)
  | Protocol.Study { paths; gap_s; min_prefixes; slow_threshold_s; follow } ->
      execute_study st ~paths ~gap_s ~min_prefixes ~slow_threshold_s ~follow
  | Protocol.Ping | Protocol.Stats | Protocol.Metrics _ | Protocol.Shutdown ->
      (* Control verbs never reach the queue ([Protocol.is_job]). *)
      raise (Fail (Protocol.err_internal "control verb submitted as job"))

let push_outbox t conn_id line =
  Mutex.lock t.outbox_m;
  Queue.push (conn_id, line) t.outbox;
  Mutex.unlock t.outbox_m

(* "serve.decode" -> "decode_us": the stage's timings-object key. *)
let stage_key name =
  let short =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  short ^ "_us"

let timings_json ~queue_wait_us ~total_us stages =
  Json.Obj
    (("queue_wait_us", Json.Num queue_wait_us)
     :: List.map (fun (n, us) -> (stage_key n, Json.Num us)) stages
    @ [ ("total_us", Json.Num total_us) ])

(* Runs on a service worker, inside the request's trace context (the
   service sets it from [submit ~trace] before the job body runs).  The
   response is published last, after every counter the job bumps, so a
   [metrics] request sent after the response never reads a counter
   short of it.  The response must reach the outbox BEFORE [pending] is
   decremented: the drain check exits only at
   [pending = 0 && outbox empty && output buffers flushed], so this
   order guarantees no accepted job's response is dropped. *)
let run_job t conn_id id ~trace ~timings ~raw ~enqueued_us req =
  Atomic.incr t.req_total;
  Obs.Counter.incr m_requests;
  let started_us = Tdat_obs.Clock.now_us () in
  let stages = ref [] in
  let st =
    {
      stage =
        (fun name f ->
          let t0 = Tdat_obs.Clock.now_us () in
          (* Forwards the literal serve.* stage names from execute_*. *)
          let r = (Tdat_obs.Span.with_ ~name f [@tdat.lint.allow "L011"]) in
          stages := (name, Tdat_obs.Clock.now_us () -. t0) :: !stages;
          r);
    }
  in
  let outcome =
    match
      Tdat_obs.Span.with_ ~name:"serve.request" (fun () -> execute t st req)
    with
    | result -> Ok result
    | exception e -> Error (error_of_exn e)
  in
  let finished_us = Tdat_obs.Clock.now_us () in
  let queue_wait_us = started_us -. enqueued_us in
  let total_us = finished_us -. enqueued_us in
  let endpoint = Protocol.cmd_name req in
  let stage_list = List.rev !stages in
  (match List.assoc_opt endpoint t.windows with
  | Some w -> Window.observe w total_us
  | None -> ());
  Exemplar.note t.exemplars
    {
      Exemplar.endpoint;
      trace;
      duration_us = total_us;
      at_s = finished_us /. 1e6;
      stages = ("queue_wait", queue_wait_us) :: stage_list;
      request = raw;
    };
  Obs.Histogram.observe m_request_us (finished_us -. started_us);
  let line =
    match outcome with
    | Ok result ->
        let result =
          if timings then
            with_member result "timings"
              (timings_json ~queue_wait_us ~total_us stage_list)
          else result
        in
        Protocol.response_ok ~id ~cmd:endpoint ~trace result
    | Error err ->
        Atomic.incr t.err_total;
        Obs.Counter.incr m_errors;
        Protocol.response_error ~id err
  in
  push_outbox t conn_id line;
  Atomic.decr t.pending;
  wake t

(* --- the event loop ----------------------------------------------------- *)

let enqueue_conn conn line =
  Buffer.add_string conn.out line;
  Buffer.add_char conn.out '\n'

let cache_stats_json (s : Cache.stats) =
  Json.Obj
    [
      ("entries", Json.int s.entries);
      ("hits", Json.int s.hits);
      ("misses", Json.int s.misses);
      ("evictions", Json.int s.evictions);
    ]

(* The scratch arena's spill counter (lib/parallel) is registered in
   the default registry; surfacing it here makes allocator saturation
   visible from a running daemon without a restart. *)
let scratch_fallbacks () =
  match Obs.find_counter Obs.default "scratch.fallbacks" with
  | Some c -> Obs.Counter.value c
  | None -> 0

let window_json w =
  Json.Obj
    [
      ("window_s", Json.Num (Window.window_s w));
      ("count", Json.int (Window.count w));
      ("rps", Json.Num (Window.rate w));
      ("p50_us", Json.Num (Window.percentile w 0.5));
      ("p95_us", Json.Num (Window.percentile w 0.95));
      ("p99_us", Json.Num (Window.percentile w 0.99));
    ]

let exemplar_json (e : Exemplar.entry) =
  Json.Obj
    [
      ("endpoint", Json.Str e.Exemplar.endpoint);
      ("trace", Json.Str e.Exemplar.trace);
      ("duration_us", Json.Num e.Exemplar.duration_us);
      ("at_s", Json.Num e.Exemplar.at_s);
      ( "stages",
        Json.Obj
          (List.map (fun (n, us) -> (n, Json.Num us)) e.Exemplar.stages) );
      ("request", Json.Str e.Exemplar.request);
    ]

let stats_json t conns =
  Json.Obj
    [
      ("uptime_s", Json.Num (Unix.gettimeofday () -. t.started_s));
      ("jobs", Json.int (Service.jobs t.service));
      ("queue_capacity", Json.int (Service.capacity t.service));
      ("queue_depth", Json.int (Service.depth t.service));
      ("in_flight", Json.int (Service.in_flight t.service));
      ("pending", Json.int (Atomic.get t.pending));
      ("connections", Json.int (Hashtbl.length conns));
      ("draining", Json.Bool (Atomic.get t.draining));
      ("requests", Json.int (Atomic.get t.req_total));
      ("errors", Json.int (Atomic.get t.err_total));
      ("scratch_fallbacks", Json.int (scratch_fallbacks ()));
      ("cache", cache_stats_json (Cache.stats t.cache));
      ( "windows",
        Json.Obj (List.map (fun (ep, w) -> (ep, window_json w)) t.windows) );
      ( "exemplars",
        Json.Arr (List.map exemplar_json (Exemplar.worst t.exemplars)) );
    ]

(* The `metrics` verb: Prometheus exposition text.  The registry part
   is deterministic ([Prometheus.of_registry]); with [stable_only] it
   is exactly the cross-[--jobs] byte-identical series and nothing
   else.  Otherwise the serve layer appends its own volatile series:
   rolling-window percentiles per endpoint, live queue depth, and the
   scratch spill counter. *)
let metrics_text t ~stable_only =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Prometheus.of_registry ~stable_only Obs.default);
  if not stable_only then begin
    let windowed name value =
      Prometheus.add_header buf ~name ~kind:"gauge";
      List.iter
        (fun (ep, w) ->
          Prometheus.add_gauge buf ~name ~labels:[ ("endpoint", ep) ]
            (value w))
        t.windows
    in
    windowed "serve.window.count" (fun w -> float_of_int (Window.count w));
    windowed "serve.window.rps" Window.rate;
    windowed "serve.window.p50_us" (fun w -> Window.percentile w 0.5);
    windowed "serve.window.p95_us" (fun w -> Window.percentile w 0.95);
    windowed "serve.window.p99_us" (fun w -> Window.percentile w 0.99);
    Prometheus.add_header buf ~name:"serve.queue_depth" ~kind:"gauge";
    Prometheus.add_gauge buf ~name:"serve.queue_depth"
      (float_of_int (Service.depth t.service));
    Prometheus.add_header buf ~name:"serve.scratch_fallbacks" ~kind:"gauge";
    Prometheus.add_gauge buf ~name:"serve.scratch_fallbacks"
      (float_of_int (scratch_fallbacks ()));
    Prometheus.add_header buf ~name:"serve.exemplars" ~kind:"gauge";
    Prometheus.add_gauge buf ~name:"serve.exemplars"
      (float_of_int (Exemplar.count t.exemplars))
  end;
  Buffer.contents buf

let metrics_json t ~stable_only =
  Json.Obj
    [
      ("content_type", Json.Str "text/plain; version=0.0.4");
      ("stable_only", Json.Bool stable_only);
      ("body", Json.Str (metrics_text t ~stable_only));
    ]

let gen_trace t =
  Printf.sprintf "req-%d" (1 + Atomic.fetch_and_add t.trace_seq 1)

let handle_line t conns conn line =
  let { Protocol.id; trace; timings; request } = Protocol.parse_line line in
  match request with
  | Error e -> enqueue_conn conn (Protocol.response_error ~id e)
  | Ok Protocol.Ping ->
      enqueue_conn conn
        (Protocol.response_ok ~id ~cmd:"ping"
           (Json.Obj [ ("pong", Json.Bool true) ]))
  | Ok Protocol.Stats ->
      enqueue_conn conn
        (Protocol.response_ok ~id ~cmd:"stats" (stats_json t conns))
  | Ok (Protocol.Metrics { stable_only }) ->
      enqueue_conn conn
        (Protocol.response_ok ~id ~cmd:"metrics"
           (metrics_json t ~stable_only))
  | Ok Protocol.Shutdown ->
      enqueue_conn conn
        (Protocol.response_ok ~id ~cmd:"shutdown"
           (Json.Obj [ ("draining", Json.Bool true) ]));
      Atomic.set t.draining true
  | Ok req ->
      if Atomic.get t.draining then
        enqueue_conn conn (Protocol.response_error ~id Protocol.err_draining)
      else begin
        let trace =
          match trace with Some tr -> tr | None -> gen_trace t
        in
        let enqueued_us = Tdat_obs.Clock.now_us () in
        Atomic.incr t.pending;
        match
          Service.submit ~trace t.service (fun () ->
              run_job t conn.conn_id id ~trace ~timings ~raw:line ~enqueued_us
                req)
        with
        | Service.Accepted -> ()
        | Service.Rejected_full ->
            Atomic.decr t.pending;
            enqueue_conn conn (Protocol.response_error ~id Protocol.err_busy)
        | Service.Rejected_draining ->
            Atomic.decr t.pending;
            enqueue_conn conn
              (Protocol.response_error ~id Protocol.err_draining)
      end

(* Frame [conn.inbuf] into complete lines and handle each.  Only the
   bytes past [conn.scanned] are searched for '\n', and a line is copied
   out only once it is complete, so a request that arrives in small
   pieces costs time linear in its length.  The leftover partial line
   stays buffered; one longer than [max_line_bytes] is answered with a
   400 and the connection is closed (a stuck client must not grow the
   buffer forever): no further request is read from it, and [linger]
   closes it once the 400 is flushed. *)
let conn_lines t conns conn =
  let buf = conn.inbuf in
  let len = Buffer.length buf in
  let start = ref 0 in
  for i = conn.scanned to len - 1 do
    if Buffer.nth buf i = '\n' then begin
      let stop =
        if i > !start && Buffer.nth buf (i - 1) = '\r' then i - 1 else i
      in
      if stop > !start then
        handle_line t conns conn (Buffer.sub buf !start (stop - !start));
      start := i + 1
    end
  done;
  if !start > 0 then begin
    let rest = Buffer.sub buf !start (len - !start) in
    Buffer.clear buf;
    Buffer.add_string buf rest
  end;
  conn.scanned <- Buffer.length buf;
  if conn.scanned > max_line_bytes then begin
    enqueue_conn conn
      (Protocol.response_error ~id:Json.Null
         (Protocol.err_bad_request "request line too long"));
    conn.closing <- true
  end

let handle_readable t conns conn chunk =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.dead <- true
  | n when conn.closing ->
      conn.discarded <- conn.discarded + n;
      if conn.discarded > linger_bytes then conn.dead <- true
  | n ->
      Buffer.add_subbytes conn.inbuf chunk 0 n;
      conn_lines t conns conn
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
      conn.dead <- true

let flushed conn =
  conn.sent = String.length conn.sending && Buffer.length conn.out = 0

(* Write what the socket takes.  [out] is copied out once, when the
   previous [sending] string is done, and a partial write resumes in
   place from [sent]. *)
let flush_conn conn =
  if conn.sent = String.length conn.sending then begin
    conn.sending <- Buffer.contents conn.out;
    conn.sent <- 0;
    Buffer.clear conn.out
  end;
  let len = String.length conn.sending - conn.sent in
  if len > 0 then
    match Unix.write_substring conn.fd conn.sending conn.sent len with
    | n -> conn.sent <- conn.sent + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
        conn.dead <- true

(* Route finished jobs' responses to their connections.  A response for
   a connection that hung up, or whose sending side [linger] has shut,
   is dropped — the work still counted. *)
let drain_outbox t conns =
  Mutex.lock t.outbox_m;
  while not (Queue.is_empty t.outbox) do
    let conn_id, line = Queue.pop t.outbox in
    match Hashtbl.find_opt conns conn_id with
    | Some conn when (not conn.dead) && Option.is_none conn.linger_until ->
        enqueue_conn conn line
    | Some _ | None -> ()
  done;
  Mutex.unlock t.outbox_m

let accept_loop t conns next_id =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let conn_id = !next_id in
        incr next_id;
        Hashtbl.replace conns conn_id
          {
            fd;
            conn_id;
            inbuf = Buffer.create 256;
            scanned = 0;
            out = Buffer.create 256;
            sending = "";
            sent = 0;
            closing = false;
            linger_until = None;
            discarded = 0;
            dead = false;
          }
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* A connection refused for an over-long line closes in two steps, so
   that its peer reads the 400 and then the end of the stream: once the
   400 is flushed the write side is shut, and the socket itself closes
   at the peer's end of file ([handle_readable] marks it [dead]), or
   when the [linger_bytes] or [linger_s] bound runs out.  Input that
   arrives meanwhile is read and dropped. *)
let linger conn =
  match conn.linger_until with
  | Some deadline -> if Unix.gettimeofday () > deadline then conn.dead <- true
  | None -> (
      match Unix.shutdown conn.fd Unix.SHUTDOWN_SEND with
      | () -> conn.linger_until <- Some (Unix.gettimeofday () +. linger_s)
      | exception Unix.Unix_error (_, _, _) -> conn.dead <- true)

let reap conns =
  let victims =
    Hashtbl.fold
      (fun conn_id conn acc ->
        if conn.closing && (not conn.dead) && flushed conn then linger conn;
        if conn.dead then (conn_id, conn) :: acc else acc)
      conns []
  in
  List.iter
    (fun (conn_id, conn) ->
      close_quietly conn.fd;
      Hashtbl.remove conns conn_id)
    victims

let event_loop t =
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_id = ref 1 in
  let chunk = Bytes.create 65536 in
  let wake_buf = Bytes.create 256 in
  let running = ref true in
  while !running do
    drain_outbox t conns;
    reap conns;
    let draining = Atomic.get t.draining in
    if
      draining
      && Atomic.get t.pending = 0
      && Queue.is_empty t.outbox
      && Hashtbl.fold
           (fun _ c acc -> acc && flushed c)
           conns true
    then running := false
    else begin
      let readfds =
        Hashtbl.fold
          (fun _ c acc -> c.fd :: acc)
          conns
          (if draining then [ t.wake_r ] else [ t.wake_r; t.listen_fd ])
      in
      let writefds =
        Hashtbl.fold
          (fun _ c acc ->
            if flushed c then acc else c.fd :: acc)
          conns []
      in
      match Unix.select readfds writefds [] 0.2 with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
          if List.memq t.wake_r readable then begin
            match Unix.read t.wake_r wake_buf 0 (Bytes.length wake_buf) with
            | _ -> ()
            | exception Unix.Unix_error (_, _, _) -> ()
          end;
          if (not draining) && List.memq t.listen_fd readable then
            accept_loop t conns next_id;
          Hashtbl.iter
            (fun _ conn ->
              if (not conn.dead) && List.memq conn.fd readable then
                handle_readable t conns conn chunk)
            conns;
          Hashtbl.iter
            (fun _ conn ->
              if (not conn.dead) && List.memq conn.fd writable then
                flush_conn conn)
            conns
    end
  done;
  (* Drain complete: every accepted job answered and flushed.  The
     service drain (workers joined, their span buffers final) runs
     inside its own span, so a trace written after [wait] returns —
     the SIGTERM path — provably contains every in-flight request's
     spans followed by the drain itself. *)
  Tdat_obs.Span.with_ ~name:"serve.drain" (fun () -> Service.drain t.service);
  Hashtbl.iter (fun _ conn -> close_quietly conn.fd) conns;
  close_quietly t.listen_fd;
  close_quietly t.wake_r;
  close_quietly t.wake_w;
  (match t.bound with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | `Tcp _ -> ());
  Log.info (fun m -> m "serve: drained and stopped")

(* --- lifecycle ---------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
          addrs.(0)
      | _ | (exception Not_found) ->
          invalid_arg ("serve: cannot resolve host " ^ host))

let bind_listener = function
  | `Unix path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         if Sys.file_exists path then Unix.unlink path;
         Unix.bind fd (Unix.ADDR_UNIX path)
       with e ->
         close_quietly fd;
         raise e);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (fd, `Unix path)
  | `Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (resolve_host host, port))
       with e ->
         close_quietly fd;
         raise e);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> port
      in
      (fd, `Tcp (host, bound_port))

let start config =
  if config.jobs < 1 then invalid_arg "Server.start: jobs must be >= 1";
  (* A write to a peer that can no longer receive must come back as
     EPIPE, which [flush_conn] handles for that connection alone, not as
     the signal that ends the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound = bind_listener config.address in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      listen_fd;
      bound;
      service =
        Service.create ~jobs:config.jobs ~capacity:config.queue_capacity ();
      cache =
        Cache.create ~capacity:cache_capacity ~max_bytes:cache_max_bytes
          ~size:(fun answer -> String.length (Json.to_string answer));
      outbox_m = Mutex.create ();
      outbox = Queue.create ();
      wake_r;
      wake_w;
      draining = Atomic.make false;
      pending = Atomic.make 0;
      started_s = Unix.gettimeofday ();
      req_total = Atomic.make 0;
      err_total = Atomic.make 0;
      trace_seq = Atomic.make 0;
      windows =
        List.map
          (fun ep ->
            (ep, Window.create ~slots:window_slots ~slot_s:window_slot_s ()))
          job_endpoints;
      exemplars = Exemplar.create ~capacity:exemplar_capacity;
      loop = None;
    }
  in
  t.loop <- Some (Domain.spawn (fun () -> event_loop t));
  (match bound with
  | `Unix path -> Log.info (fun m -> m "serve: listening on %s" path)
  | `Tcp (host, port) ->
      Log.info (fun m -> m "serve: listening on %s:%d" host port));
  t

let wait t =
  match t.loop with
  | Some d ->
      t.loop <- None;
      Domain.join d
  | None -> ()
