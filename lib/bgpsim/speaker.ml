module Engine = Tdat_netsim.Engine
module Sender = Tdat_tcpsim.Sender
module Msg = Tdat_bgp.Msg

type member = {
  sender : Sender.t;
  mutable next_msg : int;
  mutable last_write : Tdat_timerange.Time_us.t;
  mutable last_progress : Tdat_timerange.Time_us.t;
  mutable last_acked_bytes : int;
  mutable finish_time : Tdat_timerange.Time_us.t option;
  mutable failed : bool;
  mutable removal_time : Tdat_timerange.Time_us.t option;
}

type t = {
  engine : Engine.t;
  encoded : string array; (* one entry per table message *)
  offsets : int array;    (* cumulative end-offset of message i *)
  tick : Tdat_timerange.Time_us.t;
  timer_jitter : Tdat_timerange.Time_us.t;
  rng : Tdat_rng.Rng.t option;
  quota : int;
  group_window : int;
  keepalive_interval : Tdat_timerange.Time_us.t;
  hold_time : Tdat_timerange.Time_us.t;
  mutable members : member list;
  mutable started : bool;
}

let keepalive_bytes = Msg.encode Msg.keepalive

let create ~engine ~msgs ?timer_interval ?(timer_jitter = 0) ?rng
    ?(quota = max_int) ?(group_window = 4096)
    ?(keepalive_interval = 30_000_000) ?(hold_time = 180_000_000) () =
  let encoded = Array.of_list (List.map Msg.encode msgs) in
  let offsets = Array.make (Array.length encoded) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i bytes ->
      total := !total + String.length bytes;
      offsets.(i) <- !total)
    encoded;
  let tick, quota =
    match timer_interval with
    | Some interval -> (interval, quota)
    | None -> (5_000, max_int) (* greedy sender approximation *)
  in
  if timer_jitter > 0 && rng = None then
    invalid_arg "Speaker.create: timer_jitter needs an rng";
  {
    engine;
    encoded;
    offsets;
    tick;
    timer_jitter;
    rng;
    quota;
    group_window;
    keepalive_interval;
    hold_time;
    members = [];
    started = false;
  }

let add_member t sender =
  if t.started then invalid_arg "Speaker.add_member: already started";
  let m =
    {
      sender;
      next_msg = 0;
      last_write = 0;
      last_progress = 0;
      last_acked_bytes = 0;
      finish_time = None;
      failed = false;
      removal_time = None;
    }
  in
  t.members <- t.members @ [ m ];
  m

(* Index of the first message NOT yet fully acknowledged by [m]:
   the count of messages whose end-offset <= acked bytes. *)
let acked_msgs t m =
  let acked = Sender.acked m.sender in
  let n = Array.length t.offsets in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.offsets.(mid) <= acked then lo := mid + 1 else hi := mid
  done;
  !lo

(* The replication-queue head: slowest live member's acknowledged
   progress.  Finished/failed members do not hold the queue. *)
let queue_head t =
  let live =
    List.filter (fun m -> (not m.failed) && m.finish_time = None) t.members
  in
  match live with
  | [] -> Array.length t.encoded
  | _ -> List.fold_left (fun acc m -> min acc (acked_msgs t m)) max_int live

let feed_member t now head m =
  if (not m.failed) && Sender.established m.sender then begin
    (* Detect acknowledgment progress for the hold timer. *)
    let acked = Sender.acked m.sender in
    if acked > m.last_acked_bytes then begin
      m.last_acked_bytes <- acked;
      m.last_progress <- now
    end;
    (* Hold-timer expiry: the peer stopped acknowledging. *)
    if
      Sender.in_flight m.sender > 0
      && m.last_progress > 0
      && now - m.last_progress > t.hold_time
    then begin
      m.failed <- true;
      m.removal_time <- Some now;
      Sender.stop m.sender
    end
    else begin
      let n = Array.length t.encoded in
      let limit = min n (head + t.group_window) in
      let sent = ref 0 in
      (* Batch the tick's quota into one socket write, as real BGP
         implementations flush whole output buffers: TCP then packs the
         stream into MSS-sized segments instead of one tiny segment per
         message. *)
      let batch = Buffer.create 4096 in
      while m.next_msg < limit && !sent < t.quota do
        Buffer.add_string batch t.encoded.(m.next_msg);
        m.next_msg <- m.next_msg + 1;
        incr sent
      done;
      if !sent > 0 then begin
        Sender.write m.sender (Buffer.contents batch);
        m.last_write <- now
      end;
      if m.last_progress = 0 && !sent > 0 then m.last_progress <- now;
      (* Keepalive when the session has been idle. *)
      if !sent = 0 && now - m.last_write >= t.keepalive_interval then begin
        Sender.write m.sender keepalive_bytes;
        m.last_write <- now
      end;
      (* Completion check. *)
      if
        m.finish_time = None && m.next_msg = n
        && Sender.all_acked m.sender
      then m.finish_time <- Some now
    end
  end

let all_done t =
  List.for_all (fun m -> m.failed || m.finish_time <> None) t.members

let start t =
  if t.started then invalid_arg "Speaker.start: already started";
  t.started <- true;
  let rec tick () =
    let now = Engine.now t.engine in
    let head = queue_head t in
    List.iter (feed_member t now head) t.members;
    if not (all_done t) then begin
      let jitter =
        match (t.timer_jitter, t.rng) with
        | 0, _ | _, None -> 0
        | j, Some rng -> Tdat_rng.Rng.int rng (j + 1)
      in
      ignore (Engine.schedule_after t.engine (t.tick + jitter) tick)
    end
  in
  ignore (Engine.schedule_after t.engine t.tick tick)

let finished m = m.finish_time <> None
let failed m = m.failed
let removal_time m = m.removal_time
