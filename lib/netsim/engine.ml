(* Engine instruments (DESIGN.md, "Observability"): the dispatched-event
   counter is stable (the event sequence is a pure function of the
   scenario), and so is the heap-depth high-water mark — schedule order
   does not depend on wall clock or jobs. *)
module Obs = Tdat_obs.Metrics

let m_events = Obs.Counter.make "sim.events"
let g_heap_depth_hw = Obs.Gauge.make "sim.heap_depth_hw"

type timer = { mutable cancelled : bool; mutable fired : bool }

type event = { timer : timer; action : unit -> unit }

type t = { mutable clock : Tdat_timerange.Time_us.t; queue : event Heap.t }

let create () = { clock = 0; queue = Heap.create () }
let now t = t.clock

let schedule_at t at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now %d)" at
         t.clock);
  let timer = { cancelled = false; fired = false } in
  Heap.push t.queue at { timer; action };
  Obs.Gauge.set_max g_heap_depth_hw (float_of_int (Heap.size t.queue));
  timer

let schedule_after t d action =
  if d < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock + d) action

let cancel timer = timer.cancelled <- true
let is_pending timer = (not timer.cancelled) && not timer.fired

let run ?until t =
  let stop = ref false in
  while not !stop do
    match Heap.peek_key t.queue with
    | None -> stop := true
    | Some at ->
        (match until with
        | Some limit when at > limit ->
            t.clock <- limit;
            stop := true
        | _ ->
            (match Heap.pop t.queue with
            | None -> stop := true
            | Some (at, ev) ->
                t.clock <- at;
                if not ev.timer.cancelled then begin
                  ev.timer.fired <- true;
                  Obs.Counter.incr m_events;
                  ev.action ()
                end))
  done

module Private = struct
  let is_pending = is_pending
end
