type t = {
  engine : Engine.t;
  mutable segments : Tdat_pkt.Tcp_segment.t list; (* reverse order *)
  mutable count : int;
  voids : Tdat_timerange.Span_set.t;
}

let create ~engine () =
  { engine; segments = []; count = 0; voids = Tdat_timerange.Span_set.empty }

let record t seg =
  let stamped = { seg with Tdat_pkt.Tcp_segment.ts = Engine.now t.engine } in
  t.segments <- stamped :: t.segments;
  t.count <- t.count + 1

let tap t ~then_ seg =
  record t seg;
  then_ seg

let trace t =
  Tdat_pkt.Trace.of_segments ~voids:t.voids (List.rev t.segments)

