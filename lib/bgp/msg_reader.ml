type timed_msg = {
  ts : Tdat_timerange.Time_us.t;
  offset : int;
  msg : Msg.t;
}

let extract reasm =
  let stream = Stream_reassembly.contiguous reasm in
  let len = String.length stream in
  let rec go off acc =
    if off >= len then List.rev acc
    else
      match Msg.decode stream off with
      | None -> List.rev acc (* trailing partial message *)
      | Some (msg, off') ->
          let ts = Stream_reassembly.delivery_time reasm (off' - 1) in
          go off' ({ ts; offset = off; msg } :: acc)
      | exception Bgp_error.Decode_error _ ->
          (* Not (or no longer) a BGP stream: return what parsed cleanly
             rather than failing the whole connection — monitored links
             carry non-BGP TCP traffic too. *)
          List.rev acc
  in
  go 0 []

let reassemble_from_trace ~scratch trace ~flow =
  let module T = Tdat_pkt.Trace in
  let n = T.length trace in
  let sender = T.find_endpoint trace flow.Tdat_pkt.Flow.sender in
  let receiver = T.find_endpoint trace flow.Tdat_pkt.Flow.receiver in
  let is_data i =
    T.src trace i = sender && T.dst trace i = receiver && T.len trace i > 0
  in
  (* Rebase stream offsets so the first observed data byte is 0. *)
  let base = ref max_int in
  for i = 0 to n - 1 do
    if is_data i && T.seq trace i < !base then base := T.seq trace i
  done;
  let reasm = Stream_reassembly.create ~scratch () in
  if !base < max_int then
    for i = 0 to n - 1 do
      if is_data i then
        Stream_reassembly.feed reasm ~rebase:!base ~ts:(T.ts trace i)
          ~seq:(T.seq trace i) ~len:(T.len trace i) (T.payload trace i)
    done;
  reasm

(* [extract] copies the stream out through [contiguous], so nothing it
   returns refers to the cell after the checkout ends. *)
let extract_from_trace trace ~flow =
  Tdat_parallel.Scratch.(with_bytes ~slot:slot_reassembly 4096) @@ fun scratch ->
  extract (reassemble_from_trace ~scratch trace ~flow)

module Private = struct
  let extract = extract
end
