open Tdat_timerange

type t = { segments : Tcp_segment.t array; voids : Span_set.t }

let of_segments ?(voids = Span_set.empty) segs =
  let a = Array.of_list segs in
  Array.stable_sort Tcp_segment.compare_ts a;
  { segments = a; voids }

let segments t = Array.to_list t.segments
let voids t = t.voids
let length t = Array.length t.segments
let get t i = t.segments.(i)
let iter f t = Array.iter f t.segments

let total_bytes t =
  Array.fold_left (fun acc (s : Tcp_segment.t) -> acc + s.len) 0 t.segments

let window t =
  let n = Array.length t.segments in
  if n = 0 then None
  else begin
    let first = t.segments.(0).Tcp_segment.ts in
    let last = t.segments.(n - 1).Tcp_segment.ts in
    Some (Span.v first (last + 1))
  end

let conn_key (s : Tcp_segment.t) =
  if Endpoint.compare s.src s.dst <= 0 then (s.src, s.dst) else (s.dst, s.src)

let connections t =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let visit s =
    let k = conn_key s in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      order := k :: !order
    end
  in
  Array.iter visit t.segments;
  List.rev !order

(* Growable segment buffer for the single-pass partition below. *)
type buf = { mutable arr : Tcp_segment.t array; mutable len : int }

let buf_push b seg =
  if b.len = Array.length b.arr then begin
    let bigger = Array.make (2 * b.len) seg in
    Array.blit b.arr 0 bigger 0 b.len;
    b.arr <- bigger
  end;
  b.arr.(b.len) <- seg;
  b.len <- b.len + 1

let partition_connections t =
  let bufs : (Endpoint.t * Endpoint.t, buf) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let visit seg =
    let k = conn_key seg in
    match Hashtbl.find_opt bufs k with
    | Some b -> buf_push b seg
    | None ->
        Hashtbl.add bufs k { arr = Array.make 16 seg; len = 1 };
        order := k :: !order
  in
  Array.iter visit t.segments;
  (* [order] is in reverse appearance order; rev_map restores it.  The
     per-connection arrays inherit the trace's time order because the
     single pass is order-preserving. *)
  List.rev_map
    (fun k ->
      let b = Hashtbl.find bufs k in
      (k, { segments = Array.sub b.arr 0 b.len; voids = t.voids }))
    !order

let filter f t =
  { t with segments = Array.of_list (List.filter f (segments t)) }

let merge a b =
  of_segments ~voids:(Span_set.union a.voids b.voids)
    (segments a @ segments b)

let append t segs = of_segments ~voids:t.voids (segments t @ segs)

let infer_sender t (a, b) =
  let bytes_from e =
    Array.fold_left
      (fun acc (s : Tcp_segment.t) ->
        if Endpoint.equal s.src e then acc + s.len else acc)
      0 t.segments
  in
  if bytes_from a >= bytes_from b then Flow.v ~sender:a ~receiver:b
  else Flow.v ~sender:b ~receiver:a
