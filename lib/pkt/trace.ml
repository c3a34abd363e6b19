open Tdat_timerange

(* A trace is stored as columns (DESIGN.md, "Trace representation"):
   one int array per header field, indexed by packet in time order.
   Endpoints are small-int ids into an endpoint table, and each payload
   is an (offset, captured length) pair into one byte buffer.  The
   table, its id map and the buffer are shared, read-only, by every
   sub-trace [connection_subtraces] gathers from a trace. *)

let c_ts = 0 and c_seq = 1 and c_ack = 2 and c_len = 3 and c_win = 4
let c_flags = 5 and c_mss = 6 (* -1 when absent *) and c_src = 7 and c_dst = 8
let c_off = 9 (* payload offset *) and c_cap = 10 (* captured length *)

(* Int-keyed tables (endpoint key -> id, endpoint-id pair -> connection
   id) with a multiplicative hash: a hit allocates nothing. *)
module Ids = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x2545F4914F6CDD1D) lsr 17
end)

type t = {
  cols : int array array;  (** Eleven columns of equal length. *)
  payload : Slice.t;  (** The whole payload buffer. *)
  endpoints : Endpoint.t array;
  ids : int Ids.t;  (** Endpoint key -> index into [endpoints]. *)
  voids : Span_set.t;
}

(* An unsigned IPv4 address and a port in one int, ordered as
   [Endpoint.compare] orders endpoints. *)
let key ~ip ~port = (ip lsl 16) lor port
let unsigned_ip (e : Endpoint.t) = Int32.to_int e.ip land 0xFFFF_FFFF
let length t = Array.length t.cols.(c_ts)
let voids t = t.voids
let ts t i = t.cols.(c_ts).(i)
let seq t i = t.cols.(c_seq).(i)
let ack t i = t.cols.(c_ack).(i)
let win t i = t.cols.(c_win).(i)
let len t i = t.cols.(c_len).(i)
let flags t i = t.cols.(c_flags).(i)
let mss t i = t.cols.(c_mss).(i)
let src t i = t.cols.(c_src).(i)
let dst t i = t.cols.(c_dst).(i)

let find_endpoint t (e : Endpoint.t) =
  let k = key ~ip:(unsigned_ip e) ~port:e.port in
  Option.value ~default:(-1) (Ids.find_opt t.ids k)

let payload t i =
  Slice.sub t.payload ~off:t.cols.(c_off).(i) ~len:t.cols.(c_cap).(i)

(* Cold: a fresh segment and flags record per call. *)
let get t i : Tcp_segment.t =
  let bit k = flags t i land k <> 0 in
  {
    ts = ts t i;
    src = t.endpoints.(src t i);
    dst = t.endpoints.(dst t i);
    seq = seq t i;
    ack = ack t i;
    len = len t i;
    window = win t i;
    flags =
      Tcp_segment.flags ~fin:(bit 0x01) ~syn:(bit 0x02) ~rst:(bit 0x04)
        ~psh:(bit 0x08) ~ack:(bit 0x10) ();
    mss_opt = (if mss t i < 0 then None else Some (mss t i));
    payload = Slice.to_string (payload t i);
  }

let segments t = List.init (length t) (get t)

(* Packet [k] of the result is packet [idx.(k)] of [t]; payload,
   endpoints and voids are shared. *)
let gather t idx =
  let n = Array.length idx in
  let pick c =
    let out = Array.make n 0 in
    for k = 0 to n - 1 do
      out.(k) <- c.(idx.(k))
    done;
    out
  in
  { t with cols = Array.map pick t.cols }

(* Stable [Tcp_segment.compare_ts] order; the columns are copied only
   when some packet is out of order. *)
let sort t =
  let ts = t.cols.(c_ts) and seq = t.cols.(c_seq) in
  let cmp a b =
    match Int.compare ts.(a) ts.(b) with
    | 0 -> Int.compare seq.(a) seq.(b)
    | c -> c
  in
  let rec sorted i =
    i >= Array.length ts || (cmp (i - 1) i <= 0 && sorted (i + 1))
  in
  if sorted 1 then t
  else begin
    let perm = Array.init (Array.length ts) Fun.id in
    Array.stable_sort cmp perm;
    gather t perm
  end

module Builder = struct
  type trace = t

  type t = {
    mutable n : int;
    mutable cols : int array array;
    mutable endpoints : Endpoint.t list;  (** Newest first. *)
    ids : int Ids.t;
  }

  let create ~packets =
    {
      n = 0;
      cols = Array.init 11 (fun _ -> Array.make (max 16 packets) 0);
      endpoints = [];
      ids = Ids.create 16;
    }

  let endpoint b ~ip ~port =
    let k = key ~ip ~port in
    match Ids.find b.ids k with
    | id -> id
    | exception Not_found ->
        Ids.add b.ids k (Ids.length b.ids);
        b.endpoints <- Endpoint.v (Int32.of_int ip) port :: b.endpoints;
        Ids.length b.ids - 1

  let add b ~ts ~src ~dst ~seq ~ack ~len ~window ~flags ~mss ~off ~captured =
    let i = b.n in
    if i = Array.length b.cols.(0) then
      b.cols <- Array.map (fun c -> Array.append c c) b.cols;
    let c = b.cols in
    c.(c_ts).(i) <- ts;
    c.(c_seq).(i) <- seq;
    c.(c_ack).(i) <- ack;
    c.(c_len).(i) <- len;
    c.(c_win).(i) <- window;
    c.(c_flags).(i) <- flags;
    c.(c_mss).(i) <- mss;
    c.(c_src).(i) <- src;
    c.(c_dst).(i) <- dst;
    c.(c_off).(i) <- off;
    c.(c_cap).(i) <- captured;
    b.n <- i + 1

  let finish ?(voids = Span_set.empty) b ~payload : trace =
    let n = b.n in
    let trim c = if Array.length c = n then c else Array.sub c 0 n in
    sort
      {
        cols = Array.map trim b.cols;
        payload;
        endpoints = Array.of_list (List.rev b.endpoints);
        ids = b.ids;
        voids;
      }
end

let of_segments ?voids segs =
  let buf = Buffer.create 4096 in
  let b = Builder.create ~packets:(List.length segs) in
  let id (e : Endpoint.t) =
    if e.port < 0 || e.port > 0xFFFF then
      invalid_arg (Printf.sprintf "Trace.of_segments: port %d" e.port);
    Builder.endpoint b ~ip:(unsigned_ip e) ~port:e.port
  in
  List.iter
    (fun (s : Tcp_segment.t) ->
      let captured = min s.len (String.length s.payload) in
      Builder.add b ~ts:s.ts ~src:(id s.src) ~dst:(id s.dst) ~seq:s.seq
        ~ack:s.ack ~len:s.len ~window:s.window
        ~flags:(Tcp_segment.flag_bits s.flags)
        ~mss:(Option.value s.mss_opt ~default:(-1))
        ~off:(Buffer.length buf) ~captured;
      Buffer.add_substring buf s.payload 0 captured)
    segs;
  Builder.finish ?voids b ~payload:(Slice.of_string (Buffer.contents buf))

let total_bytes t = Array.fold_left ( + ) 0 t.cols.(c_len)

let window t =
  let n = length t in
  if n = 0 then None else Some (Span.v (ts t 0) (ts t (n - 1) + 1))

(* The canonical key of packet [i]'s connection: the smaller endpoint
   first. *)
let conn_key t i =
  let a = t.endpoints.(src t i) and b = t.endpoints.(dst t i) in
  if Endpoint.compare a b <= 0 then (a, b) else (b, a)

(* One pass: each packet's connection id, numbered in order of first
   appearance, and the first packet of each connection. *)
let connection_ids t =
  let stride = Array.length t.endpoints in
  let ids = Ids.create 16 and firsts = ref [] in
  let conn =
    Array.mapi
      (fun i a ->
        let b = dst t i in
        let k = if a <= b then (a * stride) + b else (b * stride) + a in
        match Ids.find ids k with
        | c -> c
        | exception Not_found ->
            Ids.add ids k (Ids.length ids);
            firsts := i :: !firsts;
            Ids.length ids - 1)
      t.cols.(c_src)
  in
  (conn, Array.of_list (List.rev !firsts))

let connections t =
  Array.to_list (Array.map (conn_key t) (snd (connection_ids t)))

let connection_subtraces t =
  match connection_ids t with
  | _, [||] -> []
  | _, [| first |] -> [ (conn_key t first, fun () -> t) ]
  | conn, firsts ->
      (* Count, then fill each connection's packet indices back to
         front, so each bucket keeps the trace's time order. *)
      let fill = Array.make (Array.length firsts) 0 in
      Array.iter (fun c -> fill.(c) <- fill.(c) + 1) conn;
      let idx = Array.map (fun k -> Array.make k 0) fill in
      for i = Array.length conn - 1 downto 0 do
        let c = conn.(i) in
        fill.(c) <- fill.(c) - 1;
        idx.(c).(fill.(c)) <- i
      done;
      Array.to_list
        (Array.mapi
           (fun c i -> (conn_key t i, fun () -> gather t idx.(c)))
           firsts)

let partition_connections t =
  List.map (fun (key, sub) -> (key, sub ())) (connection_subtraces t)

let infer_sender t (a, b) =
  let bytes_from e =
    let id = find_endpoint t e and acc = ref 0 in
    let add i s = if s = id then acc := !acc + len t i in
    Array.iteri add t.cols.(c_src);
    !acc
  in
  if bytes_from a >= bytes_from b then Flow.v ~sender:a ~receiver:b
  else Flow.v ~sender:b ~receiver:a

module Private = struct
  let window = window
end
