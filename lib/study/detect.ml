module Time_us = Tdat_timerange.Time_us
module Mrt = Tdat_bgp.Mrt

type config = {
  quiet_gap : Time_us.t;
  min_prefixes : int;
}

let default_config = { quiet_gap = 200_000_000; min_prefixes = 32 }

(* One peer and its open (not yet closed) candidate transfer, kept in
   place in mutable fields so an update allocates nothing.  [first] and
   [last] are meaningful once [messages > 0]. *)
type peer = {
  p_as : int;
  p_ip : int32;
  mutable is_open : bool;
  mutable anchored : bool;
  mutable start : Time_us.t;  (* anchor time, or first update for unanchored *)
  mutable first : Time_us.t;  (* first update *)
  mutable last : Time_us.t;  (* last update *)
  mutable prefixes : int;
  mutable messages : int;
}

(* Peers keyed by [peer_as lsl 32 lor peer_ip]. *)
module Peers = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr 32)
end)

type t = {
  config : config;
  source : string;
  peers : peer Peers.t;
  mutable found : Transfer.t list;
  mutable finished : bool;
}

let create ?(config = default_config) ?(source = "") () =
  { config; source; peers = Peers.create 16; found = []; finished = false }

let peer t ~peer_as ~peer_ip =
  let key = (peer_as lsl 32) lor peer_ip in
  match Peers.find t.peers key with
  | p -> p
  | exception Not_found ->
      let p =
        {
          p_as = peer_as;
          p_ip = Int32.of_int peer_ip;
          is_open = false;
          anchored = false;
          start = 0;
          first = 0;
          last = 0;
          prefixes = 0;
          messages = 0;
        }
      in
      Peers.add t.peers key p;
      p

(* Close the peer's open candidate, emitting it when it carried a real
   burst (some updates, enough announced prefixes). *)
let close t p =
  if p.is_open && p.messages > 0 && p.prefixes >= t.config.min_prefixes then
    t.found <-
      {
        Transfer.source = t.source;
        peer_as = p.p_as;
        peer_ip = p.p_ip;
        start_ts = (if p.anchored then p.start else p.first);
        end_ts = p.last;
        prefixes = p.prefixes;
        messages = p.messages;
        anchored = p.anchored;
      }
      :: t.found;
  p.is_open <- false

let reopen p ~anchored ts =
  p.is_open <- true;
  p.anchored <- anchored;
  p.start <- ts;
  p.prefixes <- 0;
  p.messages <- 0

(* A session-establishment event.  First anchor wins while the open
   candidate is still empty, so STATE_CHANGE-to-Established immediately
   followed by the archived OPEN keeps the earlier start. *)
let anchor t p ts =
  if not (p.is_open && p.messages = 0 && p.anchored) then begin
    close t p;
    reopen p ~anchored:true ts
  end

let update t p ts ~nlri =
  if not p.is_open then reopen p ~anchored:false ts
  else begin
    let last_activity = if p.messages > 0 then p.last else p.start in
    (* Inclusive boundary: a silence of exactly [quiet_gap] already
       splits — DESIGN.md specifies "gaps of 200 s or more" end a
       transfer. *)
    if Time_us.(ts - last_activity) >= t.config.quiet_gap then begin
      close t p;
      reopen p ~anchored:false ts
    end
  end;
  if p.messages = 0 then p.first <- ts;
  p.last <- ts;
  p.prefixes <- p.prefixes + nlri;
  p.messages <- p.messages + 1

let observe t ~ts ~peer_as ~peer_ip ~kind ~nlri =
  if t.finished then invalid_arg "Detect.observe: detector already finished";
  match (kind : Mrt.Kind.t) with
  | Update -> update t (peer t ~peer_as ~peer_ip) ts ~nlri
  | Open | Up -> anchor t (peer t ~peer_as ~peer_ip) ts
  | Notification | Down -> close t (peer t ~peer_as ~peer_ip)
  | Keepalive -> ()

let finish t =
  if t.finished then invalid_arg "Detect.finish: detector already finished";
  t.finished <- true;
  Peers.iter (fun _ p -> close t p) t.peers;
  List.sort Transfer.compare t.found

module Private = struct
  let default_config = default_config
end
