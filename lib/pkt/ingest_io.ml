(* Input plumbing shared by the streaming readers ([Pcap] here, [Mrt]
   in lib/bgp, the serve daemon's live feeds in lib/serve).

   Every input source — in-channel, file descriptor, pipe, socket, or a
   still-growing file being tailed — reduces to one
   [read buf off len -> n] function.  The folds above this layer only
   terminate a capture when [read] returns 0, so this module is where
   the end-of-input question is actually decided, and it guarantees:

   - [EINTR] never ends a capture: an interrupted system call is
     retried, both for [Unix.read] (which raises [Unix_error (EINTR)])
     and for channel [input] (which surfaces the same condition as a
     [Sys_error]).  Without the retry, a SIGTERM-handling daemon whose
     worker is mid-read would truncate the record it was on.
   - A short read never ends a capture: pipes and sockets routinely
     deliver fewer bytes than asked; the record-framing loops above
     keep calling until they have the frame or see a true EOF.
   - A tailed file can defer EOF: with [~follow], a 0-byte read polls
     the source until the follow policy gives up, so a reader can
     consume a capture that is still being written. *)

type read = Bytes.t -> int -> int -> int

type follow = int -> bool

(* [Sys_error] carries [strerror]-formatted text; an interrupted
   channel read is the one transient failure worth recognizing. *)
let sys_error_is_eintr msg =
  let needle = "Interrupted system call" in
  let nlen = String.length needle and mlen = String.length msg in
  let rec scan i =
    i + nlen <= mlen
    && (String.equal (String.sub msg i nlen) needle || scan (i + 1))
  in
  scan 0

(* The arguments travel with the function, so a retried read builds no
   thunk: per-read cost is one exception handler, no allocation. *)
let rec retry_eintr f a b c =
  match f a b c with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f a b c
  | exception Sys_error msg when sys_error_is_eintr msg -> retry_eintr f a b c

(* One read under a [follow] policy: retry EINTR; on a 0-byte read poll
   again while [keep_waiting] says the source may still grow.  [total]
   is the reader's running byte count. *)
let rec follow_read read keep_waiting poll_interval_s total buf off len =
  let n = retry_eintr read buf off len in
  if n > 0 then begin
    total := !total + n;
    n
  end
  else if len > 0 && keep_waiting !total then begin
    (* [sleepf] returning early on a signal only tightens the poll;
       correctness never depends on the interval. *)
    Unix.sleepf poll_interval_s;
    follow_read read keep_waiting poll_interval_s total buf off len
  end
  else 0

let of_read ?follow ?(poll_interval_s = 0.02) (read : read) : read =
  match follow with
  | None -> retry_eintr read
  | Some keep_waiting ->
      follow_read read keep_waiting poll_interval_s (ref 0)

let of_fd ?follow ?poll_interval_s fd : read =
  of_read ?follow ?poll_interval_s (fun buf off len ->
      Unix.read fd buf off len)

let of_channel ?follow ?poll_interval_s ic : read =
  of_read ?follow ?poll_interval_s (fun buf off len -> input ic buf off len)

let follow_idle ?(limit_s = infinity) ~idle_s () : follow =
  let start = Unix.gettimeofday () in
  let last_total = ref 0 in
  let last_change = ref start in
  fun total ->
    let now = Unix.gettimeofday () in
    if total <> !last_total then begin
      last_total := total;
      last_change := now
    end;
    now -. !last_change < idle_s && now -. start < limit_s
