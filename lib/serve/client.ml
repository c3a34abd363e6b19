(* A small blocking client for the serve protocol — what the tests and
   the load bench speak; also handy from utop against a live daemon.
   One request at a time per connection is the simple mode; the
   line-level [send_line]/[recv_line] pair supports pipelining. *)

module Json = Tdat_json.Json

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* received bytes not yet returned as lines *)
  chunk : Bytes.t;
}

(* A read that waits longer than this for a response raises, so a daemon
   that drops a request fails its caller instead of hanging it.  The
   longest wait in the test suite is a 1 s sleep request. *)
let recv_timeout_s = 10.

let open_socket domain addr =
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout_s
   with e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  { fd; inbuf = Buffer.create 256; chunk = Bytes.create 65536 }

let connect (address : [ `Unix of string | `Tcp of string * int ]) =
  match address with
  | `Unix path -> open_socket Unix.PF_UNIX (Unix.ADDR_UNIX path)
  | `Tcp (host, port) ->
      let addr =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
                addrs.(0)
            | _ | (exception Not_found) ->
                invalid_arg ("Client.connect: cannot resolve " ^ host))
      in
      open_socket Unix.PF_INET (Unix.ADDR_INET (addr, port))

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

let send_line t line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let off = ref 0 in
  while !off < len do
    let n =
      Tdat_pkt.Ingest_io.retry_eintr (Unix.write_substring t.fd) payload !off
        (len - !off)
    in
    if n = 0 then raise End_of_file;
    off := !off + n
  done

(* Pop one complete line out of the buffer, reading more as needed.
   [None] on orderly EOF with an empty buffer; a read that times out
   raises [Unix_error (EAGAIN, _, _)]. *)
let recv_line t =
  let rec take () =
    let data = Buffer.contents t.inbuf in
    match String.index_opt data '\n' with
    | Some nl ->
        let stop = if nl > 0 && data.[nl - 1] = '\r' then nl - 1 else nl in
        let line = String.sub data 0 stop in
        Buffer.clear t.inbuf;
        Buffer.add_substring t.inbuf data (nl + 1)
          (String.length data - nl - 1);
        Some line
    | None -> (
        match
          Tdat_pkt.Ingest_io.retry_eintr (Unix.read t.fd) t.chunk 0
            (Bytes.length t.chunk)
        with
        | 0 -> if String.length data = 0 then None else Some data
        | n ->
            Buffer.add_subbytes t.inbuf t.chunk 0 n;
            take ())
  in
  take ()

let rpc t request =
  send_line t (Json.to_string request);
  match recv_line t with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Error (Printf.sprintf "no response within %g s" recv_timeout_s)
  | None -> Error "connection closed before response"
  | Some line -> (
      match Json.parse line with
      | Ok json -> Ok json
      | Error msg -> Error ("malformed response: " ^ msg))

module Private = struct
  let recv_timeout_s = recv_timeout_s
  let send_line = send_line
  let recv_line = recv_line
end
