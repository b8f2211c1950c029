type t = {
  fd : Unix.file_descr;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable closed : bool;
}

type recv_error = [ `Eof | `Timeout | `Oversized of int | `Bad_header ]

let recv_error_to_string = function
  | `Eof -> "peer closed the connection"
  | `Timeout -> "receive timeout"
  | `Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds cap" n
  | `Bad_header -> "stream desync: bytes are not an IVLW frame"

let max_frame = 16 * 1024 * 1024

let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let set_nodelay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ()

let make fd =
  set_nodelay fd;
  { fd; bytes_in = 0; bytes_out = 0; frames_in = 0; frames_out = 0; closed = false }

let connect ~host ~port =
  ignore_sigpipe ();
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  make fd

let of_fd fd =
  ignore_sigpipe ();
  make fd

let set_read_timeout t s =
  try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO s with _ -> ()

(* Fill buf[off..off+len) from the socket. EINTR retries; a receive-timeout
   expiry (EAGAIN/EWOULDBLOCK with SO_RCVTIMEO armed) is `Timeout; EOF or a
   reset mid-fill is `Eof — which is exactly where a truncated frame or an
   abrupt disconnect surfaces. *)
let read_exact t buf off len =
  let rec go off len =
    if len = 0 then Ok ()
    else
      match Unix.read t.fd buf off len with
      | 0 -> Error `Eof
      | n ->
          t.bytes_in <- t.bytes_in + n;
          go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Error `Timeout
      | exception Unix.Unix_error (_, _, _) -> Error `Eof
  in
  go off len

let header_size = Wire.Codec.header_size
let magic = "IVLW"

let recv t =
  let header = Bytes.create header_size in
  match read_exact t header 0 header_size with
  | Error e -> Error e
  | Ok () ->
      if Bytes.sub_string header 0 4 <> magic then Error `Bad_header
      else
        (* payload length: u32 BE right after magic+version+kind *)
        let len = Int32.to_int (Bytes.get_int32_be header 6) land 0xFFFFFFFF in
        if len > max_frame then Error (`Oversized len)
        else
          let frame = Bytes.create (header_size + len) in
          Bytes.blit header 0 frame 0 header_size;
          match read_exact t frame header_size len with
          | Error e -> Error e
          | Ok () ->
              t.frames_in <- t.frames_in + 1;
              Ok frame

let send t frame =
  if t.closed then false
  else
    let len = Bytes.length frame in
    let rec go off =
      if off = len then true
      else
        match Unix.write t.fd frame off (len - off) with
        | n ->
            t.bytes_out <- t.bytes_out + n;
            go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error (_, _, _) -> false
    in
    let ok = go 0 in
    if ok then t.frames_out <- t.frames_out + 1;
    ok

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
    try Unix.close t.fd with _ -> ()
  end

let fd t = t.fd
let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out
let frames_in t = t.frames_in
let frames_out t = t.frames_out
