type view = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

type recv_error = [ `Eof | `Timeout | `Oversized of int | `Bad_header ]

(* The receive buffer holds the stream's unconsumed bytes at
   [rbuf.(start .. stop - 1)]. It starts at [initial_buffer] and grows to
   the largest frame seen; [recv_view] hands a frame up as [view], in
   place, and the same preallocated [Ok view] is returned every time. *)
type t = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  view : view;
  ok_view : (view, recv_error) result;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable closed : bool;
}

let recv_error_to_string = function
  | `Eof -> "peer closed the connection"
  | `Timeout -> "receive timeout"
  | `Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds cap" n
  | `Bad_header -> "stream desync: bytes are not an IVLW frame"

let max_frame = 16 * 1024 * 1024

(* Small, so an idle or short-lived connection costs little; a served
   batch frame (about 2 KB at 256 keys) fits without growing. *)
let initial_buffer = 4096

let sigpipe_ignored = Atomic.make false

let ignore_sigpipe () =
  if not (Atomic.exchange sigpipe_ignored true) then
    try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let set_nodelay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ()

let make fd =
  set_nodelay fd;
  let view = { buf = Bytes.empty; off = 0; len = 0 } in
  {
    fd;
    rbuf = Bytes.create initial_buffer;
    start = 0;
    stop = 0;
    view;
    ok_view = Ok view;
    bytes_in = 0;
    bytes_out = 0;
    frames_in = 0;
    frames_out = 0;
    closed = false;
  }

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

let header_size = Wire.Codec.header_size

(* One read into the buffer's free tail: whatever the socket holds, up to
   the buffer's end. EINTR retries; a receive-timeout expiry
   (EAGAIN/EWOULDBLOCK with SO_RCVTIMEO armed) is `Timeout; EOF or a reset
   is `Eof — which is exactly where a truncated frame or an abrupt
   disconnect surfaces. *)
let rec read_tail t =
  match Unix.read t.fd t.rbuf t.stop (Bytes.length t.rbuf - t.stop) with
  | 0 -> Error `Eof
  | n ->
      t.bytes_in <- t.bytes_in + n;
      t.stop <- t.stop + n;
      Ok ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_tail t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error `Timeout
  | exception Unix.Unix_error (_, _, _) -> Error `Eof

(* Make room for a frame of [need] bytes, then read. The unconsumed bytes,
   less than one frame, move to the front first, so the free tail is as
   long as it can be; the frame last handed up is overwritten only here,
   in the next receive. *)
let fill t ~need =
  let have = t.stop - t.start in
  if need > Bytes.length t.rbuf then begin
    let grown = Bytes.create (max need (2 * Bytes.length t.rbuf)) in
    Bytes.blit t.rbuf t.start grown 0 have;
    t.rbuf <- grown
  end
  else if t.start > 0 then Bytes.blit t.rbuf t.start t.rbuf 0 have;
  t.start <- 0;
  t.stop <- have;
  read_tail t

let rec recv_view t =
  let have = t.stop - t.start in
  if have < header_size then
    match fill t ~need:header_size with
    | Ok () -> recv_view t
    | Error e -> Error e
  else if not (Wire.Codec.has_magic t.rbuf t.start) then Error `Bad_header
  else
    (* payload length: u32 BE right after magic+version+kind *)
    let plen =
      Int32.to_int (Bytes.get_int32_be t.rbuf (t.start + 6)) land 0xFFFFFFFF
    in
    if plen > max_frame then Error (`Oversized plen)
    else
      let len = header_size + plen in
      if have < len then
        match fill t ~need:len with
        | Ok () -> recv_view t
        | Error e -> Error e
      else begin
        t.view.buf <- t.rbuf;
        t.view.off <- t.start;
        t.view.len <- len;
        t.start <- t.start + len;
        t.frames_in <- t.frames_in + 1;
        t.ok_view
      end

let recv t =
  match recv_view t with
  | Ok v -> Ok (Bytes.sub v.buf v.off v.len)
  | Error e -> Error e

let buffered t = t.stop > t.start

let rec write_from t frame off len =
  if off = len then true
  else
    match Unix.write t.fd frame off (len - off) with
    | n ->
        t.bytes_out <- t.bytes_out + n;
        write_from t frame (off + n) len
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from t frame off len
    | exception Unix.Unix_error (_, _, _) -> false

let send_sub t frame ~len =
  if t.closed then false
  else
    let ok = write_from t frame 0 len in
    if ok then t.frames_out <- t.frames_out + 1;
    ok

let send t frame = send_sub t frame ~len:(Bytes.length frame)

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
