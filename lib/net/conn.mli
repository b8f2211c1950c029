(** A framed TCP connection: length-delimited {!Wire.Codec} blobs over a
    socket, with partial-IO loops, receive timeouts, a frame-size cap and
    byte/frame accounting.

    Each connection owns a receive buffer. It starts at 4 KB and grows to
    the largest frame seen; one [read] takes whatever the socket holds, and
    complete frames are cut from the buffer in place ({!recv_view}), so a
    burst of frames costs one system call and no copy.

    The connection layer validates only what it must to stay framed — the
    magic (desync is unrecoverable) and the declared payload length (an
    adversarial 2 GiB header must not allocate) — and hands the complete
    frame bytes up. Version, kind, checksum and schema validation belong to
    {!Wire.Codec} / {!Frame}, so a frame with an unknown kind still arrives
    intact and the server can answer "unsupported" instead of dropping the
    connection.

    All receive failures are values, never exceptions: a peer that
    truncates a frame, stalls mid-header (slow-loris) or disconnects
    abruptly yields an {!recv_error}, and the caller resets the
    connection. *)

type t

type recv_error =
  [ `Eof  (** Peer closed (possibly mid-frame — truncation lands here). *)
  | `Timeout  (** No (or not enough) bytes within the receive timeout. *)
  | `Oversized of int  (** Declared payload length exceeds [max_frame]. *)
  | `Bad_header  (** First bytes are not an IVLW magic: stream desync. *) ]

val recv_error_to_string : recv_error -> string

val ignore_sigpipe : unit -> unit
(** Idempotent. A peer that resets mid-write must surface as an [EPIPE]
    result, not kill the process; every server/client entry point calls
    this. *)

val connect : host:string -> port:int -> t
(** TCP connect with [TCP_NODELAY] (frames are latency-sensitive RPCs, not
    bulk streams). @raise Unix.Unix_error on refusal. *)

val of_fd : Unix.file_descr -> t
(** Adopt an accepted socket (sets [TCP_NODELAY]; best-effort). *)

val set_read_timeout : t -> float -> unit
(** Seconds of [SO_RCVTIMEO]; [0.] means block forever. Applies to every
    subsequent {!recv}. *)

type view = private { mutable buf : Bytes.t; mutable off : int; mutable len : int }
(** A received frame in place: [len] bytes (header + payload) at [off] in
    [buf], the connection's receive buffer. *)

val recv_view : t -> (view, recv_error) result
(** Receive one framed blob whose {e payload} is at most {!max_frame} bytes,
    without copying it. The view is valid until the next receive on this
    connection, which may overwrite or replace [buf]; every call returns
    the same view value. Allocates nothing unless the buffer grows. *)

val recv : t -> (Bytes.t, recv_error) result
(** {!recv_view}, copied out: the whole frame, ready for
    [Frame.decode_*], and the caller's to keep. *)

val buffered : t -> bool
(** Bytes of the stream sit in the receive buffer, unconsumed: the next
    receive may not need the socket, so a caller that [select]s on {!fd}
    before receiving must not wait. *)

val send : t -> Bytes.t -> bool
(** Write one frame, looping over partial writes. [false] if the peer is
    gone ([EPIPE]/[ECONNRESET]/closed) — the connection is then dead and
    should be closed. Never raises on peer failure. *)

val send_sub : t -> Bytes.t -> len:int -> bool
(** {!send} of the frame in the first [len] bytes of a reused buffer. *)

val close : t -> unit
(** Shutdown + close; idempotent. *)

val fd : t -> Unix.file_descr

val bytes_in : t -> int
val bytes_out : t -> int
val frames_in : t -> int
val frames_out : t -> int
(** Monotonic per-connection counters (bytes include framing). *)

val max_frame : int
(** 16 MiB: the largest payload {!recv} accepts, for every endpoint. *)
