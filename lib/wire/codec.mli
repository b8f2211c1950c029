(** Versioned, checksummed binary framing for sketch blobs.

    Every blob is self-describing: a fixed magic, a format version, a kind
    tag naming the codec, the payload length, and a checksum of the
    payload ({!fnv1a}). {!decode} validates all of these before parsing a
    single payload byte, so truncated, bit-flipped, mixed-version or mixed-kind
    blobs return a precise {!error} — never a raw [Failure],
    [Invalid_argument] or out-of-range [Bytes] read.

    The per-sketch codecs ({!Countmin}, {!Kmv}, {!Counter} in this
    library) are thin payload schemas on
    top of this module; a shard delta travelling through the ingestion
    pipeline ({!Pipeline.Engine}) is exactly one such blob. *)

type error =
  | Truncated of { expected : int; got : int }
      (** Fewer bytes than the header or the declared payload length needs. *)
  | Bad_magic  (** Not an IVLW blob at all. *)
  | Unsupported_version of int
      (** A well-formed blob from a different format version. *)
  | Wrong_kind of { expected : string; got : string }
      (** A valid blob of a different {e known} kind. *)
  | Unknown_kind of int
      (** A well-formed frame whose kind tag this build does not know at
          all — distinct from {!Wrong_kind} so a server can answer
          "unsupported" (a newer peer speaking a future frame kind) instead
          of "you sent a checkpoint where I wanted a countmin". *)
  | Checksum_mismatch  (** Payload bytes do not match the stored checksum. *)
  | Corrupt of string
      (** Header and checksum fine, but the payload violates the schema
          (bad dimensions, values out of range, trailing bytes…). *)

exception Decode_error of error
(** Raised internally by reader primitives; the {!decode} wrapper catches it
    (and any constructor's [Invalid_argument]/[Failure]) and returns
    [Error]. Codec [decode] entry points never raise. *)

val error_to_string : error -> string

val version : int
(** Current wire-format version, stamped into every blob: 3. Versions 1
    and 2 have no reader and decode to [Unsupported_version]. *)

val header_size : int
(** Bytes of framing before the payload. *)

val peek : Bytes.t -> (string * int, error) result
(** [peek blob] reads only the self-describing header: [(kind name,
    version)]. Works across versions (the header layout is frozen). *)

(** {2 Kind tags} — wire constants; never renumber, only append. Kinds 2,
    4, 5 and 18 are retired and never reused: {!known_kind} is false for
    them. *)

val countmin_kind : int
val kmv_kind : int
val counter_kind : int

val wal_record_kind : int
(** A write-ahead-log record enveloping a sketch delta ({!Segment},
    [Durable.Wal]). *)

val checkpoint_kind : int
(** A full-sketch checkpoint snapshot ([Durable.Checkpoint]). *)

val trace_header_kind : int
(** The leading frame of a workload trace file: format version, seed and
    phase descriptors ([Workload.Trace]). *)

val trace_block_kind : int
(** A block of recorded operations inside a workload trace file
    ([Workload.Trace]). *)

val net_batch_kind : int
(** A served-tier ingest request: session, sequence number, trace context
    and a batch of update keys ([Net.Frame]). Every batch travels as this
    one kind, traced or not. *)

val net_query_kind : int
(** A served-tier query request ([Net.Frame]). *)

val net_reply_kind : int
(** A served-tier response: ack, result or error ([Net.Frame]). *)

val net_subscribe_kind : int
(** A follower's replication handshake ([Net.Frame]). *)

val net_delta_kind : int
(** A leader-to-follower replication push: snapshot or merged epoch delta
    ([Net.Frame]). *)

val net_hello_kind : int
(** A sender's session handshake: announces the session id its batch
    sequence numbers belong to ([Net.Frame]). *)

val net_session_kind : int
(** A server-side session-journal record: one applied (session, seq,
    count) triple, persisted so the dedup window survives a WAL restart
    ([Net.Dedup]). *)

val kind_name : int -> string

val known_kind : int -> bool
(** Whether this build understands the kind tag ([1..17] less the retired
    2, 4 and 5). Frames carrying an unknown tag decode to {!Unknown_kind}. *)

val has_magic : Bytes.t -> int -> bool
(** [has_magic buf off]: the four bytes at [off] are the IVLW magic. The
    caller guarantees they are within [buf]. *)

val frame_kind : Bytes.t -> (int, error) result
(** [frame_kind blob] validates magic and version and returns the raw kind
    tag — the dispatch step for readers (servers) that accept several frame
    kinds on one stream. Unknown tags come back as [Error (Unknown_kind k)]
    so callers can answer "unsupported" distinctly. *)

val fnv1a : Bytes.t -> off:int -> len:int -> int
(** The framing checksum over [len] bytes at [off] — exposed so stream
    scanners ({!Segment}) can validate frames in place without copying.

    Version 3's rule: FNV-1a-32's step, [h <- (h xor w) * 16777619 mod
    2^32], over the range's 32-bit little-endian words, each folded to
    [w xor (w lsr 2) xor (w lsr 11) xor (w lsr 17)] first, in two lanes:
    word [k] of the first [len - len mod 8] bytes into lane [k mod 2] (both
    starting at the offset basis [0x811c9dc5]); then lane 0 and lane 1 are
    stepped, in that order, into a fresh basis, and each of the last
    [len mod 8] bytes is stepped in. Any error confined to one word or one
    tail byte changes the result; the fold keeps errors in several words'
    high bits from cancelling (see the implementation). Allocates
    nothing.
    @raise Invalid_argument if the range is not within the bytes. *)

(** {2 Payload writers} *)

type writer = Buffer.t

val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val i64 : writer -> int64 -> unit
val int_ : writer -> int -> unit
val float_ : writer -> float -> unit

val bytes_ : writer -> Bytes.t -> unit
(** Length-prefixed byte string — used by envelope payloads (WAL records,
    checkpoints) that nest an already-framed blob. *)

val varint : writer -> int -> unit
(** Unsigned LEB128: 1 byte below 128, at most 9 for any native int.
    @raise Invalid_argument on a negative value. *)

val encode : kind:int -> (writer -> unit) -> Bytes.t
(** [encode ~kind build] runs [build] on a fresh payload buffer and seals it
    with the header and checksum. *)

val seal_into : Bytes.t -> off:int -> kind:int -> plen:int -> unit
(** [seal_into out ~off ~kind ~plen] writes the header of a frame whose
    [plen] payload bytes the caller already wrote at [off + header_size],
    checksumming them in place — for encoders that fill a reused buffer
    instead of a fresh one ({!encode} seals through it too). *)

(** {2 Payload readers} — bounds-checked; raise {!Decode_error} internally. *)

type reader

val read_u8 : reader -> int
val read_u32 : reader -> int
val read_i64 : reader -> int64
val read_int : reader -> int

val read_count : reader -> elt_bytes:int -> int
(** [read_count r ~elt_bytes] reads a [u32] element count and fails with
    [Truncated] if [count * elt_bytes] exceeds the unread payload — before
    the caller allocates anything sized by the count. *)

val read_float : reader -> float
val read_bytes : reader -> Bytes.t

val read_varint : reader -> int
(** The inverse of {!varint}, and only of it: an overlong encoding (a zero
    final group, more than 9 bytes) or a value past the native range is
    [Corrupt], so equal values always arrive as equal bytes. *)

val buffer : reader -> Bytes.t
val cursor : reader -> int
val limit : reader -> int
(** For walks that read a payload in place instead of through the readers
    above ([Countmin.fold]): the bytes [r] reads, the index in them of its
    next unread byte, and the index one past the frame's last byte. *)

val set_cursor : reader -> int -> unit
(** [set_cursor r i] moves [r] to index [i] of {!buffer}: a walk hands a
    varint it does not read itself back to {!read_varint}, and leaves [r]
    where it stopped so {!decode} can check the payload was consumed.
    @raise Invalid_argument outside the payload. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt …] raises {!Decode_error} with a [Corrupt] payload — for
    schema-level validation inside codec parsers. *)

val decode : kind:int -> (reader -> 'a) -> Bytes.t -> ('a, error) result
(** [decode ~kind parse blob] validates the frame (magic, version, kind,
    length, checksum), runs [parse], and checks the payload was consumed
    exactly. All failure modes — including [Invalid_argument]/[Failure]
    raised by sketch constructors on semantically bad images — come back as
    [Error]. *)

val decode_sub :
  kind:int -> (reader -> 'a) -> Bytes.t -> off:int -> len:int -> ('a, error) result
(** [decode_sub ~kind parse buf ~off ~len] is {!decode} on the frame held in
    [len] bytes at [off], read in place: the same checks, the same errors
    (a [Truncated] counts from the frame's first byte) as {!decode} on a
    copy of those bytes.
    @raise Invalid_argument if the range is not within [buf]. *)
