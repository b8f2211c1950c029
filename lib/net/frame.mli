(** The served tier's wire vocabulary: typed request/response/push frames
    on top of {!Wire.Codec}'s versioned, checksummed framing.

    Every frame on a connection is a standard IVLW blob (magic, version,
    kind tag, payload length, {!Wire.Codec.fnv1a} payload checksum), so the
    transport inherits the codec's guarantees: truncation, bit flips,
    version skew and foreign kinds all decode to a precise {!Wire.Codec.error} — never
    an exception — and a frame whose kind tag this build does not know at
    all surfaces as {!Wire.Codec.Unknown_kind}, which a server answers
    with a distinct "unsupported" error instead of a parse failure.

    Three frame families share one stream:
    - {e requests} (client → server): the {!Hello} session handshake,
      {!Batch} ingest, {!Query}, and the follower's {!Subscribe} handshake;
    - {e responses} (server → client): one {!response} frame per request —
      an {!Ack} for a batch or hello, a {!Result} for a query, an {!Err}
      otherwise;
    - {e pushes} (leader → follower): a {!Snapshot} seeding the follower,
      then one {!Delta} per merged epoch, in strict epoch order.

    Batches carry a [(session, seq)] identity so delivery is
    {e effectively once}: a sender announces its session with {!Hello},
    numbers its batches sequentially, and resends the {e same} [(session,
    seq)] on retry — the server's dedup window ({!Dedup}) then acks a
    retried batch without re-applying it, with [dup = true] in the
    {!Ack}. *)

(** Query tags 2 and 3 (a quantile and a top-[n] query) are retired and
    never reused: they decode as [Corrupt "unknown query tag"], which a
    server answers [Malformed]. *)
type query =
  | Total  (** Published weight — served from the engine, sketch-agnostic. *)
  | Point of int  (** Frequency estimate for one key (countmin). *)

type request =
  | Batch of {
      session : int64;
      seq : int;
      ctx : Obs.Span.context;
      keys : int array;
    }
      (** Update keys, applied in order. [(session, seq)] identifies the
          batch across retries. [ctx] is
          the sampled trace context, {!Obs.Span.zero} for the common
          untraced batch. Every batch travels as the one [net-batch] kind
          with trace id and parent span id after [seq], zero or not; a
          zero trace id with a nonzero parent decodes as [Corrupt]. The
          key count is checked against the frame's payload before the key
          array is allocated. *)
  | Query of query
  | Subscribe
      (** Replication handshake, with an empty payload: the leader seeds
          the follower with a full snapshot. A payload decodes as
          [Corrupt]. *)
  | Hello of { session : int64 }
      (** Session handshake: sent once per (re)connection before the first
          batch, answered with an {!Ack} of [accepted = 0]. Registers the
          session in the server's dedup window. *)

type err_code = Unsupported | Malformed | Overloaded | Internal

type response =
  | Ack of { epoch : int; accepted : int; dup : bool }
      (** Batch outcome: [accepted <= Array.length keys]; the difference
          was shed server-side (dead shard, drained engine). [dup] means
          the batch was recognized as a retry and {e not} re-applied —
          [accepted] then reports the original application's count. *)
  | Result of { epoch : int; pairs : (int * int) list }
      (** Query outcome at a published snapshot: [Total] and [Point k]
          each return one pair. *)
  | Err of { code : err_code; msg : string }

type push =
  | Snapshot of { epoch : int; published : int; blob : Bytes.t }
      (** The leader's encoded global sketch, consistent at [epoch]. *)
  | Delta of { epoch : int; weight : int; blob : Bytes.t }
      (** One merged shard delta. A follower applies it iff
          [epoch = local + 1] and skips [epoch <= local] (the handshake
          race); any gap invalidates the stream. *)

val err_code_to_string : err_code -> string
val query_to_string : query -> string

val encode_request : request -> Bytes.t
val decode_request : Bytes.t -> (request, Wire.Codec.error) result
(** A {!Batch} goes through {!write_batch} and {!decode_batch}: there is
    one batch codec, and these two only add the fresh buffer and array. *)

(** {2 Batches in place}

    The served write path's batch codec: a sender writes each frame into a
    pooled buffer, and a server parses each one from its receive buffer
    into a reused {!batch}, so a steady stream of batches allocates no
    heap block per frame. *)

type batch = {
  mutable session : int64;
  mutable seq : int;
  mutable ctx : Obs.Span.context;
  mutable keys : int array;
      (** Grown to the largest count parsed into this batch; the batch is
          its first [count] keys. *)
  mutable count : int;
}
(** The fields of the last batch frame {!decode_batch} parsed into it. *)

val batch : unit -> batch
(** An empty batch to parse into. *)

val batch_frame_size : int -> int
(** Bytes of a batch frame carrying that many keys: 50 + 8 per key. *)

val write_batch :
  Bytes.t ->
  session:int64 ->
  seq:int ->
  ctx:Obs.Span.context ->
  int array ->
  len:int ->
  int
(** [write_batch buf ~session ~seq ~ctx keys ~len] writes the batch frame
    of [keys.(0 .. len - 1)] at the start of [buf], checksummed in place,
    and returns its length, {!batch_frame_size}[ len]. Its bytes are those
    of [encode_request (Batch …)] for the same batch.
    @raise Invalid_argument on a negative [seq], [len] outside [keys], or
    a [buf] shorter than the frame. *)

val is_batch : Bytes.t -> off:int -> len:int -> bool
(** Whether the frame at [off] carries the [net-batch] kind tag: the
    dispatch test before {!decode_batch}, which validates everything else. *)

val decode_batch :
  batch -> Bytes.t -> off:int -> len:int -> (unit, Wire.Codec.error) result
(** Parse the batch frame held in [len] bytes at [off] into [batch], in
    place. Every error is the one {!decode_request} gives on a copy of the
    same bytes. After an [Error] the batch's fields are unspecified. *)

val encode_response : response -> Bytes.t
val decode_response : Bytes.t -> (response, Wire.Codec.error) result

val ack_frame_size : int
(** Bytes of an {!Ack} frame: 32. *)

val write_ack : Bytes.t -> epoch:int -> accepted:int -> dup:bool -> int
(** Write the {!Ack} frame at the start of a reused buffer and return its
    length, {!ack_frame_size}: the bytes of [encode_response (Ack …)],
    which goes through it. @raise Invalid_argument on a shorter buffer. *)

val encode_push : push -> Bytes.t
val decode_push : Bytes.t -> (push, Wire.Codec.error) result

val decode_push_sub :
  Bytes.t -> off:int -> len:int -> (push, Wire.Codec.error) result
(** {!decode_push} of the frame held in [len] bytes at [off], read in place
    (a received {!Conn.view}); the blob is copied out, so the result
    outlives the view. *)
