(** Bounded per-session batch dedup: the server half of effectively-once
    ingestion.

    A sender announces a session ({!Frame.Hello}) and numbers its batches
    sequentially; a retry resends the {e same} [(session, seq)]. The
    server asks {!begin_batch} before applying: [Fresh] means apply and
    ack, [Duplicate k] means the batch (or its journal record) was seen
    before — ack [k] with [dup = true] and do {e not} re-apply. This is
    what turns at-least-once retry into conservation-exact delivery:
    published weight equals the sum of acked counts under arbitrary
    connection drops.

    {2 Ordering rule}

    {!begin_batch} journals a fresh triple {e before} the caller applies
    the batch. A crash between journal and apply therefore suppresses the
    retry of a batch that never landed — bounded loss, never double
    application. The journal ([sessions.log] in [dir], standard
    {!Wire.Codec} frames, longest-valid-prefix recovery via
    {!Wire.Segment}) lets the window survive a WAL restart, so retries
    that span a server kill stay suppressed.

    {2 Bounds}

    Per session the window keeps the last [window] seqs (plus a
    high-water mark — seqs are emitted in order per sender, so anything
    at or below the mark that has left the ring is answered as a
    duplicate of its claimed size); at most {!max_sessions} sessions are
    kept, LRU-evicted. Every session id, [0L] included, is deduplicated. *)

type t

type outcome =
  | Fresh  (** Never seen: journaled; apply it, then {!record} the count. *)
  | Duplicate of int
      (** Seen before: ack this count with [dup = true], do not apply. *)

type stats = {
  sessions : int;  (** live sessions in the table *)
  duplicates : int;  (** batches suppressed *)
  journal_records : int;  (** records appended this incarnation *)
  journal_bytes : int;
  recovered_records : int;  (** records replayed from the journal *)
  compactions : int;  (** journal rewrites to the bounded snapshot *)
}

val window : int
(** 128: the recent seqs kept per session. {!Client.window} must stay at
    most this. *)

val compact_every : int
(** 4096: journal appends between compactions. *)

val max_sessions : int
(** 1024: the sessions a table keeps. Registering one more evicts the
    least recently used (touched by {!register} or {!begin_batch}). *)

val create : ?dir:string -> unit -> t
(** An empty table of at most {!max_sessions} sessions, LRU-evicted, each
    keeping its last {!window} seqs. With [dir], the journal at
    [dir/sessions.log] is replayed (torn tail truncated) and then
    appended to, one flushed frame per fresh batch.

    The journal is append-only but the state it rebuilds is bounded, so
    it is compacted — rewritten (tmp file + rename) as at most {!window}
    frames per live session, in arrival order — after every recovery
    that replayed records and then again every {!compact_every} appends.
    The file therefore stays within
    [window * max_sessions + compact_every] frames regardless of uptime.
    Session LRU stamps are not persisted: after a restart, eviction
    order among recovered sessions is approximate. *)

val register : t -> session:int64 -> unit
(** Touch a session (the {!Frame.Hello} path) so it is warm in the LRU. *)

val begin_batch : t -> session:int64 -> seq:int -> count:int -> outcome
(** Classify a batch before applying it. [Fresh] is journaled with the
    claimed [count] as a provisional accepted value. *)

val record : t -> session:int64 -> seq:int -> accepted:int -> unit
(** Overwrite the provisional count with the engine's actual accepted
    count, so an in-incarnation duplicate ack is exact. *)

val stats : t -> stats

val close : t -> unit
(** Close the journal channel. Idempotent. *)
