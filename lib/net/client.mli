(** Batching client for the served tier: a bounded shared buffer, a pool of
    sender connections, and size/age flush triggers.

    Producers ({!push}/{!try_push}) append keys to one bounded queue;
    [conns] sender domains each own a TCP connection and ship batches of up
    to [batch] keys, synchronously awaiting each {!Frame.Ack}. A batch goes
    out when the buffer holds a full batch ({e size} trigger), when its
    oldest key has waited [flush_age] seconds ({e age} trigger), or when
    {!flush} or {!close} forces the residue out.

    Backpressure is explicit: on a full buffer {!push} blocks the producer
    (closed-loop behaviour) and {!try_push} sheds the key (open-loop
    behaviour, counted in {!stats}).

    Delivery is {e effectively-once}: each sender owns a session id
    (announced with {!Frame.Hello} on every (re)connection) and numbers
    its batches with a per-sender seq assigned once per composed batch. A
    sender whose connection dies mid-exchange reconnects (bounded
    attempts, backoff) and resends the {e same} [(session, seq)]; the
    server's dedup window ({!Dedup}) recognises the retry and acks the
    original accepted count with [dup = true] instead of re-applying — so
    [acked] stays exact under arbitrary connection drops, and retried
    batches can never double-count. An [Err Malformed] answer means the
    server could not decode what arrived (damage in transit), so it is
    retried the same way; any other [Err] rejects the batch. The one
    residual hazard is retry {e exhaustion}: a batch dropped after its
    last failed attempt may or may not have been applied, so its keys are
    counted in both [shed] and [exhausted] — envelope verdicts require
    [exhausted = 0] to certify a run.

    Queries use one dedicated, lazily-(re)connected connection, serialized
    by a mutex — the client is an ingest firehose with an occasional
    control-plane read, not a query multiplexer. *)

type t

type stats = {
  pushed : int;  (** keys accepted into the buffer *)
  acked : int;  (** keys the server acknowledged *)
  sent : int;  (** keys shipped in batches (acked + rejected remainder) *)
  shed : int;  (** keys dropped: buffer full ({!try_push}) or delivery failed *)
  exhausted : int;
      (** keys dropped after retry exhaustion — fate unknown, the only
          shed class that can break the ack envelope *)
  errors : int;  (** transport/protocol failures observed *)
  reconnects : int;  (** successful re-establishments after a drop *)
  duplicates_suppressed : int;
      (** retried batches the server acked without re-applying *)
  queued : int;  (** keys currently buffered *)
}

val create :
  ?conns:int ->
  ?batch:int ->
  ?flush_age:float ->
  ?queue:int ->
  ?retries:int ->
  ?read_timeout:float ->
  ?session:int64 ->
  ?metrics:Obs.Registry.t ->
  ?tracer:Obs.Tracer.t ->
  host:string ->
  port:int ->
  unit ->
  t
(** Spawn [conns] (default 1) sender domains. [batch] (default 256) keys
    per frame; [flush_age] (default 50 ms) bounds how long a key may sit in
    a partial batch; [queue] (default [8 * batch]) bounds the buffer;
    [retries] (default 3) delivery attempts per batch; [read_timeout]
    (default 10 s) bounds each ack/response wait.

    [session] overrides the session id base (sender [i] uses
    [session + i]); the default mixes wall clock and pid, distinct across
    processes.

    Senders do not pre-connect: the first batch dials. [metrics] registers
    [client_pushed_total], [client_acked_total], [client_shed_total],
    [client_errors_total], [client_reconnects_total],
    [client_duplicates_suppressed_total], [client_exhausted_total] and a
    [client_queue_depth] gauge.

    [tracer] samples composed batches for distributed tracing: a sampled
    batch records an ["enqueue"] span (oldest buffered arrival → take)
    and a ["flush"] span (send → ack, retries included), and carries its
    context in its [net-batch] frame so the server continues the
    waterfall. Unsampled batches carry the zero context, exactly as a
    tracerless client's do.

    @raise Invalid_argument on non-positive [conns]/[batch]/[queue]. *)

val push : t -> int -> bool
(** Buffer a key, blocking while the buffer is full. [false] after
    {!close}. *)

val try_push : t -> int -> bool
(** Never blocks: a full buffer sheds the key (returns [false], counted in
    [shed]). [false] also after {!close}. *)

val flush : t -> unit
(** Force partial batches out and block until the buffer is empty {e and}
    every in-flight batch is resolved (acked, rejected or retried out).
    Safe from multiple domains. *)

val query : t -> Frame.query -> (Frame.response, string) result
(** One synchronous query round-trip on the dedicated query connection.
    [Error] is a transport/decode failure (after which the connection is
    reset and the next call re-dials); a server-side [Err] response comes
    back as [Ok (Err _)]. *)

val stats : t -> stats

val sink : t -> Workload.Sink.t
(** Adapt to the driver: [ingest]/[try_ingest] are {!push}/{!try_push}
    (accepted-into-buffer, not acked — at-least-once), [query k] is a
    {!Frame.Point} round-trip, [flush] is {!flush}, [close] a no-op (the
    caller owns the client's lifecycle). *)

val close : t -> unit
(** {!flush}, stop the senders, join them, close every connection.
    Idempotent; further pushes return [false]. *)
