(** Batching client for the served tier: a bounded shared buffer, a pool of
    sender connections, and size/age flush triggers.

    Producers ({!push}/{!try_push}) append keys to one bounded ring of
    [queue] slots; [conns] sender domains each own a TCP connection and
    ship batches of up to [batch] keys. A batch goes out when the buffer
    holds a full batch ({e size} trigger), when its oldest key has waited
    [flush_age] seconds ({e age} trigger), or when {!flush} or {!close}
    forces the residue out.

    Senders are pipelined: each keeps up to {!window} batches sent and not
    yet acked on its connection, and takes the next batch while earlier
    ones are on the wire. The server answers a connection's frames one at
    a time and in order, so each {!Frame.Ack} belongs to the oldest
    unacked batch (FIFO). A sender blocks on an ack only when its window
    is full. When nothing is due it sleeps in one [select] on the
    client's wake pipe and, while it has batches in flight, on its
    connection, until the oldest buffered key is [flush_age] old (for
    [flush_age] on an empty buffer). A {!push} that completes a batch,
    {!flush} and {!close} wake a sleeping sender through the pipe, so a
    full batch goes out at once and an idle client does not poll.

    Backpressure is explicit: on a full buffer {!push} blocks the producer
    (closed-loop behaviour) and {!try_push} sheds the key (open-loop
    behaviour, counted in {!stats}).

    Delivery is {e effectively-once}: each sender owns a session id
    (announced with {!Frame.Hello} on every (re)connection) and numbers
    its batches with a per-sender seq assigned once per composed batch. A
    transport failure, or an [Err Malformed] answer (the server could not
    decode what arrived: damage in transit), loses the connection with
    every unacked batch's fate unknown, so each of them spends one of its
    [retries] attempts. The sender reconnects (backoff) and resends those
    with attempts left, in seq order, with the {e same} [(session, seq)];
    the server's dedup window ({!Dedup}) recognises the ones that already
    landed and acks their original accepted count with [dup = true]
    instead of re-applying — so [acked] stays exact under arbitrary
    connection drops, and retried batches can never double-count. Any
    other [Err] rejects only the oldest batch and the connection stays
    open. The one residual hazard is retry {e exhaustion}: a batch dropped
    after its last failed attempt may or may not have been applied, so its
    keys are counted in both [shed] and [exhausted] — envelope verdicts
    require [exhausted = 0] to certify a run.

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
(** Spawn [conns] (default 1) sender domains, named [sender-N]
    ({!Obs.Thread_name}), and open the wake pipe. [batch] (default 256) keys
    per frame; [flush_age] (default 50 ms) bounds how long a key may sit in
    a partial batch; [queue] (default [8 * batch]) bounds the buffer;
    [retries] (default 3) retries per batch after its first attempt;
    [read_timeout] (default 10 s) bounds each ack/response wait.

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
    and a ["flush"] span (take → its ack, retries included; with
    pipelining this includes the time the frame waits behind the earlier
    frames of its window), and carries its
    context in its [net-batch] frame so the server continues the
    waterfall. Unsampled batches carry the zero context, exactly as a
    tracerless client's do.

    Each sender copies a taken batch into its own key array and encodes
    its frame into one of {!window} pooled buffers, which a retry resends
    as is; the buffer is reused once its batch resolves. So the steady
    state allocates no heap block per frame.

    @raise Invalid_argument on non-positive [conns] or [batch], or a
    [queue] smaller than [batch] (the ring could never hold a full batch,
    so every push into a full ring would wait out [flush_age]). *)

val window : int
(** Batches a sender keeps sent and unacked: 4. At most
    {!Dedup.window}, so every resent batch is still in the server's dedup
    window and is answered with its exact accepted count. *)

val push : t -> int -> bool
(** Buffer a key, blocking while the buffer is full. [false] after
    {!close}. Stores the key in the ring and allocates nothing. *)

val try_push : t -> int -> bool
(** Never blocks: a full buffer sheds the key (returns [false], counted in
    [shed]). [false] also after {!close}. *)

val flush : t -> unit
(** Force partial batches out and block until the buffer is empty {e and}
    every in-flight batch is resolved (acked, rejected or retried out):
    every sender's window is empty.
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
(** {!flush}, stop the senders, join them, close every connection and the
    wake pipe.
    Idempotent; further pushes return [false]. *)
