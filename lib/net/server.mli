(** The served ingestion/query tier: one accept loop plus a bounded pool of
    per-connection handler domains, feeding a {!Pipeline.Engine} and
    answering queries from its published snapshots.

    The pool is per-connection by construction: the accept loop spawns one
    handler domain per accepted socket (reaping finished ones as it goes)
    and stops accepting at [max_conns] live handlers, letting the kernel
    backlog absorb the excess. A fixed pre-spawned pool would starve —
    pooled senders and replication subscribers hold their connections open
    for the client's whole life, pinning a fixed handler forever. The
    accept domain names its thread [accept], a handler [conn-N] after its
    connection id ({!Obs.Thread_name}).

    {2 Protocol position}

    Each handler owns one connection at a time and speaks {!Frame}:
    - {!Frame.Hello} → registers the sender's session in the dedup window
      ({!Dedup}), answered with a zero {!Frame.Ack};
    - {!Frame.Batch} → classified against the dedup window first: a
      duplicate [(session, seq)] is acked with its original accepted count
      and [dup = true] but {e never} re-applied (effectively-once
      ingestion — retried batches cannot double-count); a fresh batch is
      journaled, then its keys enter the engine with one blocking
      [Engine.ingest_batch], one slice per shard (TCP is the backpressure
      channel: a full shard queue stalls the handler, which stalls the
      client's sender), answered with an {!Frame.Ack} carrying the
      accepted count — exactly the keys the engine enqueued, so a dead
      shard's slice is not counted. A batch frame is parsed in place from
      the connection's receive buffer ({!Conn.recv_view}) into the
      handler's reused {!Frame.batch} and acked from a reused buffer, so a
      steady batch stream allocates no heap block per frame; the other
      requests are copied out and decoded whole;
    - {!Frame.Query} → every query is answered from the engine under its
      merge mutex: [Total] is [Engine.published_at] (published weight and
      its epoch, no sketch access), everything else runs [eval] on the
      global sketch. Like a point query, [Total] may include a merge whose
      [on_merge] hook (the WAL append, the fan-out) is still running;
    - {!Frame.Subscribe} → the handler becomes a replication sender for the
      rest of the connection's life: it seeds the follower with
      [Engine.snapshot] and then forwards every merged epoch delta, in
      order ({!Replica}).

    Decode failures are answered, never raised: a malformed frame gets
    [Err Malformed], a frame whose kind tag this build does not know gets
    [Err Unsupported] (satellite: {!Wire.Codec.Unknown_kind} is a distinct
    error), and in both cases the connection is reset — after a framing
    error the stream cannot be trusted. Slow-loris peers (header never
    completes) hit the receive timeout and are reset without a response.

    {2 Replication guarantees}

    The server keeps no copy of the published state: the served state flows
    one way, engine → [on_merge] → fan-out → follower. The server's
    [on_merge] hook (wired into the engine by the caller via [make_engine])
    fans each delta out to every subscriber under one mutex; a subscriber
    registers under the same mutex {e before} taking its seed snapshot, so
    no delta can fall between snapshot and stream — at worst a delta is
    both inside the snapshot and queued, which the follower's epoch filter
    skips. A subscriber whose
    bounded queue overflows is dropped (its queue closed, its connection
    reset): a slow follower must re-subscribe rather than stall the merger.

    {!stop} orders shutdown so followers converge exactly: reset plain
    connections, drain the engine (flushing the partial shard deltas an
    idle engine retains), let the final merges fan out, then close
    subscriber queues and join every domain. *)

module Make (M : Pipeline.Mergeable.S) : sig
  module P : module type of Pipeline.Engine.Make (M)

  type t

  type stats = {
    conns : int;  (** connections accepted over the server's life *)
    active : int;
    subscribers : int;
    bytes_in : int;  (** across all connections, framing included *)
    bytes_out : int;
    frames_in : int;
    frames_out : int;
    decode_errors : int;
        (** malformed / unknown-kind / oversized / desynced frames *)
    batches : int;
    ingested : int;  (** keys accepted into the engine *)
    shed : int;  (** keys the engine refused (dead shard, drained) *)
    queries : int;
    sessions : int;  (** live sessions in the dedup window *)
    duplicates : int;  (** retried batches acked without re-application *)
  }

  val create :
    ?host:string ->
    ?port:int ->
    ?max_conns:int ->
    ?read_timeout:float ->
    ?sub_queue:int ->
    ?dedup_dir:string ->
    ?metrics:Obs.Registry.t ->
    ?tracer:Obs.Tracer.t ->
    eval:(M.t -> Frame.query -> (int * int) list option) ->
    make_engine:
      (on_merge:
         (ctx:Obs.Span.context -> epoch:int -> weight:int -> blob:Bytes.t ->
          unit) ->
       P.t) ->
    unit ->
    t
  (** Bind, listen, and spawn the accept domain; handler domains follow,
      one per accepted connection, at most [max_conns] (default 32) alive
      at once. [port] defaults to 0 (ephemeral — read it back with
      {!port}); [host] to ["127.0.0.1"].

      [make_engine ~on_merge] must create the engine with exactly this
      [on_merge] hook (composing it with its own WAL hook if it wants
      durability: call both). The server owns the engine's lifecycle from
      then on — {!stop} drains it.

      [eval sketch q] answers a query from the global sketch under the
      snapshot mutex — keep it cheap. [None] means this sketch cannot
      answer [q] (answered as [Err Unsupported]). [Frame.Total] never
      reaches [eval].

      [read_timeout] (default 30 s) is each connection's [SO_RCVTIMEO]: a
      peer that stalls mid-frame longer than this is reset. A declared
      payload over {!Conn.max_frame} is answered as malformed.
      [sub_queue] (default 1024) bounds each subscriber's delta queue.

      The per-session dedup window has {!Dedup}'s bounds ({!Dedup.window}
      seqs per session, {!Dedup.max_sessions} sessions); [dedup_dir] persists
      the session journal so retries that span a restart stay suppressed —
      point it at the WAL directory.

      [tracer] continues the waterfall of batches that arrive with a
      sampled (nonzero) trace context in their [net-batch] frame: a ["decode"] span
      around the frame parse and an ["ingest"] span around the engine push,
      with {!P.trace_mark} handing the context to the engine so the shard
      flush and merge legs follow. Pass the same tracer to the engine
      (via [make_engine]) for the in-engine spans. Untraced batches cost
      one branch.

      [metrics] registers [net_conns_total], [net_conns_active],
      [net_subscribers], [net_decode_errors_total], [net_batches_total],
      [net_ingested_total], [net_shed_total], [net_queries_total],
      [net_duplicates_suppressed_total], [net_sessions], a
      [net_query_seconds] timer, and [net_{bytes,frames}_{in,out}_total]
      over all connections (the totals {!stats} reports, closed
      connections included). The registry does not grow with the
      connections served. *)

  val port : t -> int
  (** The actually-bound port (useful with [port:0]). *)

  val engine : t -> P.t

  val stats : t -> stats
  (** Callable mid-run (counters are racy-consistent). *)

  val stop : t -> stats
  (** Stop accepting, reset request connections, drain the engine (final
      partial deltas reach subscribers), close subscriber streams, join all
      domains, close the listener. Idempotent; returns the final stats. *)
end
