(** Sharded ingestion pipeline: shard-local sketches, periodic merges into a
    global sketch, snapshot-consistent relaxed reads.

    This is the batched-update architecture the paper models (its
    introduction's motivating big-data systems ingest exactly this way), and
    the published state is a textbook IVL object:

    {v
      batch ─sort by shard─▶ slice ─▶ [shard queue]──▶ worker: delta ─┐
                             slice ─▶ [shard queue]──▶ worker: delta ─┤ blobs
                             slice ─▶ [shard queue]──▶ worker: delta ─┘   │
                                                                          ▼
                                                  [merger queue]──▶ merger:
                                                       global ← fold(delta)
                                                       epoch++, stamp, lag
                                      queries ──▶ snapshot of global @ epoch
    v}

    Keys enter in per-shard slices: {!Make.ingest_batch} sorts a batch by
    shard and pushes each shard's keys with one {!Mpsc.push_slice}, so a
    frame costs each shard queue a few lock holds, not one per key.
    Each worker owns its shard's delta exclusively (no locks on the update
    path) and keeps it for its whole life; every [batch] items, once the
    shard goes quiet with unshipped items, or once it has held them for
    {!max_age}, it encodes
    the delta as a {!Wire.Codec} blob, empties it ({!Mergeable.S.ship}) and
    ships the blob to the merger, which validates it outside a mutex and folds
    it into the global sketch in place under it ({!Mergeable.S.fold}),
    bumping the epoch. A query therefore sees a
    snapshot: some prefix of merges, never a torn delta — the merged counter
    of published weights is IVL by construction, and the recorded history
    ({!Make.history}: one update op per merge, one query op per
    {!Make.read_total}) lets {!Ivl.Monotone} verify that end-to-end on real
    executions.

    Freshness is the price: items buffered in queues or unshipped deltas are
    invisible to queries until merged, so a smaller [batch] tightens the IVL
    envelope (less lag between v_min and what a query can return) while a
    larger one buys update throughput — the cadence/slack dial
    [docs/PIPELINE.md] discusses. The clock bounds that price in time
    below saturation: a quiescent engine publishes every accepted item
    within a clock tick or two plus a merge, and a busy one within about
    {!max_age} plus a merge. Backpressure is physical: bounded
    queues block feeders when shards fall behind.

    Crash-stop tolerant: a worker dying (e.g. {!Conc.Chaos.Killed} raised by
    an [on_tick] injection hook) closes its queue, so ingest sheds to drops
    instead of hanging, and {!Make.drain} still completes — joining every
    domain and accounting lost items — with the surviving shards' data
    intact.

    Two optional layers turn crash-stop loss into resilience
    [docs/RECOVERY.md]:

    - a {e durability hook} ([on_merge]) lets [Durable] write-ahead-log
      every published delta, and snapshot the global sketch with
      {!Make.snapshot} from the same hook, so a crashed pipeline restarts
      inside the IVL envelope of its pre-crash history;
    - a {e supervisor} (the engine's clock domain, when [supervised])
      detects dead shard workers and
      restarts them with capped exponential backoff and jitter, reopening
      their queues so the backlog survives; a shard that exhausts its
      restart budget degrades to permanent shedding instead of
      crash-looping. *)

val default_queue_capacity : int
(** 1024: {!Make.create}'s [queue_capacity] default, and what the
    Theorem-6 SLO budget ({!Obs.Slo.theorem6_budget}) assumes of an engine
    built with it. *)

val max_age : float
(** 0.002 seconds: how long a shard that keeps receiving may hold
    unshipped items before its worker ships a partial delta. A shard that
    goes quiet ships sooner ({!age_step}): the engine's clock ticks every
    0.5 ms, so a key accepted by an engine that then goes quiet is
    published within two ticks, a worker wake-up and a merge. The wake-up
    and the merge are bound by the scheduler, not by the engine: under the
    served chaos soak, on 2 vCPUs shared by about a dozen domains, a quiet
    leader held an accepted key 8.8–19.5 ms over 11 runs (14.4–65.5 ms
    under the age rule alone, docs/PIPELINE.md). That is why the soak's
    [freshness] deadline is [max_age] plus [Net.Soak]'s
    [freshness_slack] (150 ms). *)

type age
(** The clock's ageing state for one shard. *)

val age_idle : age
(** A shard the clock has not yet seen hold anything. *)

val age_step :
  age -> enqueued:int -> flushed_items:int -> flushes:int -> now:float ->
  age * bool
(** One clock tick for one shard: from the shard's [enqueued],
    [flushed_items] and [flushes] counters read at time [now], the next
    state and whether the shard is due now (the clock then marks it due
    and {!Mpsc.kick}s its queue). A shard holds unshipped items while
    [enqueued > flushed_items]; the clock times them from the tick that
    first sees them or that sees a new flush. The shard is due on the
    first tick that finds it {e quiet} — [enqueued] unchanged since the
    previous tick — or holding items timed {!max_age} ago. So a shard
    that goes quiet ships on the next tick, and one that keeps receiving
    ships at [batch] or at [max_age]. Due once per held weight: after
    that, not again before new keys or a new flush, so a shard whose
    worker died with its delta is not kicked on every tick. Pure: the
    clock's only state is the [age] it keeps per shard. *)

val max_lags : int
(** [1 lsl 20]: {!Make.stats}'s [merge_lag] keeps the first [max_lags]
    merges' lags (8 MB) and then stops growing; [last_merge_lag] and the
    [pipeline_merge_lag_seconds] summary still see every merge. *)

(**/**)

val with_lag_cap : int -> (unit -> 'a) -> 'a
(** Test hook: an engine created while [with_lag_cap cap f] runs [f]
    keeps [cap] merge lags instead of {!max_lags}. *)

(**/**)

module Make (M : Mergeable.S) : sig
  type t

  type shard_stats = {
    enqueued : int;  (** elements accepted into the shard queue *)
    dropped : int;  (** shed: queue closed (dead worker) or [try_ingest] full *)
    consumed : int;  (** elements the worker folded into deltas *)
    flushed_items : int;  (** elements shipped to the merger in blobs *)
    flushes : int;  (** blobs shipped *)
    max_depth : int;  (** high-water queue depth observed at ingest *)
    alive : bool;
    restarts : int;  (** supervisor restarts of this shard's worker *)
    shed : bool;  (** permanently degraded: restart cap exceeded *)
    last_error : string option;  (** most recent death (or shed) reason *)
    steals : int;  (** always [0]; [bench/stack] reports it as [engine.steals] *)
    parks : int;
        (** idle waits: the worker found its queue empty; at most four per
            shipped delta, plus one per clock kick, plus the one a close
            ends *)
  }

  type stats = {
    shards : shard_stats array;
    merges : int;  (** deltas folded into the global sketch *)
    decode_failures : int;  (** blobs the merger could not decode *)
    published : int;  (** total weight merged — what {!read_total} returns *)
    epoch : int;  (** merge counter; stamps every query snapshot *)
    merge_lag : float array;
        (** seconds from delta encode to merge, per merge, for the first
            {!max_lags} merges *)
  }

  val create :
    ?queue_capacity:int ->
    ?batch:int ->
    ?on_tick:(shard:int -> unit) ->
    ?on_merge:
      (ctx:Obs.Span.context -> epoch:int -> weight:int -> blob:Bytes.t -> unit) ->
    ?supervised:bool ->
    ?history:bool ->
    ?metrics:Obs.Registry.t ->
    ?tracer:Obs.Tracer.t ->
    ?initial:M.t * int * int ->
    shards:int ->
    unit ->
    t
  (** Spawn [shards] worker domains, one merger domain and one clock
      domain, named [shard-N], [merger] and [clock] ({!Obs.Thread_name}). Every shard queue and the merger queue is a {!Mpsc}.
      [queue_capacity] (default {!Engine.default_queue_capacity}) bounds
      each shard queue; [batch] (default 512) is the merge cadence in
      items.

      Each worker consumes only its own shard's queue: it pops up to
      [batch] items, blocks on the queue when it is empty until enough
      items arrive to complete its delta or fill a quarter batch (rounded
      up), and ships its delta once it holds at least [batch] items, once
      the clock finds the shard quiet with unshipped items or holding them
      for {!Engine.max_age} without a flush ({!Engine.age_step}), and when
      the queue closes. The clock reads the shards' [enqueued],
      [flushed_items] and [flushes] every 0.5 ms, marks a due shard and
      {!Mpsc.kick}s its queue; the per-item path reads no clock. So a
      shard whose worker never died has [flushed_items = enqueued] after
      {!drain}, and within about two ticks of going quiet.

      [on_tick] runs in the worker's domain once per batch loop — the
      chaos hook: raising {!Conc.Chaos.Killed} from it crash-stops that
      shard (when [supervised], the restarted incarnation runs the same
      hook, so a hook that kills unconditionally produces a crash loop that
      ends in shedding — by design).

      When [supervised] (default [false]) the clock also restarts a dead
      shard's worker, at most 5 times: after
      [r] restarts the next one waits min(50 ms, 2 ms × 2{^r}) times a
      jitter in [0.5, 1.5) (seeded [0xD1ED]); it scans every tick. A
      shard that dies a 6th time is shed for good.

      [history] (default [false]) records every merge and {!read_total}
      into the history {!history} returns: about 216 bytes of heap per
      merge, kept for the engine's life. An engine that runs for long, such
      as a served leader, leaves it off.

      [on_merge ~ctx ~epoch ~weight ~blob] runs in the merger's domain after
      each merge, in strict epoch order, outside the query mutex — the WAL
      append point. [ctx] is the merged delta's trace context
      ({!Obs.Span.zero} unless the delta carried a sampled mark — see
      [tracer] below), already re-parented onto the merge span, so a WAL
      wrapper can record its append as the next stage of the waterfall.
      It is also the checkpoint write point: the merger waits for the
      hook, so {!snapshot} called from it returns exactly [(blob, epoch,
      published)] as of this merge. An exception from the hook kills the
      merger and surfaces in {!failures}.

      [metrics] exports the pipeline into an {!Obs.Registry.t} — pure
      registration of scrape-time callbacks over counters the engine
      already keeps, so the hot paths pay nothing. Series registered:
      [pipeline_ingested_total], [pipeline_dropped_total],
      [pipeline_consumed_total], [pipeline_flushed_items_total],
      [pipeline_restarts_total],
      [pipeline_merges_total], [pipeline_decode_failures_total],
      [pipeline_published_total], [pipeline_epoch],
      [pipeline_shed_shards], per-shard series labelled [shard="i"]
      ([pipeline_queue_depth], a relaxed read of the queue's length,
      [pipeline_queue_max_depth],
      [pipeline_shard_alive], [pipeline_shard_shed], and
      [pipeline_shard_{enqueued,dropped,consumed,flushed_items,flushes,
      restarts,parks}_total]), a
      [pipeline_merge_lag_seconds] summary
      observed by the merger, and [pipeline_envelope_width] — the live IVL
      freshness gap, {!envelope_width}.

      [tracer] is the engine's only tracing hook. It enables distributed-tracing spans for sampled batches: after
      {!trace_mark} tags a shard with a context, that worker's next flush
      records a ["queue"] span (mark → flush: queue residency plus fold)
      and attaches the context to the delta;
      the merger then records a ["merge"] span (encode → merged, the same
      window as [pipeline_merge_lag_seconds]) and hands the re-parented
      context to [on_merge]. Unsampled traffic pays one atomic-load branch
      per flush. Lifecycle facts (flushes, merges, restarts, sheds, the
      last error of a dead shard) are not spans: they are already counted
      by the [metrics] series above and {!stats}.

      [initial (sketch, epoch, published)] seeds the engine with recovered
      state ([Durable.Recovery]) instead of an empty sketch: the global
      starts as [sketch] (the engine owns it from then on: merges fold into
      it in place), epoch numbering continues from [epoch], and the
      carried-over [published] weight is logged into the recorded history as
      one synchronous update op before any domain spawns, so the IVL
      envelope checker accounts for the pre-crash base. This is how a soak
      run chains engine incarnations over one WAL ([Net.Soak]).
      @raise Invalid_argument if [shards <= 0], [queue_capacity <= 0],
      [batch <= 0], or [initial]'s epoch or published weight is
      negative. *)

  val ingest : t -> int -> bool
  (** Route an element to its shard (by hash) and enqueue it, blocking while
      the queue is full — backpressure. [false] means dropped: the shard's
      worker is dead, or the pipeline is drained. Any number of domains may
      ingest concurrently. *)

  val ingest_batch : t -> int array -> len:int -> int
  (** [ingest_batch t keys ~len] ingests [keys.(0 .. len - 1)] as one slice
      per shard: the keys are stably sorted by shard and each non-empty
      shard's slice is enqueued with one {!Mpsc.push_slice}, blocking while
      that queue is full. Returns the number of keys accepted. The sort
      reuses per-domain arrays, so a call allocates nothing once they have
      grown to the batch. @raise Invalid_argument if [len] is outside
      [keys]. Within a shard the keys keep the batch's
      order; each shard's [enqueued], [dropped] and depth high-water mark
      are updated once per slice.

      Partial acceptance is exact: a shard whose worker is dead (its queue
      closed) accepts only the prefix of its slice enqueued before the
      close, and every later key of the slice counts in its [dropped]; the
      other shards' slices are unaffected. After {!drain} every key is
      dropped and the result is [0]. So the result always equals the growth
      of Σ [enqueued] this call caused. A slice counts in [enqueued] when its
      push returns, so while it is in flight {!envelope_width} can trail the
      true gap by up to the keys of the slices being pushed. *)

  val try_ingest : t -> int -> bool
  (** Non-blocking variant: a full queue is an immediate drop (counted). *)

  val trace_mark : t -> key:int -> ctx:Obs.Span.context -> unit
  (** Tag [key]'s shard with a sampled trace context so the worker's next
      flush opens the in-engine leg of the waterfall (see [tracer] in
      {!create}). Call next to the ingest of a traced batch's first key; a
      {!Obs.Span.zero} context is a no-op. One-slot per shard — a second
      mark before the next flush replaces the first (lossy, like spans
      generally). *)

  val drain : t -> unit
  (** Graceful shutdown: stop the watchdog, close shard queues, let workers
      drain and flush their final deltas, join them, then close the merger
      queue and join the merger. Idempotent {e and} safe under concurrent
      callers: one domain performs the shutdown, the rest block until it
      completes, drop accounting happens exactly once. After [drain],
      queries remain valid and ingest returns [false]. *)

  val query : t -> (M.t -> 'a) -> 'a * int
  (** Snapshot-consistent read of the global sketch: [f] runs under the
      merge mutex and the returned epoch identifies the exact prefix of
      merges it saw. Keep [f] cheap — it delays merges, not ingests — and
      do not let it return the sketch itself: merges fold into it in place. *)

  val snapshot : t -> Bytes.t * int * int
  (** [(blob, epoch, published)] — the encoded global sketch with the epoch
      and published weight it corresponds to, captured atomically under the
      merge mutex. The replication handshake: a follower seeded with this
      triple and then fed every [on_merge] delta with epoch > [epoch]
      reconstructs the leader's published state exactly ([Net.Replica]).
      Called from [on_merge] it is that merge's checkpoint. Costs one
      [M.encode] under the mutex — not for hot read paths. *)

  val read_total : t -> int
  (** Total published weight (stream items merged so far), recorded into the
      pipeline's history as a query op for the envelope checker when
      [history] is on. At most one domain may call this (the recorder gives
      the reader one buffer). *)

  val published_at : t -> int * int
  (** [(published, epoch)]: the total published weight and the epoch of
      the merge that made it, read in one hold of the merge mutex, so the
      pair is the state of one merge prefix, as {!query}'s is. *)

  val published : t -> int
  (** Total published weight, as in {!stats}, without recording a query
      op or copying the merge lags. O(1): what a periodic probe such as a
      staleness SLO or a sampler should read. *)

  val accepted : t -> int
  (** [initial]'s recovered weight + Σ [enqueued]: every weight this engine
      has taken, published or not. Only grows. *)

  val envelope_width : t -> int
  (** The live IVL freshness gap: accepted weight not yet published,
      {!accepted} − [published] (floored at 0). [published] is read before the shards' [enqueued], which only
      grows, so the gap never understates how far a concurrent
      {!read_total} trails the total of the pushes that have returned
      (docs/OBSERVABILITY.md). The
      [pipeline_envelope_width] gauge and every SLO envelope callback read
      this. Callable mid-run, and after {!drain}, where it is the accepted weight
      that never got published. *)

  val last_merge_lag : t -> float option
  (** The newest merge's lag in seconds (past {!max_lags} merges, newer
      than {!stats}'s [merge_lag] holds), [None] before the first merge. O(1): what a periodic
      SLO probe should read instead of copying every lag with {!stats}. *)

  val stats : t -> stats
  (** Callable mid-run (racy per-shard counters, consistent merger block) or
      after {!drain} (exact). *)

  val dead : t -> int list
  (** Shards whose worker is currently dead (mid-restart or shed), ascending. *)

  val failures : t -> (string * exn) list
  (** Unexpected worker/merger exceptions ({!Conc.Chaos.Killed} is expected
      and not listed). Anything here is a pipeline bug. *)

  val history : t -> (int, int, int) Hist.History.t
  (** The recorded merge/read history — feed to
      [Ivl.Monotone.Make (Spec.Counter_spec)]. Call after {!drain} and after
      the reading domain has quiesced. Empty unless the engine was created
      with [~history:true]. *)
end
