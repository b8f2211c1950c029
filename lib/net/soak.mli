(** The chaos soak: one runner that drives a workload trace into a chain
    of {!Pipeline.Engine} incarnations over one durable directory, while
    faults fire, and renders end-to-end IVL verdicts.

    The {e sink} decides where the trace goes and which faults apply:

    - [Engine]: the feeders ingest straight into the in-process engine.
      {!Conc.Chaos} kills shard workers (the supervisor restarts them),
      merges are WAL'd and checkpointed, and the WAL tail is torn
      mid-frame before each recovery (a crash during an append);
    - [Served]: the feeders push through a batching {!Client} into a
      {!Server}, with a follower {!Replica} subscribed, and every byte
      crosses a {!Chaos_proxy} (latency, bit flips, mid-frame resets,
      refused dials, full partitions).

    Everything else is shared. Each incarnation recovers the previous
    one's state ({!Durable.Recovery} [recover_compact]), seeds a new engine
    with it ([Engine.create ~initial]) and appends every merge to a fresh
    WAL. A background {!Workload.Driver} replays the trace. Restarts (and,
    served, partitions) fire at even fractions of the trace's update
    volume while traffic runs; leftovers fire after the driver finishes,
    so the configured counts always happen. A restart drains and stops
    the incarnation, checks it, and starts the next one. One sampler
    domain watches the live system throughout.

    Verdicts per sink (docs/SOAK.md has the table):

    - [Engine]: {e monotone} (each incarnation's recorded history
      satisfies {!Ivl.Monotone}), {e reader} (the published total never
      went backwards within an incarnation), {e conservation} (published
      = recovered base + flushed; accepted covers published: loss, never
      invention; no loss in an incarnation without a kill or a worker
      restart; flushed = enqueued on every shard that never died),
      {e recovery envelope} (recovered state inside
      [newest checkpoint, previous final], exactly the previous final
      when the WAL tail was not torn, never regressing), {e decode}
      and {e engine failures} (zero of each; a shard left dead after
      restarts without being shed is an engine failure), and, when the sketch states
      a point-error bound, {e oracle} (every estimate at least its true
      count minus the lost weight, and at most true + slack outside a
      δ-sized allowance — the (ε,δ) bound read end to end);
    - [Served]: {e conservation} (exact: published = recovered base +
      ingested, and each recovery resumes at the previous final), {e ack
      envelope} (no retry exhaustion; the client's acked total brackets
      published within the restart allowance), {e replica envelope} (the
      follower never leads the leader, and resyncs after faults), {e
      convergence} (after quiescing, the follower holds the leader's
      exact epoch, published weight and encoded sketch) and {e slo} (the
      {!Obs.Slo} monitor never entered Breach). *)

type 'sk bound = {
  estimate : 'sk -> int -> int;  (** point estimate of one key *)
  slack : 'sk -> float;  (** additive error allowed above the truth *)
  epsilon : float;  (** the sketch's stated ε *)
  delta : float;  (** probability an estimate may exceed [slack] *)
}
(** A sketch's point-error bound, for the oracle verdict: estimates never
    undercount, and exceed the truth by more than [slack] only with
    probability [delta]. *)

(** What the runner needs from the sketch: the mergeable, the server's
    query evaluator, and its point-error bound if it states one. *)
module type SKETCH = sig
  module M : Pipeline.Mergeable.S

  val eval : M.t -> Frame.query -> (int * int) list option
  val bound : M.t bound option
end

type engine = {
  kills : int;  (** shard-worker kills per incarnation (at most shards) *)
  kill_window : int;
      (** a kill lands within this many worker ticks (one tick per popped
          batch, so keep it small next to ops / shards / batch) *)
  tear_tail : bool;  (** tear the WAL tail before each recovery *)
  checkpoint_every : int;  (** epochs between checkpoints *)
  fsync_every : int;  (** WAL {!Durable.Wal.fsync_policy} [Every_n] *)
}

type served = {
  conns : int;  (** client sender connections *)
  client_batch : int;
  retries : int;
      (** per-batch delivery attempts: a batch must outlive [outage] *)
  partitions : int;  (** full network partitions *)
  outage : float;  (** seconds a restart leaves the server dead, and a
                       partition lasts *)
  faults : Chaos_proxy.faults;  (** steady-state wire faults *)
  settle : float;  (** timeout of the final convergence barrier *)
}

type sink = Engine of engine | Served of served

type config = {
  dir : string;  (** WAL, checkpoints and dedup journal; start it empty *)
  shards : int;
  batch : int;  (** engine merge cadence *)
  feeders : int;  (** driver feeder domains *)
  restarts : int;  (** incarnations - 1 *)
  seed : int64;  (** chaos, proxy and session randomness *)
  sink : sink;
}

val default_engine : engine
(** 2 kills within 16 ticks, torn tails, checkpoint every 8 epochs, fsync
    every 16 appends. *)

val default_served : served
(** 2 conns, client batch 128, 64 retries, 1 partition, 0.3 s outages,
    mild wire faults (sub-ms latency, 0.5% corruption and resets, 2%
    refused dials), 30 s settle. *)

val default_config : dir:string -> sink -> config
(** 4 shards, batch 256, 2 feeders, 2 restarts. *)

type oracle = {
  lower : int;  (** estimates below truth - lost: unconditional *)
  upper : int;  (** estimates above truth + slack: δ-budgeted *)
  allowance : int;  (** upper failures the δ budget allows *)
  checked : int;  (** keys compared *)
}

type incarnation = {
  index : int;
  recovered_epoch : int;
  recovered_published : int;
  wal_bytes_truncated : int;  (** torn tail dropped by the recovery *)
  recovery_regressions : int;  (** recovery outside its envelope *)
  kills : int;  (** chaos kills delivered *)
  worker_restarts : int;  (** supervisor restarts *)
  end_epoch : int;
  end_published : int;
  accepted : int;  (** updates the engine accepted *)
  lost : int;  (** accepted - (end_published - recovered_published) *)
  conservation_failures : int;
  monotone_violations : int;
  reader_regressions : int;
  decode_failures : int;
  unexpected_failures : int;
  oracle : oracle option;  (** [Engine] sink with a bounded sketch *)
  merge_lag : float array;  (** seconds, one per merge *)
}

type served_report = {
  duplicates_server : int;  (** batches the dedup window suppressed *)
  resyncs : int;  (** replica re-subscriptions *)
  follower_ahead : int;  (** staleness samples where the follower led *)
  client : Client.stats;
  proxy : Chaos_proxy.stats;
}

type check = { name : string; ok : bool; detail : string }

type verdict = {
  pass : bool;
  reasons : string list;  (** why it failed; empty on PASS *)
  checks : check list;  (** the sink's verdicts, in print order *)
  incarnations : incarnation list;
  restarts_done : int;
  partitions_done : int;
  accepted : int;  (** updates the sink accepted over the run *)
  published : int;  (** final published weight *)
  envelope_samples : float array;  (** [Engine]: live envelope width *)
  served : served_report option;  (** [Served] only *)
  driver : Workload.Driver.report;
  wall : float;
}

module Make (S : SKETCH) : sig
  val run :
    ?progress:(string -> unit) ->
    ?metrics:Obs.Registry.t ->
    ?tracer:Obs.Tracer.t ->
    ?http_port:int ->
    ?record:string ->
    ?on_start:(Server.Make(S.M).P.t -> unit) ->
    config ->
    spec:Workload.Trace.spec ->
    ops:Workload.Scenario.op array array ->
    unit ->
    verdict
  (** Run the soak. [progress] gets one line per
      milestone (restart, recovery, partition). [metrics] collects every
      component's series in one registry across incarnations (callback
      series re-bind to the newest one). [tracer] is shared by every tier,
      so one sampled batch yields its whole waterfall. [http_port] mounts
      {!Obs.Http.telemetry_handler} for the run: [/metrics], [/healthz]
      (progress and the Theorem-6 {!Obs.Slo} verdict; the engine sink's
      staleness is unknown, and its SLO adds no verdict line) and
      [/trace]. With a [tracer], the engine sink's feeders roll its die
      once per engine batch, so a sampled batch yields the ingest, queue,
      merge and wal spans. [record]
      freezes the driven operations to a replayable closed-loop trace
      file. [on_start] sees each incarnation's engine before traffic
      reaches it — the fault-injection seam the negative controls use.
      @raise Invalid_argument naming the first bad field: non-positive
      counts, negative restarts or partitions, [kills > shards], or [ops]
      not matching [spec]'s phases. *)
end

val verdict_to_string : verdict -> string
(** The incarnation table, one [soak: <check> PASS|FAIL (detail)] line
    per verdict, a traffic summary, any [FAIL:] reasons, and the overall
    [soak: PASS|FAIL] line — what the CLI prints and CI greps. *)

val bench : verdict -> total_ops:int -> string * (string * string * float) list
(** The [--bench-out] experiment name and its [(name, unit, value)] rows:
    [soak] rows for the engine sink, [served-soak] rows for the served
    one. Unit ["violations"] rows are zero-tolerance in [bench compare]. *)
