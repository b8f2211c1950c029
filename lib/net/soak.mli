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

    Verdicts per sink (docs/SOAK.md states each): [Engine] checks
    {e monotone}, {e reader}, {e conservation}, {e recovery envelope},
    {e decode}, {e engine failures} and, for a sketch with a point-error
    bound, {e oracle}; [Served] runs the six served checks below after
    quiescing the wire and draining the last incarnation ({e freshness}
    just before that drain: whenever the leader's accepted count stops
    growing, it publishes every key it accepted within
    {!Pipeline.Engine.max_age} plus 150 ms). *)

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
  kills : int;
      (** shard-worker kills per incarnation (at most shards), each within
          the first 16 ticks of a worker (one tick per popped batch) *)
  tear_tail : bool;  (** tear the WAL tail before each recovery *)
}
(** The engine sink checkpoints every 8 epochs (from the merge hook, via
    [snapshot]) and fsyncs its WAL every 16 appends. *)

type served = {
  conns : int;  (** client sender connections *)
  partitions : int;  (** full network partitions *)
  outage : float;  (** seconds a restart leaves the server dead, and a
                       partition lasts *)
  faults : Chaos_proxy.faults;  (** steady-state wire faults *)
}
(** The served sink's client sends 128-key batches and tries each one 64
    times, so a batch outlives an [outage]. *)

type sink = Engine of engine | Served of served

type config = {
  dir : string;  (** WAL, checkpoints and dedup journal; start it empty *)
  shards : int;
  feeders : int;  (** driver feeder domains *)
  restarts : int;  (** incarnations - 1 *)
  seed : int64;  (** chaos, proxy and session randomness *)
  sink : sink;
}
(** Each incarnation's engine ships a shard's delta every 256 keys (its
    [batch]), for both sinks. *)

val default_engine : engine
(** 2 kills, torn tails. *)

val default_served : served
(** 2 conns, 1 partition, 0.3 s outages, mild wire faults (sub-ms
    latency, 0.5% corruption and resets, 2% refused dials). *)

val default_config : dir:string -> sink -> config
(** 4 shards, 2 feeders, 2 restarts. *)

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

type check = { name : string; ok : bool; detail : string }
(** One verdict; [detail] is what was measured and, on FAIL, then why. *)

(** {2 The served checks}

    One function per served claim, over plain numbers: the served soak
    and the [serve], [client] and [replica] commands judge alike. *)

type leg = { base : int; ingested : int; published : int }
(** One drained incarnation: the published weight it recovered, the keys
    it accepted, the published weight after its drain. *)

val conservation : ?miscounts:int -> leg list -> check
(** Every leg of a non-empty chain publishes exactly [base + ingested]
    and resumes at the previous leg's [published]. [miscounts] (default
    0): incarnations whose drain-time flush accounting the caller found
    broken. *)

val ack_envelope : acked:int -> published:int -> slack:int -> exhausted:int -> check
(** [published <= acked <= published + slack], and no batch exhausted its
    retries (its fate is unknown, so [acked] is no longer exact). *)

val freshness : width:int -> held:float -> deadline:float -> check
(** A quiet leader publishes every key it accepted without a drain: [held]
    — the longest the leader was seen holding an accepted key unpublished
    while its {!Pipeline.Engine.Make.accepted} had not grown — is at most
    [deadline] seconds, and the envelope width
    ({!Pipeline.Engine.Make.envelope_width}) after the client closed reads
    [width = 0]. *)

val replica_envelope : samples:int -> ahead:int -> faults:int -> resyncs:int -> check
(** The follower led the leader in none of [samples > 0] samples, and
    resynced at least once if [faults > 0] fault events fired. *)

type image = { epoch : int; published : int; blob : Bytes.t option }
(** A published state and its encoded sketch ([None]: none held). *)

val convergence : ?status:string -> leader:image -> follower:image -> unit -> check
(** Same epoch, same published weight, same bytes — and a leader that
    published something: an empty follower equal to an empty leader shows
    nothing. [status] (the follower's) is named when the epochs differ. *)

val slo : Obs.Slo.t -> check
(** One more {!Obs.Slo.eval}: zero breaches ever, and the final state
    [Ok]. A breach is named by its {!Obs.Slo.last_breach}. *)

val report : who:string -> check list -> string
(** The one verdict format: [<who>: <check> PASS|FAIL (detail)] per
    check, then [<who>: PASS|FAIL] (PASS iff every check passed). *)

type served_report = {
  duplicates_server : int;  (** batches the dedup window suppressed *)
  resyncs : int;  (** replica re-subscriptions *)
  follower_ahead : int;  (** staleness samples where the follower led *)
  client : Client.stats;
  proxy : Chaos_proxy.stats;
}

type verdict = {
  pass : bool;  (** every check passed *)
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
      file and adds a [record] check, which fails if the file cannot be
      written. [on_start] sees each incarnation's engine before traffic
      reaches it — the fault-injection seam the negative controls use.
      @raise Invalid_argument naming the first bad field: non-positive
      counts, negative restarts or partitions, [kills > shards], or [ops]
      not matching [spec]'s phases. *)
end

val verdict_to_string : verdict -> string
(** The incarnation table, a freshness or traffic summary, then
    [report ~who:"soak"] over the checks — what the CLI prints and CI
    greps. *)

val bench : verdict -> total_ops:int -> string * (string * string * float) list
(** The [--bench-out] experiment name and its [(name, unit, value)] rows:
    [soak] rows for the engine sink, [served-soak] rows for the served
    one. Unit ["violations"] rows are zero-tolerance in [bench compare]. *)
