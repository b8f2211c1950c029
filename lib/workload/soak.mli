(** Full-system chaos soak: trace → pipeline → WAL → crash → recover, with
    end-to-end IVL verdicts.

    One soak run chains [rounds] incarnations of a CountMin
    {!Pipeline.Engine} over a single durable directory. Every round:

    + recover the previous incarnation's state ({!Durable.Recovery}
      [recover_compact]: newest checkpoint + WAL replay, then checkpoint the
      result and clear the replayed segments) and seed the new engine with
      it ([Engine.create ~initial]);
    + drive the round's slice of the trace through the engine
      ({!Driver}: closed- or open-loop per phase) with the WAL, periodic
      checkpoints and the supervisor enabled, while {!Conc.Chaos} kills a
      chosen set of shard workers mid-round (the supervisor restarts them)
      and a dedicated reader domain continuously samples the published
      total against the live envelope width;
    + drain, then check the round: the recorded history must satisfy
      {!Ivl.Monotone} (every sampled read inside its envelope), published
      weight must equal the flushed weight (conservation), and the sketch
      must agree with a ground-truth oracle fed the same accepted
      operations — [est(x) + lost ≥ true(x)] unconditionally, and
      [est(x) ≤ true(x) + αn] outside a [δ]-sized allowance, the paper's
      (ε,δ)-bound read end-to-end;
    + between rounds, optionally tear the WAL tail mid-frame (a crash
      during an append) before the next recovery.

    Across recoveries the recovered (epoch, published) must never regress:
    at least the newest durable checkpoint, at most the pre-crash state,
    monotone from round to round. Any violation anywhere flips the verdict
    to FAIL. *)

type config = {
  dir : string;  (** WAL + checkpoint directory (created if missing) *)
  shards : int;
  feeders : int;  (** driver feeder domains per round *)
  rounds : int;  (** engine incarnations; [rounds - 1] crash/recover cycles *)
  batch : int;
  steal : bool;
      (** idle shard workers steal batches from loaded shards
          ({!Pipeline.Engine.Make.create}'s [steal]) *)
  queue_capacity : int;
  checkpoint_every : int;  (** epochs between checkpoints *)
  fsync_every : int;  (** WAL {!Durable.Wal.fsync_policy} [Every_n] *)
  kills_per_round : int;  (** chaos victims per round (≤ shards) *)
  kill_max_point : int;
      (** kill lands within this many worker ticks (a tick is one popped
          batch, so keep this small relative to [ops / shards / batch]) *)
  tear_tail : bool;  (** tear the last WAL frame between rounds *)
  chaos_seed : int64;
  cm_rows : int;  (** CountMin depth: δ = e^(−rows) *)
  cm_width : int;  (** CountMin width: α = e/width *)
  sketch_seed : int64;
  reader_interval : float;  (** seconds between published-total samples *)
  key_sample : int;  (** max keys checked against the oracle per round *)
}

val default_config : dir:string -> config
(** 4 shards, 2 feeders, 4 rounds (3 recoveries), batch 256, no stealing,
    queue capacity 1024, checkpoint every 8 epochs, fsync every 16
    appends, 2 kills/round within 16 ticks, torn tails on, CountMin
    4×2048, reader every 0.5 ms, 4096 sampled keys. *)

type round_report = {
  round : int;
  recovered_epoch : int;  (** 0 in round 0 *)
  recovered_published : int;
  wal_bytes_truncated : int;  (** torn/corrupt tail dropped at recovery *)
  kills : int;  (** chaos kills actually delivered *)
  restarts : int;  (** supervisor restarts observed *)
  end_epoch : int;
  end_published : int;
  accepted : int;
  shed : int;
  monotone_violations : int;  (** {!Ivl.Monotone} violations in the history *)
  reader_regressions : int;  (** published total observed going backwards *)
  conservation_failures : int;  (** published ≠ flushed weight *)
  epoch_regressions : int;  (** recovery outside its envelope *)
  decode_failures : int;
  unexpected_failures : int;  (** engine exceptions that are never expected *)
  oracle_lower_violations : int;  (** est + lost < true — unconditional *)
  oracle_upper_failures : int;  (** est > true + αn — δ-budgeted *)
  oracle_upper_allowance : int;
  checked_keys : int;
  driver : Driver.report;
  merge_lag : float array;  (** seconds, one per merge — freshness *)
  envelope_samples : float array;  (** live envelope width, reader-sampled *)
}

type verdict = {
  pass : bool;
  reasons : string list;  (** why it failed; empty on PASS *)
  rounds : round_report list;
  recoveries : int;
  epsilon : float;  (** e / cm_width *)
  delta : float;  (** e^(−cm_rows) *)
  accepted_total : int;
  final_published : int;
  lost_weight : int;  (** accepted − published: crash + shed losses *)
  wall : float;
}

val run :
  ?progress:(string -> unit) ->
  ?metrics:Obs.Registry.t ->
  config ->
  spec:Trace.spec ->
  ops:Scenario.op array array ->
  unit ->
  verdict
(** Run the soak. Each phase of the trace is split into [rounds] contiguous
    slices, so every round sees every phase's traffic shape. [progress]
    receives one line per round milestone (recover, drive, check).
    [metrics] shares one registry across every round's engine and WAL
    instead of a fresh per-round one: counters accumulate over the whole
    soak and derived gauges rebind to the newest incarnation, so a live
    scrape plane (Obs.Http) mounted on the registry watches the soak
    end to end.
    @raise Invalid_argument on a malformed config (non-positive counts,
    [kills_per_round > shards], [ops] not matching [spec]). *)

val verdict_to_string : verdict -> string
(** The PASS/FAIL block the CLI prints: per-round table, oracle bounds,
    freshness percentiles, failure reasons. *)
