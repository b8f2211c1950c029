(** Crash recovery: newest checkpoint + WAL suffix replay.

    A recovered pipeline is an {e intermediate-value} object in exactly the
    paper's sense: the state that comes back after a crash is some published
    prefix of the pre-crash history — the checkpoint is such a prefix, every
    replayed WAL record was a published merge, and torn-tail truncation only
    removes suffix records. The envelope guarantee, validated by property
    tests over randomized crash points and byte-level torn writes:

    {v recovered published ∈ [checkpoint published, pre-crash published] v}

    No weight is ever invented; at most the unsynced WAL tail is lost (the
    fsync policy bounds that window, {!Wal.fsync_policy}). *)

module Make (M : Pipeline.Mergeable.S) : sig
  type report = {
    checkpoint_epoch : int;  (** 0 when recovering without a checkpoint *)
    checkpoint_published : int;
    checkpoints_skipped : int;  (** corrupt/undecodable snapshots passed over *)
    wal_segments : int;
    replayed : int;  (** WAL records folded into the sketch *)
    skipped : int;  (** WAL records at or below the checkpoint epoch *)
    decode_failures : int;  (** enveloped delta blobs [M.fold] rejected *)
    decode_error : string option;
        (** the first [M.fold] error, or the newest checkpoint's [M.decode]
            error when no frame-valid checkpoint decoded; [None] when every
            blob recovery used decoded *)
    bytes_truncated : int;  (** torn/corrupt WAL tail dropped *)
    truncated_reason : string option;
    other_version : int option;
        (** [Some v] when the WAL was cut at a frame header of wire version
            [v] other than {!Wire.Codec.version} ({!Wal.read_report}), or,
            failing that, a checkpoint passed over is of such a version
            ({!Checkpoint.other_version}) *)
    recovered_epoch : int;
    recovered_published : int;
  }

  val report_to_string : report -> string

  val recover :
    ?metrics:Obs.Registry.t -> dir:string -> unit -> (M.t * report, string) result
  (** Rebuild the global sketch from [dir] (shared by WAL segments and
      checkpoints). Corrupt data degrades — truncated tail, older checkpoint,
      empty sketch — rather than failing; [Error] only for a missing
      directory. Replay streams: WAL records are read one at a time and
      each is validated and folded into one accumulator ({!Pipeline.Mergeable.S.fold}),
      so memory is one sketch plus one record, not the log. The sketch parameters baked into [M] (hash family seeds,
      dimensions) must match the writing pipeline's, exactly as any two
      mergeable deltas must.

      [metrics] exports the report on success ([recovery_replayed_total],
      [recovery_skipped_total], [recovery_decode_failures_total],
      [recovery_checkpoints_skipped_total], [recovery_bytes_truncated_total],
      [recovery_checkpoint_epoch], [recovery_epoch],
      [recovery_published]); a later recovery into the same registry
      replaces the series with its newer report. *)

  val recover_compact :
    ?metrics:Obs.Registry.t ->
    dir:string ->
    unit ->
    (M.t * report, string) result
  (** {!recover}, then make the directory safe for a {e new} writer:
      checkpoint the recovered state (atomic install, keeping
      {!Checkpoint.keep} as {!Checkpoint.write} does) and delete the
      replayed WAL segments. Without this, a torn tail left in an old
      segment would — by the longest-valid-prefix rule — truncate every
      record a later incarnation appends after it. Crash-safe: the
      checkpoint lands before any segment is removed, so an interrupted
      compaction re-recovers to the same state. This is the restart step
      of every soak incarnation ([Net.Soak]).

      [Error], with nothing written or removed, when the report has a
      [decode_error]: a WAL record or every frame-valid checkpoint passed
      its checksum but not [M]'s decode. That is the mark of an [M] built
      with other parameters than the writer's (another seed: a CountMin
      blob carries only its family's fingerprint), and compacting would
      delete the only copy of those records. Likewise when the report
      has an [other_version]: those frames are intact, in a wire version
      this build has no reader for. *)
end
