(* Rebuild the global sketch after a crash: newest decodable checkpoint plus
   a replay of the WAL suffix past its epoch. The result is an intermediate
   value of the pre-crash history by construction — the checkpoint is a
   published prefix, every replayed record was a published merge, and the
   torn tail only ever removes suffix records — which is exactly the IVL
   reading of recovery this module's property tests pin down:

     recovered total ∈ [last checkpoint total, pre-crash published total]

   (no weight is ever invented; at most the unsynced tail is lost). *)

module Make (M : Pipeline.Mergeable.S) = struct
  type report = {
    checkpoint_epoch : int; (* 0 when recovering from an empty state *)
    checkpoint_published : int;
    checkpoints_skipped : int; (* corrupt or undecodable snapshots passed over *)
    wal_segments : int;
    replayed : int; (* WAL records folded into the sketch *)
    skipped : int; (* WAL records at or below the checkpoint epoch *)
    decode_failures : int; (* enveloped delta blobs M.fold rejected *)
    decode_error : string option;
        (* the first M.fold error, or the newest checkpoint's M.decode error
           when no frame-valid checkpoint decoded *)
    bytes_truncated : int; (* torn/corrupt WAL tail dropped *)
    truncated_reason : string option;
    other_version : int option;
        (* a wire version other than Codec.version, met where the WAL was
           cut or in a checkpoint passed over *)
    recovered_epoch : int;
    recovered_published : int;
  }

  let report_to_string r =
    Printf.sprintf
      "checkpoint epoch %d (published %d, %d skipped); wal: %d segment(s), %d \
       replayed, %d skipped, %d delta decode failure(s), %d byte(s) \
       truncated%s; recovered epoch %d, published %d%s%s"
      r.checkpoint_epoch r.checkpoint_published r.checkpoints_skipped
      r.wal_segments r.replayed r.skipped r.decode_failures r.bytes_truncated
      (match r.truncated_reason with
      | Some why -> Printf.sprintf " (%s)" why
      | None -> "")
      r.recovered_epoch r.recovered_published
      (match r.decode_error with
      | Some why -> Printf.sprintf "; first decode error: %s" why
      | None -> "")
      (match r.other_version with
      | Some v -> Printf.sprintf "; holds wire version %d, which is not read" v
      | None -> "")

  (* One-shot export: the report's numbers are scraped as-of this recovery.
     register_fn replaces on re-registration, so a pipeline that recovers
     again simply points the series at the newer report. *)
  let register_metrics reg (r : report) =
    let c name help v = Obs.Registry.counter_fn reg ~help name (fun () -> v) in
    let g name help v =
      Obs.Registry.gauge_fn reg ~help name (fun () -> float_of_int v)
    in
    c "recovery_replayed_total" "WAL records folded in during replay"
      r.replayed;
    c "recovery_skipped_total" "WAL records at or below the checkpoint epoch"
      r.skipped;
    c "recovery_decode_failures_total" "Delta blobs M.fold rejected"
      r.decode_failures;
    c "recovery_checkpoints_skipped_total"
      "Corrupt or undecodable checkpoints passed over" r.checkpoints_skipped;
    c "recovery_bytes_truncated_total" "Torn or corrupt WAL tail bytes dropped"
      r.bytes_truncated;
    g "recovery_checkpoint_epoch" "Epoch of the checkpoint recovered from"
      r.checkpoint_epoch;
    g "recovery_epoch" "Epoch of the recovered state" r.recovered_epoch;
    g "recovery_published" "Published weight of the recovered state"
      r.recovered_published

  let recover ?metrics ~dir () =
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      Error (Printf.sprintf "Durable.recover: no such directory %s" dir)
    else begin
      (* Newest checkpoint whose sketch image still decodes; frame-valid but
         M-undecodable snapshots degrade to the previous one. *)
      let frame_valid, corrupt = Checkpoint.candidates ~dir in
      let decode_error = ref None in
      let note_error what epoch e =
        if !decode_error = None then
          decode_error :=
            Some
              (Printf.sprintf "%s epoch %d: %s" what epoch
                 (Wire.Codec.error_to_string e))
      in
      let rec pick skipped = function
        | [] -> (None, skipped)
        | (c : Checkpoint.snapshot) :: older -> (
            match M.decode c.blob with
            | Ok sketch -> (Some (sketch, c), skipped)
            | Error e ->
                note_error "checkpoint" c.epoch e;
                pick (skipped + 1) older)
      in
      let found, skipped_ckpts = pick corrupt frame_valid in
      let sketch, ckpt_epoch, ckpt_published =
        match found with
        | Some (sketch, c) ->
            (* an older snapshot decoded: the skipped ones degrade, as
               corrupt ones do *)
            decode_error := None;
            (sketch, c.epoch, c.published)
        | None -> (M.create (), 0, 0)
      in
      (* Streamed: one WAL record at a time, each validated and then folded
         into the one accumulator, so replay memory is the sketch plus one
         record whatever the log's length. *)
      let global = ref sketch in
      let published = ref ckpt_published in
      let epoch = ref ckpt_epoch in
      let replayed = ref 0 and skipped = ref 0 and decode_failures = ref 0 in
      let wal =
        Wal.iter ~dir (fun (r : Wal.record) ->
            if r.epoch <= ckpt_epoch then incr skipped
            else
              match M.fold r.blob with
              | Ok apply ->
                  global := apply !global;
                  published := !published + r.weight;
                  epoch := r.epoch;
                  incr replayed
              | Error e ->
                  note_error "WAL record" r.epoch e;
                  incr decode_failures)
      in
      let report =
        {
          checkpoint_epoch = ckpt_epoch;
          checkpoint_published = ckpt_published;
          checkpoints_skipped = skipped_ckpts;
          wal_segments = wal.segments;
          replayed = !replayed;
          skipped = !skipped;
          decode_failures = !decode_failures;
          decode_error = !decode_error;
          bytes_truncated = wal.bytes_truncated;
          truncated_reason = wal.truncated_reason;
          other_version =
            (match wal.other_version with
            | Some _ as v -> v
            | None when corrupt > 0 -> Checkpoint.other_version ~dir
            | None -> None);
          recovered_epoch = !epoch;
          recovered_published = !published;
        }
      in
      (match metrics with
      | Some reg -> register_metrics reg report
      | None -> ());
      Ok (!global, report)
    end

  (* Recovery for a pipeline that will write MORE log into the same dir.
     Plain [recover] leaves the old segments in place, and the
     longest-valid-prefix rule makes that a trap: a torn tail in an old
     segment would truncate every record a new incarnation appends after it.
     Compaction closes the hazard — checkpoint the recovered state
     atomically, then drop all replayed segments — so the next incarnation
     starts from a clean log whose every future record survives its own
     crashes independently of past ones. The checkpoint is installed before
     any segment is removed: a crash between the two steps leaves both the
     snapshot and the (now redundant) segments, which a re-run simply
     recovers and compacts again. *)
  let recover_compact ?metrics ~dir () =
    match recover ?metrics ~dir () with
    | Error _ as e -> e
    | Ok (_, { decode_error = Some why; _ }) ->
        (* A blob that passed its frame checksum but not M's decode is most
           likely M's parameters, not the data (a CountMin blob carries only
           its family's fingerprint): compacting would checkpoint a state
           without those records and delete the only copy of them. *)
        Error
          (Printf.sprintf
             "Durable.recover_compact: %s; the WAL segments in %s are kept \
              (recover with the writer's sketch and hash-family seed)"
             why dir)
    | Ok (_, { other_version = Some v; _ }) ->
        (* Frames of another wire version are intact data this build has no
           reader for, not a torn tail: compacting would delete them. *)
        Error
          (Printf.sprintf
             "Durable.recover_compact: %s holds wire version %d frames and \
              this build reads version %d; its WAL segments and checkpoints \
              are kept"
             dir v Wire.Codec.version)
    | Ok (global, report) ->
        Checkpoint.write ~dir ~epoch:report.recovered_epoch
          ~published:report.recovered_published ~blob:(M.encode global) ();
        ignore (Wal.remove_segments ~dir);
        Ok (global, report)
end
