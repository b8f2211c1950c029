(* Durability tests: WAL append/scan/rotation, the longest-valid-prefix
   crash rule (swept over EVERY byte offset of a final frame), atomic
   checkpoints with corrupt-newest fallback, and the end-to-end recovery
   envelope — a recovered pipeline's published weight must land in
   [checkpoint total, pre-crash published total] for randomized crash
   points, which is the IVL framing of crash recovery. *)

module M = Pipeline.Targets.Counter
module R = Durable.Recovery.Make (M)
module P = Pipeline.Engine.Make (M)

(* ------------------------- scratch dirs & file surgery ------------------- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivl-test-durable-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Unix.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let truncate_file path n = write_file path (Bytes.sub (read_file path) 0 n)

let flip_byte path off =
  let b = read_file path in
  Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0xFF);
  write_file path b

let copy_dir src dst =
  Array.iter
    (fun f ->
      write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

(* The whole log as a list, through the streaming reader. *)
let wal_read dir =
  let records = ref [] in
  let r = Durable.Wal.iter ~dir (fun x -> records := x :: !records) in
  (List.rev !records, r)

let sole_segment dir =
  let segs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
  in
  match segs with
  | [ s ] -> Filename.concat dir s
  | l -> Alcotest.failf "expected one segment, found %d" (List.length l)

(* A counter delta carrying [w] stream items, as the engine would ship it. *)
let delta_blob w =
  let d = M.create () in
  for _ = 1 to w do
    M.update d 1
  done;
  M.encode d

(* The exact frame Wal.append writes — rebuilt here so the torn-tail sweep
   knows the final frame's byte length without groping in the file. *)
let wal_frame ~epoch ~weight ~blob =
  Wire.Codec.encode ~kind:Wire.Codec.wal_record_kind (fun b ->
      Wire.Codec.int_ b epoch;
      Wire.Codec.int_ b weight;
      Wire.Codec.bytes_ b blob)

let weight_of_blob blob =
  match M.decode blob with
  | Ok c -> Sketches.Batched_counter.read c
  | Error e -> Alcotest.failf "blob decode: %s" (Wire.Codec.error_to_string e)

(* ------------------------- WAL ------------------------- *)

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir ~fsync:Durable.Wal.Always () in
  for e = 1 to 50 do
    Durable.Wal.append w ~epoch:e ~weight:e ~blob:(delta_blob e)
  done;
  Alcotest.(check int) "appended" 50 (Durable.Wal.appended w);
  Alcotest.(check int) "no rotation" 0 (Durable.Wal.rotations w);
  Durable.Wal.close w;
  (* close is idempotent; append after close is a caller bug *)
  Durable.Wal.close w;
  Alcotest.check_raises "append after close"
    (Invalid_argument "Wal.append: writer is closed") (fun () ->
      Durable.Wal.append w ~epoch:99 ~weight:0 ~blob:Bytes.empty);
  let records, r = wal_read dir in
  Alcotest.(check int) "records" 50 (List.length records);
  Alcotest.(check int) "one segment" 1 r.Durable.Wal.segments;
  Alcotest.(check int) "nothing truncated" 0 r.Durable.Wal.bytes_truncated;
  Alcotest.(check bool) "clean" true (r.Durable.Wal.truncated_reason = None);
  List.iteri
    (fun i (rec_ : Durable.Wal.record) ->
      let e = i + 1 in
      Alcotest.(check int) (Printf.sprintf "epoch %d" e) e rec_.epoch;
      Alcotest.(check int) (Printf.sprintf "weight %d" e) e rec_.weight;
      Alcotest.(check int)
        (Printf.sprintf "blob %d decodes" e)
        e
        (weight_of_blob rec_.blob))
    records;
  (* The segment holds exactly the records' bytes, field by field through
     Codec's writers, whichever record grew the writer's buffer. *)
  with_dir @@ fun dir ->
  let blobs = [ delta_blob 1; Bytes.make 10_000 'x'; delta_blob 2 ] in
  let w = Durable.Wal.create ~dir ~fsync:Durable.Wal.Never () in
  List.iteri
    (fun i blob -> Durable.Wal.append w ~epoch:i ~weight:(7 * i) ~blob)
    blobs;
  Durable.Wal.close w;
  let reference i blob =
    Wire.Codec.encode ~kind:Wire.Codec.wal_record_kind (fun b ->
        Wire.Codec.int_ b i;
        Wire.Codec.int_ b (7 * i);
        Wire.Codec.bytes_ b blob)
  in
  Alcotest.(check string) "segment bytes"
    (String.concat "" (List.mapi (fun i b -> Bytes.to_string (reference i b)) blobs))
    (In_channel.with_open_bin (sole_segment dir) In_channel.input_all)

let test_wal_epoch_monotonicity_enforced () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  Durable.Wal.append w ~epoch:5 ~weight:1 ~blob:(delta_blob 1);
  Alcotest.check_raises "stale epoch"
    (Invalid_argument "Wal.append: epoch 5 not greater than last 5") (fun () ->
      Durable.Wal.append w ~epoch:5 ~weight:1 ~blob:(delta_blob 1));
  Durable.Wal.close w

(* A blob of a quarter segment: three such records fill a segment and the
   fourth rolls the writer over. The WAL stores blobs opaquely, so filler
   bytes do. *)
let quarter_segment = Bytes.make (Durable.Wal.segment_bytes / 4) 'w'

let test_wal_rotation () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  for e = 1 to 10 do
    Durable.Wal.append w ~epoch:e ~weight:1 ~blob:quarter_segment
  done;
  Durable.Wal.close w;
  Alcotest.(check int) "three records a segment" 3 (Durable.Wal.rotations w);
  let records, r = wal_read dir in
  Alcotest.(check int) "segments on disk" (Durable.Wal.rotations w + 1)
    r.Durable.Wal.segments;
  Alcotest.(check int) "all records across segments" 10
    (List.length records);
  Alcotest.(check bool) "clean" true (r.Durable.Wal.truncated_reason = None)

let test_wal_reopen_starts_fresh_segment () =
  (* A recovering writer never appends into a possibly-torn file. *)
  with_dir @@ fun dir ->
  let w1 = Durable.Wal.create ~dir () in
  for e = 1 to 5 do
    Durable.Wal.append w1 ~epoch:e ~weight:1 ~blob:(delta_blob 1)
  done;
  Durable.Wal.close w1;
  let w2 = Durable.Wal.create ~dir () in
  Alcotest.(check bool) "new segment index" true
    (Durable.Wal.segment_index w2 > Durable.Wal.segment_index w1);
  for e = 6 to 9 do
    Durable.Wal.append w2 ~epoch:e ~weight:1 ~blob:(delta_blob 1)
  done;
  Durable.Wal.close w2;
  let records, r = wal_read dir in
  Alcotest.(check int) "two segments" 2 r.Durable.Wal.segments;
  Alcotest.(check (list int)) "continuous epochs"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (x : Durable.Wal.record) -> x.epoch) records)

let test_wal_missing_dir_is_empty () =
  let records, r = wal_read "/tmp/ivl-definitely-not-there" in
  Alcotest.(check int) "no records" 0 (List.length records);
  Alcotest.(check int) "no segments" 0 r.Durable.Wal.segments

(* The acceptance sweep: truncate the log at EVERY byte offset of the final
   frame. Each cut must yield exactly the first n-1 records (the longest
   valid prefix), report the torn tail, and keep recovery inside the
   envelope. *)
let test_wal_torn_tail_every_offset () =
  let n = 6 in
  let build dir =
    let w = Durable.Wal.create ~dir ~fsync:Durable.Wal.Never () in
    for e = 1 to n do
      Durable.Wal.append w ~epoch:e ~weight:e ~blob:(delta_blob e)
    done;
    Durable.Wal.close w;
    (* Checkpoint at epoch 3 so the sweep also exercises replay-from-ckpt:
       published after epochs 1..3 is 6. *)
    Durable.Checkpoint.write ~dir ~epoch:3 ~published:6 ~blob:(delta_blob 6) ()
  in
  with_dir @@ fun proto ->
  build proto;
  let last_frame =
    wal_frame ~epoch:n ~weight:n ~blob:(delta_blob n)
  in
  let last_len = Bytes.length last_frame in
  let full_len = Bytes.length (read_file (sole_segment proto)) in
  let prefix = full_len - last_len in
  let total = n * (n + 1) / 2 in
  (* Every byte offset of the final frame, 0 (frame entirely gone) through
     last_len - 1 (one byte short). *)
  for cut = 0 to last_len - 1 do
    with_dir @@ fun dir ->
    copy_dir proto dir;
    truncate_file (sole_segment dir) (prefix + cut);
    let records, r = wal_read dir in
    if List.length records <> n - 1 then
      Alcotest.failf "cut %d: %d records, want %d" cut
        (List.length records)
        (n - 1);
    if cut > 0 then begin
      if r.Durable.Wal.truncated_reason = None then
        Alcotest.failf "cut %d: torn tail not reported" cut;
      if r.Durable.Wal.bytes_truncated <> cut then
        Alcotest.failf "cut %d: %d bytes truncated reported" cut
          r.Durable.Wal.bytes_truncated
    end;
    match R.recover ~dir () with
    | Error e -> Alcotest.failf "cut %d: recover failed: %s" cut e
    | Ok (g, rep) ->
        (* Exact: checkpoint(6) + replay of epochs 4..5 = 15. *)
        Alcotest.(check int)
          (Printf.sprintf "cut %d recovered weight" cut)
          15 rep.R.recovered_published;
        Alcotest.(check int)
          (Printf.sprintf "cut %d sketch agrees" cut)
          rep.R.recovered_published
          (Sketches.Batched_counter.read g);
        (* Envelope: checkpoint <= recovered <= pre-crash published. *)
        if rep.R.recovered_published < rep.R.checkpoint_published then
          Alcotest.failf "cut %d: recovered below checkpoint" cut;
        if rep.R.recovered_published > total then
          Alcotest.failf "cut %d: recovered above pre-crash published" cut
  done;
  (* And the uncut log recovers everything. *)
  match R.recover ~dir:proto () with
  | Error e -> Alcotest.failf "full recover failed: %s" e
  | Ok (_, rep) ->
      Alcotest.(check int) "full recovery" total rep.R.recovered_published;
      Alcotest.(check int) "replayed past checkpoint" 3 rep.R.replayed;
      Alcotest.(check int) "skipped up to checkpoint" 3 rep.R.skipped

let test_wal_mid_log_corruption_truncates_rest () =
  (* Bit rot in segment 0 must cut the log there — including dropping the
     entirety of segment 1, because replay order past a hole is untrusted. *)
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  for e = 1 to 6 do
    Durable.Wal.append w ~epoch:e ~weight:1
      ~blob:(if e <= 2 then delta_blob 1 else quarter_segment)
  done;
  Durable.Wal.close w;
  assert (Durable.Wal.rotations w > 0);
  let seg0 =
    Filename.concat dir
      (Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".seg")
      |> List.sort compare |> List.hd)
  in
  (* Corrupt a payload byte of the second frame in segment 0. *)
  let frame_len =
    Bytes.length (wal_frame ~epoch:1 ~weight:1 ~blob:(delta_blob 1))
  in
  flip_byte seg0 (frame_len + Wire.Codec.header_size + 2);
  let records, r = wal_read dir in
  Alcotest.(check int) "only the first record survives" 1
    (List.length records);
  Alcotest.(check bool) "corruption reported" true
    (r.Durable.Wal.truncated_reason <> None);
  Alcotest.(check bool) "later segments counted as truncated" true
    (r.Durable.Wal.bytes_truncated > frame_len)

let test_wal_non_monotone_epoch_truncates () =
  with_dir @@ fun dir ->
  let w1 = Durable.Wal.create ~dir () in
  List.iter
    (fun e -> Durable.Wal.append w1 ~epoch:e ~weight:1 ~blob:(delta_blob 1))
    [ 1; 2; 3 ];
  Durable.Wal.close w1;
  (* A second writer starts from scratch and replays an old epoch — e.g. a
     restart that recovered from a stale checkpoint. The reader must refuse
     the regression. *)
  let w2 = Durable.Wal.create ~dir () in
  Durable.Wal.append w2 ~epoch:2 ~weight:1 ~blob:(delta_blob 1);
  Durable.Wal.close w2;
  let records, r = wal_read dir in
  Alcotest.(check (list int)) "prefix before the regression" [ 1; 2; 3 ]
    (List.map (fun (x : Durable.Wal.record) -> x.epoch) records);
  Alcotest.(check bool) "regression reported" true
    (r.Durable.Wal.truncated_reason <> None)

(* ------------------------- checkpoints ------------------------- *)

let test_checkpoint_roundtrip_and_prune () =
  with_dir @@ fun dir ->
  List.iter
    (fun e ->
      Durable.Checkpoint.write ~dir ~epoch:e ~published:(10 * e)
        ~blob:(delta_blob e) ())
    [ 1; 2; 3 ];
  let snaps, corrupt = Durable.Checkpoint.candidates ~dir in
  Alcotest.(check int) "no corruption" 0 corrupt;
  Alcotest.(check (list int)) "newest first, pruned to keep" [ 3; 2 ]
    (List.map (fun (s : Durable.Checkpoint.snapshot) -> s.epoch) snaps);
  match Durable.Checkpoint.latest ~dir with
  | None -> Alcotest.fail "expected a checkpoint"
  | Some s ->
      Alcotest.(check int) "latest epoch" 3 s.epoch;
      Alcotest.(check int) "latest published" 30 s.published;
      Alcotest.(check int) "blob intact" 3 (weight_of_blob s.blob)

let test_checkpoint_corrupt_newest_falls_back () =
  with_dir @@ fun dir ->
  Durable.Checkpoint.write ~dir ~epoch:1 ~published:10 ~blob:(delta_blob 10) ();
  Durable.Checkpoint.write ~dir ~epoch:2 ~published:20 ~blob:(delta_blob 20) ();
  let newest =
    Filename.concat dir
      (Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
      |> List.sort compare |> List.rev |> List.hd)
  in
  flip_byte newest (Wire.Codec.header_size + 1);
  let snaps, corrupt = Durable.Checkpoint.candidates ~dir in
  Alcotest.(check int) "one corrupt file seen" 1 corrupt;
  Alcotest.(check (list int)) "older survives"
    [ 1 ]
    (List.map (fun (s : Durable.Checkpoint.snapshot) -> s.epoch) snaps);
  (* Recovery degrades to the older checkpoint instead of failing. *)
  match R.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (_, rep) ->
      Alcotest.(check int) "recovered from epoch 1" 1 rep.R.checkpoint_epoch;
      Alcotest.(check int) "its published total" 10 rep.R.checkpoint_published

let test_recovery_skips_undecodable_checkpoint () =
  (* Frame-valid checkpoint whose sketch payload M.decode rejects: recovery
     must walk past it (counting it) to an older good snapshot. *)
  with_dir @@ fun dir ->
  Durable.Checkpoint.write ~dir ~epoch:1 ~published:7 ~blob:(delta_blob 7) ();
  Durable.Checkpoint.write ~dir ~epoch:2 ~published:9
    ~blob:(Bytes.of_string "not a sketch") ();
  match R.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (g, rep) ->
      Alcotest.(check int) "skipped the bad one" 1 rep.R.checkpoints_skipped;
      Alcotest.(check int) "used epoch 1" 1 rep.R.checkpoint_epoch;
      Alcotest.(check int) "weight" 7 (Sketches.Batched_counter.read g)

let test_recovery_empty_dir_is_empty_sketch () =
  with_dir @@ fun dir ->
  match R.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (g, rep) ->
      Alcotest.(check int) "zero weight" 0 (Sketches.Batched_counter.read g);
      Alcotest.(check int) "epoch 0" 0 rep.R.recovered_epoch;
      Alcotest.(check int) "nothing replayed" 0 rep.R.replayed

let test_recovery_missing_dir_is_error () =
  match R.recover ~dir:"/tmp/ivl-definitely-not-there" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing directory"

(* ------------------------- end-to-end envelope ------------------------- *)

let test_engine_recovery_envelope_random_crashes () =
  (* Run the real pipeline with WAL + checkpoints, then simulate crashes by
     truncating the log at random byte offsets. Every recovery must land in
     the IVL envelope [checkpoint published, pre-crash published] — the
     durable analogue of the paper's intermediate-value guarantee. *)
  with_dir @@ fun proto ->
  let wal = Durable.Wal.create ~dir:proto ~fsync:Durable.Wal.Never () in
  (* Every 8th epoch also checkpoints from the merge hook, where the
     snapshot is exactly that epoch's state. *)
  let engine = ref None and merged = ref 0 and mismatched = ref 0 in
  let p =
    P.create ~queue_capacity:256 ~batch:64
      ~on_merge:(fun ~ctx:_ ~epoch ~weight ~blob ->
        Durable.Wal.append wal ~epoch ~weight ~blob;
        merged := !merged + weight;
        match !engine with
        | Some p when epoch mod 8 = 0 ->
            let blob, at, published = P.snapshot p in
            if at <> epoch || published <> !merged then incr mismatched;
            Durable.Checkpoint.write ~dir:proto ~epoch:at ~published ~blob ()
        | _ -> ())
      ~shards:2 ()
  in
  engine := Some p;
  let n = 20_000 in
  let stream =
    Workload.Stream.generate ~seed:51L (Workload.Stream.Uniform 3000) ~length:n
  in
  let chunks = Workload.Stream.chunks stream ~pieces:2 in
  ignore
    (Conc.Runner.parallel ~domains:2 (fun i ->
         Array.iter (fun x -> ignore (P.ingest p x)) chunks.(i)));
  P.drain p;
  Durable.Wal.close wal;
  let published = (P.stats p).P.published in
  Alcotest.(check int) "clean run published everything" n published;
  Alcotest.(check int) "each snapshot is its merge's state" 0 !mismatched;
  (match Durable.Checkpoint.latest ~dir:proto with
  | None -> Alcotest.fail "no checkpoint written"
  | Some c ->
      Alcotest.(check int) "checkpointed on an 8th epoch" 0 (c.epoch mod 8));
  let seg = sole_segment proto in
  let size = Bytes.length (read_file seg) in
  (* Full recovery first: must reproduce the pre-crash state exactly. *)
  (match R.recover ~dir:proto () with
  | Error e -> Alcotest.failf "full recover: %s" e
  | Ok (g, rep) ->
      Alcotest.(check int) "full recovery equals published" published
        rep.R.recovered_published;
      Alcotest.(check int) "sketch agrees" published
        (Sketches.Batched_counter.read g));
  let rng = Rng.Splitmix.create 91L in
  for trial = 1 to 25 do
    let cut = int_of_float (Rng.Splitmix.next_float rng *. float_of_int size) in
    with_dir @@ fun dir ->
    copy_dir proto dir;
    truncate_file (sole_segment dir) cut;
    match R.recover ~dir () with
    | Error e -> Alcotest.failf "trial %d (cut %d): recover failed: %s" trial cut e
    | Ok (g, rep) ->
        let v = rep.R.recovered_published in
        if v < rep.R.checkpoint_published then
          Alcotest.failf "trial %d (cut %d): %d below checkpoint %d" trial cut v
            rep.R.checkpoint_published;
        if v > published then
          Alcotest.failf "trial %d (cut %d): %d above pre-crash %d" trial cut v
            published;
        Alcotest.(check int)
          (Printf.sprintf "trial %d sketch agrees" trial)
          v
          (Sketches.Batched_counter.read g);
        (* Restartability: a writer opened on the recovered dir appends past
           the recovered epoch without tripping the monotonicity rule. *)
        let w = Durable.Wal.create ~dir () in
        Durable.Wal.append w ~epoch:(rep.R.recovered_epoch + 1) ~weight:1
          ~blob:(delta_blob 1);
        Durable.Wal.close w
  done

(* ------------------ directory validation (CLI exit-2 surface) ---------- *)

let test_validate_dir () =
  (* Reader mode: a missing directory is an error, not an empty log. *)
  (match Durable.Wal.validate_dir ~dir:"/tmp/ivl-definitely-not-there" () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing dir accepted");
  with_dir @@ fun dir ->
  (* A plain file where the directory should be. *)
  let f = Filename.concat dir "plain" in
  write_file f (Bytes.of_string "x");
  (match Durable.Wal.validate_dir ~dir:f () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "plain file accepted as directory");
  (* A real directory passes in both modes. *)
  (match Durable.Wal.validate_dir ~dir () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good dir rejected: %s" e);
  (match Durable.Wal.validate_dir ~must_exist:false ~dir () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "good dir rejected as writer: %s" e);
  (* Writer mode: a creatable path (parent exists) passes, a path whose
     parent is a plain file does not. *)
  (match Durable.Wal.validate_dir ~must_exist:false ~dir:(Filename.concat dir "fresh") () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "creatable dir rejected: %s" e);
  match Durable.Wal.validate_dir ~must_exist:false ~dir:(Filename.concat f "sub") () with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "path under a plain file accepted"

let test_recover_compact () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir ~fsync:Durable.Wal.Never () in
  for e = 1 to 10 do
    Durable.Wal.append w ~epoch:e ~weight:e ~blob:(delta_blob e)
  done;
  Durable.Wal.close w;
  (match R.recover_compact ~dir () with
  | Error e -> Alcotest.failf "recover_compact: %s" e
  | Ok (g, rep) ->
      Alcotest.(check int) "recovered weight" 55 rep.R.recovered_published;
      Alcotest.(check int) "sketch agrees" 55 (Sketches.Batched_counter.read g));
  (* The replayed segments are gone; the state now lives in a checkpoint. *)
  let segs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seg")
  in
  Alcotest.(check int) "segments compacted away" 0 (List.length segs);
  (match Durable.Checkpoint.latest ~dir with
  | None -> Alcotest.fail "no checkpoint after compaction"
  | Some s ->
      Alcotest.(check int) "checkpoint epoch" 10 s.Durable.Checkpoint.epoch;
      Alcotest.(check int) "checkpoint published" 55 s.Durable.Checkpoint.published);
  (* Recovering again (checkpoint only) reproduces the same state: the
     compaction is crash-safe because the checkpoint lands before the
     delete. *)
  match R.recover ~dir () with
  | Error e -> Alcotest.failf "second recover: %s" e
  | Ok (_, rep) ->
      Alcotest.(check int) "idempotent" 55 rep.R.recovered_published;
      Alcotest.(check int) "nothing left to replay" 0 rep.R.replayed

(* ------------------ fault window: crash, recover, restart --------------- *)

(* The S-level sweep: crash during the final WAL append at EVERY byte
   offset, recover (longest valid prefix + replay), then bring up a
   supervised engine seeded with the recovered state, kill one of its
   workers mid-run and let the supervisor restart it. The end state must
   stay inside the envelope: published = recovered + flushed (conservation),
   bounded above by recovered + accepted, and the recorded history passes
   the monotone check. *)
let test_fault_window_restart_in_envelope () =
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let n = 5 in
  with_dir @@ fun proto ->
  (let w = Durable.Wal.create ~dir:proto ~fsync:Durable.Wal.Never () in
   for e = 1 to n do
     Durable.Wal.append w ~epoch:e ~weight:e ~blob:(delta_blob e)
   done;
   Durable.Wal.close w);
  (* Checkpoint at epoch 2 so every cut also exercises replay-from-ckpt. *)
  Durable.Checkpoint.write ~dir:proto ~epoch:2 ~published:3 ~blob:(delta_blob 3) ();
  let last_len = Bytes.length (wal_frame ~epoch:n ~weight:n ~blob:(delta_blob n)) in
  let prefix = Bytes.length (read_file (sole_segment proto)) - last_len in
  let pre_crash = n * (n + 1) / 2 in
  for cut = 0 to last_len - 1 do
    with_dir @@ fun dir ->
    copy_dir proto dir;
    truncate_file (sole_segment dir) (prefix + cut);
    match R.recover_compact ~dir () with
    | Error e -> Alcotest.failf "cut %d: recover: %s" cut e
    | Ok (g, rep) ->
        let rec_pub = rep.R.recovered_published in
        (* Longest valid prefix: exactly epochs 1..n-1 survive any cut. *)
        Alcotest.(check int)
          (Printf.sprintf "cut %d longest valid prefix" cut)
          (pre_crash - n) rec_pub;
        if rec_pub < rep.R.checkpoint_published then
          Alcotest.failf "cut %d: recovered below checkpoint" cut;
        if rec_pub > pre_crash then
          Alcotest.failf "cut %d: recovered above pre-crash published" cut;
        (* Supervised restart on the recovered state. *)
        let chaos =
          Conc.Chaos.instantiate
            (Conc.Chaos.plan ~yield_prob:0.0 ~stall_prob:0.0
               ~kills:[ (0, 3) ]
               ~seed:(Int64.of_int cut) ())
            ~domains:2
        in
        let p =
          P.create ~shards:2 ~batch:8 ~queue_capacity:64
            ~on_tick:(fun ~shard -> Conc.Chaos.point_once chaos ~domain:shard)
            ~supervised:true ~history:true
            ~initial:(g, rep.R.recovered_epoch, rec_pub)
            ()
        in
        let accepted = ref 0 in
        for _ = 1 to 64 do
          if P.ingest p 1 then incr accepted
        done;
        P.drain p;
        let st = P.stats p in
        let flushed =
          Array.fold_left
            (fun a (s : P.shard_stats) -> a + s.flushed_items)
            0 st.P.shards
        in
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: kill delivered" cut)
          true
          (List.length (Conc.Chaos.killed chaos) = 1);
        Alcotest.(check int)
          (Printf.sprintf "cut %d: conservation" cut)
          (rec_pub + flushed) st.P.published;
        if st.P.published > rec_pub + !accepted then
          Alcotest.failf "cut %d: published above recovered + accepted" cut;
        Alcotest.(check int)
          (Printf.sprintf "cut %d: monotone envelope" cut)
          0
          (List.length (Mono.violations (P.history p)))
  done

(* ------------------------- countmin replay ------------------------- *)

module Cm = Pipeline.Targets.Countmin (struct
  let seed = 31L
  let rows = 4
  let width = 2048
end)

module RC = Durable.Recovery.Make (Cm)

let cm_family = Sketches.Countmin.family (Cm.create ())

let cm_of keys =
  let d = Cm.create () in
  List.iter (Cm.update d) keys;
  d

(* Recovery validates a record whole before it folds a cell: a delta whose
   last row is bad (checksum intact) is one decode failure, and the state
   is bit-identical to a replay without that record. *)
let test_recovery_fold_all_or_nothing () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  Durable.Wal.append w ~epoch:1 ~weight:3 ~blob:(Cm.encode (cm_of [ 1; 2; 3 ]));
  Durable.Wal.append w ~epoch:2 ~weight:1
    ~blob:(Test_helpers.countmin_bad_last_row ~family:cm_family);
  Durable.Wal.append w ~epoch:3 ~weight:2 ~blob:(Cm.encode (cm_of [ 4; 5 ]));
  Durable.Wal.close w;
  match RC.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (g, r) ->
      Alcotest.(check int) "one decode failure" 1 r.RC.decode_failures;
      Alcotest.(check int) "two replayed" 2 r.RC.replayed;
      Alcotest.(check int) "published skips the bad record" 5
        r.RC.recovered_published;
      Alcotest.(check bytes) "state as if the record were absent"
        (Cm.encode (cm_of [ 1; 2; 3; 4; 5 ]))
        (Cm.encode g)

module RC_other = Durable.Recovery.Make (Pipeline.Targets.Countmin (struct
  let seed = 32L
  let rows = 4
  let width = 2048
end))

let segment_count dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.length

(* Compacting under another seed would checkpoint an empty state and delete
   the only copy of the records. recover_compact refuses instead, writes
   nothing, and the writer's seed still recovers everything. *)
let test_recover_compact_other_seed_keeps_log () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  for e = 1 to 4 do
    Durable.Wal.append w ~epoch:e ~weight:2
      ~blob:(Cm.encode (cm_of [ e; e + 10 ]))
  done;
  Durable.Wal.close w;
  let refuse what =
    match RC_other.recover_compact ~dir () with
    | Ok _ -> Alcotest.failf "%s: compacted under another seed" what
    | Error e ->
        Alcotest.(check bool)
          (what ^ ": the error names the fingerprint") true
          (Test_helpers.contains e "fingerprint")
  in
  refuse "WAL only";
  Alcotest.(check int) "segments kept" 1 (segment_count dir);
  Alcotest.(check bool) "no checkpoint written" true
    (Durable.Checkpoint.latest ~dir = None);
  (match RC.recover_compact ~dir () with
  | Error e -> Alcotest.failf "writer's seed: %s" e
  | Ok (_, r) ->
      Alcotest.(check int) "everything recovered" 8 r.RC.recovered_published;
      Alcotest.(check bool) "no decode error" true (r.RC.decode_error = None));
  (* Now the state lives only in a checkpoint: refusing keeps it too. *)
  refuse "checkpoint only";
  match RC.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (_, r) ->
      Alcotest.(check int) "checkpoint kept" 8 r.RC.recovered_published;
      Alcotest.(check int) "recovered from it" 4 r.RC.checkpoint_epoch

(* Rewrite every frame of a segment file as an older format version wrote
   it: the same payload, that version's byte and checksum. *)
let set_segment_version path v =
  let b = read_file path in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Test_helpers.reframe_old ~v b ~off:!off
  done;
  write_file path b

(* No reader of an older version exists: an old segment is where the log
   ends, reported as such, and nothing of it is replayed. *)
let check_old_segment_truncated v =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  for e = 1 to 3 do
    Durable.Wal.append w ~epoch:e ~weight:1 ~blob:(Cm.encode (cm_of [ e ]))
  done;
  Durable.Wal.close w;
  let seg = sole_segment dir in
  let size = Bytes.length (read_file seg) in
  set_segment_version seg v;
  match RC.recover ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (g, r) ->
      Alcotest.(check int) "nothing replayed" 0 r.RC.replayed;
      Alcotest.(check int) "nothing published" 0 r.RC.recovered_published;
      Alcotest.(check int) "the whole segment truncated" size r.RC.bytes_truncated;
      Alcotest.(check bool) "reason names the version" true
        (match r.RC.truncated_reason with
        | Some why ->
            Test_helpers.contains why (Printf.sprintf "unsupported version %d" v)
        | None -> false);
      Alcotest.(check int) "empty sketch" 0 (Sketches.Countmin.updates g);
      Alcotest.(check (option int)) "the version is reported" (Some v)
        r.RC.other_version

let test_recovery_v1_segment () = check_old_segment_truncated 1

(* Version 2 framed the same payloads under a byte-serial checksum. *)
let test_recovery_v2_segment () = check_old_segment_truncated 2

(* An older version's frames are intact data without a reader, not a torn
   tail: compaction refuses, and the segment, byte for byte, and the
   checkpoints stay. A newer server started on an older directory keeps
   that log for a reader of its version. *)
let test_recover_compact_keeps_v2_segment () =
  with_dir @@ fun dir ->
  let w = Durable.Wal.create ~dir () in
  for e = 1 to 3 do
    Durable.Wal.append w ~epoch:e ~weight:1 ~blob:(Cm.encode (cm_of [ e ]))
  done;
  Durable.Wal.close w;
  let seg = sole_segment dir in
  set_segment_version seg 2;
  let before = read_file seg in
  (match RC.recover_compact ~dir () with
  | Ok _ -> Alcotest.fail "compacted a version-2 log"
  | Error e ->
      Alcotest.(check bool) ("the error names the version: " ^ e) true
        (Test_helpers.contains e "wire version 2"));
  Alcotest.(check int) "segment kept" 1 (segment_count dir);
  Alcotest.(check bool) "byte for byte" true (Bytes.equal before (read_file seg));
  Alcotest.(check bool) "no checkpoint written" true
    (Durable.Checkpoint.latest ~dir = None)

(* The same for a directory whose state lives only in a version-2
   checkpoint: it is passed over, reported, and not pruned. *)
let test_recover_compact_keeps_v2_checkpoint () =
  with_dir @@ fun dir ->
  Durable.Checkpoint.write ~dir ~epoch:4 ~published:8
    ~blob:(Cm.encode (cm_of [ 1; 2 ])) ();
  let path =
    match Sys.readdir dir with
    | [| name |] -> Filename.concat dir name
    | names -> Alcotest.failf "expected one checkpoint, found %d files" (Array.length names)
  in
  let b = read_file path in
  ignore (Test_helpers.reframe_old ~v:2 b ~off:0);
  write_file path b;
  Alcotest.(check (option int)) "other_version" (Some 2)
    (Durable.Checkpoint.other_version ~dir);
  (match RC.recover_compact ~dir () with
  | Ok _ -> Alcotest.fail "compacted over a version-2 checkpoint"
  | Error e ->
      Alcotest.(check bool) ("the error names the version: " ^ e) true
        (Test_helpers.contains e "wire version 2"));
  Alcotest.(check bool) "the checkpoint stays, byte for byte" true
    (Bytes.equal b (read_file path));
  Alcotest.(check (list string)) "and nothing else is written" [ Filename.basename path ]
    (Array.to_list (Sys.readdir dir))

(* Replay streams and folds in place: the major heap grows by about one
   sketch however long the log is. Holding the log, or a decoded sketch per
   record, would grow it with the record count. *)
let test_recovery_streams_in_constant_memory () =
  let sketch_words = 4 * (2048 + 1) in
  List.iter
    (fun records ->
      with_dir @@ fun dir ->
      let w = Durable.Wal.create ~fsync:Durable.Wal.Never ~dir () in
      for e = 1 to records do
        Durable.Wal.append w ~epoch:e ~weight:16
          ~blob:(Cm.encode (cm_of (List.init 16 (fun j -> (e * 16) + j))))
      done;
      Durable.Wal.close w;
      (* settle the writer's garbage so its allocation counts are not
         charged to the replay *)
      Gc.full_major ();
      let before = (Gc.quick_stat ()).Gc.major_words in
      let r = RC.recover ~dir () in
      let major = (Gc.quick_stat ()).Gc.major_words -. before in
      (match r with
      | Ok (_, r) ->
          Alcotest.(check int) "every record replayed" records r.RC.replayed;
          Alcotest.(check int) "published" (16 * records) r.RC.recovered_published
      | Error e -> Alcotest.failf "recover: %s" e);
      if major > float_of_int (3 * sketch_words) then
        Alcotest.failf "%d records: %.0f major words, over 3 sketches (%d)"
          records major (3 * sketch_words))
    [ 1000; 4000 ]

let () =
  Alcotest.run "durable"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "epoch monotonicity enforced" `Quick
            test_wal_epoch_monotonicity_enforced;
          Alcotest.test_case "segment rotation" `Quick test_wal_rotation;
          Alcotest.test_case "reopen starts a fresh segment" `Quick
            test_wal_reopen_starts_fresh_segment;
          Alcotest.test_case "missing dir reads empty" `Quick
            test_wal_missing_dir_is_empty;
          Alcotest.test_case "torn tail at every byte offset" `Quick
            test_wal_torn_tail_every_offset;
          Alcotest.test_case "mid-log corruption truncates the rest" `Quick
            test_wal_mid_log_corruption_truncates_rest;
          Alcotest.test_case "non-monotone epoch truncates" `Quick
            test_wal_non_monotone_epoch_truncates;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip and prune" `Quick
            test_checkpoint_roundtrip_and_prune;
          Alcotest.test_case "corrupt newest falls back" `Quick
            test_checkpoint_corrupt_newest_falls_back;
          Alcotest.test_case "undecodable checkpoint skipped" `Quick
            test_recovery_skips_undecodable_checkpoint;
          Alcotest.test_case "empty dir recovers empty sketch" `Quick
            test_recovery_empty_dir_is_empty_sketch;
          Alcotest.test_case "missing dir is an error" `Quick
            test_recovery_missing_dir_is_error;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "envelope under random crash points" `Quick
            test_engine_recovery_envelope_random_crashes;
          Alcotest.test_case "validate_dir (CLI exit-2 surface)" `Quick
            test_validate_dir;
          Alcotest.test_case "recover_compact checkpoints then clears" `Quick
            test_recover_compact;
          Alcotest.test_case "foreign seed: compact keeps the log" `Quick
            test_recover_compact_other_seed_keeps_log;
          Alcotest.test_case "fault window: crash at every append offset, \
                              supervised restart in envelope"
            `Quick test_fault_window_restart_in_envelope;
          Alcotest.test_case "countmin fold is all or nothing" `Quick
            test_recovery_fold_all_or_nothing;
          Alcotest.test_case "v1 segment is truncated, nothing replayed" `Quick
            test_recovery_v1_segment;
          Alcotest.test_case "countmin replay streams in constant memory" `Quick
            test_recovery_streams_in_constant_memory;
          Alcotest.test_case "v2 segment is truncated, nothing replayed" `Quick
            test_recovery_v2_segment;
          Alcotest.test_case "recover_compact keeps a v2 segment" `Quick
            test_recover_compact_keeps_v2_segment;
          Alcotest.test_case "recover_compact keeps a v2 checkpoint" `Quick
            test_recover_compact_keeps_v2_checkpoint;
        ] );
    ]
