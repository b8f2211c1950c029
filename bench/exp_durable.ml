(* E9: what durability costs, and what recovery costs.

   Two dials from docs/RECOVERY.md measured on this host:

   - WAL overhead: pipeline ingestion throughput with the write-ahead log
     off, then on under each fsync policy, then with checkpoints layered on
     top. The append happens in the merger's domain outside the query mutex,
     so the expected cost is one buffered write per merge — until the fsync
     policy starts charging a disk flush.

   - Recovery time vs log length: recover-from-scratch wall time as the
     number of WAL records past the checkpoint grows. Replay is linear in
     suffix length; checkpoint cadence is exactly the knob that bounds it. *)

let total_updates = 100_000
let reps = 3
let shards = 4
let feeders = 4
let batch = 512

let seeded_stream () =
  Workload.Stream.generate ~seed:11L
    (Workload.Stream.Zipf (50_000, 1.1))
    ~length:total_updates

module M = Pipeline.Targets.Counter
module P = Pipeline.Engine.Make (M)
module R = Durable.Recovery.Make (M)

let tmp_counter = ref 0

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivl-bench-durable-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

(* One full ingestion run; [wal] configures durability, [checkpoint_every]
   only matters when a wal is given. Checkpoints are written from the merge
   hook: the merger waits for it, so [P.snapshot] there is exactly that
   epoch's state. Returns elapsed seconds. *)
let run_once ?wal ?(checkpoint_every = 0) stream =
  let writer =
    Option.map (fun (dir, fsync) -> (dir, Durable.Wal.create ~dir ~fsync ())) wal
  in
  let engine = ref None in
  let on_merge =
    Option.map
      (fun (dir, w) ~ctx:_ ~epoch ~weight ~blob ->
        Durable.Wal.append w ~epoch ~weight ~blob;
        match !engine with
        | Some p when checkpoint_every > 0 && epoch mod checkpoint_every = 0 ->
            let blob, epoch, published = P.snapshot p in
            Durable.Checkpoint.write ~dir ~epoch ~published ~blob ()
        | _ -> ())
      writer
  in
  let p = P.create ~queue_capacity:4096 ~batch ?on_merge ~shards () in
  engine := Some p;
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let (), dt =
    Conc.Runner.timed (fun () ->
        ignore
          (Conc.Runner.parallel ~domains:feeders (fun i ->
               Array.iter (fun x -> ignore (P.ingest p x)) chunks.(i)));
        P.drain p)
  in
  Option.iter (fun (_, w) -> Durable.Wal.close w) writer;
  dt

let rate dt = float_of_int total_updates /. dt /. 1e6

let measure_config ~name ~params f =
  let rates = List.init reps (fun _ -> rate (f ())) in
  Bench_util.record_samples ~exp:"durable" ~name
    ~params:
      (params
      @ [
          ("feeders", Bench_util.json_int feeders);
          ("shards", Bench_util.json_int shards);
          ("total_updates", Bench_util.json_int total_updates);
        ])
    rates;
  List.fold_left ( +. ) 0.0 rates /. float_of_int reps

(* Build a WAL of [n] single-update counter records and time recovery. *)
let recovery_time ~records dir =
  let w = Durable.Wal.create ~dir ~fsync:Durable.Wal.Never () in
  let delta =
    let d = M.create () in
    M.update d 1;
    M.encode d
  in
  for epoch = 1 to records do
    Durable.Wal.append w ~epoch ~weight:1 ~blob:delta
  done;
  Durable.Wal.close w;
  let t0 = Unix.gettimeofday () in
  (match R.recover ~dir () with
  | Ok (_, r) -> assert (r.R.replayed = records)
  | Error e -> failwith e);
  Unix.gettimeofday () -. t0

let run () =
  Bench_util.section "E9: durability cost (WAL + checkpoints) and recovery time";
  Printf.printf
    "(counter pipeline, %d shards + 1 merger, batch %d, %d feeders; mean of %d \
     reps)\n"
    shards batch feeders reps;
  let stream = seeded_stream () in
  let configs =
    [
      ("wal off", "off", None, 0);
      ("wal fsync=never", "never", Some Durable.Wal.Never, 0);
      ("wal fsync=every-64", "every-64", Some (Durable.Wal.Every_n 64), 0);
      ("wal fsync=always", "always", Some Durable.Wal.Always, 0);
      ( "wal every-64 + ckpt/32",
        "every-64+ckpt",
        Some (Durable.Wal.Every_n 64),
        32 );
    ]
  in
  let rows =
    List.map
      (fun (label, tag, fsync, ckpt) ->
        let mean =
          measure_config ~name:("ingest-" ^ tag)
            ~params:
              [
                ( "fsync",
                  Bench_util.json_string
                    (match fsync with
                    | None -> "off"
                    | Some p -> Durable.Wal.policy_to_string p) );
                ("checkpoint_every", Bench_util.json_int ckpt);
              ]
            (fun () ->
              match fsync with
              | None -> run_once stream
              | Some policy ->
                  with_tmp_dir (fun dir ->
                      run_once ~wal:(dir, policy) ~checkpoint_every:ckpt
                        stream))
        in
        [ label; Bench_util.fmt_float ~digits:2 mean ])
      configs
  in
  Bench_util.table ~header:[ "config"; "Mops/s" ] rows;

  Bench_util.subsection "recovery wall time vs WAL suffix length";
  let rows =
    List.map
      (fun records ->
        let secs =
          List.init reps (fun _ -> with_tmp_dir (recovery_time ~records))
        in
        Bench_util.record_samples ~exp:"durable" ~name:"recovery-time"
          ~params:[ ("records", Bench_util.json_int records) ]
          ~unit_:"s" secs;
        let mean = List.fold_left ( +. ) 0.0 secs /. float_of_int reps in
        [
          string_of_int records;
          Bench_util.fmt_float ~digits:4 mean;
          Bench_util.fmt_float ~digits:2
            (float_of_int records /. mean /. 1e6);
        ])
      [ 1_000; 10_000; 50_000 ]
  in
  Bench_util.table ~header:[ "wal records"; "recover s"; "Mrec/s" ] rows
