(* E8: sharded-pipeline ingestion throughput against the shared-state
   concurrent sketches.

   The pipeline buys wait-free shard-local updates (each worker owns its
   delta) at the price of a queue hop per item and a wire encode/decode per
   batch; the shared-state designs (PCM's atomic cells, the striped KMV)
   pay per-update synchronization on shared cache lines instead. The table
   makes the regime visible on this host: where the queue hop is cheaper
   than contention, the pipeline wins; where it is not, it loses — either
   way the published state stays IVL (the CLI's `soak` engine sink
   checks the envelope on every run; here we only time). *)

let total_updates = 100_000
let reps = 3
let shards = 4

let seeded_stream () =
  Workload.Stream.generate ~seed:11L
    (Workload.Stream.Zipf (50_000, 1.1))
    ~length:total_updates

(* --- CountMin: pipeline vs PCM vs global lock --- *)

module Cm =
  Pipeline.Targets.Countmin
    (struct
      let seed = 5L
      let rows = 4
      let width = 1024
    end)

module Pcm_pipe = Pipeline.Engine.Make (Cm)

let pipeline_cm_time ~feeders stream =
  let p = Pcm_pipe.create ~queue_capacity:4096 ~batch:2048 ~shards () in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let (), dt =
    Conc.Runner.timed (fun () ->
        ignore
          (Conc.Runner.parallel ~domains:feeders (fun i ->
               Array.iter (fun x -> ignore (Pcm_pipe.ingest p x)) chunks.(i)));
        Pcm_pipe.drain p)
  in
  dt

let pcm_time ~feeders stream =
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let pcm = Conc.Pcm.create ~family in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let _, dt =
    Conc.Runner.parallel_timed ~domains:feeders (fun i b ->
        Conc.Barrier.await b;
        Array.iter (Conc.Pcm.update pcm) chunks.(i))
  in
  dt

let locked_cm_time ~feeders stream =
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let cm = Conc.Locked_countmin.create ~family in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let _, dt =
    Conc.Runner.parallel_timed ~domains:feeders (fun i b ->
        Conc.Barrier.await b;
        Array.iter (Conc.Locked_countmin.update cm) chunks.(i))
  in
  dt

(* --- KMV: pipeline vs striped --- *)

module Km =
  Pipeline.Targets.Kmv
    (struct
      let seed = 5L
      let k = 256
    end)

module Kmv_pipe = Pipeline.Engine.Make (Km)

let pipeline_kmv_time ~feeders stream =
  let p = Kmv_pipe.create ~queue_capacity:4096 ~batch:2048 ~shards () in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let (), dt =
    Conc.Runner.timed (fun () ->
        ignore
          (Conc.Runner.parallel ~domains:feeders (fun i ->
               Array.iter (fun x -> ignore (Kmv_pipe.ingest p x)) chunks.(i)));
        Kmv_pipe.drain p)
  in
  dt

let striped_kmv_time ~feeders stream =
  let t = Conc.Striped_kmv.create ~seed:5L ~domains:feeders () in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let _, dt =
    Conc.Runner.parallel_timed ~domains:feeders (fun i b ->
        Conc.Barrier.await b;
        Array.iter (Conc.Striped_kmv.update t ~domain:i) chunks.(i))
  in
  dt

let rate dt = float_of_int total_updates /. dt /. 1e6

(* Run [f] [reps] times, register the per-rep rates under [name], return
   the mean rate. *)
let measure ~name ~feeders f =
  let rates = List.init reps (fun _ -> rate (f ())) in
  Bench_util.record_samples ~exp:"pipeline" ~name
    ~params:
      [
        ("feeders", Bench_util.json_int feeders);
        ("shards", Bench_util.json_int shards);
        ("total_updates", Bench_util.json_int total_updates);
      ]
    rates;
  List.fold_left ( +. ) 0.0 rates /. float_of_int reps

let run () =
  Bench_util.section
    "E8: sharded pipeline ingestion (Mops/s) vs shared-state sketches";
  Printf.printf "(pipeline: %d shards + 1 merger, batch 2048; mean of %d reps)\n"
    shards reps;
  let stream = seeded_stream () in
  let rows =
    List.map
      (fun feeders ->
        let pipe = measure ~name:"countmin-pipeline" ~feeders (fun () ->
            pipeline_cm_time ~feeders stream) in
        let pcm = measure ~name:"countmin-pcm" ~feeders (fun () ->
            pcm_time ~feeders stream) in
        let locked = measure ~name:"countmin-locked" ~feeders (fun () ->
            locked_cm_time ~feeders stream) in
        [
          string_of_int feeders;
          Bench_util.fmt_float ~digits:2 pipe;
          Bench_util.fmt_float ~digits:2 pcm;
          Bench_util.fmt_float ~digits:2 locked;
        ])
      [ 1; 2; 4 ]
  in
  Bench_util.table
    ~header:
      [ "feeders"; "pipeline CM"; "PCM (atomics)"; "locked CM" ]
    rows;

  Bench_util.subsection "KMV distinct-count (4 feeders, Mops/s)";
  let feeders = 4 in
  let pipe = measure ~name:"kmv-pipeline" ~feeders (fun () ->
      pipeline_kmv_time ~feeders stream) in
  let striped = measure ~name:"kmv-striped" ~feeders (fun () ->
      striped_kmv_time ~feeders stream) in
  Bench_util.table
    ~header:[ "pipeline KMV"; "striped KMV" ]
    [
      [ Bench_util.fmt_float ~digits:2 pipe;
        Bench_util.fmt_float ~digits:2 striped ];
    ]
