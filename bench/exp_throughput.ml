(* E6 + E7: ingestion throughput of the IVL implementations against their
   linearizable baselines, across writer counts.

   Note on hosts with few cores: domains beyond the core count timeslice, so
   the columns then measure per-operation synchronization cost rather than
   parallel scaling; the step-complexity tables (E1/E2) carry the
   model-level claim either way. The expected shape on a multicore host is:
   PCM and the IVL counter scale with writers; the lock-based baselines
   flatten or degrade; FAA sits between (single contended cache line). *)

let total_cm_updates = 400_000
let total_counter_updates = 2_000_000

let time_parallel ~domains f =
  let _, dt = Conc.Runner.parallel_timed ~domains (fun i b ->
      Conc.Barrier.await b;
      f i)
  in
  dt

(* --- CountMin ingestion (E6) --- *)

let pcm_throughput ~writers stream =
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let pcm = Conc.Pcm.create ~family in
  let chunks = Workload.Stream.chunks stream ~pieces:writers in
  time_parallel ~domains:writers (fun i -> Array.iter (Conc.Pcm.update pcm) chunks.(i))

let locked_cm_throughput ~writers stream =
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let cm = Conc.Locked_countmin.create ~family in
  let chunks = Workload.Stream.chunks stream ~pieces:writers in
  time_parallel ~domains:writers (fun i ->
      Array.iter (Conc.Locked_countmin.update cm) chunks.(i))

let flat_pcm_throughput ~writers stream =
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let fp = Conc.Flat_pcm.create ~publish_every:64 ~family ~domains:writers () in
  let chunks = Workload.Stream.chunks stream ~pieces:writers in
  time_parallel ~domains:writers (fun i ->
      Array.iter (Conc.Flat_pcm.update fp ~domain:i) chunks.(i);
      Conc.Flat_pcm.flush fp ~domain:i)

(* Same boxed-atomic layout as [pcm_throughput], but hashing with the
   two-hash Kirsch–Mitzenmacher family: isolates the d-hashes -> 2-hashes
   saving from the layout change. *)
let km_pcm_throughput ~writers stream =
  let family = Hashing.Family.seeded_km ~seed:5L ~rows:4 ~width:1024 in
  let pcm = Conc.Pcm.create ~family in
  let chunks = Workload.Stream.chunks stream ~pieces:writers in
  time_parallel ~domains:writers (fun i -> Array.iter (Conc.Pcm.update pcm) chunks.(i))

(* Both hot-path changes at once: flat unboxed planes fed by the two-hash
   family — the configuration the PERFORMANCE.md headline quotes. *)
let flat_km_pcm_throughput ~writers stream =
  let family = Hashing.Family.seeded_km ~seed:5L ~rows:4 ~width:1024 in
  let fp = Conc.Flat_pcm.create ~publish_every:64 ~family ~domains:writers () in
  let chunks = Workload.Stream.chunks stream ~pieces:writers in
  time_parallel ~domains:writers (fun i ->
      Array.iter (Conc.Flat_pcm.update fp ~domain:i) chunks.(i);
      Conc.Flat_pcm.flush fp ~domain:i)

(* --- Batched counter updates (E7) --- *)

let ivl_counter_throughput ~writers =
  let c = Conc.Ivl_counter.create ~procs:writers in
  let per = total_counter_updates / writers in
  time_parallel ~domains:writers (fun i ->
      for _ = 1 to per do
        Conc.Ivl_counter.update c ~proc:i 1
      done)

let locked_counter_throughput ~writers =
  let c = Conc.Locked_counter.create () in
  let per = total_counter_updates / writers in
  time_parallel ~domains:writers (fun _ ->
      for _ = 1 to per do
        Conc.Locked_counter.update c 1
      done)

let faa_counter_throughput ~writers =
  let c = Conc.Faa_counter.create () in
  let per = total_counter_updates / writers in
  time_parallel ~domains:writers (fun _ ->
      for _ = 1 to per do
        Conc.Faa_counter.update c 1
      done)

let writer_counts = [ 1; 2; 4 ]

(* Mixed read/write workloads (Scenario): every implementation replays the
   identical operation sequence. *)
let mixed_cm_throughput ~impl ~writers ops =
  let family = Hashing.Family.seeded ~seed:6L ~rows:4 ~width:1024 in
  let parts = Workload.Scenario.split ops ~pieces:writers in
  match impl with
  | `Pcm ->
      let pcm = Conc.Pcm.create ~family in
      let _, dt =
        Conc.Runner.parallel_timed ~domains:writers (fun i b ->
            Conc.Barrier.await b;
            Array.iter
              (function
                | Workload.Scenario.Update a -> Conc.Pcm.update pcm a
                | Workload.Scenario.Query a -> ignore (Conc.Pcm.query pcm a))
              parts.(i))
      in
      dt
  | `Locked ->
      let cm = Conc.Locked_countmin.create ~family in
      let _, dt =
        Conc.Runner.parallel_timed ~domains:writers (fun i b ->
            Conc.Barrier.await b;
            Array.iter
              (function
                | Workload.Scenario.Update a -> Conc.Locked_countmin.update cm a
                | Workload.Scenario.Query a -> ignore (Conc.Locked_countmin.query cm a))
              parts.(i))
      in
      dt

let run () =
  Bench_util.section "E6: CountMin ingestion throughput (Mops/s), PCM vs global lock";
  Printf.printf "(host has %d recommended domain(s); see note in EXPERIMENTS.md)\n"
    (Domain.recommended_domain_count ());
  let stream =
    Workload.Stream.generate ~seed:77L (Workload.Stream.Zipf (100_000, 1.1))
      ~length:total_cm_updates
  in
  let mops total dt = float_of_int total /. dt /. 1e6 in
  let rows =
    List.map
      (fun w ->
        let t_pcm = pcm_throughput ~writers:w stream in
        let t_flat = flat_pcm_throughput ~writers:w stream in
        let t_km = km_pcm_throughput ~writers:w stream in
        let t_flat_km = flat_km_pcm_throughput ~writers:w stream in
        let t_lock = locked_cm_throughput ~writers:w stream in
        let params = [ ("writers", Bench_util.json_int w) ] in
        Bench_util.record ~exp:"throughput" ~name:"e6-pcm" ~params
          (mops total_cm_updates t_pcm);
        Bench_util.record ~exp:"throughput" ~name:"e6-flat-pcm" ~params
          (mops total_cm_updates t_flat);
        Bench_util.record ~exp:"throughput" ~name:"e6-km-pcm" ~params
          (mops total_cm_updates t_km);
        Bench_util.record ~exp:"throughput" ~name:"e6-flat-km-pcm" ~params
          (mops total_cm_updates t_flat_km);
        Bench_util.record ~exp:"throughput" ~name:"e6-locked-cm" ~params
          (mops total_cm_updates t_lock);
        [
          string_of_int w;
          Bench_util.fmt_rate total_cm_updates t_pcm;
          Bench_util.fmt_rate total_cm_updates t_flat;
          Bench_util.fmt_rate total_cm_updates t_km;
          Bench_util.fmt_rate total_cm_updates t_flat_km;
          Bench_util.fmt_rate total_cm_updates t_lock;
          Printf.sprintf "%.2fx" (t_pcm /. t_flat_km);
        ])
      writer_counts
  in
  Bench_util.table
    ~header:
      [
        "writers";
        "PCM";
        "flat PCM";
        "KM PCM";
        "flat+KM";
        "locked CM";
        "flat+KM speedup";
      ]
    rows;

  Bench_util.subsection "mixed workloads (4 domains, Mops/s)";
  let mixed_rows =
    List.map
      (fun ratio ->
        let ops =
          Workload.Scenario.mixed ~seed:8L
            ~shape:(Workload.Stream.Zipf (100_000, 1.1))
            ~query_ratio:ratio ~length:total_cm_updates
        in
        let t_pcm = mixed_cm_throughput ~impl:`Pcm ~writers:4 ops in
        let t_lock = mixed_cm_throughput ~impl:`Locked ~writers:4 ops in
        [
          Printf.sprintf "%.0f%% queries" (100.0 *. ratio);
          Bench_util.fmt_rate total_cm_updates t_pcm;
          Bench_util.fmt_rate total_cm_updates t_lock;
          Printf.sprintf "%.2fx" (t_lock /. t_pcm);
        ])
      [ 0.01; 0.1; 0.5 ]
  in
  Bench_util.table ~header:[ "mix"; "PCM"; "locked CM"; "PCM speedup" ] mixed_rows;

  Bench_util.section
    "E7: batched counter update throughput (Mops/s), IVL vs baselines";
  let rows =
    List.map
      (fun w ->
        let t_ivl = ivl_counter_throughput ~writers:w in
        let t_lock = locked_counter_throughput ~writers:w in
        let t_faa = faa_counter_throughput ~writers:w in
        let params = [ ("writers", Bench_util.json_int w) ] in
        Bench_util.record ~exp:"throughput" ~name:"e7-ivl-counter" ~params
          (mops total_counter_updates t_ivl);
        Bench_util.record ~exp:"throughput" ~name:"e7-faa-counter" ~params
          (mops total_counter_updates t_faa);
        Bench_util.record ~exp:"throughput" ~name:"e7-locked-counter" ~params
          (mops total_counter_updates t_lock);
        [
          string_of_int w;
          Bench_util.fmt_rate total_counter_updates t_ivl;
          Bench_util.fmt_rate total_counter_updates t_faa;
          Bench_util.fmt_rate total_counter_updates t_lock;
          Printf.sprintf "%.2fx" (t_lock /. t_ivl);
        ])
      writer_counts
  in
  Bench_util.table
    ~header:[ "writers"; "IVL (SWMR)"; "FAA"; "locked"; "IVL vs locked" ]
    rows;
  print_endline
    "shape check: the IVL counter's O(1) uncontended update beats the lock at";
  print_endline
    "every width; FAA matches O(1) but requires a stronger primitive than the";
  print_endline "SWMR registers Theorem 14 assumes.";

  (* Allocation audit: the hot update paths are designed to allocate
     nothing — probes pack into an immediate int, planes are unboxed, the
     striped total FAAs in place. Recorded as B/op entries so `bench
     compare` hard-fails if any of these paths starts boxing. *)
  Bench_util.subsection "allocation audit (bytes allocated per update)";
  let family = Hashing.Family.seeded ~seed:5L ~rows:4 ~width:1024 in
  let km_family = Hashing.Family.seeded_km ~seed:5L ~rows:4 ~width:1024 in
  let audit_ops = 100_000 in
  let audits =
    [
      ( "alloc-pcm-update",
        let pcm = Conc.Pcm.create ~family in
        let x = ref 0 in
        fun () ->
          incr x;
          Conc.Pcm.update pcm !x );
      ( "alloc-flat-pcm-update",
        let fp = Conc.Flat_pcm.create ~family ~domains:1 () in
        let x = ref 0 in
        fun () ->
          incr x;
          Conc.Flat_pcm.update fp ~domain:0 !x );
      ( "alloc-km-pcm-update",
        let pcm = Conc.Pcm.create ~family:km_family in
        let x = ref 0 in
        fun () ->
          incr x;
          Conc.Pcm.update pcm !x );
      ( "alloc-countmin-update",
        let cm = Sketches.Countmin.create ~family in
        let x = ref 0 in
        fun () ->
          incr x;
          Sketches.Countmin.update cm !x );
      ( "alloc-pcm-query",
        let pcm = Conc.Pcm.create ~family in
        fun () -> ignore (Conc.Pcm.query pcm 42) );
      ( "alloc-flat-pcm-query",
        let fp = Conc.Flat_pcm.create ~family ~domains:2 () in
        fun () -> ignore (Conc.Flat_pcm.query fp 42) );
      ( "alloc-ivl-counter-update",
        let c = Conc.Ivl_counter.create ~procs:4 in
        fun () -> Conc.Ivl_counter.update c ~proc:0 1 );
      ( "alloc-faa-counter-update",
        let c = Conc.Faa_counter.create () in
        fun () -> Conc.Faa_counter.update c 1 );
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let bytes = Bench_util.allocated_bytes_per_op ~ops:audit_ops f in
        Bench_util.record ~exp:"throughput" ~name ~unit_:"B/op" bytes;
        [ name; Printf.sprintf "%.2f" bytes ])
      audits
  in
  (* The served write path's batch frame, per key: a 256-key frame encoded
     into a pooled buffer, received through a Conn over a socketpair,
     parsed in place, routed by Engine.ingest_batch and acked from a reused
     buffer. What remains is the parse's reader, closure and result (12
     words a frame, 0.38 B/key); a frame that allocated its 2 KB block
     again would add 8 B/key and fail the gate. *)
  let frame_row =
    let module P = Pipeline.Engine.Make (Pipeline.Targets.Counter) in
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let tx = Net.Conn.of_fd a and rx = Net.Conn.of_fd b in
    let eng = P.create ~shards:4 () in
    let keys = Array.init 256 (fun i -> (i * 7919) + 1) in
    let frame = Bytes.create (Net.Frame.batch_frame_size 256) in
    let ack = Bytes.create Net.Frame.ack_frame_size in
    let parsed = Net.Frame.batch () and seq = ref 0 in
    let round () =
      let len =
        Net.Frame.write_batch frame ~session:1L ~seq:!seq ~ctx:Obs.Span.zero
          keys ~len:256
      in
      incr seq;
      ignore (Net.Conn.send_sub tx frame ~len);
      match Net.Conn.recv_view rx with
      | Error _ -> failwith "alloc-net-batch-frame: receive failed"
      | Ok v -> (
          match Net.Frame.decode_batch parsed v.buf ~off:v.off ~len:v.len with
          | Error _ -> failwith "alloc-net-batch-frame: decode failed"
          | Ok () ->
              let accepted =
                P.ingest_batch eng parsed.keys ~len:parsed.count
              in
              ignore (Net.Frame.write_ack ack ~epoch:0 ~accepted ~dup:false))
    in
    for _ = 1 to 200 do
      round ()
    done;
    let per_frame = Bench_util.allocated_bytes_per_op ~ops:(audit_ops / 10) round in
    P.drain eng;
    Net.Conn.close tx;
    Net.Conn.close rx;
    let bytes = per_frame /. 256.0 in
    Bench_util.record ~exp:"throughput" ~name:"alloc-net-batch-frame"
      ~params:[ ("per", Bench_util.json_string "key") ]
      ~unit_:"B/op" bytes;
    [ "alloc-net-batch-frame (per key)"; Printf.sprintf "%.2f" bytes ]
  in
  (* A shard's ship, per key: 600 keys into a delta of the deployment's
     shape, then [ship] encodes it into the domain's reused buffer, copies
     out the blob and resets the delta. The blob (~4.2 KB, ~7 B/key) is
     all it allocates; a ship that built it in a growing buffer again, or
     copied it twice, would add at least as much again and fail the gate. *)
  let ship_row =
    let module M = Pipeline.Targets.Countmin (struct
      let seed = 49L
      let rows = 4
      let width = 2048
    end) in
    let keys = 600 in
    let d = ref (M.create ()) in
    let round () =
      for i = 1 to keys do
        M.update !d ((i * 7919) + 1)
      done;
      d := snd (M.ship !d)
    in
    let bytes =
      Bench_util.allocated_bytes_per_op ~ops:(audit_ops / 100) round
      /. float_of_int keys
    in
    Bench_util.record ~exp:"throughput" ~name:"alloc-countmin-ship"
      ~params:[ ("per", Bench_util.json_string "key") ]
      ~unit_:"B/op" bytes;
    [ "alloc-countmin-ship (per key)"; Printf.sprintf "%.2f" bytes ]
  in
  Bench_util.table ~header:[ "path"; "B/op" ] (rows @ [ frame_row; ship_row ]);
  print_endline
    "shape check: every update row must read 0.00 — a nonzero value means a";
  print_endline
    "hot path is boxing (and `bench compare' will hard-fail it); the frame";
  print_endline "row reads its parse's 12 words a frame, 0.38 B/key; the ship row its blob."
