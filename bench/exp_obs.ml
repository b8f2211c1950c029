(* E14: what the observability layer costs.

   The design claim behind lib/obs is that IVL instruments are cheap enough
   to leave on: a counter add is one striped fetch-and-add, a gauge set one
   padded plain store — neither allocates, neither locks. This experiment
   pins that:

   - allocation audits (B/op) on every hot-path primitive, gated
     structurally by `bench compare` — a nonzero counter-add audit is a
     boxing bug, not noise;
   - single-op latencies (ns/op) for the same primitives plus a full
     registry scrape, so the "scrapes don't perturb writers" story has a
     number attached;
   - the headline: end-to-end pipeline ingestion throughput bare vs fully
     instrumented (metrics registry + merge-lag timer + 1/64 spans),
     recorded both as Mops/s rows and as one "pct" overhead entry that
     `bench compare` gates on absolute drift (docs/OBSERVABILITY.md
     documents the few-percent budget). The overhead is the median over
     [reps] back-to-back pairs of each pair's own overhead, so one run
     that a busy host slows moves it little. *)

let total_updates = 2_000_000
let reps = 10
let shards = 4
let feeders = 4
let batch = 512

module P = Pipeline.Engine.Make (Pipeline.Targets.Counter)

let seeded_stream () =
  Workload.Stream.generate ~seed:13L
    (Workload.Stream.Zipf (50_000, 1.1))
    ~length:total_updates

(* ---------------- allocation audits ---------------- *)

let alloc_audits () =
  Bench_util.subsection "allocation audits (bytes per op; 0 = silent hot path)";
  let c = Obs.Counter.create () in
  let g = Obs.Gauge.create () in
  (* Compare matches entries by (name, params): the "-alloc" suffix keeps
     these from colliding with the ns/op rows for the same paths. *)
  let audit name f =
    let bytes = Bench_util.allocated_bytes_per_op ~ops:200_000 f in
    Bench_util.record ~exp:"obs" ~name:(name ^ "-alloc") ~unit_:"B/op" bytes;
    [ name; Printf.sprintf "%.2f" bytes ]
  in
  Bench_util.table
    ~header:[ "path"; "B/op" ]
    [
      audit "e14-counter-add" (fun () -> Obs.Counter.add c 1);
      (* Constant operands: boxing a freshly computed float would bill the
         caller, not the instrument — the audit isolates the store. *)
      audit "e14-gauge-set" (fun () -> Obs.Gauge.set g 2.5);
    ]

(* ---------------- single-op latencies ---------------- *)

let micro () =
  let c = Obs.Counter.create () in
  let g = Obs.Gauge.create () in
  let reg = Obs.Registry.create () in
  let rc = Obs.Registry.counter reg "bench_total" in
  Obs.Counter.add rc 1;
  ignore (Obs.Registry.gauge reg ~labels:[ ("shard", "0") ] "bench_depth");
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"e14-counter-add"
        (Staged.stage (fun () -> Obs.Counter.add c 1));
      Test.make ~name:"e14-counter-read"
        (Staged.stage (fun () -> ignore (Obs.Counter.read c)));
      Test.make ~name:"e14-gauge-set" (Staged.stage (fun () -> Obs.Gauge.set g 2.5));
      Test.make ~name:"e14-registry-scrape"
        (Staged.stage (fun () -> ignore (Obs.Registry.snapshot reg)));
    ]
  in
  let results = Bench_util.run_bechamel tests in
  Bench_util.print_bechamel_table ~title:"single-operation latencies" results;
  List.iter
    (fun (name, ns) ->
      (* Bechamel prefixes group names; keep the e14-* leaf. *)
      let leaf =
        match String.rindex_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      Bench_util.record ~exp:"obs" ~name:leaf ~unit_:"ns/op" ns)
    results

(* ---------------- end-to-end pipeline overhead ---------------- *)

(* One full ingestion run; instrumented runs carry the registry, the
   merge-lag timer, and a span tracer sampling 1/64 batches with
   the feeders rolling the die — the whole telemetry surface a production
   run would enable, distributed tracing included. Returns (elapsed
   seconds, registry). *)
let run_once ~instrumented stream =
  let reg = if instrumented then Some (Obs.Registry.create ()) else None in
  let tracer =
    match reg with
    | Some reg -> Some (Obs.Tracer.create ~sample_every:64 ~metrics:reg ())
    | None -> None
  in
  let p =
    P.create ~queue_capacity:4096 ~batch ?metrics:reg ?tracer ~shards ()
  in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let (), dt =
    Conc.Runner.timed (fun () ->
        ignore
          (Conc.Runner.parallel ~domains:feeders (fun i ->
               match tracer with
               | None -> Array.iter (fun x -> ignore (P.ingest p x)) chunks.(i)
               | Some tr ->
                   (* Roll the sampling die once per [batch] items — the
                      same cadence a batching edge would. *)
                   let since = ref 0 in
                   Array.iter
                     (fun x ->
                       if !since = 0 then begin
                         since := batch;
                         match Obs.Tracer.sample tr with
                         | None -> ()
                         | Some ctx ->
                             let now = Obs.Tracer.now_ns () in
                             let sid =
                               Obs.Tracer.record tr ~ctx ~stage:"ingest"
                                 ~start_ns:now ~end_ns:now
                             in
                             P.trace_mark p ~key:x
                               ~ctx:(Obs.Span.with_parent ctx sid)
                       end;
                       decr since;
                       ignore (P.ingest p x))
                     chunks.(i)));
        P.drain p)
  in
  (dt, reg)

let rate dt = float_of_int total_updates /. dt /. 1e6

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let pipeline_overhead () =
  Bench_util.subsection "pipeline ingestion: bare vs instrumented";
  let stream = seeded_stream () in
  let params =
    [
      ("feeders", Bench_util.json_int feeders);
      ("shards", Bench_util.json_int shards);
      ("batch", Bench_util.json_int batch);
      ("total_updates", Bench_util.json_int total_updates);
    ]
  in
  (* Warm up once (page-in, domain pool, allocator) and interleave the
     configurations so neither gets all the cold reps — an overhead in the
     low percent is smaller than the cold-start bias otherwise. *)
  ignore (run_once ~instrumented:false stream);
  let last_reg = ref None in
  let pairs =
    List.init reps (fun k ->
        (* Alternate which config runs first within the pair: the second
           run of a pair always sees a warmer stream array. *)
        if k mod 2 = 0 then begin
          let dt_bare, _ = run_once ~instrumented:false stream in
          let dt_instr, reg = run_once ~instrumented:true stream in
          last_reg := reg;
          (rate dt_bare, rate dt_instr)
        end
        else begin
          let dt_instr, reg = run_once ~instrumented:true stream in
          let dt_bare, _ = run_once ~instrumented:false stream in
          last_reg := reg;
          (rate dt_bare, rate dt_instr)
        end)
  in
  let bare_rates = List.map fst pairs and instr_rates = List.map snd pairs in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  Bench_util.record_samples ~exp:"obs" ~name:"e14-pipeline-bare" ~params
    bare_rates;
  Bench_util.record_samples ~exp:"obs" ~name:"e14-pipeline-instrumented" ~params
    instr_rates;
  let bare = median bare_rates and instr = median instr_rates in
  let reg = !last_reg in
  let overhead =
    median (List.map (fun (b, i) -> (b -. i) /. b *. 100.0) pairs)
  in
  Bench_util.record ~exp:"obs" ~name:"e14-pipeline-overhead" ~params ~unit_:"pct"
    overhead;
  Bench_util.table
    ~header:[ "config"; "Mops/s"; "overhead" ]
    [
      [ "bare"; Printf.sprintf "%.2f" bare; "-" ];
      [
        "metrics + lag timer + 1/64 spans";
        Printf.sprintf "%.2f" instr;
        Printf.sprintf "%.1f%%" overhead;
      ];
    ];
  (* The last instrumented run's scrape becomes a checked-in-able artifact:
     the summary manifest points at it, CI uploads it next to the JSON
     mirrors, and a reviewer can eyeball what an instrumented soak exports
     without rerunning anything. *)
  Option.iter
    (fun reg ->
      let snap = Obs.Registry.snapshot reg in
      write_file "BENCH_obs_metrics.prom" (Obs.Expose.to_prometheus snap);
      write_file "BENCH_obs_metrics.json" (Obs.Expose.to_json snap);
      Bench_util.register_artifact ~name:"obs-metrics-prom"
        ~path:"BENCH_obs_metrics.prom";
      Bench_util.register_artifact ~name:"obs-metrics-json"
        ~path:"BENCH_obs_metrics.json")
    reg

let run () =
  Bench_util.section "E14: observability overhead (lib/obs on the hot paths)";
  Printf.printf
    "(counter pipeline, %d shards + 1 merger, batch %d, %d feeders; median of \
     %d paired reps of %d updates)\n"
    shards batch feeders reps total_updates;
  alloc_audits ();
  micro ();
  pipeline_overhead ()
