(* The benchmark harness: regenerates every experiment in DESIGN.md's
   per-experiment index (the paper has no numeric tables; its claims are
   theorems, each of which corresponds to a measurable table here — see
   EXPERIMENTS.md for the mapping and the recorded results).

   Run with: dune exec bench/main.exe            (all experiments)
            dune exec bench/main.exe -- steps    (one section)
   Sections: steps checker error throughput morris quantiles pq ablation
   pipeline durable obs micro

   The harness doubles as the regression gate:
            dune exec bench/main.exe -- compare OLD.json NEW.json
   diffs two BENCH_<exp>.json files (see Compare) and exits non-zero on
   fatal regressions — CI runs it against bench/baselines/. *)

(* One Bechamel Test.make per timed table: single-operation latencies backing
   the throughput tables E6 (CountMin update path) and E7 (counter update
   path), plus the query paths used by E5's reader. *)
let micro () =
  Bench_util.section "Microbenchmarks (Bechamel, ns per operation)";
  let family = Hashing.Family.seeded ~seed:3L ~rows:4 ~width:1024 in
  let km_family = Hashing.Family.seeded_km ~seed:3L ~rows:4 ~width:1024 in
  let pcm = Conc.Pcm.create ~family in
  let flat = Conc.Flat_pcm.create ~family ~domains:1 () in
  let km_pcm = Conc.Pcm.create ~family:km_family in
  let locked_cm = Conc.Locked_countmin.create ~family in
  let seq_cm = Sketches.Countmin.create ~family in
  let ivl_counter = Conc.Ivl_counter.create ~procs:8 in
  let faa = Conc.Faa_counter.create () in
  let locked = Conc.Locked_counter.create () in
  let x = ref 0 in
  let open Bechamel in
  let tests =
    [
      (* E6 table: CountMin update path — reference boxed-atomic layout,
         flat per-domain planes, and the two-hash (Kirsch–Mitzenmacher)
         family on the reference layout. *)
      Test.make ~name:"e6-pcm-update"
        (Staged.stage (fun () ->
             incr x;
             Conc.Pcm.update pcm !x));
      Test.make ~name:"e6-flat-pcm-update"
        (Staged.stage (fun () ->
             incr x;
             Conc.Flat_pcm.update flat ~domain:0 !x));
      Test.make ~name:"e6-km-pcm-update"
        (Staged.stage (fun () ->
             incr x;
             Conc.Pcm.update km_pcm !x));
      Test.make ~name:"e6-locked-cm-update"
        (Staged.stage (fun () ->
             incr x;
             Conc.Locked_countmin.update locked_cm !x));
      Test.make ~name:"e6-sequential-cm-update"
        (Staged.stage (fun () ->
             incr x;
             Sketches.Countmin.update seq_cm !x));
      (* E5 table: the reader's query path. *)
      Test.make ~name:"e5-pcm-query"
        (Staged.stage (fun () -> ignore (Conc.Pcm.query pcm 42)));
      Test.make ~name:"e5-flat-pcm-query"
        (Staged.stage (fun () -> ignore (Conc.Flat_pcm.query flat 42)));
      (* E7 table: counter update paths. *)
      Test.make ~name:"e7-ivl-counter-update"
        (Staged.stage (fun () -> Conc.Ivl_counter.update ivl_counter ~proc:0 1));
      Test.make ~name:"e7-faa-counter-update"
        (Staged.stage (fun () -> Conc.Faa_counter.update faa 1));
      Test.make ~name:"e7-locked-counter-update"
        (Staged.stage (fun () -> Conc.Locked_counter.update locked 1));
      (* E1 table's real-world analogue: the O(n) read. *)
      Test.make ~name:"e1-ivl-counter-read-n8"
        (Staged.stage (fun () -> ignore (Conc.Ivl_counter.read ivl_counter)));
    ]
  in
  let results = Bench_util.run_bechamel tests in
  List.iter
    (fun (name, ns) ->
      if Float.is_finite ns then
        Bench_util.record ~exp:"micro" ~name ~unit_:"ns/op" ns)
    results;
  Bench_util.print_bechamel_table ~title:"single-operation latency" results

let sections =
  [
    ("steps", Exp_steps.run);
    ("checker", Exp_checker.run);
    ("error", Exp_error.run);
    ("throughput", Exp_throughput.run);
    ("morris", Exp_morris.run);
    ("quantiles", Exp_quantiles.run);
    ("ablation", Exp_ablation.run);
    ("pq", Exp_pq.run);
    ("pipeline", Exp_pipeline.run);
    ("durable", Exp_durable.run);
    ("obs", Exp_obs.run);
    ("micro", micro);
  ]

let () =
  (* The compare subcommand never runs experiments: diff two recorded
     JSON files and exit with the gate's verdict. *)
  (match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> exit (Compare.main rest)
  | _ -> ());
  let requested =
    match Array.to_list Sys.argv with
    | _ :: args when args <> [] -> args
    | _ -> List.map fst sections
  in
  print_endline "IVL reproduction benchmark harness";
  print_endline "(see EXPERIMENTS.md for the experiment index and recorded results)";
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown section %s (available: %s)\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested;
  (* Machine-readable mirror of the tables above: one BENCH_<exp>.json per
     instrumented experiment. *)
  print_newline ();
  Bench_util.write_json_files ()
