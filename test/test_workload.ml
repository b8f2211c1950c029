(* Tests for workload generation: Zipf sampling, stream shapes, chunking. *)

let test_zipf_probabilities_sum_to_one () =
  let z = Workload.Zipf.create ~n:100 ~s:1.2 in
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Workload.Zipf.probability z i
  done;
  Alcotest.(check (float 1e-9)) "probabilities normalized" 1.0 !total

let test_zipf_monotone_probabilities () =
  let z = Workload.Zipf.create ~n:50 ~s:1.0 in
  for i = 1 to 49 do
    Alcotest.(check bool) "rank i more likely than i+1" true
      (Workload.Zipf.probability z (i - 1) >= Workload.Zipf.probability z i)
  done

let test_zipf_empirical_frequencies () =
  let z = Workload.Zipf.create ~n:10 ~s:1.0 in
  let g = Rng.Splitmix.create 7L in
  let counts = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Workload.Zipf.sample z g in
    counts.(x) <- counts.(x) + 1
  done;
  for i = 0 to 9 do
    let expected = Workload.Zipf.probability z i *. float_of_int n in
    let got = float_of_int counts.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "element %d: %.0f vs expected %.0f" i got expected)
      true
      (abs_float (got -. expected) < (4.0 *. sqrt expected) +. 10.0)
  done

let test_zipf_s_zero_is_uniform () =
  let z = Workload.Zipf.create ~n:10 ~s:0.0 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform probability" 0.1 (Workload.Zipf.probability z i)
  done

let test_zipf_rejects_bad_params () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Workload.Zipf.create ~n:0 ~s:1.0));
  Alcotest.check_raises "s<0" (Invalid_argument "Zipf.create: s must be non-negative")
    (fun () -> ignore (Workload.Zipf.create ~n:10 ~s:(-1.0)))

let test_stream_lengths_and_ranges () =
  List.iter
    (fun shape ->
      let s = Workload.Stream.generate ~seed:3L shape ~length:1000 in
      Alcotest.(check int) "length" 1000 (Array.length s);
      Array.iter
        (fun x -> Alcotest.(check bool) "element in universe" true (x >= 0 && x < 50))
        s)
    [
      Workload.Stream.Uniform 50;
      Workload.Stream.Zipf (50, 1.1);
      Workload.Stream.Bursty (50, 10);
      Workload.Stream.Ascending 50;
    ]

let test_stream_deterministic () =
  let a = Workload.Stream.generate ~seed:9L (Workload.Stream.Zipf (100, 1.0)) ~length:500 in
  let b = Workload.Stream.generate ~seed:9L (Workload.Stream.Zipf (100, 1.0)) ~length:500 in
  Alcotest.(check (array int)) "same seed, same stream" a b

let test_bursty_runs () =
  let s = Workload.Stream.generate ~seed:5L (Workload.Stream.Bursty (100, 8)) ~length:80 in
  (* Within each burst of 8, all elements equal. *)
  for burst = 0 to 9 do
    for i = 1 to 7 do
      Alcotest.(check int) "burst constant" s.((burst * 8)) s.((burst * 8) + i)
    done
  done

let test_ascending_cycles () =
  let s = Workload.Stream.generate ~seed:0L (Workload.Stream.Ascending 5) ~length:12 in
  Alcotest.(check (array int)) "cycle" [| 0; 1; 2; 3; 4; 0; 1; 2; 3; 4; 0; 1 |] s

let test_chunks_partition () =
  let a = Array.init 103 Fun.id in
  let cs = Workload.Stream.chunks a ~pieces:4 in
  Alcotest.(check int) "4 pieces" 4 (Array.length cs);
  let rejoined = Array.concat (Array.to_list cs) in
  Alcotest.(check (array int)) "concatenation restores" a rejoined;
  (* Sizes differ by at most one. *)
  let sizes = Array.map Array.length cs in
  Alcotest.(check bool) "balanced" true
    (Array.for_all (fun s -> abs (s - sizes.(0)) <= 1) sizes)

let test_chunks_more_pieces_than_elements () =
  let a = [| 1; 2 |] in
  let cs = Workload.Stream.chunks a ~pieces:5 in
  Alcotest.(check int) "5 pieces" 5 (Array.length cs);
  Alcotest.(check (array int)) "restores" a (Array.concat (Array.to_list cs))

let test_describe () =
  Alcotest.(check string) "zipf" "zipf(10, s=1.10)"
    (Workload.Stream.describe (Workload.Stream.Zipf (10, 1.1)))


let test_scenario_mix_ratio () =
  let ops =
    Workload.Scenario.mixed ~seed:9L ~shape:(Workload.Stream.Uniform 100)
      ~query_ratio:0.3 ~length:10_000
  in
  Alcotest.(check int) "length" 10_000 (Array.length ops);
  let q = Workload.Scenario.count_queries ops in
  Alcotest.(check bool)
    (Printf.sprintf "query count %d near 3000" q)
    true
    (q > 2700 && q < 3300)

let test_scenario_deterministic () =
  let mk () =
    Workload.Scenario.mixed ~seed:10L ~shape:(Workload.Stream.Zipf (50, 1.0))
      ~query_ratio:0.5 ~length:200
  in
  Alcotest.(check bool) "same seed, same scenario" true (mk () = mk ())

let test_scenario_split_partitions () =
  let ops =
    Workload.Scenario.mixed ~seed:11L ~shape:(Workload.Stream.Uniform 10)
      ~query_ratio:0.2 ~length:103
  in
  let parts = Workload.Scenario.split ops ~pieces:4 in
  Alcotest.(check int) "4 parts" 4 (Array.length parts);
  Alcotest.(check bool) "concatenation restores" true
    (Array.concat (Array.to_list parts) = ops)

let test_scenario_ratio_bounds () =
  Alcotest.check_raises "ratio out of range"
    (Invalid_argument "Scenario.mixed: query_ratio must lie in [0,1]") (fun () ->
      ignore
        (Workload.Scenario.mixed ~seed:1L ~shape:(Workload.Stream.Uniform 10)
           ~query_ratio:1.5 ~length:10))

(* ----- traces: phased specs, determinism, the frozen file format ----- *)

let small_spec = Workload.Trace.default_spec ~seed:42L ~ops:5_000 ~universe:512 ()

let with_trace_file f =
  let path = Filename.temp_file "ivl-trace" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Bytes.of_string (really_input_string ic (in_channel_length ic)))

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_trace_deterministic_across_runs () =
  let a = Workload.Trace.materialize small_spec in
  let b = Workload.Trace.materialize small_spec in
  Alcotest.(check bool) "same spec, same ops" true (a = b)

let test_trace_deterministic_across_domains () =
  (* Materialization must not depend on which domain runs it: samplers draw
     only from phase-local generators, never shared or domain-local state. *)
  let here = Workload.Trace.materialize small_spec in
  let there =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> Workload.Trace.materialize small_spec))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "domain %d agrees" i) true (r = here))
    there

let test_trace_drift_sampler_deterministic () =
  let spec =
    {
      Workload.Trace.seed = 7L;
      phases =
        [
          {
            Workload.Trace.name = "drift";
            ops = 4_000;
            query_ratio = 0.1;
            rate = Workload.Trace.Unlimited;
            shape = Workload.Trace.Drift { universe = 256; s0 = 0.1; s1 = 1.8; steps = 5 };
          };
        ];
    }
  in
  let a = Workload.Trace.materialize spec in
  let b = Domain.join (Domain.spawn (fun () -> Workload.Trace.materialize spec)) in
  Alcotest.(check bool) "drift replays bit-for-bit" true (a = b);
  let other = Workload.Trace.materialize { spec with seed = 8L } in
  Alcotest.(check bool) "different seed differs" true (a <> other)

let test_trace_phase_seeds_decorrelated () =
  let s = 42L in
  for i = 0 to 4 do
    for j = i + 1 to 5 do
      Alcotest.(check bool) "phase seeds distinct" true
        (Workload.Trace.phase_seed s i <> Workload.Trace.phase_seed s j)
    done
  done

let test_trace_counts_and_ranges () =
  let ops = Workload.Trace.materialize small_spec in
  List.iteri
    (fun i (p : Workload.Trace.phase) ->
      Alcotest.(check int) (p.name ^ " count") p.ops (Array.length ops.(i));
      Array.iter
        (fun op ->
          let k = match op with Workload.Scenario.Update k | Workload.Scenario.Query k -> k in
          Alcotest.(check bool) "key in universe" true (k >= 0 && k < 512))
        ops.(i))
    small_spec.Workload.Trace.phases;
  Alcotest.(check int) "total" 5_000
    (Array.fold_left (fun a arr -> a + Array.length arr) 0 ops)

let test_trace_file_roundtrip () =
  with_trace_file @@ fun path ->
  let ops = Workload.Trace.materialize small_spec in
  (match Workload.Trace.write ~path small_spec ops with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  match Workload.Trace.read ~path with
  | Error e -> Alcotest.failf "read: %s" e
  | Ok (spec', ops') ->
      Alcotest.(check bool) "spec survives" true (spec' = small_spec);
      Alcotest.(check bool) "ops survive" true (ops' = ops)

let test_trace_torn_file_rejected () =
  with_trace_file @@ fun path ->
  let ops = Workload.Trace.materialize small_spec in
  (match Workload.Trace.write ~path small_spec ops with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  let b = read_file path in
  write_file path (Bytes.sub b 0 (Bytes.length b - 3));
  match Workload.Trace.read ~path with
  | Ok _ -> Alcotest.fail "torn trace accepted"
  | Error _ -> ()

let test_trace_bitflip_rejected () =
  with_trace_file @@ fun path ->
  let ops = Workload.Trace.materialize small_spec in
  (match Workload.Trace.write ~path small_spec ops with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  let b = read_file path in
  let off = Bytes.length b / 2 in
  Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor 0xFF);
  write_file path b;
  match Workload.Trace.read ~path with
  | Ok _ -> Alcotest.fail "bit-flipped trace accepted"
  | Error _ -> ()

let test_trace_block_count_bounded () =
  (* A two-op phase: the file is its real header frame plus one
     hand-sealed block whose u32 op count is [count] over [ops] ops. *)
  let spec =
    {
      Workload.Trace.seed = 1L;
      phases =
        [
          { Workload.Trace.name = "p"; ops = 2; query_ratio = 0.0;
            rate = Workload.Trace.Unlimited;
            shape = Workload.Trace.Uniform { universe = 4 } };
        ];
    }
  in
  with_trace_file @@ fun path ->
  (match Workload.Trace.write ~path spec (Workload.Trace.materialize spec) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" e);
  let header = List.hd (fst (Test_helpers.read_segment path)) in
  let with_block ~count ops =
    let block =
      Wire.Codec.encode ~kind:Wire.Codec.trace_block_kind (fun w ->
          Wire.Codec.u32 w 0;
          Wire.Codec.u32 w count;
          List.iter
            (fun k ->
              Wire.Codec.u8 w 0;
              Wire.Codec.int_ w k)
            ops)
    in
    write_file path (Bytes.cat header block);
    Workload.Trace.read ~path
  in
  (match with_block ~count:0xFFFFFFFF [ 3 ] with
  | Ok _ -> Alcotest.fail "oversized op count accepted"
  | Error _ -> ());
  match with_block ~count:2 [ 3; 1 ] with
  | Ok (_, ops) ->
      Alcotest.(check bool) "exact count decodes" true
        (ops = [| [| Workload.Scenario.Update 3; Workload.Scenario.Update 1 |] |])
  | Error e -> Alcotest.failf "exact count: %s" e

let test_trace_validate_rejects_nonsense () =
  let phase shape =
    { Workload.Trace.name = "p"; ops = 10; query_ratio = 0.0;
      rate = Workload.Trace.Unlimited; shape }
  in
  let bad spec = match Workload.Trace.validate spec with
    | Error _ -> () | Ok () -> Alcotest.fail "bad spec accepted"
  in
  bad { Workload.Trace.seed = 1L; phases = [] };
  bad { Workload.Trace.seed = 1L; phases = [ phase (Workload.Trace.Uniform { universe = 0 }) ] };
  bad
    {
      Workload.Trace.seed = 1L;
      phases = [ { (phase (Workload.Trace.Uniform { universe = 4 })) with query_ratio = 1.5 } ];
    }

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chunks always partition" ~count:200
         QCheck.(pair (array small_int) (int_range 1 10))
         (fun (a, pieces) ->
           let cs = Workload.Stream.chunks a ~pieces in
           Array.concat (Array.to_list cs) = a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"zipf samples in range" ~count:200
         QCheck.(pair int64 (int_range 1 100))
         (fun (seed, n) ->
           let z = Workload.Zipf.create ~n ~s:1.0 in
           let g = Rng.Splitmix.create seed in
           let x = Workload.Zipf.sample z g in
           x >= 0 && x < n));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"trace materialization is a pure function of the seed"
         ~count:30
         QCheck.(triple int64 (int_range 1 2_000) (int_range 1 256))
         (fun (seed, ops, universe) ->
           let spec = Workload.Trace.default_spec ~seed ~ops ~universe () in
           Workload.Trace.materialize spec = Workload.Trace.materialize spec));
  ]

let () =
  Alcotest.run "workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "probabilities sum" `Quick test_zipf_probabilities_sum_to_one;
          Alcotest.test_case "monotone" `Quick test_zipf_monotone_probabilities;
          Alcotest.test_case "empirical" `Quick test_zipf_empirical_frequencies;
          Alcotest.test_case "s=0 uniform" `Quick test_zipf_s_zero_is_uniform;
          Alcotest.test_case "bad params" `Quick test_zipf_rejects_bad_params;
        ] );
      ( "streams",
        [
          Alcotest.test_case "lengths and ranges" `Quick test_stream_lengths_and_ranges;
          Alcotest.test_case "deterministic" `Quick test_stream_deterministic;
          Alcotest.test_case "bursty runs" `Quick test_bursty_runs;
          Alcotest.test_case "ascending cycles" `Quick test_ascending_cycles;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "mix ratio" `Quick test_scenario_mix_ratio;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
          Alcotest.test_case "split partitions" `Quick test_scenario_split_partitions;
          Alcotest.test_case "ratio bounds" `Quick test_scenario_ratio_bounds;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "partition" `Quick test_chunks_partition;
          Alcotest.test_case "more pieces than elements" `Quick
            test_chunks_more_pieces_than_elements;
        ] );
      ( "traces",
        [
          Alcotest.test_case "deterministic across runs" `Quick
            test_trace_deterministic_across_runs;
          Alcotest.test_case "deterministic across domains" `Quick
            test_trace_deterministic_across_domains;
          Alcotest.test_case "drift sampler deterministic" `Quick
            test_trace_drift_sampler_deterministic;
          Alcotest.test_case "phase seeds decorrelated" `Quick
            test_trace_phase_seeds_decorrelated;
          Alcotest.test_case "counts and ranges" `Quick test_trace_counts_and_ranges;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "torn file rejected" `Quick test_trace_torn_file_rejected;
          Alcotest.test_case "bit flip rejected" `Quick test_trace_bitflip_rejected;
          Alcotest.test_case "oversized block count rejected" `Quick
            test_trace_block_count_bounded;
          Alcotest.test_case "validate rejects nonsense" `Quick
            test_trace_validate_rejects_nonsense;
        ] );
      ("properties", qcheck_tests);
    ]
