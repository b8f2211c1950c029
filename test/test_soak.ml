(* End-to-end soak runner tests: a miniature engine-sink chaos soak
   (crash/recover cycles, worker kills, torn WAL tails) must come back
   PASS with zero violations; an injected defect must turn each sink's
   verdict to FAIL with a reason; and the CLI must exit 2 with a
   diagnostic — not a stack trace — on an unusable durable directory or a
   flag the chosen sink cannot take. *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ivl-test-soak-%d-%d" (Unix.getpid ()) !dir_counter)
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

module CM = Pipeline.Targets.Countmin (struct
  let seed = 0x5EEDL
  let rows = 4
  let width = 2048
end)

(* CountMin with its stated bound, so the engine sink runs the oracle *)
module Sk = struct
  module M = CM

  let eval g = function
    | Net.Frame.Point k -> Some [ (k, Sketches.Countmin.query g k) ]
    | _ -> None

  let bound =
    Some
      {
        Net.Soak.estimate = Sketches.Countmin.query;
        slack = Sketches.Countmin.error_bound;
        epsilon = exp 1.0 /. 2048.0;
        delta = exp (-4.0);
      }
end

module S = Net.Soak.Make (Sk)
module Srv = Net.Server.Make (Sk.M)

let engine_config ?(kills = 1) ~restarts dir =
  {
    (Net.Soak.default_config ~dir
       (Net.Soak.Engine { Net.Soak.default_engine with kills }))
    with
    Net.Soak.shards = 2;
    restarts;
  }

let contains = Test_helpers.contains

let check_named (v : Net.Soak.verdict) name =
  match List.find_opt (fun c -> c.Net.Soak.name = name) v.Net.Soak.checks with
  | Some c -> c.Net.Soak.ok
  | None -> Alcotest.failf "verdict has no %s check" name

let test_tiny_soak_passes () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:0xBEEFL ~ops:24_000 ~universe:1024 () in
  let ops = Workload.Trace.materialize spec in
  let v = S.run (engine_config ~restarts:1 dir) ~spec ~ops () in
  if not v.Net.Soak.pass then
    Alcotest.failf "soak failed: %s" (String.concat "; " v.Net.Soak.reasons);
  Alcotest.(check int) "one recovery" 1 v.Net.Soak.restarts_done;
  Alcotest.(check int) "two incarnations" 2 (List.length v.Net.Soak.incarnations);
  List.iter
    (fun (i : Net.Soak.incarnation) ->
      Alcotest.(check int) "monotone clean" 0 i.monotone_violations;
      Alcotest.(check int) "conservation holds" 0 i.conservation_failures;
      Alcotest.(check int) "no epoch regressions" 0 i.recovery_regressions;
      match i.oracle with
      | None -> Alcotest.fail "a bounded sketch must run the oracle"
      | Some o ->
          Alcotest.(check int) "oracle lower bound holds" 0 o.lower;
          Alcotest.(check bool) "oracle keys checked" true (o.checked > 0))
    v.Net.Soak.incarnations;
  (* Weight only leaks, never appears: accepted covers published. *)
  Alcotest.(check bool) "lost weight non-negative" true
    (v.Net.Soak.accepted >= v.Net.Soak.published);
  let s = Net.Soak.verdict_to_string v in
  Alcotest.(check bool) "verdict prints PASS" true (contains s "soak: PASS");
  Alcotest.(check bool) "one line per check" true
    (contains s "soak: oracle PASS" && contains s "soak: monotone PASS")

let test_soak_rejects_bad_config () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:1L ~ops:100 ~universe:16 () in
  let ops = Workload.Trace.materialize spec in
  match S.run (engine_config ~kills:3 ~restarts:0 dir) ~spec ~ops () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kills > shards accepted"

(* Negative controls: each sink's verdict must be able to FAIL. The
   defect is injected through [on_start], which hands over every
   incarnation's engine before traffic reaches it. *)

(* Engine sink: one key reaches the engine a second time behind the
   sink's back, so published exceeds what the sink accepted. No kills,
   so no loss can mask the invented weight. *)
let test_engine_double_ingest_fails () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:0xD0DL ~ops:8_000 ~universe:512 () in
  let ops = Workload.Trace.materialize spec in
  let v =
    S.run ~on_start:(fun eng -> ignore (Srv.P.ingest eng 7))
      (engine_config ~kills:0 ~restarts:0 dir) ~spec ~ops ()
  in
  Alcotest.(check bool) "verdict FAIL" false v.Net.Soak.pass;
  Alcotest.(check bool) "conservation FAIL" false (check_named v "conservation");
  Alcotest.(check bool) "reason given" true
    (List.exists (fun r -> contains r "conservation") v.Net.Soak.reasons);
  Alcotest.(check bool) "prints FAIL" true
    (contains (Net.Soak.verdict_to_string v) "soak: conservation FAIL")

(* Engine sink: the merger fails to decode one delta, so weight is lost
   although no worker died — only a death may lose weight. *)
module Lossy = struct
  module M = struct
    include CM

    let rejected = Atomic.make false

    let fold b =
      if Atomic.compare_and_set rejected false true then Error Wire.Codec.Bad_magic
      else CM.fold b
  end

  let eval = Sk.eval
  let bound = None
end

module SL = Net.Soak.Make (Lossy)

let test_engine_loss_without_death_fails () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:0x1055L ~ops:8_000 ~universe:512 () in
  let ops = Workload.Trace.materialize spec in
  let v = SL.run (engine_config ~kills:0 ~restarts:0 dir) ~spec ~ops () in
  let i = List.hd v.Net.Soak.incarnations in
  Alcotest.(check int) "no worker death" 0 (i.kills + i.worker_restarts);
  Alcotest.(check bool) "accepted > published" true
    (v.Net.Soak.accepted > v.Net.Soak.published);
  Alcotest.(check bool) "conservation FAIL" false (check_named v "conservation");
  Alcotest.(check bool) "prints FAIL" true
    (contains (Net.Soak.verdict_to_string v) "soak: conservation FAIL")

(* Served sink: one key put into the leader's engine without going
   through the client is weight no ack accounts for. *)
let test_served_unacked_weight_fails () =
  with_dir @@ fun dir ->
  let spec =
    let s = Workload.Trace.default_spec ~seed:0x5E7L ~ops:8_000 ~universe:512 () in
    {
      s with
      Workload.Trace.phases =
        List.map
          (fun (p : Workload.Trace.phase) ->
            { p with Workload.Trace.rate = Workload.Trace.Unlimited })
          s.Workload.Trace.phases;
    }
  in
  let ops = Workload.Trace.materialize spec in
  let cfg =
    {
      (Net.Soak.default_config ~dir
         (Net.Soak.Served
            {
              Net.Soak.default_served with
              partitions = 0;
              faults = Net.Chaos_proxy.no_faults;
            }))
      with
      Net.Soak.restarts = 0;
    }
  in
  let v = S.run ~on_start:(fun eng -> ignore (Srv.P.ingest eng 7)) cfg ~spec ~ops () in
  Alcotest.(check bool) "verdict FAIL" false v.Net.Soak.pass;
  Alcotest.(check bool) "ack envelope FAIL" false (check_named v "ack envelope");
  Alcotest.(check bool) "reason given" true
    (List.exists
       (fun r -> contains r "weight appeared without an ack")
       v.Net.Soak.reasons)

(* --- the CLI's friendly failures (S1 regression) ----------------------- *)

let exe = Filename.concat (Filename.concat ".." "bin") "main.exe"

let quiet cmd = cmd ^ " >/dev/null 2>&1"

(* Run [cmd], returning its exit code and its stdout. *)
let run_cli cmd =
  let out = Filename.temp_file "ivl-cli" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (cmd ^ " >" ^ Filename.quote out ^ " 2>&1") in
      (code, In_channel.with_open_bin out In_channel.input_all))

let test_cli_recover_missing_dir_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    Alcotest.(check int) "recover exits 2" 2
      (Sys.command (quiet (exe ^ " recover --dir /tmp/ivl-definitely-not-there")))

let test_cli_recover_file_dir_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let f = Filename.concat dir "plain" in
    let oc = open_out f in
    output_string oc "x";
    close_out oc;
    Alcotest.(check int) "recover on a plain file exits 2" 2
      (Sys.command (quiet (exe ^ " recover --dir " ^ Filename.quote f)))

let test_cli_soak_bad_dir_parent_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    let code, out =
      run_cli (exe ^ " soak --ops 100 --dir /tmp/ivl-definitely-not-there/sub")
    in
    Alcotest.(check int) "soak --dir under a missing parent exits 2" 2 code;
    Alcotest.(check bool) "names the directory" true
      (contains out "/tmp/ivl-definitely-not-there")

(* Every sketch in the CLI's table soaks, and [recover] reads what a soak
   wrote with the same sketch and seed. *)
let test_cli_soak_hll_passes () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let code, out =
      run_cli
        (exe ^ " soak --sketch hll --ops 2000 --restarts 1 --dir "
       ^ Filename.quote dir)
    in
    Alcotest.(check int) "soak --sketch hll exits 0" 0 code;
    Alcotest.(check bool) "prints soak: PASS" true (contains out "soak: PASS")

let test_cli_recover_reads_kmv_soak () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let d = Filename.quote dir in
    let code, _ =
      run_cli (exe ^ " soak --sketch kmv --ops 4000 --restarts 1 --seed 9 --dir " ^ d)
    in
    Alcotest.(check int) "kmv soak exits 0" 0 code;
    let code, out = run_cli (exe ^ " recover --sketch kmv --seed 9 --dir " ^ d) in
    Alcotest.(check int) "recover --sketch kmv exits 0" 0 code;
    Alcotest.(check bool) "reports the recovered weight" true
      (contains out "carrying published weight")

(* serve started on a CountMin log under another --seed refuses to start
   (exit 2, naming the fingerprint) and leaves the log as it was: the
   writer's seed still recovers the same state. *)
let test_cli_serve_other_seed_keeps_wal () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let d = Filename.quote dir in
    let code, _ =
      run_cli
        (exe ^ " soak --sketch countmin --ops 4000 --restarts 1 --seed 9 --dir " ^ d)
    in
    Alcotest.(check int) "countmin soak exits 0" 0 code;
    let recovered () =
      let code, out =
        run_cli (exe ^ " recover --sketch countmin --seed 9 --dir " ^ d)
      in
      Alcotest.(check int) "recover exits 0" 0 code;
      out
    in
    let before = recovered () in
    let code, out =
      run_cli
        (exe ^ " serve countmin --seed 10 --port 0 --duration 0.1 --wal " ^ d)
    in
    Alcotest.(check int) "serve under another seed exits 2" 2 code;
    Alcotest.(check bool) "names the fingerprint" true (contains out "fingerprint");
    Alcotest.(check string) "the log recovers as before" before (recovered ())

(* A flag the chosen sink cannot use is refused by name, before any run. *)
let test_cli_soak_flag_for_other_sink_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else begin
    Alcotest.(check int) "soak --served --kills exits 2" 2
      (Sys.command (quiet (exe ^ " soak --served --kills 3")));
    Alcotest.(check int) "soak --partitions without --served exits 2" 2
      (Sys.command (quiet (exe ^ " soak --partitions 2")));
    Alcotest.(check int) "soak --served --tear-tail exits 2" 2
      (Sys.command (quiet (exe ^ " soak --served --tear-tail false")))
  end

let () =
  Alcotest.run "soak"
    [
      ( "harness",
        [
          Alcotest.test_case "tiny chaos soak passes" `Quick test_tiny_soak_passes;
          Alcotest.test_case "bad config rejected" `Quick test_soak_rejects_bad_config;
          Alcotest.test_case "engine: double ingest fails conservation" `Quick
            test_engine_double_ingest_fails;
          Alcotest.test_case "engine: loss without a death fails conservation"
            `Quick test_engine_loss_without_death_fails;
          Alcotest.test_case "served: unacked weight fails ack envelope" `Quick
            test_served_unacked_weight_fails;
        ] );
      ( "cli",
        [
          Alcotest.test_case "recover: missing dir exits 2" `Quick
            test_cli_recover_missing_dir_exits_2;
          Alcotest.test_case "recover: plain file exits 2" `Quick
            test_cli_recover_file_dir_exits_2;
          Alcotest.test_case "soak: bad --dir parent exits 2" `Quick
            test_cli_soak_bad_dir_parent_exits_2;
          Alcotest.test_case "soak: hll sketch passes" `Quick
            test_cli_soak_hll_passes;
          Alcotest.test_case "recover: reads a kmv soak" `Quick
            test_cli_recover_reads_kmv_soak;
          Alcotest.test_case "serve: another seed keeps the wal" `Quick
            test_cli_serve_other_seed_keeps_wal;
          Alcotest.test_case "soak: flag for the other sink exits 2" `Quick
            test_cli_soak_flag_for_other_sink_exits_2;
        ] );
    ]
