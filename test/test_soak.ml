(* End-to-end soak runner tests: a miniature engine-sink chaos soak
   (crash/recover cycles, worker kills, torn WAL tails) must come back
   PASS with zero violations; an injected defect must turn each sink's
   verdict to FAIL with a reason; each shared served check must FAIL on
   the input it exists to reject; and the CLI must exit 2 with a
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

let find_check (v : Net.Soak.verdict) name =
  match List.find_opt (fun c -> c.Net.Soak.name = name) v.Net.Soak.checks with
  | Some c -> c
  | None -> Alcotest.failf "verdict has no %s check" name

let check_named v name = (find_check v name).Net.Soak.ok

let test_tiny_soak_passes () =
  with_dir @@ fun dir ->
  let spec = Workload.Trace.default_spec ~seed:0xBEEFL ~ops:24_000 ~universe:1024 () in
  let ops = Workload.Trace.materialize spec in
  let v = S.run (engine_config ~restarts:1 dir) ~spec ~ops () in
  if not v.Net.Soak.pass then
    Alcotest.failf "soak failed:\n%s" (Net.Soak.verdict_to_string v);
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
    (contains (find_check v "conservation").Net.Soak.detail
       "weight conservation failures");
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

(* Engine sink: the oracle can fail. The same CountMin behind a bound
   whose estimates are skewed by [skew]. *)
module Skewed (X : sig
  val skew : int -> int
end) =
struct
  module M = CM

  let eval = Sk.eval

  let bound =
    Option.map
      (fun b ->
        { b with Net.Soak.estimate = (fun g k -> X.skew (b.Net.Soak.estimate g k)) })
      Sk.bound
end

module S_zero = Net.Soak.Make (Skewed (struct
  let skew _ = 0
end))

module S_high = Net.Soak.Make (Skewed (struct
  let skew e = e + 1_000_000_000
end))

(* An estimate of 0 undercounts every key the trace touched ("low", the
   unconditional bound); one that adds 10^9 overcounts every key, far
   past the δ allowance ("high"). The honest bound passes the same
   config. No kills, so no lost weight widens the low bound. *)
let test_engine_oracle_can_fail () =
  let spec = Workload.Trace.default_spec ~seed:0x0AC1EL ~ops:8_000 ~universe:512 () in
  let ops = Workload.Trace.materialize spec in
  let run soak =
    with_dir @@ fun dir -> soak (engine_config ~kills:0 ~restarts:0 dir) ~spec ~ops ()
  in
  let oracle (v : Net.Soak.verdict) f =
    List.fold_left
      (fun acc (i : Net.Soak.incarnation) ->
        match i.oracle with Some o -> acc + f o | None -> Alcotest.fail "no oracle")
      0 v.Net.Soak.incarnations
  in
  let honest = run (fun c -> S.run c) in
  Alcotest.(check bool) "honest oracle PASS" true (check_named honest "oracle");
  Alcotest.(check bool) "honest verdict PASS" true honest.Net.Soak.pass;
  let zero = run (fun c -> S_zero.run c) in
  Alcotest.(check bool) "zero: oracle FAIL" false (check_named zero "oracle");
  Alcotest.(check bool) "zero: low count" true (oracle zero (fun o -> o.lower) > 0);
  Alcotest.(check bool) "zero: prints FAIL" true
    (contains (Net.Soak.verdict_to_string zero) "soak: oracle FAIL");
  let high = run (fun c -> S_high.run c) in
  Alcotest.(check bool) "high: oracle FAIL" false (check_named high "oracle");
  Alcotest.(check int) "high: nothing low" 0 (oracle high (fun o -> o.lower));
  Alcotest.(check bool) "high: above the allowance" true
    (oracle high (fun o -> o.upper) > oracle high (fun o -> o.allowance))

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
    (contains (find_check v "ack envelope").Net.Soak.detail
       "weight appeared without an ack")

(* --- the shared served checks: each one can FAIL ------------------------ *)

let expect_fail (c : Net.Soak.check) why =
  Alcotest.(check bool) (c.Net.Soak.name ^ " FAIL") false c.Net.Soak.ok;
  if not (contains c.Net.Soak.detail why) then
    Alcotest.failf "%s detail %S does not name %S" c.Net.Soak.name c.Net.Soak.detail
      why

let expect_pass (c : Net.Soak.check) =
  if not c.Net.Soak.ok then
    Alcotest.failf "%s FAIL (%s)" c.Net.Soak.name c.Net.Soak.detail

let leg base ingested published = { Net.Soak.base; ingested; published }

let test_check_conservation () =
  expect_pass (Net.Soak.conservation [ leg 0 100 100; leg 100 50 150 ]);
  expect_fail (Net.Soak.conservation [ leg 10 100 109 ])
    "broke published = recovered + ingested";
  expect_fail
    (Net.Soak.conservation [ leg 0 100 100; leg 90 60 150 ])
    "missed the previous published weight";
  expect_fail
    (Net.Soak.conservation ~miscounts:1 [ leg 0 100 100 ])
    "flush accounting"

let test_check_ack_envelope () =
  let env ?(exhausted = 0) acked published =
    Net.Soak.ack_envelope ~acked ~published ~slack:8 ~exhausted
  in
  expect_pass (env 100 100);
  expect_pass (env 108 100);
  expect_fail (env 99 100) "weight appeared without an ack";
  expect_fail (env 109 100) "by more than the slack 8";
  expect_fail (env ~exhausted:3 100 100) "exhausted their retries";
  (* the CLI client judges at slack 0: one acked key still unpublished
     fails *)
  let exact acked published =
    Net.Soak.ack_envelope ~acked ~published ~slack:0 ~exhausted:0
  in
  expect_pass (exact 100 100);
  expect_fail (exact 101 100) "by more than the slack 0"

(* A quiet leader that held accepted weight past the deadline fails, and
   so does one that still holds some at the end; the detail says how long
   it held and how much was left. *)
let test_check_freshness () =
  let c = Net.Soak.freshness ~width:0 ~held:0.0031 ~deadline:0.052 in
  expect_pass c;
  Alcotest.(check bool) "names the hold" true
    (contains c.Net.Soak.detail
       "longest quiet hold 3.1 ms, deadline 52 ms, final envelope width 0");
  expect_fail
    (Net.Soak.freshness ~width:0 ~held:0.2031 ~deadline:0.052)
    "a quiet leader held accepted keys for 203.1 ms";
  expect_fail
    (Net.Soak.freshness ~width:481 ~held:0.01 ~deadline:0.052)
    "481 accepted keys still unpublished at the end"

let test_check_replica_envelope () =
  let env ?(faults = 0) ?(resyncs = 0) samples ahead =
    Net.Soak.replica_envelope ~samples ~ahead ~faults ~resyncs
  in
  expect_pass (env 10 0);
  expect_pass (env ~faults:2 ~resyncs:1 10 0);
  expect_fail (env 10 1) "follower led the leader in 1 of 10";
  expect_fail (env 0 0) "no staleness samples";
  expect_fail (env ~faults:2 10 0) "no resync despite 2 fault events"

(* A replica that follows an idle leader holds what the leader holds —
   nothing. Equal weights alone would call that convergence; the check
   must not. *)
let test_check_convergence_empty_leader () =
  let empty =
    { Net.Soak.epoch = 0; published = 0; blob = Some (Bytes.of_string "e") }
  in
  expect_fail (Net.Soak.convergence ~leader:empty ~follower:empty ())
    "the leader never published";
  expect_fail
    (Net.Soak.convergence
       ~leader:{ empty with blob = None }
       ~follower:empty ())
    "no leader snapshot"

let test_check_convergence_bit_for_bit () =
  let leader =
    { Net.Soak.epoch = 7; published = 40; blob = Some (Bytes.of_string "abc") }
  in
  let c = Net.Soak.convergence ~leader ~follower:leader () in
  expect_pass c;
  Alcotest.(check bool) "names the weight" true
    (contains c.Net.Soak.detail "follower epoch 7 published 40, bit-for-bit");
  expect_fail
    (Net.Soak.convergence ~leader
       ~follower:{ leader with blob = Some (Bytes.of_string "abd") }
       ())
    "follower sketch differs from the leader's";
  expect_fail
    (Net.Soak.convergence ~leader ~follower:{ leader with blob = None } ())
    "follower held no sketch";
  expect_fail
    (Net.Soak.convergence ~status:"resyncing: eof" ~leader
       ~follower:{ leader with epoch = 6 }
       ())
    "never reached the leader's epoch (status resyncing: eof)";
  expect_fail
    (Net.Soak.convergence ~leader ~follower:{ leader with published = 39 } ())
    "published weights differ"

(* One breach fails the slo check, and so does a final state that is
   not ok. *)
let test_check_slo () =
  let level = ref 0.0 in
  let monitor =
    Obs.Slo.create
      ~budget:{ Obs.Slo.envelope_width = 100.0; staleness = 100.0; merge_lag = 1.0 }
      ~envelope:(fun () -> !level)
      ~staleness:(fun () -> -1.0)
      ~merge_lag:(fun () -> -1.0)
      ()
  in
  expect_pass (Net.Soak.slo monitor);
  level := 90.0;
  expect_fail (Net.Soak.slo monitor) "final state warning, not ok";
  level := 200.0;
  for _ = 1 to Obs.Slo.breach_after do
    ignore (Obs.Slo.eval monitor)
  done;
  (* back in budget: Breach -> Warning after clear_after evals, -> Ok on
     the check's own eval, yet the breach stays *)
  level := 0.0;
  for _ = 1 to Obs.Slo.clear_after do
    ignore (Obs.Slo.eval monitor)
  done;
  let c = Net.Soak.slo monitor in
  expect_fail c "breached, last by envelope_width at 2.00x";
  Alcotest.(check bool) "only the breach fails it" true
    (contains c.Net.Soak.detail "1 breaches, final state ok:")

let test_report_format () =
  let ok = { Net.Soak.name = "a"; ok = true; detail = "x" } in
  let bad = { Net.Soak.name = "b c"; ok = false; detail = "y: z" } in
  Alcotest.(check string) "pass" "serve: a PASS (x)\nserve: PASS\n"
    (Net.Soak.report ~who:"serve" [ ok ]);
  Alcotest.(check string) "fail"
    "replica: a PASS (x)\nreplica: b c FAIL (y: z)\nreplica: FAIL\n"
    (Net.Soak.report ~who:"replica" [ ok; bad ])

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

(* The CLI serves only counter and countmin: a retired sketch name is a
   usage error whose list names exactly those two. *)
let test_cli_soak_hll_exits_2 () =
  if not (Sys.file_exists exe) then ()
  else
    with_dir @@ fun dir ->
    let code, out =
      run_cli
        (exe ^ " soak --sketch hll --ops 2000 --restarts 1 --dir "
       ^ Filename.quote dir)
    in
    Alcotest.(check int) "soak --sketch hll exits 2" 2 code;
    Alcotest.(check bool) "lists exactly counter countmin" true
      (contains out "unknown sketch hll (available: counter countmin)\n")

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

(* The replica command judges convergence with the shared check, against
   a live leader: an in-process counter server. *)
module CSrv = Net.Server.Make (Pipeline.Targets.Counter)

let with_counter_server f =
  let srv =
    CSrv.create
      ~eval:(fun _ _ -> None)
      ~make_engine:(fun ~on_merge -> CSrv.P.create ~shards:2 ~batch:4 ~on_merge ())
      ()
  in
  Fun.protect ~finally:(fun () -> ignore (CSrv.stop srv)) (fun () -> f srv)

let replica_cli srv ~duration =
  run_cli
    (Printf.sprintf "%s replica counter --port %d --duration %g --settle 3" exe
       (CSrv.port srv) duration)

(* A replica following a leader that never publishes must not pass
   convergence: two empty states equal each other and show nothing. *)
let test_cli_replica_idle_leader_fails () =
  if not (Sys.file_exists exe) then ()
  else
    with_counter_server @@ fun srv ->
    let code, out = replica_cli srv ~duration:1.0 in
    Alcotest.(check bool) "exits non-zero" true (code <> 0);
    Alcotest.(check bool) "no convergence PASS" false (contains out "convergence PASS");
    Alcotest.(check bool) "names the reason" true
      (contains out "replica: convergence FAIL" && contains out "the leader never published");
    Alcotest.(check bool) "overall FAIL" true (contains out "replica: FAIL")

let test_cli_replica_converges () =
  if not (Sys.file_exists exe) then ()
  else
    with_counter_server @@ fun srv ->
    let eng = CSrv.engine srv in
    for k = 1 to 64 do
      ignore (CSrv.P.ingest eng k)
    done;
    let code, out = replica_cli srv ~duration:10.0 in
    let published, epoch = CSrv.P.published_at eng in
    Alcotest.(check int) "exits 0" 0 code;
    Alcotest.(check bool) "leader published" true (published > 0);
    Alcotest.(check bool) "convergence PASS at the leader's state" true
      (contains out
         (Printf.sprintf
            "replica: convergence PASS (leader epoch %d published %d, follower \
             epoch %d published %d, bit-for-bit)"
            epoch published epoch published));
    Alcotest.(check bool) "envelope PASS" true
      (contains out "replica: replica envelope PASS");
    Alcotest.(check bool) "overall PASS" true (contains out "replica: PASS")

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
          Alcotest.test_case "engine: skewed estimates fail the oracle" `Quick
            test_engine_oracle_can_fail;
        ] );
      ( "cli",
        [
          Alcotest.test_case "recover: missing dir exits 2" `Quick
            test_cli_recover_missing_dir_exits_2;
          Alcotest.test_case "recover: plain file exits 2" `Quick
            test_cli_recover_file_dir_exits_2;
          Alcotest.test_case "soak: bad --dir parent exits 2" `Quick
            test_cli_soak_bad_dir_parent_exits_2;
          Alcotest.test_case "soak: hll sketch exits 2" `Quick
            test_cli_soak_hll_exits_2;
          Alcotest.test_case "serve: another seed keeps the wal" `Quick
            test_cli_serve_other_seed_keeps_wal;
          Alcotest.test_case "soak: flag for the other sink exits 2" `Quick
            test_cli_soak_flag_for_other_sink_exits_2;
          Alcotest.test_case "replica: an idle leader fails convergence" `Quick
            test_cli_replica_idle_leader_fails;
          Alcotest.test_case "replica: converges on a published leader" `Quick
            test_cli_replica_converges;
        ] );
      ( "checks",
        [
          Alcotest.test_case "conservation can fail" `Quick test_check_conservation;
          Alcotest.test_case "ack envelope can fail" `Quick test_check_ack_envelope;
          Alcotest.test_case "freshness can fail" `Quick test_check_freshness;
          Alcotest.test_case "replica envelope can fail" `Quick
            test_check_replica_envelope;
          Alcotest.test_case "convergence: empty leader fails" `Quick
            test_check_convergence_empty_leader;
          Alcotest.test_case "convergence: bit-for-bit" `Quick
            test_check_convergence_bit_for_bit;
          Alcotest.test_case "slo: one breach fails" `Quick test_check_slo;
          Alcotest.test_case "one report format" `Quick test_report_format;
        ] );
    ]
