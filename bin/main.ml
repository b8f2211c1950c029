(* ivl-cli: ad-hoc access to the library's checkers, simulators and sketches.

   Subcommands:
     replay   print a canned scenario's history and checker verdicts
     fuzz     random-schedule fuzzing of an algorithm against its spec
     steps    step-complexity measurement in the SWMR simulator
     sketch   run the concurrent CountMin on a synthetic stream

   Examples:
     dune exec bin/main.exe -- replay example9
     dune exec bin/main.exe -- fuzz --algo pcm --trials 500
     dune exec bin/main.exe -- steps --algo snapshot --procs 16
     dune exec bin/main.exe -- sketch --shape zipf --skew 1.2 --length 100000 *)

module M = Simulation.Machine
module S = Simulation.Sched
module A = Simulation.Algos

module Counter_check = Ivl.Check.Make (Spec.Counter_spec)
module Counter_lin = Ivl.Lincheck.Make (Spec.Counter_spec)
module Counter_explain = Ivl.Explain.Make (Spec.Counter_spec)


(* The exact checkers refuse histories beyond their 62-operation bitmask
   budget; turn the raised exception into a friendly diagnostic (exit 2)
   rather than an uncaught backtrace. *)
let with_search_guard f =
  try f ()
  with Ivl.Search.Too_many_operations n ->
    Printf.eprintf
      "error: this history has %d candidate operations, but the exact checker \
       budget is 62 ops.\n\
       Shorten the scripts, or use the scalable envelope checker (the \
       `envelope` subcommand) for large histories.\n"
      n;
    2

(* ------------------------------ replay ------------------------------ *)

let example9_hash row x =
  match (row, x) with 0, (0 | 1) -> 0 | 0, _ -> 1 | 1, (0 | 2) -> 0 | _ -> 1

let example9_family =
  Hashing.Family.of_mapping ~width:2
    [| (fun x -> example9_hash 0 x); (fun x -> example9_hash 1 x) |]

module Cm9 = Spec.Countmin_spec.Fixed (struct
  let family = example9_family
end)

module Cm9_check = Ivl.Check.Make (Cm9)
module Cm9_lin = Ivl.Lincheck.Make (Cm9)
module Cm9_explain = Ivl.Explain.Make (Cm9)
module Updown_check = Ivl.Check.Make (Spec.Updown_spec)
module Updown_lin = Ivl.Lincheck.Make (Spec.Updown_spec)

let replay_example9 () =
  let pcm = A.Pcm_sim.make ~d:2 ~w:2 ~hash:example9_hash () in
  let scripts =
    [|
      List.map (fun e -> A.Pcm_sim.update_op pcm ~a:e ()) [ 0; 2; 3; 3; 3; 0 ];
      [ A.Pcm_sim.query_op pcm ~a:0 (); A.Pcm_sim.query_op pcm ~a:2 () ];
    |]
  in
  let sched = S.Explicit (List.init 11 (fun _ -> 0) @ [ 1; 1; 1; 1; 0 ]) in
  let r = M.run ~registers:(A.Pcm_sim.zero_registers pcm) ~scripts ~sched () in
  print_endline "Example 9 (Section 5): update(a) straddles two queries";
  print_endline (Hist.Ascii.render_int r.M.history);
  print_newline ();
  print_string (Cm9_explain.to_string r.M.history)

let replay_figure2 () =
  let n = 3 in
  let scripts =
    [|
      [ A.Ivl_counter.update_op ~proc:0 ~amount:5 () ];
      [ A.Ivl_counter.update_op ~proc:1 ~amount:2 () ];
      [ A.Ivl_counter.read_op ~n () ];
    |]
  in
  let r =
    M.run ~registers:(A.Ivl_counter.registers ~n) ~scripts
      ~sched:(S.Explicit [ 2; 0; 0; 1; 1; 2; 2 ]) ()
  in
  print_endline "Figure 2 (Section 6): read misses an earlier update, sees a later one";
  print_endline (Hist.Ascii.render_int r.M.history);
  print_newline ();
  print_string (Counter_explain.to_string r.M.history)

let replay scenario =
  with_search_guard @@ fun () ->
  (match scenario with
  | "example9" -> replay_example9 ()
  | "figure2" -> replay_figure2 ()
  | other ->
      Printf.eprintf "unknown scenario %s (available: example9 figure2)\n" other;
      exit 1);
  0

(* ------------------------------ fuzz ------------------------------ *)

(* A fuzzable configuration: fresh scripts per run (operations carry run-local
   closures), pluggable schedule and fault plan, and the matching checkers. *)
type fuzz_target = {
  procs : int;
  run : faults:Simulation.Fault.plan -> S.t -> M.result;
  traced : faults:Simulation.Fault.plan -> S.t -> M.result * int list;
  default_sched : int64 -> S.t;
  is_ivl : (int, int, int) Hist.History.t -> bool;
  is_lin : (int, int, int) Hist.History.t -> bool;
}

let fuzz_target ?(ops = 1) algo =
  let make ~procs ~registers ~scripts ~default_sched ~is_ivl ~is_lin =
    (* Repeat each process's script [ops] times (operations carry run-local
       closures, so every repetition re-invokes the constructors). *)
    let scripts () =
      Array.map
        (fun base -> List.concat (List.init ops (fun _ -> base ())))
        (scripts ())
    in
    {
      procs;
      run =
        (fun ~faults sched -> M.run ~faults ~registers ~scripts:(scripts ()) ~sched ());
      traced =
        (fun ~faults sched ->
          M.run_traced ~faults ~registers ~scripts:(scripts ()) ~sched ());
      default_sched;
      is_ivl;
      is_lin;
    }
  in
  match algo with
  | "counter" ->
      let n = 3 in
      make ~procs:n
        ~registers:(A.Ivl_counter.registers ~n)
        ~scripts:(fun () ->
          [|
            (fun () ->
              [
                A.Ivl_counter.update_op ~proc:0 ~amount:3 ();
                A.Ivl_counter.update_op ~proc:0 ~amount:1 ();
              ]);
            (fun () -> [ A.Ivl_counter.update_op ~proc:1 ~amount:2 () ]);
            (fun () -> [ A.Ivl_counter.read_op ~n (); A.Ivl_counter.read_op ~n () ]);
          |])
        ~default_sched:(fun s -> S.Random s)
        ~is_ivl:Counter_check.is_ivl ~is_lin:Counter_lin.is_linearizable
  | "snapshot" ->
      let n = 3 in
      make ~procs:n
        ~registers:(Simulation.Snapshot.registers ~n)
        ~scripts:(fun () ->
          [|
            (fun () -> [ Simulation.Snapshot.update_op ~n ~proc:0 ~amount:3 () ]);
            (fun () -> [ Simulation.Snapshot.update_op ~n ~proc:1 ~amount:2 () ]);
            (fun () -> [ Simulation.Snapshot.read_op ~n () ]);
          |])
        ~default_sched:(fun s -> S.Random s)
        ~is_ivl:Counter_check.is_ivl ~is_lin:Counter_lin.is_linearizable
  | "pcm" ->
      let pcm = A.Pcm_sim.make ~d:2 ~w:2 ~hash:example9_hash () in
      make ~procs:2
        ~registers:(A.Pcm_sim.zero_registers pcm)
        ~scripts:(fun () ->
          [|
            (fun () ->
              List.map (fun e -> A.Pcm_sim.update_op pcm ~a:e ()) [ 0; 2; 3; 0 ]);
            (fun () ->
              [ A.Pcm_sim.query_op pcm ~a:0 (); A.Pcm_sim.query_op pcm ~a:2 () ]);
          |])
        ~default_sched:(fun s -> S.Random s)
        ~is_ivl:Cm9_check.is_ivl ~is_lin:Cm9_lin.is_linearizable
  | "updown-buggy" | "updown-safe" ->
      let variant = if algo = "updown-buggy" then `Buggy else `Safe in
      make ~procs:2 ~registers:A.Updown_two_cell.registers
        ~scripts:(fun () ->
          [|
            (fun () ->
              [
                A.Updown_two_cell.update_op ~delta:1 ();
                A.Updown_two_cell.update_op ~delta:(-1) ();
              ]);
            (fun () -> [ A.Updown_two_cell.read_op ~variant () ]);
          |])
        ~default_sched:(fun s ->
          S.Stall { victim = 1; after = 1; for_steps = 4; seed = s })
        ~is_ivl:Updown_check.is_ivl ~is_lin:Updown_lin.is_linearizable
  | other ->
      Printf.eprintf
        "unknown algo %s (available: counter snapshot pcm updown-buggy updown-safe)\n"
        other;
      exit 1

(* One random crash fault derived from the trial seed: half the time a
   crash-stop after a few total steps, half the time a mid-operation death. *)
let random_crash_plan ~procs s =
  let g = Rng.Splitmix.create (Int64.logxor s 0x9E3779B97F4A7C15L) in
  let victim = Rng.Splitmix.next_int g procs in
  if Rng.Splitmix.next_int g 2 = 0 then
    [ Simulation.Fault.Crash_stop { victim; after_steps = 1 + Rng.Splitmix.next_int g 6 } ]
  else
    [
      Simulation.Fault.Crash_in_op
        {
          victim;
          nth_op = 1 + Rng.Splitmix.next_int g 2;
          after_op_steps = 1 + Rng.Splitmix.next_int g 2;
        };
    ]

let shrink_and_print t ~faults sched =
  let _, trace = t.traced ~faults sched in
  let violates cand =
    not (t.is_ivl (t.run ~faults (S.Explicit cand)).M.history)
  in
  if not (violates trace) then
    print_endline "  (trace replay did not reproduce the violation; skipping shrink)"
  else begin
    let minimal = Simulation.Shrink.minimize ~check:violates trace in
    let r = t.run ~faults (S.Explicit minimal) in
    Printf.printf "shrunk schedule: %d -> %d steps (%d replays)\n"
      (List.length trace) (List.length minimal)
      (Simulation.Shrink.checks_used ());
    Printf.printf "replay with: Explicit [%s]\n"
      (String.concat "; " (List.map string_of_int minimal));
    Printf.printf "minimized history:\n%s\n" (Hist.Ascii.render_int r.M.history)
  end

let fuzz algo trials seed ops shrink crash =
  with_search_guard @@ fun () ->
  if ops < 1 then begin
    Printf.eprintf "error: --ops must be >= 1\n";
    exit 1
  end;
  let t = fuzz_target ~ops algo in
  let violations = ref 0
  and non_lin = ref 0
  and crashed_runs = ref 0
  and abandoned_ops = ref 0
  and audit_failures = ref 0
  and shrunk = ref false in
  for trial = 1 to trials do
    let s = Int64.add seed (Int64.of_int trial) in
    let faults = if crash then random_crash_plan ~procs:t.procs s else [] in
    let sched = t.default_sched s in
    let r = t.run ~faults sched in
    if r.M.crashed <> [] then begin
      incr crashed_runs;
      abandoned_ops :=
        !abandoned_ops + List.length (Hist.History.pending r.M.history)
    end;
    (match M.audit_progress r with
    | Ok _ -> ()
    | Error msg ->
        incr audit_failures;
        Printf.printf "progress audit failed at trial %d (%s): %s\n" trial
          (Simulation.Fault.describe faults)
          msg);
    let h = r.M.history in
    if not (t.is_ivl h) then begin
      incr violations;
      Printf.printf "IVL violation at trial %d (%s):\n%s\n" trial
        (Simulation.Fault.describe faults)
        (Hist.Ascii.render_int h);
      if shrink && not !shrunk then begin
        shrunk := true;
        shrink_and_print t ~faults sched
      end
    end;
    if not (t.is_lin h) then incr non_lin
  done;
  Printf.printf "%d trials: %d IVL violations, %d non-linearizable schedules\n"
    trials !violations !non_lin;
  if crash then
    Printf.printf
      "crash injection: %d/%d runs crashed a process (%d operations left \
       pending), %d progress-audit failures\n"
      !crashed_runs trials !abandoned_ops !audit_failures;
  if !violations = 0 && !audit_failures = 0 then 0 else 1

(* ------------------------------ steps ------------------------------ *)

let steps algo procs =
  let n = procs in
  let result =
    match algo with
    | "ivl" ->
        let scripts =
          Array.init (n + 1) (fun p ->
              if p < n then [ A.Ivl_counter.update_op ~proc:p ~amount:1 () ]
              else [ A.Ivl_counter.read_op ~n:(n + 1) () ])
        in
        M.run
          ~registers:(A.Ivl_counter.registers ~n:(n + 1))
          ~scripts ~sched:S.Round_robin ()
    | "snapshot" ->
        let scripts =
          Array.init (n + 1) (fun p ->
              if p < n then [ Simulation.Snapshot.update_op ~n:(n + 1) ~proc:p ~amount:1 () ]
              else [ Simulation.Snapshot.read_op ~n:(n + 1) () ])
        in
        M.run
          ~registers:(Simulation.Snapshot.registers ~n:(n + 1))
          ~scripts ~sched:S.Round_robin ()
    | other ->
        Printf.eprintf "unknown algo %s (available: ivl snapshot)\n" other;
        exit 1
  in
  Printf.printf "%s batched counter, %d updaters + 1 reader (round-robin):\n" algo n;
  List.iter
    (fun (label, steps) ->
      let avg =
        float_of_int (List.fold_left ( + ) 0 steps) /. float_of_int (List.length steps)
      in
      Printf.printf "  %-8s avg %.1f steps  max %d\n" label avg
        (List.fold_left max 0 steps))
    (M.steps_by_label result);
  0

(* ------------------------------ sketch ------------------------------ *)

let parse_shape shape skew universe =
  match shape with
  | "zipf" -> Workload.Stream.Zipf (universe, skew)
  | "uniform" -> Workload.Stream.Uniform universe
  | "bursty" -> Workload.Stream.Bursty (universe, 64)
  | other ->
      Printf.eprintf "unknown shape %s (available: zipf uniform bursty)\n" other;
      exit 1

let sketch shape skew universe length alpha delta top =
  let shape = parse_shape shape skew universe in
  let pcm = Conc.Pcm.create_for_error ~seed:42L ~alpha ~delta in
  Printf.printf "PCM %d x %d, %s, %d updates on 4 domains\n" (Conc.Pcm.rows pcm)
    (Conc.Pcm.width pcm)
    (Workload.Stream.describe shape)
    length;
  let stream = Workload.Stream.generate ~seed:7L shape ~length in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _, dt =
    Conc.Runner.parallel_timed ~domains:4 (fun i b ->
        Conc.Barrier.await b;
        Array.iter (Conc.Pcm.update pcm) chunks.(i))
  in
  Printf.printf "ingested in %.3fs (%.2f Mops/s)\n" dt
    (float_of_int length /. dt /. 1e6);
  let exact = Sketches.Exact.create () in
  Array.iter (Sketches.Exact.update exact) stream;
  Printf.printf "%-8s %-10s %-10s %-8s\n" "element" "true" "estimate" "excess";
  List.iter
    (fun e ->
      let f = Sketches.Exact.frequency exact e and est = Conc.Pcm.query pcm e in
      Printf.printf "%-8d %-10d %-10d %-8d\n" e f est (est - f))
    (List.init top Fun.id);
  0

(* ------------------------------ envelope ------------------------------ *)

(* Record a real multicore execution of the IVL counter and validate every
   read against its monotone envelope (Ivl.Monotone) — scalable end-to-end
   checking on executions far beyond the exact checkers' reach. *)
let envelope writers updates reads =
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let rec_ = Conc.Recorder.create ~domains:(writers + 1) in
  let c = Conc.Ivl_counter.create ~procs:writers in
  let _ =
    Conc.Runner.parallel ~domains:(writers + 1) (fun i ->
        if i < writers then
          for k = 1 to updates do
            Conc.Recorder.record_update rec_ ~domain:i ~obj:0 (k mod 5) (fun () ->
                Conc.Ivl_counter.update c ~proc:i (k mod 5))
          done
        else
          for _ = 1 to reads do
            ignore
              (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 0 (fun () ->
                   Conc.Ivl_counter.read c))
          done)
  in
  let h = Conc.Recorder.history rec_ in
  let total_ops = List.length (Hist.History.completed h) in
  let envelopes = Mono.envelopes h in
  let widths =
    List.map (fun (e : Mono.envelope) -> float_of_int (e.Mono.high - e.Mono.low)) envelopes
  in
  let violations = Mono.violations h in
  Printf.printf "recorded %d operations (%d writers x %d updates + %d reads)\n"
    total_ops writers updates reads;
  if widths <> [] then begin
    let arr = Array.of_list widths in
    Printf.printf "read envelopes: median width %.0f, p99 %.0f, max %.0f\n"
      (Stats.Percentile.median arr)
      (Stats.Percentile.percentile arr 99.0)
      (Stats.Percentile.percentile arr 100.0)
  end;
  Printf.printf "envelope violations: %d\n" (List.length violations);
  if violations = [] then 0 else 1

(* ------------------------------ explore ------------------------------ *)

(* Exhaustive schedule-space model checking of a small configuration. *)
let explore algo updaters =
  let histories, check, lin =
    match algo with
    | "counter" ->
        let n = updaters + 1 in
        let mk () =
          Array.init n (fun p ->
              if p < updaters then [ A.Ivl_counter.update_op ~proc:p ~amount:(p + 2) () ]
              else [ A.Ivl_counter.read_op ~n () ])
        in
        ( M.explore ~registers:(A.Ivl_counter.registers ~n) ~scripts:mk (),
          Counter_check.is_ivl,
          Counter_lin.is_linearizable )
    | "pcm" ->
        let pcm = A.Pcm_sim.make ~d:2 ~w:2 ~hash:example9_hash () in
        let mk () =
          [|
            List.map (fun e -> A.Pcm_sim.update_op pcm ~a:e ()) [ 0; 2; 3; 3; 3; 0 ];
            [ A.Pcm_sim.query_op pcm ~a:0 (); A.Pcm_sim.query_op pcm ~a:2 () ];
          |]
        in
        (M.explore ~registers:(A.Pcm_sim.zero_registers pcm) ~scripts:mk (),
         Cm9_check.is_ivl, Cm9_lin.is_linearizable)
    | "updown-buggy" | "updown-safe" ->
        let variant = if algo = "updown-buggy" then `Buggy else `Safe in
        let mk () =
          [|
            [ A.Updown_two_cell.update_op ~delta:1 ();
              A.Updown_two_cell.update_op ~delta:(-1) () ];
            [ A.Updown_two_cell.read_op ~variant () ];
          |]
        in
        (M.explore ~registers:A.Updown_two_cell.registers ~scripts:mk (),
         Updown_check.is_ivl, Updown_lin.is_linearizable)
    | other ->
        Printf.eprintf
          "unknown algo %s (available: counter pcm updown-buggy updown-safe)\n" other;
        exit 1
  in
  let total = List.length histories in
  let ivl_fail = List.filter (fun h -> not (check h)) histories in
  let lin_ok = List.length (List.filter lin histories) in
  Printf.printf "%d distinct histories over the entire schedule space\n" total;
  Printf.printf "IVL: %d/%d    linearizable: %d/%d\n" (total - List.length ivl_fail)
    total lin_ok total;
  (match ivl_fail with
  | [] -> ()
  | h :: _ ->
      Printf.printf "\nfirst IVL violation:\n%s\n" (Hist.Ascii.render_int h));
  if ivl_fail = [] then 0 else 1

(* ------------------------------ chaos ------------------------------ *)

(* Soak-test the real multicore objects under injected faults: randomized
   yields/stalls at operation boundaries plus emulated mid-operation domain
   death (Chaos.Killed raised between a recorded invocation and its
   response). Recorded histories go through the scalable envelope checker;
   pending operations must belong to killed domains only. *)

let pp_int_list l = "[" ^ String.concat "; " (List.map string_of_int l) ^ "]"

(* Collect problems from a parallel_result array: Killed is the injected
   fault and expected; anything else is a bug. *)
let unexpected_errors results =
  let problems = ref [] in
  Array.iteri
    (fun i -> function
      | Ok () | Error (Conc.Chaos.Killed _) -> ()
      | Error e ->
          problems :=
            Printf.sprintf "domain %d raised %s" i (Printexc.to_string e)
            :: !problems)
    results;
  List.rev !problems

let pending_on_survivors h ~killed =
  List.filter_map
    (fun (o : (int, int, int) Hist.Op.t) ->
      if List.mem o.Hist.Op.proc killed then None
      else
        Some
          (Printf.sprintf "operation #%d pending on surviving domain %d"
             o.Hist.Op.id o.Hist.Op.proc))
    (Hist.History.pending h)

(* The recorded-chaos harness shared by the IVL objects: [domains] writers
   apply [update_arg d k] for k = 1..ops, one reader queries
   [query_arg k] ops/2 times, every operation recorded around chaos
   points; the history must pass [violations] with nothing pending on a
   survivor. *)
let chaos_recorded name ~domains ~ops ~kills ~seed ~update_arg ~update
    ~query_arg ~query ~violations =
  let writers = domains in
  let total = writers + 1 in
  let plan =
    Conc.Chaos.plan
      ~kills:
        (Conc.Chaos.random_kills ~seed ~domains:total ~victims:kills
           ~max_point:ops)
      ~seed ()
  in
  let ch = Conc.Chaos.instantiate plan ~domains:total in
  let rec_ = Conc.Recorder.create ~domains:total in
  let reads = max 1 (ops / 2) in
  let results =
    Conc.Runner.parallel_result ~domains:total (fun i ->
        if i < writers then
          for k = 1 to ops do
            Conc.Chaos.point ch ~domain:i;
            let v = update_arg i k in
            Conc.Recorder.record_update rec_ ~domain:i ~obj:0 v (fun () ->
                Conc.Chaos.point ch ~domain:i;
                update ~domain:i v;
                Conc.Chaos.point ch ~domain:i)
          done
        else
          for k = 1 to reads do
            Conc.Chaos.point ch ~domain:i;
            let q = query_arg k in
            ignore
              (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 q (fun () ->
                   Conc.Chaos.point ch ~domain:i;
                   query q))
          done)
  in
  let killed = Conc.Chaos.killed ch in
  let h = Conc.Recorder.history rec_ in
  let viols = violations h in
  let problems =
    unexpected_errors results
    @ pending_on_survivors h ~killed
    @
    if viols = 0 then []
    else [ Printf.sprintf "%d IVL envelope violations" viols ]
  in
  Printf.printf
    "%s: %d writers + 1 reader, killed %s; %d ops recorded (%d left \
     pending), envelope violations: %d\n"
    name writers (pp_int_list killed)
    (List.length (Hist.History.ops h))
    (List.length (Hist.History.pending h))
    viols;
  problems

let chaos_counter ~domains ~ops ~kills ~seed =
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let c = Conc.Ivl_counter.create ~procs:domains in
  chaos_recorded "counter" ~domains ~ops ~kills ~seed
    ~update_arg:(fun _ k -> 1 + (k mod 3))
    ~update:(fun ~domain v -> Conc.Ivl_counter.update c ~proc:domain v)
    ~query_arg:(fun _ -> 0)
    ~query:(fun _ -> Conc.Ivl_counter.read c)
    ~violations:(fun h -> List.length (Mono.violations h))

let chaos_pcm ~domains ~ops ~kills ~seed =
  let family = Hashing.Family.seeded ~seed:(Int64.add seed 13L) ~rows:3 ~width:64 in
  let module CmSpec = Spec.Countmin_spec.Fixed (struct
    let family = family
  end) in
  let module Mono = Ivl.Monotone.Make (CmSpec) in
  let universe = 128 in
  let pcm = Conc.Pcm.create ~family in
  chaos_recorded "pcm" ~domains ~ops ~kills ~seed
    ~update_arg:(fun d k ->
      (((d * 1_000_003) + (k * 7919)) land max_int) mod universe)
    ~update:(fun ~domain:_ e -> Conc.Pcm.update pcm e)
    ~query_arg:(fun k -> k mod universe)
    ~query:(Conc.Pcm.query pcm)
    ~violations:(fun h -> List.length (Mono.violations h))

(* The striped sketches publish in batches, so mid-stream queries may lag
   the envelope; the chaos soak checks liveness (no hangs, survivors finish)
   plus each sketch's merged-view guarantees after a final flush. *)
let chaos_striped target ~domains ~ops ~kills ~seed =
  let universe = 512 in
  (* Pure per-(domain, index) element stream: replayable for ground truth
     even when a kill truncates a writer mid-loop. Every 4th item is the hot
     element 0 so Space-Saving has a guaranteed heavy hitter. *)
  let elem d k =
    if k mod 4 = 0 then 0
    else (((d * 1_000_003) + (k * 7919)) land max_int) mod universe
  in
  let counts = Array.make domains 0 in
  let writers = domains in
  let total = writers + 1 in
  let plan =
    Conc.Chaos.plan
      ~kills:
        (Conc.Chaos.random_kills ~seed ~domains:writers ~victims:kills
           ~max_point:ops)
      ~seed ()
  in
  let ch = Conc.Chaos.instantiate plan ~domains:total in
  let update, read_probe, finish =
    match target with
    | "topk" ->
        let t = Conc.Striped_topk.create ~seed ~domains:writers () in
        ( (fun ~domain e -> Conc.Striped_topk.update t ~domain e),
          (fun () -> ignore (Conc.Striped_topk.query t 0)),
          fun () ->
            Conc.Striped_topk.flush_all t;
            let total_items = Array.fold_left ( + ) 0 counts in
            let hot_true =
              Array.to_list counts
              |> List.mapi (fun d n ->
                     let h = ref 0 in
                     for k = 1 to n do
                       if elem d k = 0 then incr h
                     done;
                     !h)
              |> List.fold_left ( + ) 0
            in
            let est = Conc.Striped_topk.query t 0 in
            let err = Conc.Striped_topk.guaranteed_error t in
            let problems = ref [] in
            if Conc.Striped_topk.published t <> total_items then
              problems :=
                Printf.sprintf "published %d <> ingested %d"
                  (Conc.Striped_topk.published t) total_items
                :: !problems;
            if est < hot_true || est > hot_true + err then
              problems :=
                Printf.sprintf
                  "hot-element estimate %d outside [%d, %d + %d]" est hot_true
                  hot_true err
                :: !problems;
            !problems )
    | "kmv" ->
        let t = Conc.Striped_kmv.create ~seed ~domains:writers () in
        ( (fun ~domain e -> Conc.Striped_kmv.update t ~domain e),
          (fun () -> ignore (Conc.Striped_kmv.estimate t)),
          fun () ->
            Conc.Striped_kmv.flush_all t;
            let distinct = Hashtbl.create 97 in
            Array.iteri
              (fun d n ->
                for k = 1 to n do
                  Hashtbl.replace distinct (elem d k) ()
                done)
              counts;
            let truth = float_of_int (Hashtbl.length distinct) in
            let est = Conc.Striped_kmv.estimate t in
            if truth > 0.0 && (est < 0.3 *. truth || est > 3.0 *. truth) then
              [
                Printf.sprintf "distinct estimate %.0f far from true %.0f" est
                  truth;
              ]
            else [] )
    | "quantiles" ->
        let t = Conc.Striped_quantiles.create ~seed ~domains:writers () in
        ( (fun ~domain e -> Conc.Striped_quantiles.update t ~domain e),
          (fun () -> ignore (Conc.Striped_quantiles.rank t (universe / 2))),
          fun () ->
            Conc.Striped_quantiles.flush_all t;
            let total_items = Array.fold_left ( + ) 0 counts in
            let problems = ref [] in
            if Conc.Striped_quantiles.published t <> total_items then
              problems :=
                Printf.sprintf "published %d <> ingested %d"
                  (Conc.Striped_quantiles.published t) total_items
                :: !problems;
            let r_lo = Conc.Striped_quantiles.rank t 0
            and r_mid = Conc.Striped_quantiles.rank t (universe / 2)
            and r_hi = Conc.Striped_quantiles.rank t universe in
            if not (r_lo <= r_mid && r_mid <= r_hi) then
              problems :=
                Printf.sprintf "ranks not monotone: %d %d %d" r_lo r_mid r_hi
                :: !problems;
            !problems )
    | other ->
        Printf.eprintf
          "unknown chaos target %s (available: counter pcm topk kmv quantiles \
           all)\n"
          other;
        exit 1
  in
  let results =
    Conc.Runner.parallel_result ~domains:total (fun i ->
        if i < writers then
          for k = 1 to ops do
            Conc.Chaos.point ch ~domain:i;
            update ~domain:i (elem i k);
            counts.(i) <- counts.(i) + 1;
            Conc.Chaos.point ch ~domain:i
          done
        else
          for _ = 1 to max 1 (ops / 8) do
            Conc.Chaos.point ch ~domain:i;
            read_probe ()
          done)
  in
  let killed = Conc.Chaos.killed ch in
  let problems = unexpected_errors results @ finish () in
  let survivors_short =
    Array.to_list counts
    |> List.mapi (fun d n -> (d, n))
    |> List.filter (fun (d, n) -> (not (List.mem d killed)) && n <> ops)
  in
  let problems =
    problems
    @ List.map
        (fun (d, n) ->
          Printf.sprintf "surviving writer %d ingested %d/%d items" d n ops)
        survivors_short
  in
  Printf.printf "%s: %d writers + 1 reader, killed %s; %d items ingested\n"
    target writers (pp_int_list killed)
    (Array.fold_left ( + ) 0 counts);
  problems

let chaos target domains ops kills seed rounds =
  if kills > domains then begin
    Printf.eprintf "chaos: --kills must not exceed --domains\n";
    exit 1
  end;
  let targets =
    match target with
    | "all" -> [ "counter"; "pcm"; "topk"; "kmv"; "quantiles" ]
    | t -> [ t ]
  in
  let failures = ref 0 in
  for round = 1 to rounds do
    let seed = Int64.add seed (Int64.of_int (round * 7741)) in
    List.iter
      (fun t ->
        let problems =
          match t with
          | "counter" -> chaos_counter ~domains ~ops ~kills ~seed
          | "pcm" -> chaos_pcm ~domains ~ops ~kills ~seed
          | _ -> chaos_striped t ~domains ~ops ~kills ~seed
        in
        List.iter
          (fun p ->
            incr failures;
            Printf.printf "  PROBLEM (%s, round %d): %s\n" t round p)
          problems)
      targets
  done;
  Printf.printf "chaos: %d rounds x %d target(s), %d problems\n" rounds
    (List.length targets) !failures;
  if !failures = 0 then 0 else 1

(* ------------------------------ sketches ------------------------------ *)

(* The one sketch table. A WAL or a replication stream decodes only with
   the writer's hash-family seeds and dimensions, so every subcommand that
   names a sketch builds it here. A Net.Soak.SKETCH pairs the mergeable
   with its query evaluator (and, for the soak's oracle, its point-error
   bound). *)
let cm_rows = 4
let cm_width = 2048
let sketch_names = "counter countmin"

let sketch_of ~seed name : (module Net.Soak.SKETCH) option =
  let seed = Int64.add seed 7L in
  match name with
  | "counter" ->
      (* answers only Total; conservation checks it *)
      Some
        (module struct
          module M = Pipeline.Targets.Counter

          let eval _ (_ : Net.Frame.query) = None
          let bound = None
        end)
  | "countmin" ->
      Some
        (module struct
          module M = Pipeline.Targets.Countmin (struct
            let seed = seed
            let rows = cm_rows
            let width = cm_width
          end)

          let eval g = function
            | Net.Frame.Point k -> Some [ (k, Sketches.Countmin.query g k) ]
            | Net.Frame.Total -> None

          (* est >= true always; est <= true + εn with ε = e/width, except
             with probability δ = e^-rows *)
          let bound =
            Some
              {
                Net.Soak.estimate = Sketches.Countmin.query;
                slack = Sketches.Countmin.error_bound;
                epsilon = exp 1.0 /. float_of_int cm_width;
                delta = exp (-.float_of_int cm_rows);
              }
        end)
  | _ -> None

(* An unknown sketch name is a usage error, reported the same way by
   every subcommand. *)
let find_sketch ~cmd ~seed name =
  match sketch_of ~seed name with
  | Some sk -> sk
  | None ->
      Printf.eprintf "%s: unknown sketch %s (available: %s)\n" cmd name
        sketch_names;
      exit 2

(* --------------------------- observability ---------------------------- *)

(* [--metrics -] prints both expositions to stdout; [--metrics PATH] writes
   PATH.prom and PATH.json; no --metrics, nothing. *)
let write_metrics reg = Option.iter @@ fun path ->
  let snap = Obs.Registry.snapshot reg in
  let prom = Obs.Expose.to_prometheus snap and json = Obs.Expose.to_json snap in
  if path = "-" then begin
    print_string prom;
    print_endline json
  end
  else begin
    let out p s = Out_channel.with_open_text p (fun oc -> output_string oc s) in
    out (path ^ ".prom") prom;
    out (path ^ ".json") json;
    Printf.printf "metrics: wrote %s.prom and %s.json\n" path path
  end

(* Observability-plane seams shared by every serving command — one tracer
   constructor and one HTTP mount, so serve/replica/soak cannot drift
   apart in how they expose the same plane. *)
let make_tracer ~reg sample_every =
  if sample_every > 0 then
    Some (Obs.Tracer.create ~sample_every ~metrics:reg ())
  else None

(* A trace file, or the default trace generated from [seed], [ops] and
   [universe] ([adjust] edits its spec first). *)
let load_trace ~cmd ?(adjust = Fun.id) ~seed ~ops ~universe = function
  | Some path -> (
      match Workload.Trace.read ~path with
      | Ok st -> st
      | Error msg ->
          Printf.eprintf "%s: cannot read trace %s: %s\n" cmd path msg;
          exit 2)
  | None ->
      let spec = adjust (Workload.Trace.default_spec ~seed ~ops ~universe ()) in
      (spec, Workload.Trace.materialize spec)

(* Quiescence: sample the leader's published total every [every] seconds
   until it is non-zero and unchanged for [settle] samples, or until
   [deadline]. [follower] is read before each leader sample (the leader
   only grows, so follower > leader is a genuine lead). Returns the
   (follower, leader) samples, newest first. *)
let quiesce cl ~follower ~every ~settle ~deadline =
  let rec go stable acc =
    if stable >= settle || Unix.gettimeofday () >= deadline then acc
    else begin
      Unix.sleepf every;
      let f = follower () in
      match Net.Client.query cl Net.Frame.Total with
      | Ok (Net.Frame.Result { pairs = [ (_, l) ]; _ }) ->
          let same = match acc with (_, last) :: _ -> l > 0 && l = last | [] -> false in
          go (if same then stable + 1 else 0) ((f, l) :: acc)
      | _ -> go stable acc
    end
  in
  go 0 []

(* serve, client and replica print the soak's verdict lines and exit 0
   iff every check passed *)
let verdict ~who checks =
  print_string (Net.Soak.report ~who checks);
  if List.for_all (fun c -> c.Net.Soak.ok) checks then 0 else 1

let mount_http ~what ~reg ?tracer ?slo ?health = Option.map @@ fun port ->
  let h =
    Obs.Http.create ~port
      ~handler:
        (Obs.Http.telemetry_handler ~registry:reg ?tracer ?slo ?health ())
      ()
  in
  Printf.printf "%s: telemetry on http://127.0.0.1:%d/metrics\n%!" what
    (Obs.Http.port h);
  h

(* ------------------------------ recover ------------------------------- *)

(* Standalone recovery: rebuild the global sketch from a durability
   directory a `soak` or `serve --wal` run wrote. The sketch name and seed
   must match the writing run — decode needs the same hash-family
   parameters. *)
let recover dir sk seed =
  (* A bad directory is a usage error, not a recovery result: diagnose it
     up front with exit code 2 instead of letting a Sys_error surface from
     the checkpoint/WAL scans. *)
  (match Durable.Wal.validate_dir ~dir () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf
        "recover: %s\n\
         Nothing to recover here: pass the directory a `soak --dir DIR` or \
         `serve --wal DIR` run wrote.\n"
        msg;
      exit 2);
  let (module SK) = find_sketch ~cmd:"recover" ~seed sk in
  let module R = Durable.Recovery.Make (SK.M) in
  match R.recover ~dir () with
  | Error msg ->
      Printf.eprintf "recover: %s\n" msg;
      1
  | Ok (_, r) ->
      Printf.printf "recover: %s\n" (R.report_to_string r);
      Printf.printf
        "recovered sketch at epoch %d carrying published weight %d\n"
        r.recovered_epoch r.recovered_published;
      if r.truncated_reason <> None then
        Printf.printf "  (WAL tail truncated: %s, %d bytes dropped)\n"
          (Option.value ~default:"?" r.truncated_reason)
          r.bytes_truncated;
      0

(* ------------------------------ cmdliner ------------------------------ *)

open Cmdliner

(* Shared observability flags: built once so serve, client, replica and
   soak parse --metrics/--http-port/--trace-sample
   identically (Arg values are pure and reusable across commands). *)
let metrics_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH|-"
        ~doc:
          "export the final metrics snapshot: `-' prints the Prometheus \
           text and JSON expositions to stdout, a path writes PATH.prom \
           and PATH.json")

let http_port_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "http-port" ] ~docv:"PORT"
        ~doc:
          "serve live telemetry over HTTP while running: /metrics \
           (Prometheus text), /metrics.json, /healthz (SLO verdict, HTTP \
           503 on breach) and /trace?n=K (recent spans as JSON); port 0 \
           picks an ephemeral port, printed at startup")

let trace_sample_flag =
  Arg.(
    value & opt int 0
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "distributed tracing: sample about one batch in N for a \
           cross-stage waterfall of spans (0 = tracing off)")

(* The trace flags client and soak share, and the sketch serve and
   replica name. *)
let trace_file =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"replay this trace file instead of generating one")

let ops =
  Arg.(
    value & opt int 200_000
    & info [ "ops" ] ~doc:"total generated operations (ignored with --trace)")

let universe =
  Arg.(value & opt int 8192 & info [ "universe" ] ~doc:"key universe of the generated trace")

let served_sketch =
  Arg.(value & pos 0 string "counter" & info [] ~docv:"SKETCH" ~doc:sketch_names)

let replay_cmd =
  let scenario =
    Arg.(value & pos 0 string "example9" & info [] ~docv:"SCENARIO" ~doc:"example9 or figure2")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a paper scenario through the checkers")
    Term.(const replay $ scenario)

let fuzz_cmd =
  let algo =
    Arg.(
      value
      & opt string "counter"
      & info [ "algo" ] ~doc:"counter, snapshot, pcm, updown-buggy or updown-safe")
  in
  let trials = Arg.(value & opt int 200 & info [ "trials" ] ~doc:"number of random schedules") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"base seed") in
  let ops =
    Arg.(
      value & opt int 1
      & info [ "ops" ]
          ~doc:
            "script repetition factor: each process runs its script this many \
             times per trial (large values overflow the exact checker's 62-op \
             budget and demonstrate the friendly diagnostic)")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "delta-debug the first violation into a minimal Explicit schedule \
             and print the replay")
  in
  let crash =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "inject a random crash-stop fault per trial (a process dies \
             mid-operation; checkers must still pass and survivors must \
             complete)")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Fuzz an algorithm with random schedules and check IVL")
    Term.(const fuzz $ algo $ trials $ seed $ ops $ shrink $ crash)

let steps_cmd =
  let algo = Arg.(value & opt string "ivl" & info [ "algo" ] ~doc:"ivl or snapshot") in
  let procs = Arg.(value & opt int 8 & info [ "procs" ] ~doc:"number of updaters") in
  Cmd.v
    (Cmd.info "steps" ~doc:"Measure step complexity in the SWMR simulator")
    Term.(const steps $ algo $ procs)

let explore_cmd =
  let algo =
    Arg.(value & opt string "counter"
         & info [ "algo" ] ~doc:"counter, pcm, updown-buggy or updown-safe")
  in
  let updaters = Arg.(value & opt int 2 & info [ "updaters" ] ~doc:"updaters (counter only)") in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Model-check a small configuration over every schedule")
    Term.(const explore $ algo $ updaters)

let envelope_cmd =
  let writers = Arg.(value & opt int 3 & info [ "writers" ] ~doc:"updater domains") in
  let updates = Arg.(value & opt int 2000 & info [ "updates" ] ~doc:"updates per writer") in
  let reads = Arg.(value & opt int 500 & info [ "reads" ] ~doc:"concurrent reads") in
  Cmd.v
    (Cmd.info "envelope"
       ~doc:"Record a multicore run and validate reads against IVL envelopes")
    Term.(const envelope $ writers $ updates $ reads)

let sketch_cmd =
  let shape = Arg.(value & opt string "zipf" & info [ "shape" ] ~doc:"zipf, uniform or bursty") in
  let skew = Arg.(value & opt float 1.2 & info [ "skew" ] ~doc:"zipf exponent") in
  let universe = Arg.(value & opt int 10_000 & info [ "universe" ] ~doc:"element universe") in
  let length = Arg.(value & opt int 100_000 & info [ "length" ] ~doc:"stream length") in
  let alpha = Arg.(value & opt float 0.01 & info [ "alpha" ] ~doc:"relative error") in
  let delta = Arg.(value & opt float 0.01 & info [ "delta" ] ~doc:"failure probability") in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~doc:"elements to report") in
  Cmd.v
    (Cmd.info "sketch" ~doc:"Run the concurrent CountMin on a synthetic stream")
    Term.(const sketch $ shape $ skew $ universe $ length $ alpha $ delta $ top)

let chaos_cmd =
  let target =
    Arg.(
      value & opt string "all"
      & info [ "target" ] ~doc:"counter, pcm, topk, kmv, quantiles or all")
  in
  let domains = Arg.(value & opt int 4 & info [ "domains" ] ~doc:"writer domains") in
  let ops = Arg.(value & opt int 2000 & info [ "ops" ] ~doc:"operations per writer") in
  let kills =
    Arg.(value & opt int 1 & info [ "kills" ] ~doc:"domains to kill mid-run")
  in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"base seed") in
  let rounds = Arg.(value & opt int 1 & info [ "rounds" ] ~doc:"soak rounds") in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak-test the multicore objects under injected yields, stalls and \
          domain deaths")
    Term.(const chaos $ target $ domains $ ops $ kills $ seed $ rounds)

let recover_cmd =
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"durability directory written by soak --dir or serve --wal")
  in
  let sketch =
    Arg.(
      value
      & opt string "countmin"
      & info [ "sketch" ] ~doc:("sketch the WAL was written with: " ^ sketch_names))
  in
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~doc:"sketch hash seed of the writing run")
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Rebuild the global sketch from a WAL + checkpoint directory and \
          report the recovery envelope")
    Term.(const recover $ dir $ sketch $ seed)

(* --- trace: generate / record / inspect workload trace files ----------- *)

let trace_gen out ops universe seed =
  let spec = Workload.Trace.default_spec ~seed ~ops ~universe () in
  let t = Workload.Trace.materialize spec in
  match Workload.Trace.write ~path:out spec t with
  | Ok () ->
      print_string (Workload.Trace.describe spec);
      Printf.printf "wrote %d ops to %s\n" (Workload.Trace.total_ops spec) out;
      0
  | Error msg ->
      Printf.eprintf "trace gen: %s\n" msg;
      1

let trace_record out ops universe shape skew query_ratio seed =
  let sh = parse_shape shape skew universe in
  let raw = Workload.Scenario.mixed ~seed ~shape:sh ~query_ratio ~length:ops in
  let spec =
    {
      Workload.Trace.seed;
      phases =
        [
          {
            Workload.Trace.name = "recorded";
            ops;
            query_ratio;
            rate = Workload.Trace.Unlimited;
            shape = Workload.Trace.Recorded { universe };
          };
        ];
    }
  in
  match Workload.Trace.write ~path:out spec [| raw |] with
  | Ok () ->
      print_string (Workload.Trace.describe spec);
      Printf.printf "recorded %d ops to %s\n" ops out;
      0
  | Error msg ->
      Printf.eprintf "trace record: %s\n" msg;
      1

let trace_cat path head =
  match Workload.Trace.read ~path with
  | Error msg ->
      Printf.eprintf "trace cat: %s\n" msg;
      1
  | Ok (spec, ops) ->
      print_string (Workload.Trace.describe spec);
      if head > 0 then
        List.iteri
          (fun i (p : Workload.Trace.phase) ->
            let arr = ops.(i) in
            let n = min head (Array.length arr) in
            Printf.printf "%s (first %d of %d):" p.name n (Array.length arr);
            for j = 0 to n - 1 do
              match arr.(j) with
              | Workload.Scenario.Update k -> Printf.printf " +%d" k
              | Workload.Scenario.Query k -> Printf.printf " ?%d" k
            done;
            print_newline ())
          spec.Workload.Trace.phases;
      0

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.bin"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"trace file to write")
  in
  let ops_arg =
    Arg.(value & opt int 200_000 & info [ "ops" ] ~doc:"total operations across phases")
  in
  let universe_arg =
    Arg.(value & opt int 8192 & info [ "universe" ] ~doc:"key universe size")
  in
  let seed_arg = Arg.(value & opt int64 0x1517L & info [ "seed" ] ~doc:"trace seed") in
  let gen =
    Cmd.v
      (Cmd.info "gen"
         ~doc:
           "Generate the canonical phased trace (steady Zipf, skew drift, burst \
            trains, diurnal hot-flips, adversarial hammer) and freeze it to a \
            file")
      Term.(const trace_gen $ out_arg $ ops_arg $ universe_arg $ seed_arg)
  in
  let record =
    let shape =
      Arg.(value & opt string "zipf" & info [ "shape" ] ~doc:"zipf or uniform")
    in
    let skew = Arg.(value & opt float 1.1 & info [ "skew" ] ~doc:"zipf skew") in
    let qr =
      Arg.(value & opt float 0.05 & info [ "query-ratio" ] ~doc:"query fraction")
    in
    Cmd.v
      (Cmd.info "record"
         ~doc:
           "Capture a legacy scenario stream into a single-phase trace file so \
            ad-hoc workloads replay bit-for-bit")
      Term.(
        const trace_record $ out_arg $ ops_arg $ universe_arg $ shape $ skew $ qr
        $ seed_arg)
  in
  let cat =
    let file =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"trace file to inspect")
    in
    let head =
      Arg.(
        value & opt int 0
        & info [ "head" ] ~docv:"N" ~doc:"also print the first N ops of each phase")
    in
    Cmd.v
      (Cmd.info "cat"
         ~doc:
           "Validate a trace file (framing, checksums, per-phase counts) and \
            print its phase table")
      Term.(const trace_cat $ file $ head)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Generate, record and inspect workload trace files")
    [ gen; record; cat ]

(* ------------------------------ net tier ------------------------------ *)

let serve_run sketch host port shards batch max_conns read_timeout duration
    wal_dir metrics_out http_port trace_sample seed =
  let (module SV) = find_sketch ~cmd:"serve" ~seed sketch in
  let module Srv = Net.Server.Make (SV.M) in
  let reg = Obs.Registry.create () in
  let tracer = make_tracer ~reg trace_sample in
  let stop_flag = ref false in
  let on_signal = Sys.Signal_handle (fun _ -> stop_flag := true) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal;
  let wal = ref None in
  (* Recover before the server exists: a log this serve cannot decode
     (another sketch or --seed) stays as it is, and nothing is appended
     after it. *)
  let initial =
    match wal_dir with
    | Some dir when Result.is_ok (Durable.Wal.validate_dir ~dir ()) -> (
        let module R = Durable.Recovery.Make (SV.M) in
        match R.recover_compact ~metrics:reg ~dir () with
        | Ok (sk0, r) when r.R.recovered_epoch > 0 ->
            Printf.printf
              "serve: recovered epoch %d carrying published weight %d from %s\n%!"
              r.R.recovered_epoch r.R.recovered_published dir;
            Some (sk0, r.R.recovered_epoch, r.R.recovered_published)
        | Ok _ -> None
        | Error msg ->
            Printf.eprintf "serve: recovery failed: %s\n%!" msg;
            exit 2)
    | _ -> None
  in
  let base = match initial with Some (_, _, p) -> p | None -> 0 in
  let srv =
    Srv.create ~host ~port ~max_conns ~read_timeout ~metrics:reg
      ?tracer ?dedup_dir:wal_dir ~eval:SV.eval
      ~make_engine:(fun ~on_merge ->
        (match wal_dir with
        | Some dir -> wal := Some (Durable.Wal.create ~dir ~metrics:reg ())
        | None -> ());
        let on_merge ~ctx ~epoch ~weight ~blob =
          Option.iter
            (fun w -> Durable.Wal.merge_hook ?tracer w ~ctx ~epoch ~weight ~blob)
            !wal;
          on_merge ~ctx ~epoch ~weight ~blob
        in
        Srv.P.create ~shards ~batch ~metrics:reg ?tracer ~on_merge
          ?initial ())
      ()
  in
  Printf.printf
    "serve: %s on %s:%d (%d shards, batch %d, max %d conns)%s\n%!" sketch
    host (Srv.port srv) shards batch max_conns
    (match wal_dir with Some d -> " wal=" ^ d | None -> "");
  let slo =
    Obs.Slo.create ~metrics:reg
      ~budget:
        (Obs.Slo.theorem6_budget ~shards ~batch
           ~queue_capacity:Pipeline.Engine.default_queue_capacity ())
      ~envelope:(fun () -> float_of_int (Srv.P.envelope_width (Srv.engine srv)))
      ~staleness:(fun () -> -1.0)
      ~merge_lag:(fun () ->
        Option.value ~default:(-1.0) (Srv.P.last_merge_lag (Srv.engine srv)))
      ()
  in
  let http =
    mount_http ~what:"serve" ~reg ?tracer ~slo
      ~health:(fun () ->
        let st = Srv.stats srv
        and published, epoch = Srv.P.published_at (Srv.engine srv) in
        [
          ("conns", string_of_int st.Srv.conns);
          ("published", string_of_int published);
          ("epoch", string_of_int epoch);
        ])
      http_port
  in
  let deadline =
    if duration > 0.0 then Unix.gettimeofday () +. duration else infinity
  in
  while (not !stop_flag) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05;
    ignore (Obs.Slo.eval slo)
  done;
  let st = Srv.stop srv in
  Option.iter Obs.Http.stop http;
  (match !wal with Some w -> Durable.Wal.close w | None -> ());
  let est = Srv.P.stats (Srv.engine srv) in
  Printf.printf
    "serve: %d conns (%d subscribers), %d frames in, %d frames out, %d \
     decode errors\n"
    st.Srv.conns st.Srv.subscribers st.Srv.frames_in st.Srv.frames_out
    st.Srv.decode_errors;
  Printf.printf
    "serve: %d batches, %d ingested, %d shed, %d queries, %d sessions, %d \
     duplicate batches suppressed\n"
    st.Srv.batches st.Srv.ingested st.Srv.shed st.Srv.queries
    st.Srv.sessions st.Srv.duplicates;
  (* After a clean drain every accepted key is merged exactly once, so
     published weight must equal the recovered base plus this run's
     accepted ingests. *)
  let checks =
    [
      Net.Soak.conservation
        [ { base; ingested = st.Srv.ingested; published = est.Srv.P.published } ];
      Net.Soak.slo slo;
    ]
  in
  write_metrics reg metrics_out;
  verdict ~who:"serve" checks

let client_run host port trace_file ops universe seed feeders conns batch
    flush_age queue metrics_out trace_sample =
  let spec, trace = load_trace ~cmd:"client" ~seed ~ops ~universe trace_file in
  let reg = Obs.Registry.create () in
  let tracer = make_tracer ~reg trace_sample in
  let cl =
    try
      Net.Client.create ~conns ~batch ~flush_age ?queue ~metrics:reg ?tracer
        ~host ~port ()
    with Invalid_argument m ->
      Printf.eprintf "client: %s\n" m;
      exit 2
  in
  let sink = Net.Client.sink cl in
  let report =
    Workload.Driver.run ~feeders ~metrics:reg
      ~make_sink:(fun ~feeder:_ -> sink)
      ~spec ~ops:trace ()
  in
  print_string (Workload.Driver.report_to_string report);
  Net.Client.flush cl;
  let cs = Net.Client.stats cl in
  (* a quiet leader publishes every acked key within Engine.max_age, so
     the leader's total reaches the acked count well inside the deadline *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait_total last =
    let last =
      match Net.Client.query cl Net.Frame.Total with
      | Ok (Net.Frame.Result { pairs = [ (_, l) ]; _ }) -> Some l
      | _ -> last
    in
    match last with
    | Some l when l >= cs.Net.Client.acked -> last
    | _ when Unix.gettimeofday () >= deadline -> last
    | _ ->
        Unix.sleepf 0.01;
        wait_total last
  in
  let published = wait_total None in
  Net.Client.close cl;
  Printf.printf
    "client: pushed %d, acked %d, sent %d, shed %d, errors %d, reconnects %d, \
     %d duplicate acks suppressed server-side\n"
    cs.Net.Client.pushed cs.Net.Client.acked cs.Net.Client.sent
    cs.Net.Client.shed cs.Net.Client.errors cs.Net.Client.reconnects
    cs.Net.Client.duplicates_suppressed;
  write_metrics reg metrics_out;
  match published with
  | None ->
      prerr_endline "client: the leader answered no total";
      2
  | Some t ->
      verdict ~who:"client"
        [
          Net.Soak.ack_envelope ~acked:cs.Net.Client.acked ~published:t
            ~slack:0 ~exhausted:cs.Net.Client.exhausted;
        ]

let replica_run sketch host port seed duration settle metrics_out http_port
    trace_sample =
  let (module SV) = find_sketch ~cmd:"replica" ~seed sketch in
  let module R = Net.Replica.Make (SV.M) in
  let reg = Obs.Registry.create () in
  let tracer = make_tracer ~reg trace_sample in
  match R.connect ~metrics:reg ?tracer ~host ~port () with
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "replica: cannot reach %s:%d: %s\n" host port
        (Unix.error_message err);
      2
  | r ->
  let cl = Net.Client.create ~host ~port () in
  let http =
    mount_http ~what:"replica" ~reg ?tracer
      ~health:(fun () ->
        let s = R.stats r in
        [
          ("status", Net.Replica.status_to_string s.R.status);
          ("published", string_of_int s.R.published);
          ("epoch", string_of_int s.R.epoch);
          ("resyncs", string_of_int s.R.resyncs);
        ])
      http_port
  in
  let samples =
    quiesce cl ~follower:(fun () -> R.published r) ~every:0.05 ~settle
      ~deadline:(Unix.gettimeofday () +. duration)
  in
  (* the leader's state at one epoch, read through a second subscription;
     then the follower must reach that epoch and hold the same bytes *)
  let image r =
    let s = R.stats r in
    {
      Net.Soak.epoch = s.R.epoch;
      published = s.R.published;
      blob = Option.map fst (R.query r SV.M.encode);
    }
  in
  let leader =
    match R.connect ~host ~port () with
    | snap ->
        R.close snap;
        image snap
    | exception Unix.Unix_error _ ->
        { Net.Soak.epoch = -1; published = 0; blob = None }
  in
  ignore (R.wait_epoch r leader.Net.Soak.epoch);
  let status = Net.Replica.status_to_string (R.status r) in
  R.close r;
  let s = R.stats r in
  Net.Client.close cl;
  Option.iter Obs.Http.stop http;
  write_metrics reg metrics_out;
  Printf.printf
    "replica: %d deltas applied, %d duplicates skipped, %d resyncs, \
     epoch %d, published %d, status %s\n"
    s.R.deltas s.R.skipped s.R.resyncs s.R.epoch s.R.published status;
  verdict ~who:"replica"
    [
      Net.Soak.replica_envelope ~samples:(List.length samples)
        ~ahead:(List.length (List.filter (fun (f, l) -> f > l) samples))
        ~faults:0 ~resyncs:s.R.resyncs;
      Net.Soak.convergence ~status ~leader ~follower:(image r) ();
    ]

let serve_cmd =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"bind address") in
  let port =
    Arg.(value & opt int 7070 & info [ "port" ] ~doc:"TCP port (0 = ephemeral)")
  in
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"shard worker domains") in
  let batch = Arg.(value & opt int 512 & info [ "batch" ] ~doc:"merge cadence in items") in
  let max_conns =
    Arg.(
      value & opt int 32
      & info [ "max-conns" ] ~doc:"max concurrent connection handler domains")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "read-timeout" ] ~doc:"seconds before a stalled peer is reset")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~doc:"seconds to serve (0 = until SIGINT/SIGTERM)")
  in
  let wal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:"durable directory: recover on start, WAL every merge")
  in
  let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"sketch hash seed") in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the pipeline over TCP: framed batch ingest, snapshot queries, \
          and follower replication, with conservation and slo verdicts at \
          shutdown")
    Term.(
      const serve_run $ served_sketch $ host $ port $ shards $ batch $ max_conns
      $ read_timeout $ duration $ wal_dir $ metrics_flag $ http_port_flag
      $ trace_sample_flag $ seed)

let client_cmd =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"server address") in
  let port = Arg.(value & opt int 7070 & info [ "port" ] ~doc:"server port") in
  let seed = Arg.(value & opt int64 0x1517L & info [ "seed" ] ~doc:"trace seed") in
  let feeders =
    Arg.(value & opt int 2 & info [ "feeders" ] ~doc:"driver feeder domains")
  in
  let conns =
    Arg.(value & opt int 4 & info [ "conns" ] ~doc:"sender connections (the pool)")
  in
  let batch = Arg.(value & opt int 256 & info [ "batch" ] ~doc:"keys per frame") in
  let flush_age =
    Arg.(
      value & opt float 0.05
      & info [ "flush-age" ] ~doc:"seconds a key may wait in a partial batch")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ]
          ~doc:"client buffer capacity in keys (default: Net.Client's, 8 x --batch)")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a workload trace through the batching client into a served \
          pipeline and check the ack envelope: at quiescence the leader's \
          published total equals the acked total")
    Term.(
      const client_run $ host $ port $ trace_file $ ops $ universe $ seed
      $ feeders $ conns $ batch $ flush_age $ queue
      $ metrics_flag $ trace_sample_flag)

let replica_cmd =
  let host = Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"leader address") in
  let port = Arg.(value & opt int 7070 & info [ "port" ] ~doc:"leader port") in
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~doc:"sketch hash seed (must match the leader's)")
  in
  let duration =
    Arg.(
      value & opt float 30.0
      & info [ "duration" ] ~doc:"max seconds to follow before giving up")
  in
  let settle =
    Arg.(
      value & opt int 10
      & info [ "settle" ]
          ~doc:
            "consecutive unchanged, non-zero leader samples that mean \
             quiescence")
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Follow a served leader as a replication subscriber; verify the \
          follower never leads the leader and, once the leader's published \
          weight is non-zero and quiescent, holds its state bit-for-bit")
    Term.(
      const replica_run $ served_sketch $ host $ port $ seed $ duration $ settle
      $ metrics_flag $ http_port_flag $ trace_sample_flag)

(* --- soak: one runner, an in-process or served sink ------------------- *)

(* A soak is a self-contained crash/recover chain: start from a clean
   durable directory so the first incarnation and the oracle agree on zero. *)
let clear_soak_dir dir =
  if Sys.file_exists dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

(* One BENCH_<exp>.json writer for both sinks; "violations" rows are
   zero-tolerance in `bench compare`. *)
let write_bench path ~reps (exp, rows) =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "{ \"exp\": %S,\n  \"entries\": [\n" exp;
  List.iteri
    (fun i (name, unit_, value) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    { \"name\": %S,\n      \"params\": {  },\n      \"unit\": %S,\n   \
         \   \"reps\": %d,\n      \"mean\": %.17g, \"p50\": %.17g, \"p99\": \
         %.17g }"
        name unit_ reps value value value)
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "wrote %s\n" path

let soak_run served sketch trace_file ops universe seed dir shards feeders
    restarts kills tear conns partitions outage latency corrupt reset
    drop record_trace bench_out metrics_out http_port trace_sample trace_dump =
  let usage fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "soak: %s\n" m;
        exit 2)
      fmt
  in
  (* a fault lives in its sink: a flag the chosen sink cannot take is an
     error, never silently ignored *)
  let refuse sink flags =
    List.iter
      (fun (flag, given) ->
        if given then usage "%s does not apply to the %s sink" flag sink)
      flags
  in
  if trace_dump > 0 && trace_sample <= 0 then
    usage "--trace-dump N prints sampled spans; it needs --trace-sample N > 0";
  (match Durable.Wal.validate_dir ~must_exist:false ~dir () with
  | Ok () -> ()
  | Error msg -> usage "unusable --dir: %s" msg);
  let sink =
    if served then begin
      refuse "served" [ ("--kills", kills <> None); ("--tear-tail", tear <> None) ];
      let d = Net.Soak.default_served in
      let pick o def = Option.value o ~default:def in
      Net.Soak.Served
        {
          Net.Soak.conns = pick conns d.conns;
          partitions = pick partitions d.partitions;
          outage = pick outage d.outage;
          faults =
            {
              Net.Chaos_proxy.latency = (0.0, pick latency (snd d.faults.latency));
              corrupt_prob = pick corrupt d.faults.corrupt_prob;
              reset_prob = pick reset d.faults.reset_prob;
              drop_conn_prob = pick drop d.faults.drop_conn_prob;
            };
        }
    end
    else begin
      refuse "engine"
        [
          ("--conns", conns <> None);
          ("--partitions", partitions <> None);
          ("--outage", outage <> None);
          ("--latency", latency <> None);
          ("--corrupt", corrupt <> None);
          ("--reset", reset <> None);
          ("--drop", drop <> None);
        ];
      let d = Net.Soak.default_engine in
      Net.Soak.Engine
        {
          Net.Soak.kills = Option.value kills ~default:d.kills;
          tear_tail = Option.value tear ~default:d.tear_tail;
        }
    end
  in
  let (module SK) = find_sketch ~cmd:"soak" ~seed sketch in
  let module NS = Net.Soak.Make (SK) in
  (* closed loop when served: that soak's clock is the fault schedule,
     not an offered-rate curve *)
  let closed (p : Workload.Trace.phase) =
    if served then { p with Workload.Trace.rate = Workload.Trace.Unlimited } else p
  in
  let spec, trace =
    load_trace ~cmd:"soak" ~seed ~ops ~universe trace_file
      ~adjust:(fun spec -> { spec with phases = List.map closed spec.phases })
  in
  clear_soak_dir dir;
  let cfg =
    {
      (Net.Soak.default_config ~dir sink) with
      Net.Soak.shards;
      feeders;
      restarts;
      seed;
    }
  in
  let reg = Obs.Registry.create () in
  let tracer = make_tracer ~reg trace_sample in
  let v =
    try
      NS.run
        ~progress:(fun s -> Printf.printf "%s\n%!" s)
        ~metrics:reg ?tracer ?http_port ?record:record_trace cfg ~spec
        ~ops:trace ()
    with Invalid_argument m -> usage "%s" m
  in
  (* one dump format: the JSON span objects /trace?n=N serves, one per
     line *)
  (match tracer with
  | Some tr when trace_dump > 0 ->
      List.iter
        (fun r -> print_endline (Obs.Span.record_to_json r))
        (Obs.Tracer.recent tr trace_dump)
  | _ -> ());
  print_string (Net.Soak.verdict_to_string v);
  write_metrics reg metrics_out;
  Option.iter
    (fun path ->
      write_bench path
        ~reps:(List.length v.Net.Soak.incarnations)
        (Net.Soak.bench v ~total_ops:(Workload.Trace.total_ops spec)))
    bench_out;
  if v.Net.Soak.pass then 0 else 1

let soak_cmd =
  let opt_int name doc = Arg.(value & opt (some int) None & info [ name ] ~doc) in
  let opt_float name doc =
    Arg.(value & opt (some float) None & info [ name ] ~doc)
  in
  let served =
    Arg.(
      value & flag
      & info [ "served" ]
          ~doc:
            "served sink: the trace goes through batching clients into a \
             TCP server behind a fault-injecting proxy, with a follower \
             replica (default: the in-process engine sink)")
  in
  let sketch =
    Arg.(
      value & opt string "countmin"
      & info [ "sketch" ]
          ~doc:
            ("sketch under test: " ^ sketch_names
           ^ "; countmin also checks its (ε,δ) bound against the oracle"))
  in
  let seed =
    Arg.(value & opt int64 0x1517L & info [ "seed" ] ~doc:"trace and chaos seed")
  in
  let dir =
    Arg.(
      value & opt string "_soak"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"durable WAL + checkpoint directory (cleared before the run)")
  in
  let shards = Arg.(value & opt int 4 & info [ "shards" ] ~doc:"shard worker domains") in
  let feeders = Arg.(value & opt int 2 & info [ "feeders" ] ~doc:"driver feeder domains") in
  let restarts =
    Arg.(
      value & opt int 2
      & info [ "restarts" ]
          ~doc:
            "crash/recover cycles (incarnations - 1), fired at even \
             fractions of the update volume")
  in
  let kills = opt_int "kills" "engine: shard-worker kills per incarnation (default 2)" in
  let tear =
    Arg.(
      value
      & opt (some bool) None
      & info [ "tear-tail" ]
          ~doc:"engine: tear the WAL tail mid-frame before each recovery (default true)")
  in
  let conns = opt_int "conns" "served: client sender connections (default 2)" in
  let partitions = opt_int "partitions" "served: full network partitions (default 1)" in
  let outage =
    opt_float "outage"
      "served: seconds a restart leaves the server dead, and a partition lasts \
       (default 0.3)"
  in
  let latency = opt_float "latency" "served: max injected delay per chunk, s (default 0.002)" in
  let corrupt = opt_float "corrupt" "served: per-chunk bit-flip probability (default 0.005)" in
  let reset = opt_float "reset" "served: per-chunk mid-frame reset probability (default 0.005)" in
  let drop = opt_float "drop" "served: per-dial refusal probability (default 0.02)" in
  let record_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "record-trace" ] ~docv:"FILE"
          ~doc:"freeze the driven ops to a replayable trace file")
  in
  let bench_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench-out" ] ~docv:"FILE"
          ~doc:"also write the verdict counters as a BENCH json")
  in
  let trace_dump =
    Arg.(
      value & opt int 0
      & info [ "trace-dump" ] ~docv:"N"
          ~doc:
            "after the run, print the tracer's last N spans as JSON lines \
             (the /trace?n=N format); needs --trace-sample > 0")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos soak: drive a phased trace into a chain of WAL-backed engine \
          incarnations — in process, or with --served through the whole TCP \
          tier behind a fault-injecting proxy — and emit end-to-end IVL \
          PASS/FAIL verdicts")
    Term.(
      const soak_run $ served $ sketch $ trace_file $ ops $ universe $ seed $ dir
      $ shards $ feeders $ restarts $ kills $ tear $ conns
      $ partitions $ outage $ latency $ corrupt $ reset $ drop $ record_trace
      $ bench_out $ metrics_flag $ http_port_flag $ trace_sample_flag
      $ trace_dump)

let () =
  let doc = "Intermediate Value Linearizability: checkers, simulators, sketches" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ivl-cli" ~doc)
          [
            replay_cmd;
            fuzz_cmd;
            steps_cmd;
            sketch_cmd;
            envelope_cmd;
            explore_cmd;
            chaos_cmd;
            recover_cmd;
            trace_cmd;
            soak_cmd;
            serve_cmd;
            client_cmd;
            replica_cmd;
          ]))
