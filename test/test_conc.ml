(* Tests for the real multicore implementations (OCaml domains): the IVL
   counter, the linearizable counter baselines, PCM, the concurrent Morris
   counter, the history recorder, and end-to-end IVL checking of recorded
   hardware executions. *)

module Counter_check = Ivl.Check.Make (Spec.Counter_spec)

let test_barrier_releases_all () =
  let b = Conc.Barrier.create 4 in
  let counter = Atomic.make 0 in
  let results =
    Conc.Runner.parallel ~domains:4 (fun _ ->
        ignore (Atomic.fetch_and_add counter 1);
        Conc.Barrier.await b;
        (* After the barrier, every arrival must be visible. *)
        Atomic.get counter)
  in
  Array.iter (fun seen -> Alcotest.(check int) "all arrivals visible" 4 seen) results

let test_barrier_reusable () =
  let b = Conc.Barrier.create 2 in
  let log = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:2 (fun _ ->
        for _ = 1 to 3 do
          Conc.Barrier.await b;
          ignore (Atomic.fetch_and_add log 1)
        done)
  in
  Alcotest.(check int) "three rounds of two" 6 (Atomic.get log)

let test_runner_parallel_results () =
  let results = Conc.Runner.parallel ~domains:5 (fun i -> i * i) in
  Alcotest.(check (array int)) "per-domain results" [| 0; 1; 4; 9; 16 |] results

(* ------------------------- IVL counter ------------------------- *)

let test_ivl_counter_sequential () =
  let c = Conc.Ivl_counter.create ~procs:3 in
  Conc.Ivl_counter.update c ~proc:0 5;
  Conc.Ivl_counter.update c ~proc:1 7;
  Conc.Ivl_counter.update c ~proc:0 1;
  Alcotest.(check int) "sum" 13 (Conc.Ivl_counter.read c);
  Alcotest.(check int) "slot 0" 6 (Conc.Ivl_counter.read_slot c 0);
  Alcotest.(check int) "procs" 3 (Conc.Ivl_counter.procs c)

let test_ivl_counter_validation () =
  let c = Conc.Ivl_counter.create ~procs:2 in
  Alcotest.check_raises "negative"
    (Invalid_argument "Ivl_counter.update: batch must be non-negative") (fun () ->
      Conc.Ivl_counter.update c ~proc:0 (-1));
  Alcotest.check_raises "bad slot"
    (Invalid_argument "Ivl_counter.update: no such process slot") (fun () ->
      Conc.Ivl_counter.update c ~proc:2 1)

let test_ivl_counter_concurrent_total () =
  let domains = 4 and per_domain = 10_000 in
  let c = Conc.Ivl_counter.create ~procs:domains in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        for _ = 1 to per_domain do
          Conc.Ivl_counter.update c ~proc:i 1
        done)
  in
  Alcotest.(check int) "final total exact" (domains * per_domain) (Conc.Ivl_counter.read c)

let test_ivl_counter_reads_bounded_and_monotone () =
  (* While writers run, every read lies in [0, total] and a single reader's
     successive reads never decrease (each slot is monotone and the reader
     rescans in the same order). *)
  let writers = 3 and per_writer = 20_000 in
  let c = Conc.Ivl_counter.create ~procs:writers in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:(writers + 1) (fun i ->
        if i < writers then
          for _ = 1 to per_writer do
            Conc.Ivl_counter.update c ~proc:i 1
          done
        else begin
          let prev = ref 0 in
          for _ = 1 to 2_000 do
            let v = Conc.Ivl_counter.read c in
            if v < !prev || v < 0 || v > writers * per_writer then
              ignore (Atomic.fetch_and_add violations 1);
            prev := v
          done
        end)
  in
  Alcotest.(check int) "no envelope or monotonicity violations" 0
    (Atomic.get violations)

(* ------------------------- linearizable counters ------------------------- *)

let test_locked_counter_concurrent () =
  let c = Conc.Locked_counter.create () in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun _ ->
        for _ = 1 to 5_000 do
          Conc.Locked_counter.update c 2
        done)
  in
  Alcotest.(check int) "exact total" 40_000 (Conc.Locked_counter.read c)

let test_faa_counter_concurrent () =
  let c = Conc.Faa_counter.create () in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun _ ->
        for _ = 1 to 5_000 do
          Conc.Faa_counter.update c 3
        done)
  in
  Alcotest.(check int) "exact total" 60_000 (Conc.Faa_counter.read c)

(* ------------------------- PCM ------------------------- *)

let test_pcm_sequential_matches_reference () =
  let family = Hashing.Family.seeded ~seed:77L ~rows:3 ~width:32 in
  let pcm = Conc.Pcm.create ~family in
  let reference = Sketches.Countmin.create ~family in
  let stream = Workload.Stream.generate ~seed:78L (Workload.Stream.Zipf (60, 1.1)) ~length:3000 in
  Array.iter
    (fun a ->
      Conc.Pcm.update pcm a;
      Sketches.Countmin.update reference a)
    stream;
  for a = 0 to 59 do
    Alcotest.(check int)
      (Printf.sprintf "element %d" a)
      (Sketches.Countmin.query reference a)
      (Conc.Pcm.query pcm a)
  done;
  Alcotest.(check int) "update count" 3000 (Conc.Pcm.updates pcm)

let test_pcm_concurrent_ingest_exact_cells () =
  (* Atomic increments: after all writers join, the matrix equals the
     sequential matrix on the same multiset of updates. *)
  let family = Hashing.Family.seeded ~seed:80L ~rows:2 ~width:16 in
  let pcm = Conc.Pcm.create ~family in
  let reference = Sketches.Countmin.create ~family in
  let stream = Workload.Stream.generate ~seed:81L (Workload.Stream.Uniform 40) ~length:8000 in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i -> Array.iter (Conc.Pcm.update pcm) chunks.(i))
  in
  Array.iter (Sketches.Countmin.update reference) stream;
  let cells = Conc.Pcm.snapshot_cells pcm in
  for row = 0 to 1 do
    for col = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "cell (%d,%d)" row col)
        (Sketches.Countmin.cell reference ~row ~col)
        cells.(row).(col)
    done
  done

let test_pcm_concurrent_queries_bounded () =
  (* Readers racing writers: CM never under-estimates, and an exact atomic
     oracle read before the query starts lower-bounds f_start. *)
  let family = Hashing.Family.seeded ~seed:90L ~rows:4 ~width:64 in
  let pcm = Conc.Pcm.create ~family in
  let probe = 0 in
  let oracle = Atomic.make 0 in
  let stream = Workload.Stream.generate ~seed:91L (Workload.Stream.Zipf (50, 1.3)) ~length:40_000 in
  let chunks = Workload.Stream.chunks stream ~pieces:3 in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        if i < 3 then
          Array.iter
            (fun a ->
              Conc.Pcm.update pcm a;
              if a = probe then ignore (Atomic.fetch_and_add oracle 1))
            chunks.(i)
        else
          for _ = 1 to 3_000 do
            let before = Atomic.get oracle in
            let est = Conc.Pcm.query pcm probe in
            if est < before then ignore (Atomic.fetch_and_add violations 1)
          done)
  in
  Alcotest.(check int) "no under-estimates" 0 (Atomic.get violations)

let test_locked_countmin_concurrent () =
  let family = Hashing.Family.seeded ~seed:95L ~rows:2 ~width:16 in
  let cm = Conc.Locked_countmin.create ~family in
  let stream = Workload.Stream.generate ~seed:96L (Workload.Stream.Uniform 20) ~length:4000 in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        Array.iter (Conc.Locked_countmin.update cm) chunks.(i))
  in
  Alcotest.(check int) "updates" 4000 (Conc.Locked_countmin.updates cm);
  let reference = Sketches.Countmin.create ~family in
  Array.iter (Sketches.Countmin.update reference) stream;
  for a = 0 to 19 do
    Alcotest.(check int)
      (Printf.sprintf "element %d" a)
      (Sketches.Countmin.query reference a)
      (Conc.Locked_countmin.query cm a)
  done

(* ------------------------- Flat PCM ------------------------- *)

let test_flat_pcm_sequential_matches_reference () =
  let family = Hashing.Family.seeded ~seed:77L ~rows:3 ~width:32 in
  let fp = Conc.Flat_pcm.create ~publish_every:1 ~family ~domains:1 () in
  let reference = Sketches.Countmin.create ~family in
  let stream =
    Workload.Stream.generate ~seed:78L (Workload.Stream.Zipf (60, 1.1)) ~length:3000
  in
  Array.iter
    (fun a ->
      Conc.Flat_pcm.update fp ~domain:0 a;
      Sketches.Countmin.update reference a)
    stream;
  for a = 0 to 59 do
    Alcotest.(check int)
      (Printf.sprintf "element %d" a)
      (Sketches.Countmin.query reference a)
      (Conc.Flat_pcm.query fp a)
  done;
  Alcotest.(check int) "update count" 3000 (Conc.Flat_pcm.updates fp)

let test_flat_pcm_concurrent_cells_exact () =
  (* Plane-per-writer: after all writers join and flush, the cell-wise sum
     equals the sequential matrix on the same multiset of updates. *)
  let family = Hashing.Family.seeded ~seed:80L ~rows:2 ~width:16 in
  let fp = Conc.Flat_pcm.create ~publish_every:64 ~family ~domains:4 () in
  let reference = Sketches.Countmin.create ~family in
  let stream =
    Workload.Stream.generate ~seed:81L (Workload.Stream.Uniform 40) ~length:8000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        Array.iter (Conc.Flat_pcm.update fp ~domain:i) chunks.(i);
        Conc.Flat_pcm.flush fp ~domain:i)
  in
  Array.iter (Sketches.Countmin.update reference) stream;
  Alcotest.(check int) "all updates published" 8000 (Conc.Flat_pcm.updates fp);
  let cells = Conc.Flat_pcm.snapshot_cells fp in
  for row = 0 to 1 do
    for col = 0 to 15 do
      Alcotest.(check int)
        (Printf.sprintf "cell (%d,%d)" row col)
        (Sketches.Countmin.cell reference ~row ~col)
        cells.(row).(col)
    done
  done

let test_flat_pcm_publish_batching () =
  let family = Hashing.Family.seeded ~seed:82L ~rows:2 ~width:16 in
  let fp = Conc.Flat_pcm.create ~publish_every:10 ~family ~domains:2 () in
  for _ = 1 to 9 do
    Conc.Flat_pcm.update fp ~domain:0 7
  done;
  Alcotest.(check int) "nothing published below the batch" 0
    (Conc.Flat_pcm.updates fp);
  Alcotest.(check int) "all buffered" 9 (Conc.Flat_pcm.buffered fp ~domain:0);
  Conc.Flat_pcm.update fp ~domain:0 7;
  Alcotest.(check int) "batch published" 10 (Conc.Flat_pcm.updates fp);
  Alcotest.(check int) "buffer reset" 0 (Conc.Flat_pcm.buffered fp ~domain:0);
  Conc.Flat_pcm.update fp ~domain:0 7;
  Alcotest.(check int) "stays at batch boundary" 10 (Conc.Flat_pcm.updates fp);
  (* The cells themselves always carry unpublished updates (monotone plane),
     so a query may run ahead of [updates] — that is the IVL slack. *)
  Alcotest.(check int) "query sees buffered increments" 11
    (Conc.Flat_pcm.query fp 7);
  Conc.Flat_pcm.flush fp ~domain:0;
  Alcotest.(check int) "flush publishes the tail" 11 (Conc.Flat_pcm.updates fp);
  Conc.Flat_pcm.flush_all fp;
  Alcotest.(check int) "flush_all idempotent on empty planes" 11
    (Conc.Flat_pcm.updates fp)

let test_flat_pcm_concurrent_queries_bounded () =
  (* Readers racing writers, publish_every = 1 so every update is published
     before the oracle tick: the estimate never under-counts the oracle
     reading taken before the query started. *)
  let family = Hashing.Family.seeded ~seed:90L ~rows:4 ~width:64 in
  let fp = Conc.Flat_pcm.create ~publish_every:1 ~family ~domains:3 () in
  let probe = 0 in
  let oracle = Atomic.make 0 in
  let stream =
    Workload.Stream.generate ~seed:91L (Workload.Stream.Zipf (50, 1.3))
      ~length:40_000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:3 in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        if i < 3 then
          Array.iter
            (fun a ->
              Conc.Flat_pcm.update fp ~domain:i a;
              if a = probe then ignore (Atomic.fetch_and_add oracle 1))
            chunks.(i)
        else
          for _ = 1 to 3_000 do
            let before = Atomic.get oracle in
            let est = Conc.Flat_pcm.query fp probe in
            if est < before then ignore (Atomic.fetch_and_add violations 1)
          done)
  in
  Alcotest.(check int) "no under-estimates" 0 (Atomic.get violations)

let test_flat_pcm_theorem6_bound () =
  (* After a full flush the flat layout is just a CountMin over the same
     multiset, so Theorem 6's additive bound applies: est ∈ [f, f + e/w·n]. *)
  let rows = 4 and width = 256 in
  let family = Hashing.Family.seeded ~seed:21L ~rows ~width in
  let n = 20_000 in
  let universe = 400 in
  let stream =
    Workload.Stream.generate ~seed:9L (Workload.Stream.Zipf (universe, 1.2))
      ~length:n
  in
  let fp = Conc.Flat_pcm.create ~family ~domains:2 () in
  let chunks = Workload.Stream.chunks stream ~pieces:2 in
  let _ =
    Conc.Runner.parallel ~domains:2 (fun i ->
        Array.iter (Conc.Flat_pcm.update fp ~domain:i) chunks.(i);
        Conc.Flat_pcm.flush fp ~domain:i)
  in
  Alcotest.(check int) "sketch saw every update" n (Conc.Flat_pcm.updates fp);
  let exact = Sketches.Exact.create () in
  Array.iter (Sketches.Exact.update exact) stream;
  let bound =
    int_of_float
      (ceil (Float.exp 1.0 /. float_of_int width *. float_of_int n))
  in
  for a = 0 to universe - 1 do
    let f = Sketches.Exact.frequency exact a and est = Conc.Flat_pcm.query fp a in
    if est < f || est > f + bound then
      Alcotest.failf "element %d: estimate %d outside [%d, %d + %d]" a est f f
        bound
  done

let test_flat_pcm_update_many () =
  let family = Hashing.Family.seeded ~seed:83L ~rows:3 ~width:32 in
  let fp = Conc.Flat_pcm.create ~publish_every:1 ~family ~domains:1 () in
  let reference = Conc.Flat_pcm.create ~publish_every:1 ~family ~domains:1 () in
  Conc.Flat_pcm.update_many fp ~domain:0 5 ~count:7;
  for _ = 1 to 7 do
    Conc.Flat_pcm.update reference ~domain:0 5
  done;
  Alcotest.(check int) "batched equals repeated" (Conc.Flat_pcm.query reference 5)
    (Conc.Flat_pcm.query fp 5);
  Alcotest.(check int) "updates counted with weight" 7 (Conc.Flat_pcm.updates fp);
  Conc.Flat_pcm.update_many fp ~domain:0 5 ~count:0;
  Alcotest.(check int) "count 0 is a no-op" 7 (Conc.Flat_pcm.updates fp);
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Flat_pcm.update_many: count must be non-negative")
    (fun () -> Conc.Flat_pcm.update_many fp ~domain:0 5 ~count:(-1))

let test_flat_pcm_validation () =
  let family = Hashing.Family.seeded ~seed:84L ~rows:2 ~width:8 in
  Alcotest.check_raises "domains must be positive"
    (Invalid_argument "Flat_pcm.create: domains must be positive") (fun () ->
      ignore (Conc.Flat_pcm.create ~family ~domains:0 ()));
  Alcotest.check_raises "publish_every must be positive"
    (Invalid_argument "Flat_pcm.create: publish_every must be positive")
    (fun () -> ignore (Conc.Flat_pcm.create ~publish_every:0 ~family ~domains:1 ()));
  let fp = Conc.Flat_pcm.create ~family ~domains:2 () in
  Alcotest.check_raises "bad domain index"
    (Invalid_argument "Flat_pcm: no such domain") (fun () ->
      Conc.Flat_pcm.update fp ~domain:2 0)

(* End-to-end Lemma 7 for the flat layout: with publish_every = 1 every
   update publishes before returning, so recorded executions must be IVL
   w.r.t. the CM spec sharing the same hash family. *)
let test_recorded_flat_pcm_histories_are_ivl () =
  let family = Hashing.Family.seeded ~seed:123L ~rows:2 ~width:4 in
  let module Cm = Spec.Countmin_spec.Fixed (struct
    let family = family
  end) in
  let module Cm_check = Ivl.Check.Make (Cm) in
  for round = 1 to 30 do
    let rec_ = Conc.Recorder.create ~domains:3 in
    let fp = Conc.Flat_pcm.create ~publish_every:1 ~family ~domains:2 () in
    let _ =
      Conc.Runner.parallel ~domains:3 (fun i ->
          if i < 2 then
            for k = 0 to 2 do
              let a = (i + k) mod 3 in
              Conc.Recorder.record_update rec_ ~domain:i ~obj:0 a (fun () ->
                  Conc.Flat_pcm.update fp ~domain:i a)
            done
          else
            for a = 0 to 2 do
              ignore
                (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 a (fun () ->
                     Conc.Flat_pcm.query fp a))
            done)
    in
    let h = Conc.Recorder.history rec_ in
    if not (Cm_check.is_ivl h) then
      Alcotest.failf "recorded flat PCM execution %d not IVL:\n%s" round
        (Test_helpers.show_history h)
  done

(* ------------------------- Morris ------------------------- *)

let test_morris_conc_sequential_path () =
  let m = Conc.Morris_conc.create ~seed:5L ~domains:1 () in
  Alcotest.(check (float 0.0)) "empty" 0.0 (Conc.Morris_conc.estimate m);
  Conc.Morris_conc.update m ~domain:0;
  Alcotest.(check (float 0.0)) "first event bumps" 1.0 (Conc.Morris_conc.estimate m)

let test_morris_conc_concurrent_ballpark () =
  let domains = 4 and per_domain = 50_000 in
  let n = domains * per_domain in
  let m = Conc.Morris_conc.create ~seed:6L ~domains () in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        for _ = 1 to per_domain do
          Conc.Morris_conc.update m ~domain:i
        done)
  in
  let est = Conc.Morris_conc.estimate m in
  (* Base-2 Morris has large variance and the CAS-drop policy biases low
     under contention; accept a factor-8 band either way. *)
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.0f within [%d, %d]" est (n / 8) (n * 8))
    true
    (est >= float_of_int (n / 8) && est <= float_of_int (n * 8));
  Alcotest.(check bool) "exponent sane" true (Conc.Morris_conc.exponent m <= 63)

let test_morris_conc_validation () =
  let m = Conc.Morris_conc.create ~seed:1L ~domains:2 () in
  Alcotest.check_raises "domain range"
    (Invalid_argument "Morris_conc.update: no such domain") (fun () ->
      Conc.Morris_conc.update m ~domain:5)

(* ------------------------- recorder ------------------------- *)

let test_recorder_well_formed_and_ordered () =
  let rec_ = Conc.Recorder.create ~domains:3 in
  let c = Conc.Ivl_counter.create ~procs:3 in
  let _ =
    Conc.Runner.parallel ~domains:3 (fun i ->
        for k = 1 to 5 do
          if i = 2 then
            ignore
              (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 0 (fun () ->
                   Conc.Ivl_counter.read c))
          else
            Conc.Recorder.record_update rec_ ~domain:i ~obj:0 k (fun () ->
                Conc.Ivl_counter.update c ~proc:i k)
        done)
  in
  let h = Conc.Recorder.history rec_ in
  (match Hist.History.well_formed h with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "15 completed ops" 15 (List.length (Hist.History.completed h))

let test_recorder_program_order_preserved () =
  let rec_ = Conc.Recorder.create ~domains:2 in
  let _ =
    Conc.Runner.parallel ~domains:2 (fun i ->
        for k = 0 to 4 do
          Conc.Recorder.record_update rec_ ~domain:i ~obj:0 ((10 * i) + k) (fun () -> ())
        done)
  in
  let h = Conc.Recorder.history rec_ in
  (* Within each domain, update arguments must appear in issue order. *)
  List.iter
    (fun d ->
      let args =
        List.filter_map
          (fun (op : Test_helpers.iop) ->
            if op.Hist.Op.proc = d then
              match op.Hist.Op.kind with Hist.Op.Update u -> Some u | _ -> None
            else None)
          (Hist.History.ops h)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "domain %d order" d)
        (List.init 5 (fun k -> (10 * d) + k))
        args)
    [ 0; 1 ]

(* The recorder's global ticket respects real time across domains: if op A
   completes before op B is invoked (established here by flag-passing, so
   the order is genuine happens-before, not luck), A draws strictly smaller
   tickets and the merged history shows A ≺ B. Exercised as a ping-pong so
   every round crosses domains in both directions. *)
let test_recorder_tickets_respect_real_time () =
  let rounds = 100 in
  let rec_ = Conc.Recorder.create ~domains:2 in
  let turn = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:2 (fun i ->
        for k = 0 to rounds - 1 do
          let my_turn = (2 * k) + i in
          while Atomic.get turn <> my_turn do
            Domain.cpu_relax ()
          done;
          Conc.Recorder.record_update rec_ ~domain:i ~obj:0 my_turn (fun () ->
              ());
          Atomic.set turn (my_turn + 1)
        done)
  in
  let h = Conc.Recorder.history rec_ in
  let id_of_arg =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (op : Test_helpers.iop) ->
        match op.Hist.Op.kind with
        | Hist.Op.Update u -> Hashtbl.replace tbl u op.Hist.Op.id
        | _ -> ())
      (Hist.History.ops h);
    Hashtbl.find tbl
  in
  for a = 0 to (2 * rounds) - 2 do
    if not (Hist.History.precedes h (id_of_arg a) (id_of_arg (a + 1))) then
      Alcotest.failf
        "op %d completed before op %d was invoked, but the ticket order \
         disagrees"
        a (a + 1)
  done

(* The quiesce guard: merging buffers while a domain is mid-record is the
   classic misuse, and must now raise instead of returning racy garbage. *)
let test_recorder_history_guard_trips_mid_record () =
  let rec_ = Conc.Recorder.create ~domains:1 in
  let entered = Atomic.make false and release = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Conc.Recorder.record_update rec_ ~domain:0 ~obj:0 1 (fun () ->
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  (try
     ignore (Conc.Recorder.history rec_);
     Alcotest.fail "history during an in-flight record did not raise"
   with Invalid_argument _ -> ());
  Atomic.set release true;
  Domain.join d;
  let h = Conc.Recorder.history rec_ in
  Alcotest.(check int)
    "after quiesce, history works" 1
    (List.length (Hist.History.completed h))

(* A chaos kill inside the recorded body must NOT wedge the guard: the
   domain stops recording when the exception propagates, so the pending op
   it leaves behind is legitimate history, not an active recorder. *)
let test_recorder_history_guard_clears_on_raise () =
  let rec_ = Conc.Recorder.create ~domains:1 in
  let d =
    Domain.spawn (fun () ->
        try
          Conc.Recorder.record_update rec_ ~domain:0 ~obj:0 1 (fun () ->
              raise Exit)
        with Exit -> ())
  in
  Domain.join d;
  let h = Conc.Recorder.history rec_ in
  Alcotest.(check int) "pending op survives" 1 (List.length (Hist.History.pending h));
  Alcotest.(check int) "no completed ops" 0 (List.length (Hist.History.completed h))

(* End-to-end Lemma 10 on hardware: recorded concurrent executions of the
   IVL counter are always IVL. Small op counts keep the checker exact. *)
let test_recorded_ivl_counter_histories_are_ivl () =
  for round = 1 to 30 do
    let rec_ = Conc.Recorder.create ~domains:3 in
    let c = Conc.Ivl_counter.create ~procs:2 in
    let _ =
      Conc.Runner.parallel ~domains:3 (fun i ->
          if i < 2 then
            for k = 1 to 3 do
              Conc.Recorder.record_update rec_ ~domain:i ~obj:0 k (fun () ->
                  Conc.Ivl_counter.update c ~proc:i k)
            done
          else
            for _ = 1 to 3 do
              ignore
                (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 0 (fun () ->
                     Conc.Ivl_counter.read c))
            done)
    in
    let h = Conc.Recorder.history rec_ in
    if not (Counter_check.is_ivl h) then
      Alcotest.failf "recorded execution %d not IVL:\n%s" round
        (Test_helpers.show_history h)
  done

(* End-to-end Lemma 7 on hardware: recorded concurrent PCM executions are
   IVL w.r.t. the CM spec sharing the same hash family. *)
let test_recorded_pcm_histories_are_ivl () =
  let family = Hashing.Family.seeded ~seed:123L ~rows:2 ~width:4 in
  let module Cm = Spec.Countmin_spec.Fixed (struct
    let family = family
  end) in
  let module Cm_check = Ivl.Check.Make (Cm) in
  for round = 1 to 30 do
    let rec_ = Conc.Recorder.create ~domains:3 in
    let pcm = Conc.Pcm.create ~family in
    let _ =
      Conc.Runner.parallel ~domains:3 (fun i ->
          if i < 2 then
            for k = 0 to 2 do
              let a = (i + k) mod 3 in
              Conc.Recorder.record_update rec_ ~domain:i ~obj:0 a (fun () ->
                  Conc.Pcm.update pcm a)
            done
          else
            for a = 0 to 2 do
              ignore
                (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 a (fun () ->
                     Conc.Pcm.query pcm a))
            done)
    in
    let h = Conc.Recorder.history rec_ in
    if not (Cm_check.is_ivl h) then
      Alcotest.failf "recorded PCM execution %d not IVL:\n%s" round
        (Test_helpers.show_history h)
  done


(* ------------------------- striped quantiles ------------------------- *)

let test_striped_quantiles_sequential () =
  let q = Conc.Striped_quantiles.create ~k:64 ~publish_every:8 ~seed:1L ~domains:2 () in
  for x = 1 to 100 do
    Conc.Striped_quantiles.update q ~domain:(x mod 2) x
  done;
  Conc.Striped_quantiles.flush_all q;
  Alcotest.(check int) "all published" 100 (Conc.Striped_quantiles.published q);
  Alcotest.(check int) "rank exact below capacity" 50 (Conc.Striped_quantiles.rank q 50);
  Alcotest.(check int) "ingested per stripe" 50 (Conc.Striped_quantiles.ingested q ~domain:0)

let test_striped_quantiles_publish_batching () =
  let q = Conc.Striped_quantiles.create ~k:64 ~publish_every:10 ~seed:2L ~domains:1 () in
  for x = 1 to 9 do
    Conc.Striped_quantiles.update q ~domain:0 x
  done;
  Alcotest.(check int) "nothing published below the batch" 0
    (Conc.Striped_quantiles.published q);
  Conc.Striped_quantiles.update q ~domain:0 10;
  Alcotest.(check int) "batch published" 10 (Conc.Striped_quantiles.published q);
  Conc.Striped_quantiles.update q ~domain:0 11;
  Alcotest.(check int) "stays at batch boundary" 10 (Conc.Striped_quantiles.published q);
  Conc.Striped_quantiles.flush q ~domain:0;
  Alcotest.(check int) "flush publishes the tail" 11 (Conc.Striped_quantiles.published q)

let test_striped_quantiles_concurrent_rank_envelope () =
  (* Writers ingest an ascending stream; a reader checks that rank estimates
     stay within the published/ingested envelope (±εn sketch error). *)
  let domains = 3 in
  let per_domain = 10_000 in
  let q =
    Conc.Striped_quantiles.create ~k:256 ~publish_every:32 ~seed:3L ~domains ()
  in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:(domains + 1) (fun i ->
        if i < domains then
          for x = 1 to per_domain do
            Conc.Striped_quantiles.update q ~domain:i x
          done
        else
          for _ = 1 to 500 do
            (* rank over everything is at most total ingested and at least 0;
               probe the top value so true rank = published count. *)
            let r = Conc.Striped_quantiles.rank q per_domain in
            let total = domains * per_domain in
            let slack = (total / 20) + (domains * 32) in
            if r < 0 || r > total + slack then
              ignore (Atomic.fetch_and_add violations 1)
          done)
  in
  Alcotest.(check int) "no envelope violations" 0 (Atomic.get violations);
  Conc.Striped_quantiles.flush_all q;
  let final = Conc.Striped_quantiles.rank q per_domain in
  let total = domains * per_domain in
  Alcotest.(check bool)
    (Printf.sprintf "final rank %d within 5%% of %d" final total)
    true
    (abs (final - total) <= total / 20)

let test_striped_quantiles_accuracy_vs_exact () =
  let domains = 4 in
  let q = Conc.Striped_quantiles.create ~k:256 ~publish_every:64 ~seed:4L ~domains () in
  let stream =
    Workload.Stream.generate ~seed:5L (Workload.Stream.Uniform 10_000) ~length:40_000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:domains in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        Array.iter (fun x -> Conc.Striped_quantiles.update q ~domain:i x) chunks.(i))
  in
  Conc.Striped_quantiles.flush_all q;
  let exact = Sketches.Exact.create () in
  Array.iter (Sketches.Exact.update exact) stream;
  List.iter
    (fun x ->
      let est = Conc.Striped_quantiles.rank q x and tru = Sketches.Exact.rank exact x in
      Alcotest.(check bool)
        (Printf.sprintf "rank(%d): |%d-%d| <= 2%%n" x est tru)
        true
        (abs (est - tru) <= 800))
    [ 1000; 5000; 9000 ];
  let med = Conc.Striped_quantiles.quantile q 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "median %d near 5000" med)
    true
    (med > 4200 && med < 5800)

let test_striped_quantiles_validation () =
  let q = Conc.Striped_quantiles.create ~seed:1L ~domains:2 () in
  Alcotest.check_raises "bad domain"
    (Invalid_argument "Stripes: no such domain") (fun () ->
      Conc.Striped_quantiles.update q ~domain:7 1);
  Alcotest.check_raises "empty quantile" Not_found (fun () ->
      ignore (Conc.Striped_quantiles.quantile q 0.5))

(* ------------------------- buffered (delegation) PCM ------------------------- *)

let test_buffered_pcm_flush_semantics () =
  let family = Hashing.Family.seeded ~seed:10L ~rows:2 ~width:16 in
  let b = Conc.Buffered_pcm.create ~flush_every:5 ~family ~domains:1 () in
  for _ = 1 to 4 do
    Conc.Buffered_pcm.update b ~domain:0 7
  done;
  Alcotest.(check int) "buffered, invisible" 0 (Conc.Buffered_pcm.query b 7);
  Alcotest.(check int) "pending" 4 (Conc.Buffered_pcm.buffered b ~domain:0);
  Conc.Buffered_pcm.update b ~domain:0 7;
  Alcotest.(check int) "auto-flushed at budget" 5 (Conc.Buffered_pcm.query b 7);
  Alcotest.(check int) "buffer drained" 0 (Conc.Buffered_pcm.buffered b ~domain:0)

let test_buffered_pcm_matches_pcm_after_flush () =
  let family = Hashing.Family.seeded ~seed:11L ~rows:3 ~width:32 in
  let b = Conc.Buffered_pcm.create ~flush_every:64 ~family ~domains:4 () in
  let reference = Sketches.Countmin.create ~family in
  let stream =
    Workload.Stream.generate ~seed:12L (Workload.Stream.Zipf (100, 1.2)) ~length:20_000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        Array.iter (fun a -> Conc.Buffered_pcm.update b ~domain:i a) chunks.(i))
  in
  Conc.Buffered_pcm.flush_all b;
  Array.iter (Sketches.Countmin.update reference) stream;
  Alcotest.(check int) "updates all flushed" 20_000 (Conc.Buffered_pcm.flushed_updates b);
  for a = 0 to 99 do
    Alcotest.(check int)
      (Printf.sprintf "element %d" a)
      (Sketches.Countmin.query reference a)
      (Conc.Buffered_pcm.query b a)
  done

let test_buffered_pcm_never_overcounts_ingest () =
  (* Mid-flight queries see at most what has been ingested (flushes only move
     buffered counts, never invent them). *)
  let family = Hashing.Family.seeded ~seed:13L ~rows:2 ~width:8 in
  let b = Conc.Buffered_pcm.create ~flush_every:16 ~family ~domains:2 () in
  let probe = 3 in
  let violations = Atomic.make 0 in
  let per_domain = 20_000 in
  let _ =
    Conc.Runner.parallel ~domains:3 (fun i ->
        if i < 2 then
          for _ = 1 to per_domain do
            Conc.Buffered_pcm.update b ~domain:i probe
          done
        else
          for _ = 1 to 2_000 do
            if Conc.Buffered_pcm.query b probe > 2 * per_domain then
              ignore (Atomic.fetch_and_add violations 1)
          done)
  in
  Alcotest.(check int) "no overcount" 0 (Atomic.get violations)


(* ------------------------- concurrent HyperLogLog ------------------------- *)

let test_hll_conc_matches_sequential () =
  (* Same seed, same elements, ingested sequentially: register files must
     coincide exactly. *)
  let seed = 42L in
  let c = Conc.Hll_conc.create ~p:10 ~seed () in
  let s = Sketches.Hyperloglog.create ~p:10 ~seed () in
  for x = 1 to 5_000 do
    Conc.Hll_conc.update c x;
    Sketches.Hyperloglog.update s x
  done;
  Alcotest.(check (array int)) "identical registers"
    (Sketches.Hyperloglog.registers s)
    (Sketches.Hyperloglog.registers (Conc.Hll_conc.to_sequential c))

let test_hll_conc_concurrent_accuracy () =
  let seed = 43L in
  let c = Conc.Hll_conc.create ~p:12 ~seed () in
  let true_distinct = 80_000 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        let lo = (i * true_distinct / 4) + 1 in
        let hi = (i + 1) * true_distinct / 4 in
        for x = lo to hi do
          Conc.Hll_conc.update c x;
          (* Duplicates across domains must not inflate the count. *)
          if x mod 5 = 0 then Conc.Hll_conc.update c ((x mod 100) + 1)
        done)
  in
  let est = Conc.Hll_conc.estimate c in
  let rel = abs_float (est -. float_of_int true_distinct) /. float_of_int true_distinct in
  Alcotest.(check bool) (Printf.sprintf "relative error %.3f < 0.06" rel) true (rel < 0.06)

let test_hll_conc_estimates_monotone_under_ingest () =
  let c = Conc.Hll_conc.create ~p:10 ~seed:44L () in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:3 (fun i ->
        if i < 2 then
          for x = 1 to 50_000 do
            Conc.Hll_conc.update c ((i * 50_000) + x)
          done
        else begin
          let prev = ref 0.0 in
          for _ = 1 to 2_000 do
            let e = Conc.Hll_conc.estimate c in
            (* Small-range linear counting is monotone too; allow epsilon for
               float noise. *)
            if e < !prev -. 1e-6 then ignore (Atomic.fetch_and_add violations 1);
            prev := e
          done
        end)
  in
  Alcotest.(check int) "monotone estimates" 0 (Atomic.get violations)

let test_hll_conc_merge_from () =
  let seed = 45L in
  let c = Conc.Hll_conc.create ~p:10 ~seed () in
  let local = Sketches.Hyperloglog.create ~p:10 ~seed () in
  for x = 1 to 10_000 do
    Sketches.Hyperloglog.update local x
  done;
  Conc.Hll_conc.merge_from c local;
  let est = Conc.Hll_conc.estimate c in
  let rel = abs_float (est -. 10_000.0) /. 10_000.0 in
  Alcotest.(check bool) (Printf.sprintf "published batch visible (%.3f)" rel) true
    (rel < 0.1)

(* ------------------------- large-scale recorded validation ------------------------- *)

let test_recorded_large_execution_via_monotone_checker () =
  (* Thousands of recorded operations — far past the exact checker's cap —
     validated with the monotone fast path (Ivl.Monotone): every concurrent
     read of the IVL counter lies within its envelope. *)
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let writers = 3 in
  let rec_ = Conc.Recorder.create ~domains:(writers + 1) in
  let c = Conc.Ivl_counter.create ~procs:writers in
  let _ =
    Conc.Runner.parallel ~domains:(writers + 1) (fun i ->
        if i < writers then
          for k = 1 to 2_000 do
            Conc.Recorder.record_update rec_ ~domain:i ~obj:0 (k mod 7) (fun () ->
                Conc.Ivl_counter.update c ~proc:i (k mod 7))
          done
        else
          for _ = 1 to 500 do
            ignore
              (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 0 (fun () ->
                   Conc.Ivl_counter.read c))
          done)
  in
  let h = Conc.Recorder.history rec_ in
  Alcotest.(check int) "6500 ops recorded" 6500 (List.length (Hist.History.completed h));
  match Mono.violations h with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "envelope violation: ret=%s not in [%d,%d]"
        (match e.Mono.op.Hist.Op.ret with Some v -> string_of_int v | None -> "?")
        e.Mono.low e.Mono.high


(* ------------------------- striped top-k ------------------------- *)

let test_striped_topk_sequential () =
  let t = Conc.Striped_topk.create ~capacity:16 ~publish_every:4 ~seed:1L ~domains:2 () in
  List.iter (fun a -> Conc.Striped_topk.update t ~domain:0 a) [ 1; 1; 1; 2 ];
  List.iter (fun a -> Conc.Striped_topk.update t ~domain:1 a) [ 1; 3; 3; 2 ];
  (* Both stripes hit their publish batch exactly. *)
  Alcotest.(check int) "published" 8 (Conc.Striped_topk.published t);
  Alcotest.(check int) "merged count of 1" 4 (Conc.Striped_topk.query t 1);
  Alcotest.(check int) "merged count of 3" 2 (Conc.Striped_topk.query t 3);
  match Conc.Striped_topk.top t ~k:1 () with
  | [ (elt, count) ] ->
      Alcotest.(check int) "top element" 1 elt;
      Alcotest.(check int) "top count" 4 count
  | _ -> Alcotest.fail "expected a single top entry"

let test_striped_topk_concurrent_recall () =
  let domains = 4 in
  let t =
    Conc.Striped_topk.create ~capacity:128 ~publish_every:64 ~seed:2L ~domains ()
  in
  let stream =
    Workload.Stream.generate ~seed:3L (Workload.Stream.Zipf (5_000, 1.4)) ~length:60_000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:domains in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        Array.iter (fun a -> Conc.Striped_topk.update t ~domain:i a) chunks.(i))
  in
  Conc.Striped_topk.flush_all t;
  let exact = Sketches.Exact.create () in
  Array.iter (Sketches.Exact.update exact) stream;
  (* Every 1% heavy hitter is found with a count that never under-estimates
     by more than the guaranteed merge error. *)
  let err = Conc.Striped_topk.guaranteed_error t in
  List.iter
    (fun (elt, f) ->
      let est = Conc.Striped_topk.query t elt in
      Alcotest.(check bool)
        (Printf.sprintf "heavy %d: est %d vs true %d (err bound %d)" elt est f err)
        true
        (est >= f - err && est <= f + err))
    (Sketches.Exact.heavy_hitters exact ~threshold:0.01);
  let top10 = Conc.Striped_topk.top t ~k:10 () in
  Alcotest.(check int) "top-10 size" 10 (List.length top10);
  (* The true #1 must appear first (zipf head is far above the error). *)
  match top10 with
  | (elt, _) :: _ -> Alcotest.(check int) "true head found" 0 elt
  | [] -> Alcotest.fail "empty top"

let test_striped_topk_validation () =
  let t = Conc.Striped_topk.create ~seed:1L ~domains:2 () in
  Alcotest.check_raises "bad domain"
    (Invalid_argument "Stripes: no such domain") (fun () ->
      Conc.Striped_topk.update t ~domain:9 1);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Striped_topk.create: capacity must be positive") (fun () ->
      ignore (Conc.Striped_topk.create ~capacity:0 ~seed:1L ~domains:1 ()))


(* ------------------------- striped KMV + cross-validation ------------------------- *)

let test_striped_kmv_accuracy () =
  let domains = 4 in
  let t = Conc.Striped_kmv.create ~k:512 ~publish_every:128 ~seed:77L ~domains () in
  let true_distinct = 60_000 in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        (* Overlapping slices: every domain sees half the universe. *)
        for x = 1 to true_distinct do
          if (x + i) mod 2 = 0 then Conc.Striped_kmv.update t ~domain:i x
        done;
        for x = 1 to true_distinct do
          if (x + i) mod 2 = 1 then Conc.Striped_kmv.update t ~domain:i x
        done)
  in
  Conc.Striped_kmv.flush_all t;
  let est = Conc.Striped_kmv.estimate t in
  let rel = abs_float (est -. float_of_int true_distinct) /. float_of_int true_distinct in
  Alcotest.(check bool) (Printf.sprintf "relative error %.3f < 0.2" rel) true (rel < 0.2);
  Alcotest.(check bool) "merged view bounded by k" true
    (Conc.Striped_kmv.retained t <= 512)

let test_striped_kmv_exact_below_k () =
  let t = Conc.Striped_kmv.create ~k:128 ~publish_every:4 ~seed:78L ~domains:2 () in
  for x = 1 to 40 do
    Conc.Striped_kmv.update t ~domain:(x mod 2) x
  done;
  Conc.Striped_kmv.flush_all t;
  Alcotest.(check (float 0.0)) "exact union below k" 40.0 (Conc.Striped_kmv.estimate t)

let test_distinct_counters_agree () =
  (* Two structurally different distinct counters (HLL and KMV) on the same
     concurrent stream must agree within their combined error budgets. *)
  let hll = Conc.Hll_conc.create ~p:12 ~seed:79L () in
  let kmv = Conc.Striped_kmv.create ~k:512 ~seed:80L ~domains:4 () in
  let stream =
    Workload.Stream.generate ~seed:81L (Workload.Stream.Uniform 1_000_000) ~length:50_000
  in
  let chunks = Workload.Stream.chunks stream ~pieces:4 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        Array.iter
          (fun x ->
            Conc.Hll_conc.update hll x;
            Conc.Striped_kmv.update kmv ~domain:i x)
          chunks.(i))
  in
  Conc.Striped_kmv.flush_all kmv;
  let a = Conc.Hll_conc.estimate hll and b = Conc.Striped_kmv.estimate kmv in
  let rel = abs_float (a -. b) /. Float.max a b in
  Alcotest.(check bool)
    (Printf.sprintf "HLL %.0f vs KMV %.0f agree within 15%%" a b)
    true (rel < 0.15)


(* ------------------------- stripes scaffold ------------------------- *)

(* Drive Stripes.Make directly with the simplest possible sketch (a counter
   cell) so the publish-boundary arithmetic is visible without any sketch
   noise on top. *)
module Int_stripes = Conc.Stripes.Make (struct
  type t = int ref

  let copy r = ref !r
end)

let int_stripes_published t =
  Array.fold_left (fun acc v -> acc + !v) 0 (Int_stripes.views t)

let test_stripes_publish_every_one () =
  (* publish_every = 1: every update is visible in the views immediately —
     the zero-staleness corner the recorded-IVL tests rely on. *)
  let t = Int_stripes.create ~publish_every:1 ~domains:2 (fun _ -> ref 0) in
  for k = 1 to 5 do
    Int_stripes.update t ~domain:0 incr;
    Alcotest.(check int) (Printf.sprintf "update %d published" k) k
      (int_stripes_published t)
  done

let test_stripes_exact_multiple_batches () =
  (* A stream that is an exact multiple of publish_every leaves nothing
     buffered: the boundary publish must fire on the last update, not one
     update later. *)
  let t = Int_stripes.create ~publish_every:4 ~domains:1 (fun _ -> ref 0) in
  for _ = 1 to 8 do
    Int_stripes.update t ~domain:0 incr
  done;
  Alcotest.(check int) "two full batches all published" 8
    (int_stripes_published t);
  Int_stripes.update t ~domain:0 incr;
  Alcotest.(check int) "ninth update buffered, views unchanged" 8
    (int_stripes_published t);
  Alcotest.(check int) "local sees it" 9 !(Int_stripes.local t ~domain:0)

let test_stripes_flush_resets_since_publish () =
  (* flush must reset the batch countdown: after a mid-batch flush the next
     publish happens publish_every updates later, not at the stale
     boundary. *)
  let t = Int_stripes.create ~publish_every:4 ~domains:1 (fun _ -> ref 0) in
  Int_stripes.update t ~domain:0 incr;
  Int_stripes.update t ~domain:0 incr;
  Alcotest.(check int) "mid-batch, nothing published" 0 (int_stripes_published t);
  Int_stripes.flush t ~domain:0;
  Alcotest.(check int) "flush publishes the partial batch" 2
    (int_stripes_published t);
  for _ = 1 to 3 do
    Int_stripes.update t ~domain:0 incr
  done;
  Alcotest.(check int) "countdown restarted: 3 more stay buffered" 2
    (int_stripes_published t);
  Int_stripes.update t ~domain:0 incr;
  Alcotest.(check int) "fourth post-flush update publishes" 6
    (int_stripes_published t)

let test_stripes_domains_independent () =
  (* One domain's publishes must not flush a sibling's buffered updates. *)
  let t = Int_stripes.create ~publish_every:2 ~domains:2 (fun _ -> ref 0) in
  Int_stripes.update t ~domain:0 incr;
  Int_stripes.update t ~domain:1 incr;
  Alcotest.(check int) "both buffered" 0 (int_stripes_published t);
  Int_stripes.update t ~domain:0 incr;
  Alcotest.(check int) "only domain 0 published" 2 (int_stripes_published t);
  Int_stripes.flush_all t;
  Alcotest.(check int) "flush_all publishes the rest" 3 (int_stripes_published t)

(* ------------------------- striped totals ------------------------- *)

let test_striped_total_basics () =
  let t = Conc.Striped_total.create ~slots:4 in
  Alcotest.(check int) "empty" 0 (Conc.Striped_total.read t);
  Conc.Striped_total.add t 5;
  Conc.Striped_total.add t 7;
  Alcotest.(check int) "sums across slots" 12 (Conc.Striped_total.read t);
  (* Racing adders from several domains land exactly. *)
  let t = Conc.Striped_total.create ~slots:(Domain.recommended_domain_count () + 4) in
  let per = 50_000 in
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        for _ = 1 to per do
          Conc.Striped_total.add t (i + 1)
        done)
  in
  Alcotest.(check int) "sum of concurrent adds" (per * (1 + 2 + 3 + 4))
    (Conc.Striped_total.read t);
  Alcotest.check_raises "slots must be positive"
    (Invalid_argument "Striped_total.create: slots must be positive") (fun () ->
      ignore (Conc.Striped_total.create ~slots:0))

let test_striped_updates_envelope () =
  (* Pcm.updates is an intermediate-value read of the striped total: each
     slot is monotone, so a scan-sum lies between the total at the read's
     invocation and at its response (Lemma 10). While writers run it must
     stay within [0, total] and be monotone for a single reader; after the
     join it must be exact. *)
  let family = Hashing.Family.seeded ~seed:210L ~rows:2 ~width:64 in
  let pcm = Conc.Pcm.create ~family in
  let writers = 3 in
  let per_writer = 30_000 in
  let total = writers * per_writer in
  let violations = Atomic.make 0 in
  let _ =
    Conc.Runner.parallel ~domains:(writers + 1) (fun i ->
        if i < writers then
          for k = 1 to per_writer do
            Conc.Pcm.update pcm (k mod 50)
          done
        else begin
          let prev = ref 0 in
          for _ = 1 to 2_000 do
            let n = Conc.Pcm.updates pcm in
            if n < !prev || n > total then
              ignore (Atomic.fetch_and_add violations 1);
            prev := n
          done
        end)
  in
  Alcotest.(check int) "reads monotone and bounded" 0 (Atomic.get violations);
  Alcotest.(check int) "exact after join" total (Conc.Pcm.updates pcm)

let test_pcm_update_many_large_counts () =
  (* Counts near the int extreme: two half-max batches must accumulate
     without wrapping in the cells or the striped total. *)
  let family = Hashing.Family.seeded ~seed:211L ~rows:2 ~width:8 in
  let pcm = Conc.Pcm.create ~family in
  let half = max_int / 2 in
  Conc.Pcm.update_many pcm 3 ~count:half;
  Alcotest.(check int) "first half counted" half (Conc.Pcm.query pcm 3);
  Conc.Pcm.update_many pcm 3 ~count:half;
  Alcotest.(check int) "cells accumulate to max_int - 1" (half * 2)
    (Conc.Pcm.query pcm 3);
  Alcotest.(check int) "updates total matches" (half * 2) (Conc.Pcm.updates pcm);
  Alcotest.(check bool) "no wrap to negative" true (Conc.Pcm.query pcm 3 > 0)

let test_countmin_update_many_edges () =
  let family = Hashing.Family.seeded ~seed:212L ~rows:2 ~width:8 in
  let cm = Sketches.Countmin.create ~family in
  Sketches.Countmin.update_many cm 4 ~count:0;
  Alcotest.(check int) "count 0 is a no-op" 0 (Sketches.Countmin.updates cm);
  Sketches.Countmin.update_many cm 4 ~count:9;
  Alcotest.(check int) "weighted" 9 (Sketches.Countmin.query cm 4);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Countmin.update_many: count must be non-negative")
    (fun () -> Sketches.Countmin.update_many cm 4 ~count:(-2))

let test_pcm_update_many_equivalence () =
  let family = Hashing.Family.seeded ~seed:200L ~rows:3 ~width:16 in
  let a = Conc.Pcm.create ~family and b = Conc.Pcm.create ~family in
  for _ = 1 to 7 do
    Conc.Pcm.update a 5
  done;
  Conc.Pcm.update_many b 5 ~count:7;
  for x = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "query %d equal" x) (Conc.Pcm.query a x)
      (Conc.Pcm.query b x)
  done;
  Alcotest.(check int) "n equal" (Conc.Pcm.updates a) (Conc.Pcm.updates b);
  Conc.Pcm.update_many b 5 ~count:0;
  Alcotest.(check int) "count 0 is a no-op" 7 (Conc.Pcm.updates b);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Pcm.update_many: count must be non-negative") (fun () ->
      Conc.Pcm.update_many b 5 ~count:(-1))

let test_pcm_merge_into_folds_delta () =
  (* merge_into must equal replaying the delta's stream into the PCM —
     cell-wise, not just on queries — and must reject foreign coins. *)
  let family = Hashing.Family.seeded ~seed:201L ~rows:3 ~width:16 in
  let pcm = Conc.Pcm.create ~family and replay = Conc.Pcm.create ~family in
  let base = List.init 200 (fun i -> i * 3 mod 40)
  and delta_stream = List.init 150 (fun i -> i * 11 mod 40) in
  List.iter (Conc.Pcm.update pcm) base;
  List.iter (Conc.Pcm.update replay) base;
  let delta = Sketches.Countmin.create ~family in
  List.iter (Sketches.Countmin.update delta) delta_stream;
  Conc.Pcm.merge_into pcm delta;
  List.iter (Conc.Pcm.update replay) delta_stream;
  for x = 0 to 39 do
    Alcotest.(check int)
      (Printf.sprintf "query %d equal" x)
      (Conc.Pcm.query replay x) (Conc.Pcm.query pcm x)
  done;
  Alcotest.(check int) "n accumulates" 350 (Conc.Pcm.updates pcm);
  Alcotest.check_raises "foreign family rejected"
    (Invalid_argument "Pcm.merge_into: delta must share a compatible hash family")
    (fun () ->
      Conc.Pcm.merge_into pcm
        (Sketches.Countmin.create
           ~family:(Hashing.Family.seeded ~seed:202L ~rows:3 ~width:16)))

let test_pcm_merge_into_concurrent () =
  (* Concurrent mergers: one atomic add per cell means deltas merged from
     several domains still sum exactly. *)
  let family = Hashing.Family.seeded ~seed:203L ~rows:3 ~width:16 in
  let pcm = Conc.Pcm.create ~family in
  let mergers = 4 and per = 25 in
  ignore
    (Conc.Runner.parallel ~domains:mergers (fun d ->
         for k = 1 to per do
           let delta = Sketches.Countmin.create ~family in
           Sketches.Countmin.update delta ((d + k) mod 40);
           Conc.Pcm.merge_into pcm delta
         done));
  let replay = Sketches.Countmin.create ~family in
  for d = 0 to mergers - 1 do
    for k = 1 to per do
      Sketches.Countmin.update replay ((d + k) mod 40)
    done
  done;
  Alcotest.(check int) "n exact" (mergers * per) (Conc.Pcm.updates pcm);
  for x = 0 to 39 do
    Alcotest.(check int)
      (Printf.sprintf "query %d exact" x)
      (Sketches.Countmin.query replay x) (Conc.Pcm.query pcm x)
  done

let test_runner_propagates_exceptions () =
  match Conc.Runner.parallel ~domains:2 (fun i -> if i = 1 then failwith "boom" else 0) with
  | exception Failure m -> Alcotest.(check string) "exception surfaces" "boom" m
  | _ -> Alcotest.fail "expected the domain's exception"

(* ------------------------- hardened barrier ------------------------- *)

let test_barrier_poison_breaks_waiters () =
  let b = Conc.Barrier.create 2 in
  Alcotest.(check int) "parties" 2 (Conc.Barrier.parties b);
  Alcotest.(check bool) "starts intact" false (Conc.Barrier.is_broken b);
  Conc.Barrier.poison b "root cause";
  Conc.Barrier.poison b "secondary failure";
  Alcotest.(check bool) "broken" true (Conc.Barrier.is_broken b);
  match Conc.Barrier.await b with
  | exception Conc.Barrier.Broken msg ->
      (* The first poisoner's message wins — it names the root cause. *)
      Alcotest.(check string) "first poison message kept" "root cause" msg
  | () -> Alcotest.fail "expected Broken"

let test_barrier_timeout_raises_broken () =
  (* A 2-party barrier awaited by one party alone: the spin deadline turns
     the would-be livelock into a Broken diagnostic, poisoning the barrier
     for everyone else too. *)
  let b = Conc.Barrier.create ~timeout_s:0.05 2 in
  (match Conc.Barrier.await b with
  | exception Conc.Barrier.Broken msg ->
      Alcotest.(check bool) "diagnostic mentions the timeout" true
        (String.length msg > 0)
  | () -> Alcotest.fail "expected a timeout");
  Alcotest.(check bool) "left poisoned" true (Conc.Barrier.is_broken b)

let test_barrier_create_validation () =
  Alcotest.check_raises "zero parties"
    (Invalid_argument "Barrier.create: parties must be positive") (fun () ->
      ignore (Conc.Barrier.create 0));
  Alcotest.check_raises "zero timeout"
    (Invalid_argument "Barrier.create: timeout must be positive") (fun () ->
      ignore (Conc.Barrier.create ~timeout_s:0.0 2))

let test_parallel_timed_measures () =
  let results, dt =
    Conc.Runner.parallel_timed ~domains:3 (fun i b ->
        Conc.Barrier.await b;
        i * 2)
  in
  Alcotest.(check (array int)) "per-domain results" [| 0; 2; 4 |] results;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

let test_parallel_timed_prebarrier_raise_no_hang () =
  (* The regression this PR fixes: a worker dying before the start barrier
     used to leave the coordinator and every sibling spinning forever. Now
     the barrier is poisoned, all domains join, and the worker's original
     exception (not the siblings' consequent Broken) propagates. *)
  match
    Conc.Runner.parallel_timed ~domains:2 (fun i b ->
        if i = 1 then failwith "died before the barrier";
        Conc.Barrier.await b;
        i)
  with
  | exception Failure m ->
      Alcotest.(check string) "original exception" "died before the barrier" m
  | exception e ->
      Alcotest.failf "expected the worker's own exception, got %s"
        (Printexc.to_string e)
  | _ -> Alcotest.fail "expected an exception"

let test_parallel_result_isolates_failures () =
  let results =
    Conc.Runner.parallel_result ~domains:3 (fun i ->
        if i = 1 then failwith "partial" else i * 10)
  in
  (match results.(0) with
  | Ok v -> Alcotest.(check int) "domain 0 ok" 0 v
  | Error _ -> Alcotest.fail "domain 0 should succeed");
  (match results.(1) with
  | Error (Failure m) -> Alcotest.(check string) "domain 1 failed" "partial" m
  | _ -> Alcotest.fail "domain 1 should fail");
  match results.(2) with
  | Ok v -> Alcotest.(check int) "domain 2 ok" 20 v
  | Error _ -> Alcotest.fail "domain 2 should succeed"

(* ------------------------- chaos injection ------------------------- *)

let test_chaos_kill_point_deterministic () =
  let plan = Conc.Chaos.plan ~kills:[ (0, 7) ] ~seed:4L () in
  let run () =
    let t = Conc.Chaos.instantiate plan ~domains:1 in
    (try
       while true do
         Conc.Chaos.point t ~domain:0
       done
     with Conc.Chaos.Killed { domain = 0; point } ->
       Alcotest.(check int) "killed at the chosen point" 7 point);
    Alcotest.(check (list int)) "marked dead" [ 0 ] (Conc.Chaos.killed t);
    Conc.Chaos.points_passed t ~domain:0
  in
  Alcotest.(check int) "dies at its 7th injection point" 7 (run ());
  Alcotest.(check int) "reproducible" (run ()) (run ())

let test_chaos_no_kills_counts_points () =
  let plan = Conc.Chaos.plan ~yield_prob:0.0 ~stall_prob:0.0 ~seed:2L () in
  let t = Conc.Chaos.instantiate plan ~domains:2 in
  for _ = 1 to 25 do
    Conc.Chaos.point t ~domain:1
  done;
  Alcotest.(check int) "points counted" 25 (Conc.Chaos.points_passed t ~domain:1);
  Alcotest.(check int) "untouched domain" 0 (Conc.Chaos.points_passed t ~domain:0);
  Alcotest.(check (list int)) "nobody killed" [] (Conc.Chaos.killed t)

let test_chaos_random_kills_well_formed () =
  let kills = Conc.Chaos.random_kills ~seed:11L ~domains:4 ~victims:3 ~max_point:9 in
  Alcotest.(check int) "three victims" 3 (List.length kills);
  let ds = List.map fst kills in
  Alcotest.(check int) "victims distinct" 3
    (List.length (List.sort_uniq Int.compare ds));
  List.iter
    (fun (d, p) ->
      Alcotest.(check bool) "domain in range" true (d >= 0 && d < 4);
      Alcotest.(check bool) "kill point in range" true (p >= 1 && p <= 9))
    kills;
  Alcotest.check_raises "too many victims"
    (Invalid_argument "Chaos.random_kills: victims must be in [0, domains]")
    (fun () ->
      ignore (Conc.Chaos.random_kills ~seed:1L ~domains:2 ~victims:3 ~max_point:5))

let test_chaos_plan_validation () =
  Alcotest.check_raises "probability range"
    (Invalid_argument "Chaos.plan: yield_prob must be in [0,1]") (fun () ->
      ignore (Conc.Chaos.plan ~yield_prob:1.5 ~seed:1L ()));
  Alcotest.check_raises "kill points 1-based"
    (Invalid_argument "Chaos.plan: kill points are 1-based") (fun () ->
      ignore (Conc.Chaos.plan ~kills:[ (0, 0) ] ~seed:1L ()))

let test_chaos_kill_lands_mid_operation () =
  (* The whole point of the harness: a kill placed inside a recorded update
     body leaves exactly one pending operation, owned by the victim, and the
     recorded history still satisfies the counter's IVL envelope. *)
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let domains = 3 in
  let plan =
    Conc.Chaos.plan ~yield_prob:0.1 ~stall_prob:0.0 ~kills:[ (1, 5) ] ~seed:9L ()
  in
  let chaos = Conc.Chaos.instantiate plan ~domains in
  let rec_ = Conc.Recorder.create ~domains in
  let c = Conc.Ivl_counter.create ~procs:(domains - 1) in
  let results =
    Conc.Runner.parallel_result ~domains (fun i ->
        for k = 1 to 10 do
          if i = domains - 1 then
            ignore
              (Conc.Recorder.record_query rec_ ~domain:i ~obj:0 0 (fun () ->
                   Conc.Chaos.point chaos ~domain:i;
                   Conc.Ivl_counter.read c))
          else
            Conc.Recorder.record_update rec_ ~domain:i ~obj:0 k (fun () ->
                Conc.Chaos.point chaos ~domain:i;
                Conc.Ivl_counter.update c ~proc:i k)
        done)
  in
  Alcotest.(check (list int)) "victim recorded as killed" [ 1 ]
    (Conc.Chaos.killed chaos);
  (match results.(1) with
  | Error (Conc.Chaos.Killed { domain = 1; point = 5 }) -> ()
  | _ -> Alcotest.fail "expected domain 1 to die at its 5th injection point");
  (match (results.(0), results.(2)) with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "survivors must complete");
  let h = Conc.Recorder.history rec_ in
  (match Hist.History.well_formed h with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let pending = Hist.History.pending h in
  Alcotest.(check int) "exactly one pending op" 1 (List.length pending);
  Alcotest.(check int) "pending op is the victim's" 1
    (List.hd pending).Hist.Op.proc;
  (* Survivors completed all 10 each; the victim completed 4 before dying. *)
  Alcotest.(check int) "completed ops" 24
    (List.length (Hist.History.completed h));
  match Mono.violations h with
  | [] -> ()
  | _ -> Alcotest.fail "chaos run violated the IVL envelope"

let () =
  Alcotest.run "conc"
    [
      ( "infrastructure",
        [
          Alcotest.test_case "barrier releases all" `Quick test_barrier_releases_all;
          Alcotest.test_case "barrier reusable" `Quick test_barrier_reusable;
          Alcotest.test_case "runner results" `Quick test_runner_parallel_results;
          Alcotest.test_case "runner propagates exceptions" `Quick
            test_runner_propagates_exceptions;
          Alcotest.test_case "barrier poison" `Quick test_barrier_poison_breaks_waiters;
          Alcotest.test_case "barrier timeout" `Quick test_barrier_timeout_raises_broken;
          Alcotest.test_case "barrier validation" `Quick test_barrier_create_validation;
          Alcotest.test_case "parallel_timed measures" `Quick test_parallel_timed_measures;
          Alcotest.test_case "parallel_timed pre-barrier raise" `Quick
            test_parallel_timed_prebarrier_raise_no_hang;
          Alcotest.test_case "parallel_result isolates failures" `Quick
            test_parallel_result_isolates_failures;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill point deterministic" `Quick
            test_chaos_kill_point_deterministic;
          Alcotest.test_case "no kills counts points" `Quick
            test_chaos_no_kills_counts_points;
          Alcotest.test_case "random kills well-formed" `Quick
            test_chaos_random_kills_well_formed;
          Alcotest.test_case "plan validation" `Quick test_chaos_plan_validation;
          Alcotest.test_case "kill lands mid-operation" `Quick
            test_chaos_kill_lands_mid_operation;
        ] );
      ( "ivl counter",
        [
          Alcotest.test_case "sequential" `Quick test_ivl_counter_sequential;
          Alcotest.test_case "validation" `Quick test_ivl_counter_validation;
          Alcotest.test_case "concurrent total" `Quick test_ivl_counter_concurrent_total;
          Alcotest.test_case "reads bounded and monotone" `Quick
            test_ivl_counter_reads_bounded_and_monotone;
        ] );
      ( "linearizable counters",
        [
          Alcotest.test_case "locked" `Quick test_locked_counter_concurrent;
          Alcotest.test_case "faa" `Quick test_faa_counter_concurrent;
        ] );
      ( "pcm",
        [
          Alcotest.test_case "sequential reference" `Quick
            test_pcm_sequential_matches_reference;
          Alcotest.test_case "concurrent cells exact" `Quick
            test_pcm_concurrent_ingest_exact_cells;
          Alcotest.test_case "concurrent queries bounded" `Quick
            test_pcm_concurrent_queries_bounded;
          Alcotest.test_case "locked baseline" `Quick test_locked_countmin_concurrent;
          Alcotest.test_case "merge_into folds a delta" `Quick
            test_pcm_merge_into_folds_delta;
          Alcotest.test_case "merge_into concurrent" `Quick
            test_pcm_merge_into_concurrent;
          Alcotest.test_case "update_many equivalence" `Quick
            test_pcm_update_many_equivalence;
          Alcotest.test_case "update_many large counts" `Quick
            test_pcm_update_many_large_counts;
          Alcotest.test_case "countmin update_many edges" `Quick
            test_countmin_update_many_edges;
          Alcotest.test_case "striped total basics" `Quick test_striped_total_basics;
          Alcotest.test_case "striped updates envelope" `Quick
            test_striped_updates_envelope;
        ] );
      ( "stripes",
        [
          Alcotest.test_case "publish_every 1 is immediate" `Quick
            test_stripes_publish_every_one;
          Alcotest.test_case "exact-multiple batches" `Quick
            test_stripes_exact_multiple_batches;
          Alcotest.test_case "flush resets since_publish" `Quick
            test_stripes_flush_resets_since_publish;
          Alcotest.test_case "domains independent" `Quick
            test_stripes_domains_independent;
        ] );
      ( "flat_pcm",
        [
          Alcotest.test_case "sequential reference" `Quick
            test_flat_pcm_sequential_matches_reference;
          Alcotest.test_case "concurrent cells exact" `Quick
            test_flat_pcm_concurrent_cells_exact;
          Alcotest.test_case "publish batching" `Quick test_flat_pcm_publish_batching;
          Alcotest.test_case "concurrent queries bounded" `Quick
            test_flat_pcm_concurrent_queries_bounded;
          Alcotest.test_case "theorem 6 bound" `Quick test_flat_pcm_theorem6_bound;
          Alcotest.test_case "update_many" `Quick test_flat_pcm_update_many;
          Alcotest.test_case "validation" `Quick test_flat_pcm_validation;
          Alcotest.test_case "recorded histories are IVL" `Quick
            test_recorded_flat_pcm_histories_are_ivl;
        ] );
      ( "morris",
        [
          Alcotest.test_case "sequential path" `Quick test_morris_conc_sequential_path;
          Alcotest.test_case "concurrent ballpark" `Quick
            test_morris_conc_concurrent_ballpark;
          Alcotest.test_case "validation" `Quick test_morris_conc_validation;
        ] );
      ( "striped quantiles",
        [
          Alcotest.test_case "sequential" `Quick test_striped_quantiles_sequential;
          Alcotest.test_case "publish batching" `Quick
            test_striped_quantiles_publish_batching;
          Alcotest.test_case "concurrent envelope" `Quick
            test_striped_quantiles_concurrent_rank_envelope;
          Alcotest.test_case "accuracy vs exact" `Quick
            test_striped_quantiles_accuracy_vs_exact;
          Alcotest.test_case "validation" `Quick test_striped_quantiles_validation;
        ] );
      ( "buffered pcm",
        [
          Alcotest.test_case "flush semantics" `Quick test_buffered_pcm_flush_semantics;
          Alcotest.test_case "matches pcm after flush" `Quick
            test_buffered_pcm_matches_pcm_after_flush;
          Alcotest.test_case "never overcounts" `Quick
            test_buffered_pcm_never_overcounts_ingest;
        ] );
      ( "striped top-k",
        [
          Alcotest.test_case "sequential" `Quick test_striped_topk_sequential;
          Alcotest.test_case "concurrent recall" `Quick test_striped_topk_concurrent_recall;
          Alcotest.test_case "validation" `Quick test_striped_topk_validation;
        ] );
      ( "striped kmv",
        [
          Alcotest.test_case "accuracy" `Quick test_striped_kmv_accuracy;
          Alcotest.test_case "exact below k" `Quick test_striped_kmv_exact_below_k;
          Alcotest.test_case "distinct counters agree" `Quick
            test_distinct_counters_agree;
        ] );
      ( "concurrent hyperloglog",
        [
          Alcotest.test_case "matches sequential" `Quick test_hll_conc_matches_sequential;
          Alcotest.test_case "concurrent accuracy" `Quick
            test_hll_conc_concurrent_accuracy;
          Alcotest.test_case "monotone estimates" `Quick
            test_hll_conc_estimates_monotone_under_ingest;
          Alcotest.test_case "merge_from" `Quick test_hll_conc_merge_from;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "well-formed" `Quick test_recorder_well_formed_and_ordered;
          Alcotest.test_case "program order" `Quick test_recorder_program_order_preserved;
          Alcotest.test_case "tickets respect real time" `Quick
            test_recorder_tickets_respect_real_time;
          Alcotest.test_case "history guard trips mid-record" `Quick
            test_recorder_history_guard_trips_mid_record;
          Alcotest.test_case "history guard clears on raise" `Quick
            test_recorder_history_guard_clears_on_raise;
          Alcotest.test_case "recorded IVL counter is IVL" `Quick
            test_recorded_ivl_counter_histories_are_ivl;
          Alcotest.test_case "recorded PCM is IVL" `Quick
            test_recorded_pcm_histories_are_ivl;
          Alcotest.test_case "large execution via monotone checker" `Quick
            test_recorded_large_execution_via_monotone_checker;
        ] );
    ]
