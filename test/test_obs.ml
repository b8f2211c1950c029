(* Tests for the observability layer: the IVL semantics of each instrument
   (counter scans, timer sketches), the sampled span
   tracer, registry identity rules, the pure exposition formats, and —
   the Theorem-6-style headline — that the live envelope-width gauge is a
   sound bound on the staleness of every concurrent [read_total]. *)

module Mono = Ivl.Monotone.Make (Spec.Counter_spec)
module PC = Pipeline.Engine.Make (Pipeline.Targets.Counter)

let fcheck msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* ------------------------- counter ------------------------- *)

let test_counter_concurrent_adds () =
  let c = Obs.Counter.create () in
  let domains = 4 and per = 50_000 in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        for _ = 1 to per do
          Obs.Counter.add c (i + 1)
        done)
  in
  Alcotest.(check int) "sum of striped adds" (per * (1 + 2 + 3 + 4))
    (Obs.Counter.read c);
  Obs.Counter.incr c;
  Alcotest.(check int) "incr" (per * 10 + 1) (Obs.Counter.read c)

let test_counter_reads_are_ivl () =
  (* A scraping domain racing the writers: every read must lie in
     [0, final] and successive reads from the one scraper are monotone —
     the Lemma-10 shape of a striped-sum read. *)
  let c = Obs.Counter.create () in
  let domains = 3 and per = 40_000 in
  let stop = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let rec loop acc =
          let v = Obs.Counter.read c in
          if Atomic.get stop then List.rev (v :: acc) else loop (v :: acc)
        in
        loop [])
  in
  let _ =
    Conc.Runner.parallel ~domains (fun _ ->
        for _ = 1 to per do
          Obs.Counter.incr c
        done)
  in
  Atomic.set stop true;
  let reads = Domain.join scraper in
  let final = Obs.Counter.read c in
  Alcotest.(check int) "final exact" (domains * per) final;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "scrapes monotone" true (monotone reads);
  Alcotest.(check bool) "scrapes within [0, final]" true
    (List.for_all (fun v -> v >= 0 && v <= final) reads)

(* ------------------------- gauge ------------------------- *)

let test_gauge_set_read () =
  let g = Obs.Gauge.create () in
  fcheck "initial" 0.0 (Obs.Gauge.read g);
  Obs.Gauge.set g (-7.25);
  fcheck "set" (-7.25) (Obs.Gauge.read g);
  (* Racing setters: the read is one of the stored values, never a tear. *)
  let _ =
    Conc.Runner.parallel ~domains:4 (fun i ->
        for _ = 1 to 10_000 do
          Obs.Gauge.set g (float_of_int i)
        done)
  in
  let v = Obs.Gauge.read g in
  Alcotest.(check bool) "one of the racing values" true
    (List.mem v [ 0.; 1.; 2.; 3. ])

(* ------------------------- timer ------------------------- *)

let test_timer_quantiles () =
  let t = Obs.Timer.create ~seed:42L () in
  (* 1..1000 milliseconds, observed from several domains. *)
  let domains = 4 and per = 250 in
  let _ =
    Conc.Runner.parallel ~domains (fun i ->
        for k = 1 to per do
          Obs.Timer.observe t (0.001 *. float_of_int ((i * per) + k))
        done)
  in
  Alcotest.(check int) "count" (domains * per) (Obs.Timer.count t);
  fcheck "sum" (0.001 *. 1000. *. 1001. /. 2.) (Obs.Timer.sum t);
  let p50 = Obs.Timer.quantile t 0.5 in
  Alcotest.(check bool) "p50 near median (KLL rank error)" true
    (p50 > 0.40 && p50 < 0.60);
  let qs = Obs.Timer.quantiles t [ 0.5; 0.99; 1.0 ] in
  Alcotest.(check int) "probe count" 3 (List.length qs);
  let p100 = List.assoc 1.0 qs in
  Alcotest.(check bool) "p100 near the max (KLL rank error)" true
    (p100 > 0.95 && p100 <= 1.0 +. 1e-9);
  Alcotest.(check bool) "probes nondecreasing" true
    (List.assoc 0.5 qs <= List.assoc 0.99 qs && List.assoc 0.99 qs <= p100)

let test_timer_time_and_empty () =
  let t = Obs.Timer.create ~seed:1L () in
  fcheck "empty quantile" 0.0 (Obs.Timer.quantile t 0.9);
  let x = Obs.Timer.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 x;
  Alcotest.(check int) "duration observed" 1 (Obs.Timer.count t);
  Alcotest.(check bool) "duration nonnegative" true (Obs.Timer.sum t >= 0.0)

(* ------------------------- registry ------------------------- *)

let test_registry_get_or_create () =
  let reg = Obs.Registry.create ~now:(fun () -> 123.0) () in
  let c1 = Obs.Registry.counter reg ~help:"h" "requests_total" in
  let c2 = Obs.Registry.counter reg "requests_total" in
  Obs.Counter.add c1 5;
  Alcotest.(check int) "same identity, same instrument" 5 (Obs.Counter.read c2);
  (* Labels distinguish; label order does not. *)
  let a = Obs.Registry.counter reg ~labels:[ ("x", "1"); ("y", "2") ] "lbl" in
  let b = Obs.Registry.counter reg ~labels:[ ("y", "2"); ("x", "1") ] "lbl" in
  let c = Obs.Registry.counter reg ~labels:[ ("x", "1") ] "lbl" in
  Obs.Counter.incr a;
  Alcotest.(check int) "label order irrelevant" 1 (Obs.Counter.read b);
  Alcotest.(check int) "different label set, different series" 0
    (Obs.Counter.read c);
  (* Same identity as a different kind must raise, not alias. *)
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Obs.Registry.gauge reg "requests_total");
       false
     with Invalid_argument _ -> true)

let test_registry_snapshot_and_fns () =
  let reg = Obs.Registry.create ~now:(fun () -> 9.0) () in
  let c = Obs.Registry.counter reg ~help:"c" "alpha_total" in
  Obs.Counter.add c 7;
  let g = Obs.Registry.gauge reg ~labels:[ ("shard", "0") ] "beta" in
  Obs.Gauge.set g 1.5;
  let cell = Atomic.make 10 in
  Obs.Registry.counter_fn reg "gamma_total" (fun () -> Atomic.get cell);
  let snap = Obs.Registry.snapshot reg in
  fcheck "snapshot stamped by injected clock" 9.0 snap.Obs.Snapshot.at;
  Alcotest.(check int) "owned counter" 7
    (Obs.Snapshot.counter_value snap "alpha_total");
  fcheck "labelled gauge" 1.5
    (Obs.Snapshot.gauge_value snap ~labels:[ ("shard", "0") ] "beta");
  Alcotest.(check int) "callback counter" 10
    (Obs.Snapshot.counter_value snap "gamma_total");
  (* A scrape-time callback reads live state; re-registering replaces it —
     how a restarted component re-points its series. *)
  Atomic.set cell 11;
  Obs.Registry.gauge_fn reg "delta" (fun () -> 0.25);
  Obs.Registry.gauge_fn reg "delta" (fun () -> 0.75);
  let snap2 = Obs.Registry.snapshot reg in
  Alcotest.(check int) "callback is live" 11
    (Obs.Snapshot.counter_value snap2 "gamma_total");
  fcheck "re-registration replaces" 0.75 (Obs.Snapshot.gauge_value snap2 "delta");
  (* Samples sorted by (name, labels); absent lookups take defaults. *)
  let names = List.map (fun s -> s.Obs.Snapshot.name) snap2.Obs.Snapshot.samples in
  Alcotest.(check (list string)) "sorted by name"
    [ "alpha_total"; "beta"; "delta"; "gamma_total" ]
    names;
  Alcotest.(check int) "missing counter defaults to 0" 0
    (Obs.Snapshot.counter_value snap2 "nope");
  Alcotest.(check bool) "find misses on wrong labels" true
    (Obs.Snapshot.find snap2 ~labels:[ ("shard", "9") ] "beta" = None)

(* ------------------------- expose ------------------------- *)

let expose_fixture () =
  let reg = Obs.Registry.create ~now:(fun () -> 100.5) () in
  let c = Obs.Registry.counter reg ~help:"a counter" "req_total" in
  Obs.Counter.add c 3;
  let g = Obs.Registry.gauge reg ~labels:[ ("shard", "1") ] "depth" in
  Obs.Gauge.set g 4.0;
  Obs.Gauge.set (Obs.Registry.gauge reg "ceiling") infinity;
  let t = Obs.Registry.timer reg "lag_seconds" in
  Obs.Timer.observe t 0.25;
  Obs.Registry.snapshot reg

let contains = Test_helpers.contains

let test_expose_prometheus () =
  let text = Obs.Expose.to_prometheus (expose_fixture ()) in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" line) true
        (contains text line))
    [
      "# HELP req_total a counter";
      "# TYPE req_total counter";
      "req_total 3";
      "# TYPE depth gauge";
      "depth{shard=\"1\"} 4.0";
      "ceiling +Inf";
      "# TYPE lag_seconds summary";
      "lag_seconds{quantile=\"0.5\"} 0.25";
      "lag_seconds_count 1";
    ];
  (* Every timer exports exactly the fixed quantile probes. *)
  let probes =
    String.split_on_char '\n' text
    |> List.filter (fun l -> contains l "lag_seconds{quantile=")
  in
  Alcotest.(check (list string)) "fixed quantiles"
    [
      "lag_seconds{quantile=\"0.5\"} 0.25";
      "lag_seconds{quantile=\"0.9\"} 0.25";
      "lag_seconds{quantile=\"0.99\"} 0.25";
      "lag_seconds{quantile=\"1.0\"} 0.25";
    ]
    probes;
  Alcotest.(check bool) "ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n')

let test_expose_json () =
  let snap = expose_fixture () in
  let json = Obs.Expose.to_json snap in
  List.iter
    (fun piece ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" piece) true
        (contains json piece))
    [
      "{\"at\":100.500000,\"metrics\":[";
      "\"name\":\"req_total\"";
      "\"type\":\"counter\"";
      "\"value\":3";
      "\"labels\":{\"shard\":\"1\"}";
      "\"quantiles\":[{\"phi\":0.5,";
      "\"name\":\"ceiling\",\"type\":\"gauge\",\"labels\":{},\"value\":null";
    ];
  (* NaN/inf must not leak into JSON: an infinite gauge is encoded as
     null, keeping every parser happy. *)
  Alcotest.(check bool) "no bare inf" false (contains json "inf");
  Alcotest.(check bool) "no NaN" false (contains json "nan")

(* ------------------- envelope-width gauge soundness ------------------- *)

(* An [on_tick] hook that holds every shard worker before its first pop
   until [gate] opens: keys accepted meanwhile stay queued, unpublished,
   whatever the engine's shipping cadence. *)
let at_gate gate ~shard:_ =
  while not (Atomic.get gate) do
    Unix.sleepf 0.0005
  done

let test_envelope_gauge_bounds_read_error () =
  (* The Theorem-6-style property behind docs/OBSERVABILITY.md: at any
     scrape, [pipeline_envelope_width] must bound how stale the published
     total is. Protocol: feeders ingest and join (accepted weight frozen),
     then — before drain, while queued items and unflushed worker deltas
     are still invisible to queries — one domain repeatedly scrapes the
     gauge and then reads the total. For each (g_i, v_i) pair, every item
     the final total has and v_i lacked was inside the reported gap:
     final - v_i <= g_i. The recorded history must also stay a clean
     monotone IVL envelope with the scraper racing the merger. *)
  let n = 30_000 and shards = 3 and feeders = 3 in
  let stream =
    Workload.Stream.generate ~seed:11L (Workload.Stream.Uniform 500) ~length:n
  in
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let reg = Obs.Registry.create () in
  (* The workers wait at the gate until the scraper has run, so the
     scraper is guaranteed to observe a nonzero gap: everything is still
     queued. *)
  let gate = Atomic.make false in
  let p =
    PC.create ~queue_capacity:n ~batch:(n * 2) ~on_tick:(at_gate gate)
      ~metrics:reg ~history:true ~shards ()
  in
  let accepted =
    Conc.Runner.parallel ~domains:feeders (fun i ->
        let ok = ref 0 in
        Array.iter (fun x -> if PC.ingest p x then incr ok) chunks.(i);
        !ok)
  in
  Alcotest.(check int) "all accepted" n (Array.fold_left ( + ) 0 accepted);
  let stop = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let rec loop acc =
          if Atomic.get stop then List.rev acc
          else begin
            let snap = Obs.Registry.snapshot reg in
            let g = Obs.Snapshot.gauge_value snap "pipeline_envelope_width" in
            (* Gauge first, then the read: anything missing from [v] was
               enqueued-but-unpublished no later than the scrape. *)
            let v = PC.read_total p in
            loop ((g, v) :: acc)
          end
        in
        loop [])
  in
  (* Let the scraper sample the gated engine for a moment, then open the
     gate and drain while it is still sampling — restarts of the merge
     activity must not open a window where the gauge under-reports. *)
  Unix.sleepf 0.02;
  Atomic.set gate true;
  PC.drain p;
  Atomic.set stop true;
  let samples = Domain.join scraper in
  let final = PC.read_total p in
  Alcotest.(check int) "nothing lost" n final;
  Alcotest.(check bool) "scraper collected samples" true (samples <> []);
  List.iteri
    (fun i (g, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %d: gap bounds staleness (g=%g v=%d final=%d)"
           i g v final)
        true
        (final - v <= int_of_float g);
      Alcotest.(check bool) (Printf.sprintf "sample %d: gap nonnegative" i) true
        (g >= 0.0);
      Alcotest.(check bool) (Printf.sprintf "sample %d: read within total" i)
        true
        (v >= 0 && v <= final))
    samples;
  Alcotest.(check bool) "pre-drain scrape saw a nonzero gap" true
    (List.exists (fun (g, _) -> g > 0.0) samples);
  Alcotest.(check int) "history is a clean IVL envelope" 0
    (List.length (Mono.violations (PC.history p)));
  (* After drain the gap must close exactly. *)
  let snap = Obs.Registry.snapshot reg in
  fcheck "gap closes at drain" 0.0
    (Obs.Snapshot.gauge_value snap "pipeline_envelope_width");
  Alcotest.(check int) "published series = final" final
    (Obs.Snapshot.counter_value snap "pipeline_published_total")

let test_envelope_gauge_counts_recovered_base () =
  (* A recovered engine starts with [published] at the recovered weight,
     so the gap must count that base as accepted: 100 keys accepted and
     none merged (the workers wait at a gate) read 100 on a fresh engine
     and on one seeded with published 1000 alike. *)
  let width ?initial () =
    let reg = Obs.Registry.create () in
    let gate = Atomic.make false in
    let p =
      PC.create ~batch:512 ~on_tick:(at_gate gate) ~metrics:reg ?initial
        ~shards:2 ()
    in
    for k = 1 to 100 do
      ignore (PC.ingest p k)
    done;
    let gauge () =
      Obs.Snapshot.gauge_value (Obs.Registry.snapshot reg)
        "pipeline_envelope_width"
    in
    let live = (gauge (), PC.envelope_width p) in
    Atomic.set gate true;
    PC.drain p;
    Alcotest.(check int) "published after drain"
      (100 + Option.fold ~none:0 ~some:(fun (_, _, w) -> w) initial)
      (PC.stats p).PC.published;
    fcheck "gap closes at drain" 0.0 (gauge ());
    live
  in
  let check what (g, w) =
    fcheck (what ^ ": gauge reads the unmerged weight") 100.0 g;
    Alcotest.(check int) (what ^ ": envelope_width agrees") 100 w
  in
  check "fresh" (width ());
  check "recovered"
    (width ~initial:(Pipeline.Targets.Counter.create (), 10, 1000) ())

let test_pipeline_metrics_registration () =
  (* The engine's registered series reconcile with its own stats block. *)
  let n = 8_000 and shards = 2 in
  let stream =
    Workload.Stream.generate ~seed:3L (Workload.Stream.Zipf (200, 1.1)) ~length:n
  in
  let reg = Obs.Registry.create () in
  let p = PC.create ~batch:64 ~metrics:reg ~shards () in
  Array.iter (fun x -> ignore (PC.ingest p x)) stream;
  PC.drain p;
  let st = PC.stats p in
  let snap = Obs.Registry.snapshot reg in
  let counter = Obs.Snapshot.counter_value snap in
  Alcotest.(check int) "ingested" n (counter "pipeline_ingested_total");
  Alcotest.(check int) "published" st.PC.published
    (counter "pipeline_published_total");
  Alcotest.(check int) "merges" st.PC.merges (counter "pipeline_merges_total");
  Alcotest.(check int) "epoch gauge" st.PC.epoch
    (int_of_float (Obs.Snapshot.gauge_value snap "pipeline_epoch"));
  Array.iteri
    (fun i (s : PC.shard_stats) ->
      let labels = [ ("shard", string_of_int i) ] in
      Alcotest.(check int)
        (Printf.sprintf "shard %d enqueued" i)
        s.enqueued
        (Obs.Snapshot.counter_value snap ~labels "pipeline_shard_enqueued_total");
      fcheck
        (Printf.sprintf "shard %d alive" i)
        (if s.alive then 1.0 else 0.0)
        (Obs.Snapshot.gauge_value snap ~labels "pipeline_shard_alive"))
    st.PC.shards;
  (* Merge-lag summary scraped with one observation per merge. *)
  match Obs.Snapshot.find snap "pipeline_merge_lag_seconds" with
  | Some (Obs.Snapshot.Summary s) ->
      Alcotest.(check int) "lag observations = merges" st.PC.merges
        s.Obs.Snapshot.s_count
  | _ -> Alcotest.fail "merge-lag summary missing"

(* ------------------- Prometheus label-value escaping ------------------- *)

let test_expose_prometheus_escaping () =
  (* text-0.0.4: label values escape exactly backslash, double-quote and
     newline; everything else (a tab here) travels raw. HELP text escapes
     backslash and newline only — quotes are legal there. *)
  let reg = Obs.Registry.create () in
  let c =
    Obs.Registry.counter reg ~help:"back\\slash and\nnewline \"quoted\""
      ~labels:[ ("path", "a\\b\"c\nd\te") ]
      "esc_total"
  in
  Obs.Counter.add c 1;
  let text = Obs.Expose.to_prometheus (Obs.Registry.snapshot reg) in
  Alcotest.(check bool) "label value escaped" true
    (contains text "esc_total{path=\"a\\\\b\\\"c\\nd\te\"} 1");
  Alcotest.(check bool) "help escaped, quotes raw" true
    (contains text "# HELP esc_total back\\\\slash and\\nnewline \"quoted\"");
  (* The exposition stays line-oriented: the raw newline inside the label
     value must not have split the sample across two lines. *)
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "sample is one line" true
    (List.exists
       (fun l ->
         contains l "esc_total{" && contains l "} 1" && contains l "\\n")
       lines)

(* ------------------------------ span/tracer ---------------------------- *)

let test_span_context () =
  Alcotest.(check bool) "zero is zero" true (Obs.Span.is_zero Obs.Span.zero);
  let ctx = { Obs.Span.trace_id = 7L; parent = 0L } in
  Alcotest.(check bool) "nonzero trace id" false (Obs.Span.is_zero ctx);
  let ctx' = Obs.Span.with_parent ctx 42L in
  Alcotest.(check bool) "trace id preserved" true
    (Int64.equal ctx'.Obs.Span.trace_id 7L);
  Alcotest.(check bool) "parent replaced" true
    (Int64.equal ctx'.Obs.Span.parent 42L);
  let r =
    {
      Obs.Span.trace_id = 0xABCL;
      span_id = 1L;
      parent = 0L;
      stage = "decode";
      start_ns = 5;
      dur_ns = 3;
      stamp = 9;
    }
  in
  let j = Obs.Span.record_to_json r in
  Alcotest.(check bool) "json has stage" true (contains j "\"stage\":\"decode\"");
  Alcotest.(check bool) "json has dur" true (contains j "\"dur_ns\":3")

let test_tracer_sampling_deterministic () =
  let decisions t n = List.init n (fun _ -> Obs.Tracer.sample t <> None) in
  let t1 = Obs.Tracer.create ~sample_every:8 () in
  let t2 = Obs.Tracer.create ~sample_every:8 () in
  let d1 = decisions t1 2000 and d2 = decisions t2 2000 in
  Alcotest.(check bool) "every tracer, same decision sequence" true (d1 = d2);
  let hits = List.length (List.filter Fun.id d1) in
  Alcotest.(check int) "sampled counter agrees" hits (Obs.Tracer.sampled t1);
  (* roughly 1/8: a 4x band keeps the check seed-robust *)
  Alcotest.(check bool)
    (Printf.sprintf "rate in ballpark (%d/2000)" hits)
    true
    (hits > 2000 / 32 && hits < 2000 / 2);
  let every = Obs.Tracer.create ~sample_every:1 () in
  Alcotest.(check bool) "sample_every 1 traces all" true
    (List.for_all Fun.id (decisions every 100));
  let off = Obs.Tracer.create ~sample_every:0 () in
  Alcotest.(check bool) "sample_every 0 disables" true
    (List.for_all not (decisions off 100));
  Alcotest.(check bool) "negative rate rejected" true
    (try
       ignore (Obs.Tracer.create ~sample_every:(-1) ());
       false
     with Invalid_argument _ -> true)

let test_tracer_ring_overflow_and_chain () =
  let reg = Obs.Registry.create () in
  let tr = Obs.Tracer.create ~sample_every:1 ~metrics:reg () in
  (* Zero context: no span minted, nothing recorded. *)
  let sid =
    Obs.Tracer.record tr ~ctx:Obs.Span.zero ~stage:"decode" ~start_ns:0
      ~end_ns:1
  in
  Alcotest.(check bool) "zero ctx returns 0L" true (Int64.equal sid 0L);
  Alcotest.(check int) "zero ctx not recorded" 0 (Obs.Tracer.spans tr);
  (* A two-stage parent chain. *)
  let ctx = Option.get (Obs.Tracer.sample tr) in
  Alcotest.(check bool) "root parent is 0" true
    (Int64.equal ctx.Obs.Span.parent 0L);
  let t0 = Obs.Tracer.now_ns () in
  let sid1 = Obs.Tracer.record tr ~ctx ~stage:"enqueue" ~start_ns:t0 ~end_ns:t0 in
  let ctx2 = Obs.Span.with_parent ctx sid1 in
  let sid2 =
    Obs.Tracer.record tr ~ctx:ctx2 ~stage:"flush" ~start_ns:t0
      ~end_ns:(Obs.Tracer.now_ns ())
  in
  Alcotest.(check bool) "distinct span ids" false (Int64.equal sid1 sid2);
  (match Obs.Tracer.recent tr 2 with
  | [ a; b ] ->
      Alcotest.(check bool) "one trace" true
        (Int64.equal a.Obs.Span.trace_id b.Obs.Span.trace_id);
      Alcotest.(check string) "oldest first" "enqueue" a.Obs.Span.stage;
      Alcotest.(check bool) "flush parented on enqueue" true
        (Int64.equal b.Obs.Span.parent sid1);
      Alcotest.(check bool) "stamps ordered" true
        (a.Obs.Span.stamp < b.Obs.Span.stamp)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* Overflow the 512-span ring: only the most recent 512 survive and the
     overwritten ones are counted as dropped. *)
  let ring = 512 and total = 600 in
  for _ = 3 to total do
    let ctx = Option.get (Obs.Tracer.sample tr) in
    ignore (Obs.Tracer.record tr ~ctx ~stage:"decode" ~start_ns:0 ~end_ns:1)
  done;
  Alcotest.(check int) "spans ever" total (Obs.Tracer.spans tr);
  let recent = Obs.Tracer.recent tr 1000 in
  Alcotest.(check int) "ring keeps 512" ring (List.length recent);
  let stamps = List.map (fun (r : Obs.Span.record) -> r.Obs.Span.stamp) recent in
  Alcotest.(check bool) "stamps strictly increasing" true
    (List.for_all2 ( < )
       (List.filteri (fun i _ -> i < ring - 1) stamps)
       (List.tl stamps));
  let snap = Obs.Registry.snapshot reg in
  Alcotest.(check int) "dropped accounting" (total - ring)
    (Obs.Snapshot.counter_value snap "trace_spans_dropped_total");
  Alcotest.(check int) "spans total" total
    (Obs.Snapshot.counter_value snap "trace_spans_total")

(* --------------------------------- slo --------------------------------- *)

(* The SLO runs its fixed thresholds: warn at 0.8 of budget, breach after
   [Obs.Slo.breach_after] (5) over-budget evals, step down after
   [Obs.Slo.clear_after] (3) clean ones. *)
let slo_fixture ?metrics width =
  Obs.Slo.create ?metrics
    ~budget:{ Obs.Slo.envelope_width = 100.0; staleness = 10.0; merge_lag = 1.0 }
    ~envelope:(fun () -> !width)
    ~staleness:(fun () -> -1.0) (* unknown: must score in-budget *)
    ~merge_lag:(fun () -> 0.0)
    ()

let test_slo_burn_machine () =
  let width = ref 0.0 in
  let reg = Obs.Registry.create () in
  let slo = slo_fixture ~metrics:reg width in
  let eval () = (Obs.Slo.eval slo).Obs.Slo.state in
  let evals n = for _ = 1 to n do ignore (eval ()) done in
  Alcotest.(check bool) "starts ok" true (eval () = Obs.Slo.Ok);
  (* Under warn_ratio stays ok; warning arms at once at warn_ratio,
     without hysteresis. *)
  width := 70.0;
  Alcotest.(check bool) "ok at 0.7x" true (eval () = Obs.Slo.Ok);
  width := 90.0;
  Alcotest.(check bool) "warn at 0.9x" true (eval () = Obs.Slo.Warning);
  (* Breach needs breach_after consecutive over-budget evals. *)
  width := 150.0;
  for i = 1 to Obs.Slo.breach_after - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "over %d still warning" i)
      true
      (eval () = Obs.Slo.Warning)
  done;
  Alcotest.(check bool) "the breach_after-th over breaches" true
    (eval () = Obs.Slo.Breach);
  Alcotest.(check int) "one breach counted" 1 (Obs.Slo.breaches slo);
  (* Fewer than clear_after clean evals must not clear it (hysteresis)... *)
  width := 10.0;
  for i = 1 to Obs.Slo.clear_after - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "clean %d still breach" i)
      true
      (eval () = Obs.Slo.Breach)
  done;
  (* ...but clear_after consecutive clean evals step it down one level. *)
  Alcotest.(check bool) "clear_after-th clean downgrades" true
    (eval () = Obs.Slo.Warning);
  Alcotest.(check bool) "one more clean clears" true (eval () = Obs.Slo.Ok);
  Alcotest.(check int) "breach count sticky" 1 (Obs.Slo.breaches slo);
  let v = Obs.Slo.current slo in
  Alcotest.(check string) "worst dim" "envelope_width" v.Obs.Slo.worst_dim;
  (* An interrupted over-streak never reaches breach. *)
  width := 150.0;
  evals (Obs.Slo.breach_after - 1);
  width := 10.0;
  ignore (eval ());
  width := 150.0;
  evals (Obs.Slo.breach_after - 1);
  Alcotest.(check int) "streak reset prevented breach" 1
    (Obs.Slo.breaches slo);
  let snap = Obs.Registry.snapshot reg in
  fcheck "slo_status gauge" 1.0 (Obs.Snapshot.gauge_value snap "slo_status");
  Alcotest.(check int) "slo_breaches_total" 1
    (Obs.Snapshot.counter_value snap "slo_breaches_total");
  fcheck "per-dim ratio" 1.5
    (Obs.Snapshot.gauge_value snap
       ~labels:[ ("dim", "envelope_width") ]
       "slo_ratio")

let test_slo_breach_cause () =
  (* Staleness over budget for breach_after evaluations, then back to 0:
     the final verdict's worst dimension reads "none", but the breach
     still names the dimension and ratio that caused it. *)
  let stale = ref 0.0 in
  let slo =
    Obs.Slo.create
      ~budget:{ Obs.Slo.envelope_width = 100.0; staleness = 10.0; merge_lag = 1.0 }
      ~envelope:(fun () -> 0.0)
      ~staleness:(fun () -> !stale)
      ~merge_lag:(fun () -> 0.0)
      ()
  in
  Alcotest.(check bool) "no breach yet" true (Obs.Slo.last_breach slo = None);
  stale := 25.0;
  for _ = 1 to Obs.Slo.breach_after do
    ignore (Obs.Slo.eval slo)
  done;
  Alcotest.(check int) "one breach" 1 (Obs.Slo.breaches slo);
  stale := 0.0;
  let v = Obs.Slo.eval slo in
  Alcotest.(check string) "final worst dim" "none" v.Obs.Slo.worst_dim;
  match Obs.Slo.last_breach slo with
  | Some (dim, ratio) ->
      Alcotest.(check string) "breach dim" "staleness" dim;
      fcheck "breach ratio" 2.5 ratio
  | None -> Alcotest.fail "breach cause not recorded"

let test_slo_theorem6_budget () =
  let b =
    Obs.Slo.theorem6_budget ~slack:2.0 ~shards:4 ~batch:512 ~queue_capacity:1024
      ()
  in
  fcheck "envelope bound" (float_of_int (4 * (512 + 1024) * 2))
    b.Obs.Slo.envelope_width;
  fcheck "staleness mirrors envelope" b.Obs.Slo.envelope_width
    b.Obs.Slo.staleness;
  fcheck "merge lag floored" 8.0 b.Obs.Slo.merge_lag;
  let tiny = Obs.Slo.theorem6_budget ~shards:1 ~batch:1 ~queue_capacity:1 () in
  fcheck "merge lag floor is 1s" 1.0 tiny.Obs.Slo.merge_lag;
  Alcotest.(check bool) "rejects bad slack" true
    (try
       ignore (Obs.Slo.theorem6_budget ~slack:0.0 ~shards:1 ~batch:1
                 ~queue_capacity:1 ());
       false
     with Invalid_argument _ -> true)

(* --------------------------------- http -------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  Unix.close fd;
  let raw = Buffer.contents buf in
  let status =
    match String.split_on_char ' ' raw with
    | _ :: code :: _ -> int_of_string code
    | _ -> -1
  in
  let body =
    match String.index_opt raw '\r' with
    | None -> ""
    | Some _ -> (
        let rec find i =
          if i + 4 > String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let i = find 0 in
        String.sub raw i (String.length raw - i))
  in
  (status, body)

let test_http_telemetry_plane () =
  let reg = Obs.Registry.create () in
  Obs.Counter.add (Obs.Registry.counter reg "requests_total") 3;
  let tr = Obs.Tracer.create ~sample_every:1 () in
  let ctx = Option.get (Obs.Tracer.sample tr) in
  ignore (Obs.Tracer.record tr ~ctx ~stage:"decode" ~start_ns:10 ~end_ns:20);
  let width = ref 150.0 in
  let slo = slo_fixture width in
  let h =
    Obs.Http.create ~port:0
      ~handler:
        (Obs.Http.telemetry_handler ~registry:reg ~tracer:tr ~slo
           ~health:(fun () -> [ ("role", "test") ])
           ())
      ()
  in
  let port = Obs.Http.port h in
  let status, body = http_get port "/metrics" in
  Alcotest.(check int) "metrics 200" 200 status;
  Alcotest.(check bool) "prometheus body" true
    (contains body "requests_total 3");
  let status, body = http_get port "/metrics.json" in
  Alcotest.(check int) "json 200" 200 status;
  Alcotest.(check bool) "json body" true
    (contains body "\"name\":\"requests_total\"");
  let status, body = http_get port "/trace?n=8" in
  Alcotest.(check int) "trace 200" 200 status;
  Alcotest.(check bool) "trace body" true
    (contains body "\"stage\":\"decode\"");
  (* Each /healthz scrape is one evaluation. The first drives Ok ->
     Warning (still 200); the breach_after-th completes the over-budget
     streak -> Breach and must turn 503 so curl -f and load balancers see
     it. *)
  let status, body = http_get port "/healthz" in
  Alcotest.(check int) "healthz warning is 200" 200 status;
  Alcotest.(check bool) "health kv present" true
    (contains body "\"role\":\"test\"");
  for _ = 2 to Obs.Slo.breach_after - 1 do
    let status, _ = http_get port "/healthz" in
    Alcotest.(check int) "healthz still warning" 200 status
  done;
  let status, body = http_get port "/healthz" in
  Alcotest.(check int) "healthz breach is 503" 503 status;
  Alcotest.(check bool) "breach visible" true (contains body "breach");
  let status, _ = http_get port "/nope" in
  Alcotest.(check int) "unknown path 404" 404 status;
  Alcotest.(check bool) "requests counted" true (Obs.Http.requests h >= 6);
  Obs.Http.stop h;
  Obs.Http.stop h (* idempotent *)

let () =
  Alcotest.run "obs"
    [
      ( "counter",
        [
          Alcotest.test_case "concurrent adds" `Quick test_counter_concurrent_adds;
          Alcotest.test_case "reads are IVL" `Quick test_counter_reads_are_ivl;
        ] );
      ("gauge", [ Alcotest.test_case "set/read" `Quick test_gauge_set_read ]);
      ( "timer",
        [
          Alcotest.test_case "quantiles" `Quick test_timer_quantiles;
          Alcotest.test_case "time and empty" `Quick test_timer_time_and_empty;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get-or-create identity" `Quick
            test_registry_get_or_create;
          Alcotest.test_case "snapshot and callbacks" `Quick
            test_registry_snapshot_and_fns;
        ] );
      ( "expose",
        [
          Alcotest.test_case "prometheus text" `Quick test_expose_prometheus;
          Alcotest.test_case "json" `Quick test_expose_json;
          Alcotest.test_case "prometheus escaping" `Quick
            test_expose_prometheus_escaping;
        ] );
      ( "span",
        [
          Alcotest.test_case "context and json" `Quick test_span_context;
          Alcotest.test_case "sampling determinism" `Quick
            test_tracer_sampling_deterministic;
          Alcotest.test_case "ring overflow and parent chain" `Quick
            test_tracer_ring_overflow_and_chain;
        ] );
      ( "slo",
        [
          Alcotest.test_case "burn-rate machine" `Quick test_slo_burn_machine;
          Alcotest.test_case "breach names its cause" `Quick test_slo_breach_cause;
          Alcotest.test_case "theorem-6 budget" `Quick test_slo_theorem6_budget;
        ] );
      ( "http",
        [
          Alcotest.test_case "telemetry plane" `Quick test_http_telemetry_plane;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "envelope gauge bounds read error" `Quick
            test_envelope_gauge_bounds_read_error;
          Alcotest.test_case "envelope gauge counts recovered base" `Quick
            test_envelope_gauge_counts_recovered_base;
          Alcotest.test_case "metrics registration" `Quick
            test_pipeline_metrics_registration;
        ] );
    ]
