(* End-to-end tests of the sharded ingestion pipeline: the MPSC transport,
   exact conservation through drain, the Theorem-6-style envelope of the
   merged CountMin, the recorded history's IVL envelope, and crash-stop
   drains under chaos kills. *)

module Mono = Ivl.Monotone.Make (Spec.Counter_spec)
module PC = Pipeline.Engine.Make (Pipeline.Targets.Counter)

(* ------------------------- mpsc ------------------------- *)

(* [Mpsc.pop_into] seen as a list: up to [max] queued elements, FIFO,
   blocking while the queue is empty and open; [[]] once it is closed and
   drained. *)
let pop_list q ~max =
  let buf = Array.make max 0 in
  match Pipeline.Mpsc.pop_into q buf ~max with
  | -1 -> []
  | n -> Array.to_list (Array.sub buf 0 n)

let test_mpsc_fifo () =
  let q = Pipeline.Mpsc.create ~capacity:4 in
  List.iter (fun x -> Alcotest.(check bool) "push" true (Pipeline.Mpsc.push q x)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Pipeline.Mpsc.length q);
  Alcotest.(check (list int)) "batch pops FIFO" [ 1; 2 ] (pop_list q ~max:2);
  Alcotest.(check (option int)) "pop" (Some 3) (Pipeline.Mpsc.pop q);
  Alcotest.(check bool) "try_push ok" true (Pipeline.Mpsc.try_push q 9 = `Ok)

let test_mpsc_full_and_close () =
  let q = Pipeline.Mpsc.create ~capacity:2 in
  ignore (Pipeline.Mpsc.push q 1);
  ignore (Pipeline.Mpsc.push q 2);
  Alcotest.(check bool) "try_push full" true (Pipeline.Mpsc.try_push q 3 = `Full);
  Pipeline.Mpsc.close q;
  Alcotest.(check bool) "push after close" false (Pipeline.Mpsc.push q 4);
  Alcotest.(check bool) "try_push closed" true
    (Pipeline.Mpsc.try_push q 4 = `Closed);
  (* Consumer still drains the queued elements, then sees the end mark. *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Pipeline.Mpsc.pop q);
  Alcotest.(check (list int)) "drain 2" [ 2 ] (pop_list q ~max:8);
  Alcotest.(check (option int)) "end" None (Pipeline.Mpsc.pop q);
  Alcotest.(check (list int)) "end batch" [] (pop_list q ~max:8)

let test_mpsc_blocking_producer () =
  (* A full queue blocks the producer until the consumer pops: real
     backpressure, not spinning or dropping. *)
  let q = Pipeline.Mpsc.create ~capacity:1 in
  ignore (Pipeline.Mpsc.push q 0);
  let d =
    Domain.spawn (fun () ->
        let ok = ref true in
        for x = 1 to 100 do
          ok := !ok && Pipeline.Mpsc.push q x
        done;
        !ok)
  in
  let seen = ref 0 in
  for _ = 0 to 100 do
    match Pipeline.Mpsc.pop q with Some _ -> incr seen | None -> ()
  done;
  Alcotest.(check bool) "all pushes accepted" true (Domain.join d);
  Alcotest.(check int) "all elements popped" 101 !seen

(* ------------------------- conservation ------------------------- *)

let feed p stream ~feeders =
  let chunks = Workload.Stream.chunks stream ~pieces:feeders in
  let accepted =
    Conc.Runner.parallel ~domains:feeders (fun i ->
        let ok = ref 0 in
        Array.iter (fun x -> if PC.ingest p x then incr ok) chunks.(i);
        !ok)
  in
  Array.fold_left ( + ) 0 accepted

let test_counter_conservation () =
  let n = 10_000 in
  let stream =
    Workload.Stream.generate ~seed:3L (Workload.Stream.Uniform 1000) ~length:n
  in
  let p = PC.create ~queue_capacity:64 ~batch:37 ~shards:3 () in
  let accepted = feed p stream ~feeders:2 in
  PC.drain p;
  Alcotest.(check int) "all accepted" n accepted;
  Alcotest.(check int) "published = ingested" n (PC.read_total p);
  let (total, epoch) = PC.query p Sketches.Batched_counter.read in
  Alcotest.(check int) "merged sketch total" n total;
  let st = PC.stats p in
  Alcotest.(check int) "epoch = merges" st.PC.merges epoch;
  Alcotest.(check int) "flushed sums to n" n
    (Array.fold_left (fun a (s : PC.shard_stats) -> a + s.flushed_items) 0
       st.PC.shards);
  Array.iteri
    (fun i (s : PC.shard_stats) ->
      Alcotest.(check bool) (Printf.sprintf "shard %d alive" i) true s.alive;
      Alcotest.(check int) (Printf.sprintf "shard %d no loss" i) s.enqueued
        s.flushed_items)
    st.PC.shards;
  Alcotest.(check int) "no decode failures" 0 st.PC.decode_failures;
  Alcotest.(check bool) "no unexpected failures" true (PC.failures p = []);
  Alcotest.(check bool) "ingest after drain" false (PC.ingest p 7);
  (* Idempotent. *)
  PC.drain p;
  Alcotest.(check int) "published stable" n (PC.read_total p)

let test_history_envelope () =
  (* Concurrent reader sampling the published total mid-run: the recorded
     merge/read history must pass the monotone envelope check, and the
     single reader must see a nondecreasing sequence. *)
  let n = 20_000 in
  let stream =
    Workload.Stream.generate ~seed:5L (Workload.Stream.Zipf (500, 1.1)) ~length:n
  in
  let p = PC.create ~queue_capacity:128 ~batch:64 ~history:true ~shards:2 () in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rec loop acc =
          let v = PC.read_total p in
          if Atomic.get stop then List.rev (v :: acc)
          else begin
            (* Throttle so the recorded history stays small. *)
            for _ = 1 to 10_000 do
              Domain.cpu_relax ()
            done;
            loop (v :: acc)
          end
        in
        loop [])
  in
  let accepted = feed p stream ~feeders:2 in
  PC.drain p;
  Atomic.set stop true;
  let reads = Domain.join reader in
  Alcotest.(check int) "all accepted" n accepted;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "reads nondecreasing" true (monotone reads);
  Alcotest.(check bool) "final read complete" true
    (List.length reads > 0 && List.nth reads (List.length reads - 1) = n);
  Alcotest.(check int) "no envelope violations" 0
    (List.length (Mono.violations (PC.history p)))

(* ------------------------- Theorem 6 envelope ------------------------- *)

let test_countmin_theorem6 () =
  (* Theorem 6: the r-relaxed PCM is (r/w·d)-bounded per row; after a full
     drain the pipeline's merged CountMin equals a sequential CountMin over
     the same multiset (merges are exact by linearity), so every estimate
     must sit in [f(a), f(a) + error_bound]. Deterministic: fixed seeds fix
     the coins, and merge order cannot change the sums. *)
  let module Cm = Pipeline.Targets.Countmin (struct
    let seed = 21L
    let rows = 4
    let width = 256
  end) in
  let module P = Pipeline.Engine.Make (Cm) in
  let n = 20_000 in
  let universe = 400 in
  let stream =
    Workload.Stream.generate ~seed:9L (Workload.Stream.Zipf (universe, 1.2))
      ~length:n
  in
  let p = P.create ~queue_capacity:256 ~batch:100 ~shards:4 () in
  let chunks = Workload.Stream.chunks stream ~pieces:2 in
  ignore
    (Conc.Runner.parallel ~domains:2 (fun i ->
         Array.iter (fun x -> ignore (P.ingest p x)) chunks.(i)));
  P.drain p;
  let exact = Sketches.Exact.create () in
  Array.iter (Sketches.Exact.update exact) stream;
  let g, _ = P.query p (fun g -> g) in
  Alcotest.(check int) "sketch saw every update" n (Sketches.Countmin.updates g);
  let bound = int_of_float (ceil (Sketches.Countmin.error_bound g)) in
  for a = 0 to universe - 1 do
    let f = Sketches.Exact.frequency exact a
    and est = Sketches.Countmin.query g a in
    if est < f || est > f + bound then
      Alcotest.failf "element %d: estimate %d outside [%d, %d + %d]" a est f f
        bound
  done;
  (* And the merged sketch is exactly the sequential one: same coins, same
     multiset, merge is cell-wise addition. *)
  let seq = Sketches.Countmin.create ~family:(Sketches.Countmin.family g) in
  Array.iter (Sketches.Countmin.update seq) stream;
  for a = 0 to universe - 1 do
    Alcotest.(check int)
      (Printf.sprintf "element %d matches sequential" a)
      (Sketches.Countmin.query seq a)
      (Sketches.Countmin.query g a)
  done

(* The merger validates a delta whole before it folds any cell into the
   global: a blob whose last row is bad (checksum intact) is one decode
   failure that publishes nothing and leaves the global bit-identical. *)
let test_merger_fold_all_or_nothing () =
  let module Cm = Pipeline.Targets.Countmin (struct
    let seed = 23L
    let rows = 4
    let width = 64
  end) in
  let poison = Atomic.make false in
  (* Poison what a worker ships a delta with: [ship], not [encode]. *)
  let module Poisoned = struct
    include Cm

    let ship d =
      let blob, empty = Cm.ship d in
      if Atomic.get poison then
        (Test_helpers.countmin_bad_last_row ~family:(Sketches.Countmin.family d),
         empty)
      else (blob, empty)
  end in
  let module P = Pipeline.Engine.Make (Poisoned) in
  let p = P.create ~batch:8 ~shards:1 () in
  let settle what ok =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not (ok (P.stats p))) && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    if not (ok (P.stats p)) then Alcotest.failf "timed out waiting for %s" what
  in
  (* Each round of 8 keys is one slice, so it ships as one delta whether
     the batch fills or the shard's unshipped weight comes of age. *)
  let keys = Array.init 8 (fun k -> k + 1) in
  ignore (P.ingest_batch p keys ~len:(Array.length keys));
  settle "the first merge" (fun s -> s.P.merges = 1);
  let blob0, epoch0, pub0 = P.snapshot p in
  Atomic.set poison true;
  ignore (P.ingest_batch p keys ~len:(Array.length keys));
  settle "the decode failure" (fun s -> s.P.decode_failures = 1);
  let blob1, epoch1, pub1 = P.snapshot p in
  P.drain p;
  Alcotest.(check int) "published before" 8 pub0;
  Alcotest.(check int) "published unchanged" pub0 pub1;
  Alcotest.(check int) "no epoch stamped" epoch0 epoch1;
  Alcotest.(check bytes) "global bit-identical" blob0 blob1;
  Alcotest.(check int) "one decode failure" 1 (P.stats p).P.decode_failures

(* A served frame enters the engine as one slice per shard. Whatever the
   batch boundaries, the drained global is the one per-key ingest builds,
   bit for bit, and the one a sequential sketch builds. *)
let test_ingest_batch_matches_per_key () =
  let module Cm = Pipeline.Targets.Countmin (struct
    let seed = 29L
    let rows = 4
    let width = 128
  end) in
  let module P = Pipeline.Engine.Make (Cm) in
  let stream =
    Workload.Stream.generate ~seed:31L (Workload.Stream.Zipf (300, 1.1))
      ~length:5_000
  in
  let per_key = P.create ~queue_capacity:64 ~batch:50 ~shards:3 () in
  Array.iter (fun x -> ignore (P.ingest per_key x)) stream;
  let batched = P.create ~queue_capacity:64 ~batch:50 ~shards:3 () in
  (* batch sizes 0, 1, below, at and above the queue capacity, cycled *)
  let sizes = [| 0; 1; 37; 64; 256; 300 |] in
  let off = ref 0 and i = ref 0 and accepted = ref 0 in
  while !off < Array.length stream do
    let len = min sizes.(!i mod Array.length sizes) (Array.length stream - !off) in
    accepted := !accepted + P.ingest_batch batched (Array.sub stream !off len) ~len;
    off := !off + len;
    incr i
  done;
  P.drain per_key;
  P.drain batched;
  Alcotest.(check int) "every key accepted" (Array.length stream) !accepted;
  let blob_of p = let b, _, _ = P.snapshot p in b in
  Alcotest.(check bytes) "global = per-key ingest's" (blob_of per_key)
    (blob_of batched);
  let seq = Cm.create () in
  Array.iter (Cm.update seq) stream;
  Alcotest.(check bytes) "global = sequential sketch" (Cm.encode seq)
    (blob_of batched);
  Alcotest.(check int) "published" (Array.length stream) (P.read_total batched)

let enqueued_sum (st : PC.stats) =
  Array.fold_left (fun a (s : PC.shard_stats) -> a + s.enqueued) 0 st.PC.shards

let dropped_sum (st : PC.stats) =
  Array.fold_left (fun a (s : PC.shard_stats) -> a + s.dropped) 0 st.PC.shards

let test_ingest_batch_after_drain () =
  let p = PC.create ~shards:2 () in
  Alcotest.(check int) "accepted before drain" 100
    (PC.ingest_batch p (Array.init 100 Fun.id) ~len:100);
  PC.drain p;
  let before = PC.stats p in
  Alcotest.(check int) "accepted after drain" 0
    (PC.ingest_batch p (Array.init 40 Fun.id) ~len:40);
  let after = PC.stats p in
  Alcotest.(check int) "dropped grows by n" (dropped_sum before + 40)
    (dropped_sum after);
  Alcotest.(check int) "enqueued unchanged" (enqueued_sum before)
    (enqueued_sum after)

(* Shard 0's worker dies at once and its queue closes: its slice is shed,
   every other shard's keys are accepted, and the count returned is exactly
   what Σ enqueued grew by. *)
let test_ingest_batch_dead_shard () =
  let p =
    PC.create ~batch:16 ~shards:3
      ~on_tick:(fun ~shard ->
        if shard = 0 then raise (Conc.Chaos.Killed { domain = 0; point = 1 }))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while PC.dead p <> [ 0 ] && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check (list int)) "shard 0 dead" [ 0 ] (PC.dead p);
  let n = 3_000 in
  let before = PC.stats p in
  let accepted = PC.ingest_batch p (Array.init n (fun i -> i * 7)) ~len:n in
  let after = PC.stats p in
  Alcotest.(check int) "accepted = growth of Σ enqueued"
    (enqueued_sum after - enqueued_sum before) accepted;
  Alcotest.(check int) "the rest dropped" (n - accepted)
    (dropped_sum after - dropped_sum before);
  Alcotest.(check int) "dead shard took nothing" 0 after.PC.shards.(0).enqueued;
  Alcotest.(check bool) "dead shard's keys shed" true (accepted < n);
  Alcotest.(check bool) "live shards' keys accepted" true
    (after.PC.shards.(1).enqueued > 0 && after.PC.shards.(2).enqueued > 0);
  PC.drain p;
  Alcotest.(check int) "survivors publish all they took" accepted
    (PC.read_total p)

(* A parked worker wakes once per quarter batch, not once per key: per-key
   ingest into one shard costs at most four parks per shipped delta, plus
   the last park that [drain]'s close ends. The producer pauses after each
   key so the worker keeps up with it, which is when a worker that woke on
   every push parked about once per key. *)
let test_parks_per_delta () =
  let n = 65_536 and batch = 64 in
  let p = PC.create ~shards:1 ~batch () in
  for x = 1 to n do
    ignore (PC.ingest p x);
    for _ = 1 to 200 do
      Domain.cpu_relax ()
    done
  done;
  PC.drain p;
  let st = PC.stats p in
  let parks = st.shards.(0).parks in
  Alcotest.(check int) "every key published" n st.published;
  Alcotest.(check bool)
    (Printf.sprintf "parks %d <= 4N/batch + 5 = %d" parks ((4 * n / batch) + 5))
    true
    (parks <= (4 * n / batch) + 5)

let test_last_merge_lag () =
  let p = PC.create ~batch:10 ~shards:2 () in
  Alcotest.(check (option (float 0.0))) "none before any merge" None
    (PC.last_merge_lag p);
  ignore (PC.ingest_batch p (Array.init 95 Fun.id) ~len:95);
  PC.drain p;
  let lags = (PC.stats p).PC.merge_lag in
  Alcotest.(check bool) "merged" true (Array.length lags > 1);
  Alcotest.(check (option (float 0.0))) "the newest lag"
    (Some lags.(Array.length lags - 1))
    (PC.last_merge_lag p)

(* One lag per merge, oldest first, past the lag store's first growth
   (batch 1: a merge per key). *)
let test_merge_lag_per_merge () =
  let p = PC.create ~batch:1 ~shards:2 () in
  ignore (PC.ingest_batch p (Array.init 3_000 Fun.id) ~len:3_000);
  PC.drain p;
  let st = PC.stats p in
  Alcotest.(check int) "3000 merges" 3_000 st.PC.merges;
  Alcotest.(check int) "one lag per merge" st.PC.merges
    (Array.length st.PC.merge_lag);
  Alcotest.(check bool) "lags are durations" true
    (Array.for_all (fun l -> l >= 0.0) st.PC.merge_lag);
  Alcotest.(check (option (float 0.0))) "the newest is last"
    (Some st.PC.merge_lag.(2_999))
    (PC.last_merge_lag p)

(* [published] is [stats]' published weight without the copy: mid-run it
   sits between two [stats] reads taken around it (both grow only), and
   after drain all three agree with [read_total]. *)
let test_published () =
  let p = PC.create ~batch:16 ~shards:3 () in
  Alcotest.(check int) "zero before any merge" 0 (PC.published p);
  let feeder =
    Domain.spawn (fun () ->
        for i = 0 to 199 do
          ignore (PC.ingest_batch p (Array.init 50 (fun j -> (i * 50) + j)) ~len:50)
        done)
  in
  let reads = ref 0 in
  while !reads < 200 do
    let before = (PC.stats p).PC.published in
    let v = PC.published p in
    let after = (PC.stats p).PC.published in
    if v < before || v > after then
      Alcotest.failf "published %d outside the stats reads [%d, %d]" v before
        after;
    incr reads
  done;
  Domain.join feeder;
  PC.drain p;
  Alcotest.(check int) "after drain = stats" (PC.stats p).PC.published
    (PC.published p);
  Alcotest.(check int) "after drain = everything ingested" 10_000
    (PC.published p);
  Alcotest.(check int) "after drain = read_total" (PC.read_total p)
    (PC.published p)

(* An engine that goes quiet below [batch] still publishes what it took:
   the clock ships each shard's partial delta once the shard goes quiet.
   Three rounds of 100 keys into 4 shards of batch 512, no drain; each
   round is published in full within [max_age] plus the allowance, which
   covers the clock's ticks, a wake-up and a merge on a loaded host. *)
let freshness_allowance = 0.25

let test_partial_delta_ships_by_age () =
  let p = PC.create ~batch:512 ~shards:4 () in
  for round = 1 to 3 do
    let accepted =
      PC.ingest_batch p (Array.init 100 (fun i -> (round * 1000) + i)) ~len:100
    in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. Pipeline.Engine.max_age +. freshness_allowance in
    while PC.published p < round * accepted && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.0005
    done;
    let waited = Unix.gettimeofday () -. t0 in
    let st = PC.stats p in
    Alcotest.(check int)
      (Printf.sprintf "round %d: published = enqueued after %.1f ms" round
         (1e3 *. waited))
      (enqueued_sum st) (PC.published p);
    Alcotest.(check int) (Printf.sprintf "round %d: envelope closed" round) 0
      (PC.envelope_width p);
    Array.iteri
      (fun i (s : PC.shard_stats) ->
        Alcotest.(check int)
          (Printf.sprintf "round %d: shard %d shipped what it took" round i)
          s.enqueued s.flushed_items)
      st.PC.shards
  done;
  PC.drain p;
  Alcotest.(check int) "drain adds nothing" 300 (PC.published p)

(* The clock's ageing step, driven tick by tick with no clock and no
   sleeps. [ticks] feeds (now, enqueued, flushed_items, flushes) readings
   to [Engine.age_step] from [Engine.age_idle] and returns, per tick,
   whether the shard was due. Ticks are 0.7 ms apart, so no tick lands on
   the [max_age] (2 ms) boundary. *)
let tick = 0.0007

let ticks readings =
  let _, dues =
    List.fold_left
      (fun (a, dues) (now, enqueued, flushed_items, flushes) ->
        let a, due =
          Pipeline.Engine.age_step a ~enqueued ~flushed_items ~flushes ~now
        in
        (a, due :: dues))
      (Pipeline.Engine.age_idle, [])
      readings
  in
  List.rev dues

let check_dues name expected readings =
  Alcotest.(check (list bool)) name expected (ticks readings)

(* A shard that takes keys and then none is due on the first tick that
   sees no growth: one tick after the keys, far inside [max_age]. The
   age-only rule kept it until the keys were [max_age] old. *)
let test_age_quiet_shard_due () =
  check_dues "due on the first tick with no growth"
    [ false; false; true ]
    [ (0.0, 0, 0, 0); (tick, 100, 0, 0); (2.0 *. tick, 100, 0, 0) ];
  check_dues "nothing held, never due" [ false; false; false ]
    [ (0.0, 0, 0, 0); (tick, 100, 100, 1); (2.0 *. tick, 100, 100, 1) ]

(* A shard that grows on every tick is never quiet: it is due only once
   the weight first timed is [max_age] old (timed at 0.7 ms, due at
   2.8 ms, not at 2.1 ms). *)
let test_age_growing_shard_due_at_max_age () =
  let readings = List.init 6 (fun k -> (float_of_int k *. tick, 10 * k, 0, 0)) in
  check_dues "due only at max_age"
    [ false; false; false; false; true; false ]
    readings

(* One kick per held weight: a shard that stays due-but-unshipped (its
   worker died with the delta) is not due again, however long it holds,
   until new keys arrive; then it is timed afresh and due on the next
   quiet tick. *)
let test_age_no_second_kick () =
  let held = List.init 8 (fun k -> (float_of_int (k + 3) *. tick, 100, 0, 0)) in
  check_dues "one kick, then none without new keys"
    ([ false; false; true ] @ List.init 8 (fun _ -> false) @ [ false; true ])
    ([ (0.0, 0, 0, 0); (tick, 100, 0, 0); (2.0 *. tick, 100, 0, 0) ]
    @ held
    @ [ (11.0 *. tick, 101, 0, 0); (12.0 *. tick, 101, 0, 0) ])

(* A flush restarts the timing: a growing shard that ships part of what it
   holds at 2.1 ms is due [max_age] after that tick (at 4.2 ms), not after
   its first timing (at 2.8 ms). *)
let test_age_flush_restarts_timing () =
  let reading k =
    let flushes = if k >= 3 then 1 else 0 in
    (float_of_int k *. tick, 10 * k, 5 * flushes, flushes)
  in
  check_dues "due max_age after the flush"
    [ false; false; false; false; false; false; true; false ]
    (List.init 8 reading)

(* History recording is opt-in: a default engine keeps no op per merge,
   and [read_total] records none either. *)
let test_history_off_by_default () =
  let p = PC.create ~batch:1 ~shards:2 () in
  ignore (PC.ingest_batch p (Array.init 10_000 Fun.id) ~len:10_000);
  PC.drain p;
  Alcotest.(check int) "10k merges" 10_000 (PC.stats p).PC.merges;
  Alcotest.(check int) "read_total" 10_000 (PC.read_total p);
  Alcotest.(check int) "history empty" 0 (Hist.History.length (PC.history p))

(* [stats]'s merge lags stop at the engine's cap ([Engine.max_lags],
   lowered here to 1000 through the test hook), while the newest lag and
   the lag timer still see every merge. Past the cap the fold sleeps, so
   only a lag taken after the cap can read that long. *)
module Slow_fold = struct
  include Pipeline.Targets.Counter

  let slow = Atomic.make false

  let fold blob =
    if Atomic.get slow then Unix.sleepf 0.03;
    Pipeline.Targets.Counter.fold blob
end

module PS = Pipeline.Engine.Make (Slow_fold)

let test_merge_lags_capped () =
  let cap = 1000 in
  let reg = Obs.Registry.create () in
  let p =
    Pipeline.Engine.with_lag_cap cap (fun () ->
        PS.create ~batch:1 ~shards:2 ~metrics:reg ())
  in
  ignore (PS.ingest_batch p (Array.init (cap + 10) Fun.id) ~len:(cap + 10));
  while (PS.stats p).PS.merges < cap + 10 do
    Unix.sleepf 0.001
  done;
  Atomic.set Slow_fold.slow true;
  Alcotest.(check bool) "one more key" true (PS.ingest p 0);
  PS.drain p;
  let st = PS.stats p in
  Alcotest.(check int) "every key merged" (cap + 11) st.PS.merges;
  Alcotest.(check int) "lags stop at the cap" cap (Array.length st.PS.merge_lag);
  (match PS.last_merge_lag p with
  | Some lag -> Alcotest.(check bool) "newest lag is the slow fold's" true (lag >= 0.03)
  | None -> Alcotest.fail "no newest lag");
  match Obs.Snapshot.find (Obs.Registry.snapshot reg) "pipeline_merge_lag_seconds" with
  | Some (Obs.Snapshot.Summary s) ->
      Alcotest.(check int) "the lag timer sees every merge" (cap + 11) s.s_count
  | _ -> Alcotest.fail "no pipeline_merge_lag_seconds summary"

(* ------------------------- reused delta ------------------------- *)

(* A worker ships with [M.ship] and goes on with the delta it hands back.
   Over rounds of random keys on one delta, the shipped bytes must be
   [M.encode] of that delta, bit for bit, and the delta handed back must
   encode as [create ()]. The CountMin shapes include a 1×1 and a 3×4
   sketch, whose rows fill at once, and rounds with no keys. *)
let ship_targets : (string * (module Pipeline.Mergeable.S)) list =
  let cm rows width =
    ( Printf.sprintf "countmin %dx%d" rows width,
      (module Pipeline.Targets.Countmin (struct
        let seed = 37L
        let rows = rows
        let width = width
      end) : Pipeline.Mergeable.S) )
  in
  [
    cm 4 2048;
    cm 3 4;
    cm 1 1;
    ("counter", (module Pipeline.Targets.Counter));
    ( "kmv",
      (module Pipeline.Targets.Kmv (struct
        let seed = 37L
        let k = 16
      end)) );
  ]

let ship_rounds_ok (module M : Pipeline.Mergeable.S) rounds =
  let empty = M.encode (M.create ()) in
  let d = ref (M.create ()) in
  List.for_all
    (fun keys ->
      List.iter (M.update !d) keys;
      let want = M.encode !d in
      let blob, e = M.ship !d in
      d := e;
      Bytes.equal blob want && Bytes.equal (M.encode e) empty)
    rounds

let ship_qcheck =
  let rounds =
    QCheck.Gen.(
      list_size (int_range 1 4)
        (list_size
           (frequency [ (1, return 0); (4, int_bound 700) ])
           (frequency [ (3, int_bound 64); (1, int_bound max_int) ])))
  in
  List.map
    (fun (name, m) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:60 ~name:(name ^ ": shipped = encoded")
           (QCheck.make rounds)
           (fun rs -> ship_rounds_ok m rs)))
    ship_targets

(* ------------------------- chaos ------------------------- *)

let test_chaos_kill_drain () =
  (* Kill a shard worker mid-run: drain must still complete (no hangs, all
     domains joined), conservation must hold on what was actually merged
     (published = Σ flushed), the envelope must still pass, and the dead
     shard must shed subsequent ingests as drops. *)
  let n = 30_000 in
  let stream =
    Workload.Stream.generate ~seed:13L (Workload.Stream.Uniform 5000) ~length:n
  in
  let shards = 3 in
  let ch =
    Conc.Chaos.instantiate
      (Conc.Chaos.plan
         ~kills:(Conc.Chaos.random_kills ~seed:17L ~domains:shards ~victims:1 ~max_point:20)
         ~seed:17L ())
      ~domains:shards
  in
  let p =
    PC.create ~queue_capacity:64 ~batch:50
      ~on_tick:(fun ~shard -> Conc.Chaos.point ch ~domain:shard)
      ~history:true ~shards ()
  in
  let accepted = feed p stream ~feeders:2 in
  PC.drain p;
  let killed = Conc.Chaos.killed ch in
  Alcotest.(check int) "exactly one kill" 1 (List.length killed);
  Alcotest.(check (list int)) "dead shards = killed domains" killed (PC.dead p);
  Alcotest.(check bool) "no unexpected failures" true (PC.failures p = []);
  let st = PC.stats p in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 st.PC.shards in
  Alcotest.(check int) "published = flushed" st.PC.published
    (sum (fun (s : PC.shard_stats) -> s.flushed_items));
  Alcotest.(check int) "published = read_total" st.PC.published (PC.read_total p);
  Alcotest.(check int) "accepted = enqueued" accepted
    (sum (fun (s : PC.shard_stats) -> s.enqueued));
  Alcotest.(check bool) "some loss on the dead shard" true
    (st.PC.published < n);
  (* Survivors lose nothing. *)
  Array.iteri
    (fun i (s : PC.shard_stats) ->
      if s.alive then
        Alcotest.(check int)
          (Printf.sprintf "surviving shard %d intact" i)
          s.enqueued s.flushed_items)
    st.PC.shards;
  Alcotest.(check int) "no envelope violations" 0
    (List.length (Mono.violations (PC.history p)));
  Alcotest.(check bool) "ingest after drain sheds" false (PC.ingest p 1)

let test_chaos_kill_all_shards () =
  (* Even with every worker dead, feeders must not hang: pushes fail fast,
     and drain still joins everything. *)
  let shards = 2 in
  let ch =
    Conc.Chaos.instantiate
      (Conc.Chaos.plan ~kills:[ (0, 1); (1, 1) ] ~seed:23L ())
      ~domains:shards
  in
  let p =
    PC.create ~queue_capacity:16 ~batch:8
      ~on_tick:(fun ~shard -> Conc.Chaos.point ch ~domain:shard)
      ~shards ()
  in
  let stream =
    Workload.Stream.generate ~seed:29L (Workload.Stream.Uniform 100) ~length:5_000
  in
  let accepted = feed p stream ~feeders:2 in
  PC.drain p;
  Alcotest.(check (list int)) "both dead" [ 0; 1 ] (PC.dead p);
  Alcotest.(check bool) "little accepted" true (accepted <= 5_000);
  Alcotest.(check bool) "no unexpected failures" true (PC.failures p = []);
  Alcotest.(check int) "published consistent" (PC.read_total p)
    (let st = PC.stats p in
     Array.fold_left (fun a (s : PC.shard_stats) -> a + s.flushed_items) 0
       st.PC.shards)

(* ------------------------- mpsc close/reopen races ------------------------- *)

(* Poll [f] until it returns true or [timeout] seconds elapse. The tests
   below must fail with a diagnosis, not hang CI, when a wakeup is lost. *)
let wait_until ?(timeout = 5.0) f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let test_mpsc_close_wakes_all_producers () =
  (* Regression: [close] must broadcast, not signal — every producer blocked
     in [push] on a full queue has to wake and return [false]. A lost wakeup
     here is a producer parked forever on a dead shard. *)
  let producers = 4 in
  let q = Pipeline.Mpsc.create ~capacity:1 in
  ignore (Pipeline.Mpsc.push q 0);
  let returned = Array.init producers (fun _ -> Atomic.make None) in
  let doms =
    Array.init producers (fun i ->
        Domain.spawn (fun () ->
            let ok = Pipeline.Mpsc.push q (i + 1) in
            Atomic.set returned.(i) (Some ok)))
  in
  (* Give everyone time to park on the full queue, then close. *)
  let blocked () =
    Array.for_all (fun r -> Atomic.get r = None) returned
    && Pipeline.Mpsc.length q = 1
  in
  ignore (wait_until ~timeout:0.5 (fun () -> blocked ()));
  Pipeline.Mpsc.close q;
  Alcotest.(check bool) "every blocked producer woke" true
    (wait_until (fun () ->
         Array.for_all (fun r -> Atomic.get r <> None) returned));
  Array.iter Domain.join doms;
  Array.iteri
    (fun i r ->
      Alcotest.(check (option bool))
        (Printf.sprintf "producer %d rejected" i)
        (Some false) (Atomic.get r))
    returned;
  (* The element that was queued before the close is still there. *)
  Alcotest.(check (option int)) "backlog intact" (Some 0) (Pipeline.Mpsc.pop q)

let test_mpsc_pop_into_bound_under_close_race () =
  (* [pop_into ~max] must never return more than [max] elements, including
     in the window where producers are racing a close. *)
  let q = Pipeline.Mpsc.create ~capacity:64 in
  let max_batch = 5 in
  let buf = Array.make 64 0 in
  let stop = Atomic.make false in
  let producers =
    Array.init 3 (fun d ->
        Domain.spawn (fun () ->
            let n = ref 0 in
            while not (Atomic.get stop) do
              if Pipeline.Mpsc.push q ((d * 100_000) + !n) then incr n
            done;
            !n))
  in
  let closer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        Pipeline.Mpsc.close q;
        Atomic.set stop true)
  in
  let popped = ref 0 in
  let rec consume () =
    match Pipeline.Mpsc.pop_into q buf ~max:max_batch with
    | -1 -> ()
    | n ->
        if n > max_batch then
          Alcotest.failf "pop_into returned %d > max %d" n max_batch;
        popped := !popped + n;
        consume ()
  in
  consume ();
  Domain.join closer;
  let pushed = Array.fold_left (fun a d -> a + Domain.join d) 0 producers in
  (* Every successful push was popped exactly once (close loses nothing that
     was accepted; the final drain above ran to the end mark). *)
  Alcotest.(check int) "popped = pushed" pushed !popped

let test_mpsc_reopen_preserves_backlog () =
  let q = Pipeline.Mpsc.create ~capacity:8 in
  List.iter (fun x -> ignore (Pipeline.Mpsc.push q x)) [ 1; 2; 3 ];
  Pipeline.Mpsc.close q;
  Alcotest.(check bool) "push rejected while closed" false (Pipeline.Mpsc.push q 9);
  Pipeline.Mpsc.reopen q;
  Alcotest.(check bool) "push accepted again" true
    (Pipeline.Mpsc.try_push q 4 = `Ok);
  Alcotest.(check (list int)) "backlog first, in order" [ 1; 2; 3; 4 ]
    (pop_list q ~max:8)

(* ------------------------- concurrent drain ------------------------- *)

let test_concurrent_drain_exactly_once () =
  (* Two domains race [drain] on a pipeline whose workers were all chaos
     killed (so there IS leftover work in the queues to account for). Both
     calls must return, and the drop accounting must happen exactly once:
     Σ enqueued = Σ consumed + leftover-drops, where leftover-drops is what
     drain swept out of the dead workers' queues. A double drain would
     count the sweep twice. *)
  let shards = 2 in
  let n = 8_000 in
  let ch =
    Conc.Chaos.instantiate
      (Conc.Chaos.plan ~kills:[ (0, 1); (1, 1) ] ~seed:31L ())
      ~domains:shards
  in
  let p =
    PC.create ~queue_capacity:32 ~batch:16
      ~on_tick:(fun ~shard -> Conc.Chaos.point ch ~domain:shard)
      ~shards ()
  in
  let stream =
    Workload.Stream.generate ~seed:37L (Workload.Stream.Uniform 700) ~length:n
  in
  let accepted = feed p stream ~feeders:2 in
  let drainers =
    Conc.Runner.parallel ~domains:2 (fun _ ->
        PC.drain p;
        true)
  in
  Alcotest.(check bool) "both drain calls returned" true
    (Array.for_all Fun.id drainers);
  let st = PC.stats p in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 st.PC.shards in
  let enqueued = sum (fun (s : PC.shard_stats) -> s.enqueued) in
  let consumed = sum (fun (s : PC.shard_stats) -> s.consumed) in
  let dropped = sum (fun (s : PC.shard_stats) -> s.dropped) in
  Alcotest.(check int) "accepted = enqueued" accepted enqueued;
  (* Ingest-time drops are the pushes that failed (n - accepted); the rest
     of [dropped] is drain's sweep of dead workers' queues — exactly once. *)
  Alcotest.(check int) "exactly-once drop accounting" enqueued
    (consumed + (dropped - (n - accepted)));
  Alcotest.(check int) "published = flushed" st.PC.published
    (sum (fun (s : PC.shard_stats) -> s.flushed_items));
  (* A third drain changes nothing. *)
  PC.drain p;
  let st2 = PC.stats p in
  Alcotest.(check int) "drop accounting stable" dropped
    (Array.fold_left (fun a (s : PC.shard_stats) -> a + s.dropped) 0 st2.PC.shards)

(* ------------------------- create contract ------------------------- *)

let test_create_rejects_bad_config () =
  (* Every documented [Invalid_argument] of [Engine.create], raised by the
     engine itself (not a callee) and before any domain is spawned. *)
  let cases =
    [
      ("shards <= 0", fun () -> PC.create ~shards:0 ());
      ("queue_capacity <= 0", fun () -> PC.create ~queue_capacity:0 ~shards:1 ());
      ("batch <= 0", fun () -> PC.create ~batch:0 ~shards:1 ());
      ( "initial epoch < 0",
        fun () ->
          PC.create ~initial:(Pipeline.Targets.Counter.create (), -1, 0)
            ~shards:1 () );
      ( "initial published < 0",
        fun () ->
          PC.create ~initial:(Pipeline.Targets.Counter.create (), 0, -1)
            ~shards:1 () );
    ]
  in
  List.iter
    (fun (what, create) ->
      match create () with
      | p ->
          PC.drain p;
          Alcotest.failf "%s: accepted" what
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: raised by Engine.create (%s)" what msg)
            true
            (String.starts_with ~prefix:"Engine.create:" msg))
    cases

(* ------------------------- supervisor ------------------------- *)

let test_supervisor_restarts_shard () =
  (* Kill shard 0's worker once; the watchdog must restart it, the restarted
     incarnation must resume consuming its (reopened) queue, and the final
     history must still satisfy the envelope. *)
  let shards = 2 in
  let die_at = 5 in
  let ticks = Atomic.make 0 in
  let pipeline =
    PC.create ~queue_capacity:256 ~batch:32
      ~on_tick:(fun ~shard ->
        (* The counter spans incarnations, so exactly the [die_at]-th tick
           kills — the restarted worker sees larger values and lives. *)
        if shard = 0 && Atomic.fetch_and_add ticks 1 = die_at then
          raise (Conc.Chaos.Killed { domain = 0; point = die_at }))
      ~supervised:true ~history:true ~shards ()
  in
  let n = 30_000 in
  let stream =
    Workload.Stream.generate ~seed:41L (Workload.Stream.Uniform 4000) ~length:n
  in
  let chunks = Workload.Stream.chunks stream ~pieces:2 in
  (* First half: drive until the kill + restart have happened. *)
  Array.iter (fun x -> ignore (PC.ingest pipeline x)) chunks.(0);
  Alcotest.(check bool) "watchdog restarted the shard" true
    (wait_until (fun () ->
         let s = (PC.stats pipeline).PC.shards.(0) in
         s.restarts = 1 && s.alive));
  let enq_before = (PC.stats pipeline).PC.shards.(0).enqueued in
  (* Second half: the restarted shard must accept and consume new work. *)
  Array.iter (fun x -> ignore (PC.ingest pipeline x)) chunks.(1);
  PC.drain pipeline;
  let st = PC.stats pipeline in
  let s0 = st.PC.shards.(0) in
  Alcotest.(check bool) "post-restart ingestion grew" true
    (s0.enqueued > enq_before);
  Alcotest.(check int) "restarted exactly once" 1 s0.restarts;
  Alcotest.(check bool) "not shed" false s0.shed;
  Alcotest.(check bool) "death reason recorded" true (s0.last_error <> None);
  (* The lost delta is bounded by one batch: consumed - flushed < 2*batch. *)
  Alcotest.(check bool) "bounded loss" true
    (s0.consumed - s0.flushed_items < 64);
  Alcotest.(check int) "published = flushed" st.PC.published
    (Array.fold_left (fun a (s : PC.shard_stats) -> a + s.flushed_items) 0
       st.PC.shards);
  Alcotest.(check bool) "no unexpected failures" true (PC.failures pipeline = []);
  Alcotest.(check int) "no envelope violations" 0
    (List.length (Mono.violations (PC.history pipeline)))

let test_supervisor_restart_cap_sheds () =
  (* A worker that dies on every incarnation must not crash-loop forever:
     after the supervisor's 5 restarts (backoffs summing to at most
     1.5 × 62 ms) the watchdog sheds the shard permanently and records
     why. *)
  let max_restarts = 5 in
  let p =
    PC.create ~queue_capacity:16 ~batch:8
      ~on_tick:(fun ~shard ->
        if shard = 0 then raise (Conc.Chaos.Killed { domain = 0; point = 1 }))
      ~supervised:true ~shards:2 ()
  in
  Alcotest.(check bool) "shard 0 eventually shed" true
    (wait_until (fun () -> (PC.stats p).PC.shards.(0).shed));
  (* Shed shard drops, surviving shard still ingests. *)
  let stream =
    Workload.Stream.generate ~seed:43L (Workload.Stream.Uniform 900) ~length:4_000
  in
  let accepted = feed p stream ~feeders:1 in
  PC.drain p;
  let st = PC.stats p in
  let s0 = st.PC.shards.(0) in
  Alcotest.(check int) "used the whole restart budget" max_restarts s0.restarts;
  Alcotest.(check bool) "still marked dead" false s0.alive;
  (match s0.last_error with
  | Some msg ->
      Alcotest.(check bool) "shed reason recorded" true
        (String.length msg >= 4 && String.sub msg 0 4 = "shed")
  | None -> Alcotest.fail "expected a shed reason");
  Alcotest.(check bool) "survivor made progress" true
    (st.PC.shards.(1).flushed_items > 0);
  Alcotest.(check bool) "shed shard dropped traffic" true (accepted < 4_000);
  Alcotest.(check int) "published = flushed" st.PC.published
    (Array.fold_left (fun a (s : PC.shard_stats) -> a + s.flushed_items) 0
       st.PC.shards);
  Alcotest.(check bool) "no unexpected failures" true (PC.failures p = [])

(* ------------------------- queue contract ------------------------- *)

(* The bounded-queue contract the engine relies on, checked against
   {!Pipeline.Mpsc} — the mutex queue behind every shard and the merger. *)

module Sq = Pipeline.Mpsc

let test_q_fifo () =
  let q = Sq.create ~capacity:4 in
  List.iter (fun x -> Alcotest.(check bool) "push" true (Sq.push q x)) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Sq.length q);
  Alcotest.(check (list int)) "batch pops FIFO" [ 1; 2 ] (pop_list q ~max:2);
  Alcotest.(check (option int)) "pop" (Some 3) (Sq.pop q);
  Alcotest.(check bool) "try_push ok" true (Sq.try_push q 9 = `Ok)

let test_q_exact_capacity () =
  (* Capacity is enforced exactly — backpressure semantics are part of the
     contract, not an implementation detail. *)
  let cap = 5 in
  let q = Sq.create ~capacity:cap in
  for x = 1 to cap do
    Alcotest.(check bool) (Printf.sprintf "push %d fits" x) true
      (Sq.try_push q x = `Ok)
  done;
  Alcotest.(check bool) "push past capacity is Full" true
    (Sq.try_push q 99 = `Full);
  Alcotest.(check int) "length = capacity" cap (Sq.length q);
  (* One pop frees exactly one slot. *)
  Alcotest.(check (option int)) "fifo head" (Some 1) (Sq.pop q);
  Alcotest.(check bool) "slot freed" true (Sq.try_push q 6 = `Ok);
  Alcotest.(check bool) "full again" true (Sq.try_push q 7 = `Full)

let test_q_close_semantics () =
  let q = Sq.create ~capacity:2 in
  ignore (Sq.push q 1);
  ignore (Sq.push q 2);
  Alcotest.(check bool) "try_push full" true (Sq.try_push q 3 = `Full);
  Sq.close q;
  Alcotest.(check bool) "push after close" false (Sq.push q 4);
  Alcotest.(check bool) "try_push closed" true (Sq.try_push q 4 = `Closed);
  (* Consumer still drains the queued elements, then sees the end mark. *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Sq.pop q);
  Alcotest.(check (list int)) "drain 2" [ 2 ] (pop_list q ~max:8);
  Alcotest.(check (option int)) "end" None (Sq.pop q);
  Alcotest.(check (list int)) "end batch" [] (pop_list q ~max:8)

let test_q_reopen_backlog () =
  let q = Sq.create ~capacity:8 in
  List.iter (fun x -> ignore (Sq.push q x)) [ 1; 2; 3 ];
  Sq.close q;
  Alcotest.(check bool) "push rejected while closed" false (Sq.push q 9);
  Sq.reopen q;
  Alcotest.(check bool) "push accepted again" true (Sq.try_push q 4 = `Ok);
  Alcotest.(check (list int)) "backlog first, in order" [ 1; 2; 3; 4 ]
    (pop_list q ~max:8)

let test_q_pop_into_conventions () =
  let q = Sq.create ~capacity:8 in
  let buf = Array.make 8 0 in
  Alcotest.(check int) "empty open = 0" 0 (Sq.try_pop_into q buf ~max:8);
  List.iter (fun x -> ignore (Sq.push q x)) [ 10; 20; 30 ];
  Alcotest.(check int) "bounded by max" 2 (Sq.try_pop_into q buf ~max:2);
  Alcotest.(check (list int)) "fifo into buf" [ 10; 20 ]
    [ buf.(0); buf.(1) ];
  Alcotest.(check int) "blocking pop_into returns count" 1
    (Sq.pop_into q buf ~max:8);
  Alcotest.(check int) "last element" 30 buf.(0);
  Sq.close q;
  Alcotest.(check int) "closed and drained = -1" (-1)
    (Sq.try_pop_into q buf ~max:8);
  Alcotest.(check int) "blocking sees end mark too" (-1)
    (Sq.pop_into q buf ~max:8)

let test_q_drain_remaining () =
  let q = Sq.create ~capacity:8 in
  List.iter (fun x -> ignore (Sq.push q x)) [ 1; 2; 3; 4; 5 ];
  Sq.close q;
  Alcotest.(check int) "drain counts leftovers" 5 (Sq.drain_remaining q);
  Alcotest.(check int) "empty after drain" 0 (Sq.length q)

let test_q_blocked_producer_wakeup () =
  (* A producer parked on a full queue must wake when the consumer frees a
     slot. *)
  let q = Sq.create ~capacity:1 in
  ignore (Sq.push q 0);
  let d =
    Domain.spawn (fun () ->
        let ok = ref true in
        for x = 1 to 200 do
          ok := !ok && Sq.push q x
        done;
        !ok)
  in
  let seen = ref 0 in
  for _ = 0 to 200 do
    match Sq.pop q with Some _ -> incr seen | None -> ()
  done;
  Alcotest.(check bool) "all pushes accepted" true (Domain.join d);
  Alcotest.(check int) "all elements popped" 201 !seen

let test_q_close_wakes_all_producers () =
  let producers = 4 in
  let q = Sq.create ~capacity:1 in
  ignore (Sq.push q 0);
  let returned = Array.init producers (fun _ -> Atomic.make None) in
  let doms =
    Array.init producers (fun i ->
        Domain.spawn (fun () ->
            let ok = Sq.push q (i + 1) in
            Atomic.set returned.(i) (Some ok)))
  in
  ignore
    (wait_until ~timeout:0.5 (fun () ->
         Array.for_all (fun r -> Atomic.get r = None) returned));
  Sq.close q;
  Alcotest.(check bool) "every blocked producer woke" true
    (wait_until (fun () ->
         Array.for_all (fun r -> Atomic.get r <> None) returned));
  Array.iter Domain.join doms;
  Array.iteri
    (fun i r ->
      Alcotest.(check (option bool))
        (Printf.sprintf "producer %d rejected" i)
        (Some false) (Atomic.get r))
    returned;
  Alcotest.(check (option int)) "backlog intact" (Some 0) (Sq.pop q)

let test_q_mpsc_stress () =
  (* Multi-producer stress through a small queue: every accepted element is
     popped exactly once, and each producer's elements arrive in its push
     order (per-source FIFO — the property hash-routed ingest relies on). *)
  let producers = 3 in
  let per = 20_000 in
  let q = Sq.create ~capacity:64 in
  let doms =
    Array.init producers (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Sq.push q ((d * per) + i))
            done))
  in
  let closer =
    Domain.spawn (fun () ->
        Array.iter Domain.join doms;
        Sq.close q)
  in
  let last = Array.make producers (-1) in
  let count = ref 0 in
  let buf = Array.make 32 0 in
  let rec consume () =
    match Sq.pop_into q buf ~max:32 with
    | -1 -> ()
    | n ->
        for j = 0 to n - 1 do
          let x = buf.(j) in
          let d = x / per in
          if x mod per <= last.(d) then
            Alcotest.failf "producer %d reordered: %d after %d" d (x mod per)
              last.(d);
          last.(d) <- x mod per;
          incr count
        done;
        consume ()
  in
  consume ();
  Domain.join closer;
  Alcotest.(check int) "popped everything exactly once" (producers * per) !count

let test_q_slice_fifo () =
  let q = Sq.create ~capacity:8 in
  let src = [| 10; 11; 12; 13; 14; 15 |] in
  Alcotest.(check int) "middle slice" 3 (Sq.push_slice q src ~off:1 ~len:3);
  Alcotest.(check bool) "single push" true (Sq.push q 99);
  Alcotest.(check int) "empty slice" 0 (Sq.push_slice q src ~off:6 ~len:0);
  Alcotest.(check int) "tail slice" 2 (Sq.push_slice q src ~off:4 ~len:2);
  Alcotest.(check (list int)) "fifo" [ 11; 12; 13; 99; 14; 15 ]
    (pop_list q ~max:8);
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "slice %d+%d rejected" off len)
        (Invalid_argument "Mpsc.push_slice: slice out of bounds") (fun () ->
          ignore (Sq.push_slice q src ~off ~len)))
    [ (-1, 1); (0, -1); (5, 2); (7, 0) ]

(* A slice ten times the capacity goes in piece by piece as a concurrent
   consumer makes room, and comes out whole and in order. *)
let test_q_slice_past_capacity () =
  let q = Sq.create ~capacity:4 in
  let n = 40 in
  let consumer =
    Domain.spawn (fun () ->
        let rec go acc =
          if List.length acc = n then List.rev acc
          else match Sq.pop q with Some x -> go (x :: acc) | None -> List.rev acc
        in
        go [])
  in
  let src = Array.init n Fun.id in
  Alcotest.(check int) "whole slice enqueued" n (Sq.push_slice q src ~off:0 ~len:n);
  Alcotest.(check (list int)) "in order" (Array.to_list src) (Domain.join consumer)

(* Closing the queue under a blocked slice push returns exactly the prefix
   that got in; nothing after it is enqueued, then or later. *)
let test_q_slice_close_midway () =
  let q = Sq.create ~capacity:4 in
  let src = Array.init 10 (fun i -> 100 + i) in
  let producer = Domain.spawn (fun () -> Sq.push_slice q src ~off:0 ~len:10) in
  let wait_full () =
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Sq.length q < 4 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    Alcotest.(check int) "queue full, producer blocked" 4 (Sq.length q)
  in
  wait_full ();
  Alcotest.(check (list int)) "first pops" [ 100; 101 ] (pop_list q ~max:2);
  wait_full ();
  Sq.close q;
  Alcotest.(check int) "returns the enqueued prefix" 6 (Domain.join producer);
  Alcotest.(check (list int)) "exactly that prefix is queued"
    [ 102; 103; 104; 105 ] (pop_list q ~max:10);
  Alcotest.(check (list int)) "then the end mark" [] (pop_list q ~max:10);
  Alcotest.(check int) "a slice into a closed queue" 0
    (Sq.push_slice q src ~off:0 ~len:3)

(* [pop_into ~min]: the consumer sleeps through pushes below its
   threshold, and the push that reaches it, a full queue or [close] wakes
   it. "Still blocked" is checked after a short sleep; a wrong early return
   would have happened by then. *)
let test_q_pop_into_min () =
  let q = Sq.create ~capacity:8 in
  let got = Atomic.make None in
  let consumer least =
    Atomic.set got None;
    Domain.spawn (fun () ->
        let buf = Array.make 16 0 in
        Atomic.set got (Some (Sq.pop_into q buf ~max:16 ~min:least)))
  in
  let blocked what =
    Unix.sleepf 0.05;
    Alcotest.(check (option int)) what None (Atomic.get got)
  in
  let woke what n d =
    Alcotest.(check bool) what true (wait_until (fun () -> Atomic.get got <> None));
    Domain.join d;
    Alcotest.(check (option int)) (what ^ ": count") (Some n) (Atomic.get got)
  in
  let d = consumer 4 in
  for x = 1 to 3 do
    ignore (Sq.push q x)
  done;
  blocked "3 pushes below min 4: blocked";
  ignore (Sq.push q 4);
  woke "the 4th push wakes it" 4 d;
  let d = consumer 100 in
  ignore (Sq.push_slice q [| 1; 2; 3 |] ~off:0 ~len:3);
  blocked "min 100 on capacity 8, 3 queued: blocked";
  ignore (Sq.push_slice q (Array.make 5 0) ~off:0 ~len:5);
  woke "a slice that fills the queue wakes it (min capped at capacity)" 8 d;
  let d = consumer 4 in
  ignore (Sq.try_push q 1);
  ignore (Sq.push q 2);
  blocked "2 below min 4: blocked";
  Sq.close q;
  woke "close wakes it with fewer" 2 d;
  Alcotest.(check int) "closed and drained" (-1)
    (Sq.pop_into q (Array.make 4 0) ~max:4 ~min:4);
  Alcotest.check_raises "min must be positive"
    (Invalid_argument "Mpsc.pop_into: min must be positive") (fun () ->
      ignore (Sq.pop_into q (Array.make 4 0) ~max:4 ~min:0))

(* [kick]: it ends a [~min] park below [min], a kick sent before the park
   is kept for it, a kick with nothing queued returns 0, and [close]
   still ends the stream with -1 once it drains. Every wait runs in a
   domain with a deadline, so a lost kick fails the test instead of
   hanging it; [close] then releases the domain. *)
let pop_in_domain q ~min:least =
  let got = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        let buf = Array.make 16 0 in
        Atomic.set got (Some (Sq.pop_into q buf ~max:16 ~min:least)))
  in
  (got, d)

(* Wait for the domain's [pop_into] to return and join it: its result, or
   [None] if it was still parked after the deadline. *)
let await q (got, d) =
  let r =
    if wait_until (fun () -> Atomic.get got <> None) then Atomic.get got
    else None
  in
  if r = None then Sq.close q;
  Domain.join d;
  r

let still_parked what (got, _) =
  Unix.sleepf 0.05;
  Alcotest.(check (option int)) what None (Atomic.get got)

let test_q_kick_ends_min_park () =
  let q = Sq.create ~capacity:8 in
  let p = pop_in_domain q ~min:4 in
  ignore (Sq.push q 1);
  ignore (Sq.push q 2);
  still_parked "2 below min 4: parked" p;
  Sq.kick q;
  Alcotest.(check (option int)) "the kick ends the park with what is queued"
    (Some 2) (await q p);
  (* the kick was consumed: the next park waits for min again *)
  let p = pop_in_domain q ~min:2 in
  ignore (Sq.push q 3);
  still_parked "a spent kick ends no park" p;
  ignore (Sq.push q 4);
  Alcotest.(check (option int)) "min reached" (Some 2) (await q p)

let test_q_kick_before_park () =
  let q = Sq.create ~capacity:8 in
  Sq.kick q;
  ignore (Sq.push q 1);
  Alcotest.(check int) "try_pop_into leaves the kick" 1
    (Sq.try_pop_into q (Array.make 4 0) ~max:4);
  ignore (Sq.push q 2);
  Alcotest.(check (option int)) "the kick ends the next park at once" (Some 1)
    (await q (pop_in_domain q ~min:4))

let test_q_kick_empty () =
  let q = Sq.create ~capacity:8 in
  Sq.kick q;
  Alcotest.(check (option int)) "pending kick, empty open queue" (Some 0)
    (await q (pop_in_domain q ~min:1));
  Sq.kick q;
  Sq.kick q;
  Alcotest.(check (option int)) "two kicks, one pending" (Some 0)
    (await q (pop_in_domain q ~min:2));
  let p = pop_in_domain q ~min:1 in
  still_parked "the second kick was spent" p;
  Sq.kick q;
  Alcotest.(check (option int)) "a kick on an empty park returns 0" (Some 0)
    (await q p)

let test_q_kick_then_close () =
  let q = Sq.create ~capacity:8 in
  ignore (Sq.push q 1);
  ignore (Sq.push q 2);
  Sq.kick q;
  Sq.close q;
  Sq.kick q;
  let buf = Array.make 8 0 in
  Alcotest.(check int) "the backlog first" 2 (Sq.pop_into q buf ~max:8 ~min:4);
  Alcotest.(check int) "then -1, kicked or not" (-1)
    (Sq.pop_into q buf ~max:8 ~min:4);
  Sq.kick q;
  Alcotest.(check int) "a kick after the end changes nothing" (-1)
    (Sq.pop_into q buf ~max:8)

(* A push stores the element itself: steady-state push and pop allocate
   nothing (a boxed slot or a per-push closure would cost words per key). *)
let test_q_push_allocates_nothing () =
  let q = Sq.create ~capacity:1024 and buf = Array.make 1024 0 in
  let round () =
    for x = 1 to 1000 do
      ignore (Sq.push q x)
    done;
    ignore (Sq.try_pop_into q buf ~max:1024)
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 100k push+pop" words)
    true (words < 1000.0)

(* The merger and every subscriber pump pop one element at a time: a pop
   allocates its [Some] (two words) and nothing else. *)
let test_q_pop_allocates_only_some () =
  let n = 10_000 in
  let q = Sq.create ~capacity:n in
  for x = 1 to n do
    ignore (Sq.push q x)
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    match Sq.pop q with Some x -> sum := !sum + x | None -> ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every element popped" (n * (n + 1) / 2) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for %d pops" words n)
    true
    (words <= float_of_int ((2 * n) + 64))

(* Popped elements are not kept alive by their old slot, and float
   elements round-trip through a queue of floats and a flat float buffer. *)
let test_q_slots_release_and_floats () =
  let q = Sq.create ~capacity:4 in
  let w = Weak.create 1 in
  (fun () ->
    let x = Bytes.make 64 'x' in
    Weak.set w 0 (Some x);
    ignore (Sq.push q x);
    ignore (Sq.pop q))
    ();
  Gc.full_major ();
  Alcotest.(check bool) "popped element collected" false (Weak.check w 0);
  let qf = Sq.create ~capacity:3 and buf = Array.make 5 0.0 in
  List.iter (fun x -> ignore (Sq.push qf x)) [ 1.5; -2.25 ];
  ignore (Sq.push_slice qf [| 3.0; 4.5 |] ~off:0 ~len:1);
  Alcotest.(check int) "three floats" 3 (Sq.try_pop_into qf buf ~max:5);
  ignore (Sq.push qf 7.0);
  ignore (Sq.push qf 8.0);
  Alcotest.(check int) "two more, across the wrap" 2 (Sq.pop_into qf buf ~max:5);
  Alcotest.(check (list (float 0.0))) "values" [ 7.0; 8.0; 3.0; 0.0; 0.0 ]
    (Array.to_list buf)

(* Producers pushing slices of assorted lengths concurrently through a small
   queue: the consumer gets exactly their multiset, each producer's
   elements in its push order. *)
let test_q_slice_producers () =
  let producers = 3 and per = 5_000 in
  let q = Sq.create ~capacity:32 in
  let doms =
    Array.init producers (fun d ->
        Domain.spawn (fun () ->
            let src = Array.init per (fun i -> (d * per) + i) in
            let off = ref 0 and len = ref 1 in
            while !off < per do
              let l = min !len (per - !off) in
              ignore (Sq.push_slice q src ~off:!off ~len:l);
              off := !off + l;
              len := 1 + ((!len * 7) mod 61)
            done))
  in
  let closer =
    Domain.spawn (fun () ->
        Array.iter Domain.join doms;
        Sq.close q)
  in
  let seen = Array.make (producers * per) 0 in
  let last = Array.make producers (-1) in
  let buf = Array.make 16 0 in
  let rec consume () =
    match Sq.pop_into q buf ~max:16 with
    | -1 -> ()
    | n ->
        for j = 0 to n - 1 do
          let x = buf.(j) in
          let d = x / per in
          if x mod per <= last.(d) then
            Alcotest.failf "producer %d reordered: %d after %d" d (x mod per)
              last.(d);
          last.(d) <- x mod per;
          seen.(x) <- seen.(x) + 1
        done;
        consume ()
  in
  consume ();
  Domain.join closer;
  Alcotest.(check bool) "every element exactly once" true
    (Array.for_all (fun c -> c = 1) seen)

(* "mutex:" names the implementation under test: Mpsc is a mutex +
   condition-variable queue. *)
let contract_suite =
  [
    Alcotest.test_case "mutex: fifo" `Quick test_q_fifo;
    Alcotest.test_case "mutex: exact capacity" `Quick test_q_exact_capacity;
    Alcotest.test_case "mutex: close semantics" `Quick test_q_close_semantics;
    Alcotest.test_case "mutex: reopen backlog" `Quick test_q_reopen_backlog;
    Alcotest.test_case "mutex: pop_into conventions" `Quick
      test_q_pop_into_conventions;
    Alcotest.test_case "mutex: drain_remaining" `Quick test_q_drain_remaining;
    Alcotest.test_case "mutex: blocked producer wakeup" `Quick
      test_q_blocked_producer_wakeup;
    Alcotest.test_case "mutex: close wakes all producers" `Quick
      test_q_close_wakes_all_producers;
    Alcotest.test_case "mutex: mpsc stress exact + per-source fifo" `Slow
      test_q_mpsc_stress;
    Alcotest.test_case "mutex: slice fifo" `Quick test_q_slice_fifo;
    Alcotest.test_case "mutex: slice past capacity" `Quick
      test_q_slice_past_capacity;
    Alcotest.test_case "mutex: close mid-slice" `Quick test_q_slice_close_midway;
    Alcotest.test_case "mutex: slices from 3 producers" `Quick
      test_q_slice_producers;
    Alcotest.test_case "mutex: push allocates nothing" `Quick
      test_q_push_allocates_nothing;
    Alcotest.test_case "mutex: slots release, floats round-trip" `Quick
      test_q_slots_release_and_floats;
    Alcotest.test_case "mutex: pop_into ~min wakes on progress" `Quick
      test_q_pop_into_min;
    Alcotest.test_case "mutex: pop allocates only its Some" `Quick
      test_q_pop_allocates_only_some;
    Alcotest.test_case "mutex: kick ends a ~min park below min" `Quick
      test_q_kick_ends_min_park;
    Alcotest.test_case "mutex: a kick before the park is kept" `Quick
      test_q_kick_before_park;
    Alcotest.test_case "mutex: a kick with nothing queued returns 0" `Quick
      test_q_kick_empty;
    Alcotest.test_case "mutex: close after kicks still ends with -1" `Quick
      test_q_kick_then_close;
  ]

(* ------------------------- stealing ------------------------- *)

let test_mpsc_concurrent_steal_exact () =
  (* The multi-consumer contract: two consumers (owner + thief) race
     [try_pop_into] on one queue while two producers push and a closer
     ends the stream. Every element must be claimed by exactly one
     consumer, and within each consumer's claim sequence any single
     producer's elements must appear in push order (pops are serialized
     under the queue mutex and each takes a FIFO prefix). *)
  let module R = Pipeline.Mpsc in
  let producers = 2 and per = 25_000 in
  let q = R.create ~capacity:128 in
  let prods =
    Array.init producers (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (R.push q ((d * per) + i))
            done))
  in
  let closer =
    Domain.spawn (fun () ->
        Array.iter Domain.join prods;
        R.close q)
  in
  let consume () =
    let buf = Array.make 17 0 in
    let mine = ref [] in
    let rec go () =
      match R.try_pop_into q buf ~max:17 with
      | -1 -> List.rev !mine
      | 0 ->
          Unix.sleepf 0.0;
          go ()
      | n ->
          for j = 0 to n - 1 do
            mine := buf.(j) :: !mine
          done;
          go ()
    in
    go ()
  in
  let thief = Domain.spawn consume in
  let owner = consume () in
  let stolen = Domain.join thief in
  Domain.join closer;
  let seen = Array.make (producers * per) 0 in
  let check_consumer items =
    let last = Array.make producers (-1) in
    List.iter
      (fun x ->
        seen.(x) <- seen.(x) + 1;
        let d = x / per in
        if x mod per <= last.(d) then
          Alcotest.failf "consumer saw producer %d out of order" d;
        last.(d) <- x mod per)
      items
  in
  check_consumer owner;
  check_consumer stolen;
  Array.iteri
    (fun x c ->
      if c <> 1 then Alcotest.failf "element %d popped %d times" x c)
    seen;
  Alcotest.(check int) "both consumers split the stream" (producers * per)
    (List.length owner + List.length stolen)

let () =
  Alcotest.run "pipeline"
    [
      ( "mpsc",
        [
          Alcotest.test_case "fifo" `Quick test_mpsc_fifo;
          Alcotest.test_case "full and close" `Quick test_mpsc_full_and_close;
          Alcotest.test_case "blocking producer" `Quick test_mpsc_blocking_producer;
          Alcotest.test_case "close wakes all blocked producers" `Quick
            test_mpsc_close_wakes_all_producers;
          Alcotest.test_case "pop_into bound under close race" `Quick
            test_mpsc_pop_into_bound_under_close_race;
          Alcotest.test_case "reopen preserves backlog" `Quick
            test_mpsc_reopen_preserves_backlog;
        ] );
      ( "engine",
        [
          Alcotest.test_case "conservation through drain" `Quick
            test_counter_conservation;
          Alcotest.test_case "history envelope" `Quick test_history_envelope;
          Alcotest.test_case "Theorem 6 CountMin envelope" `Quick
            test_countmin_theorem6;
          Alcotest.test_case "concurrent drain is exactly-once" `Quick
            test_concurrent_drain_exactly_once;
          Alcotest.test_case "create rejects bad config" `Quick
            test_create_rejects_bad_config;
          Alcotest.test_case "merger fold is all or nothing" `Quick
            test_merger_fold_all_or_nothing;
          Alcotest.test_case "ingest_batch = per-key ingest" `Quick
            test_ingest_batch_matches_per_key;
          Alcotest.test_case "ingest_batch after drain" `Quick
            test_ingest_batch_after_drain;
          Alcotest.test_case "ingest_batch with a dead shard" `Quick
            test_ingest_batch_dead_shard;
          Alcotest.test_case "last_merge_lag" `Quick test_last_merge_lag;
          Alcotest.test_case "merge_lag: one per merge" `Quick
            test_merge_lag_per_merge;
          Alcotest.test_case "published" `Quick test_published;
          Alcotest.test_case "parks per delta, not per key" `Quick
            test_parks_per_delta;
          Alcotest.test_case "a partial delta ships by age" `Quick
            test_partial_delta_ships_by_age;
          Alcotest.test_case "age: a quiet shard is due at once" `Quick
            test_age_quiet_shard_due;
          Alcotest.test_case "age: a growing shard is due at max_age" `Quick
            test_age_growing_shard_due_at_max_age;
          Alcotest.test_case "age: no second kick without new keys" `Quick
            test_age_no_second_kick;
          Alcotest.test_case "age: a flush restarts the timing" `Quick
            test_age_flush_restarts_timing;
          Alcotest.test_case "history is off by default" `Quick
            test_history_off_by_default;
          Alcotest.test_case "merge lags stop at max_lags" `Quick
            test_merge_lags_capped;
        ] );
      ("reused delta", ship_qcheck);
      ( "chaos",
        [
          Alcotest.test_case "kill one shard, drain completes" `Quick
            test_chaos_kill_drain;
          Alcotest.test_case "kill every shard, no hang" `Quick
            test_chaos_kill_all_shards;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "watchdog restarts a killed shard" `Quick
            test_supervisor_restarts_shard;
          Alcotest.test_case "restart cap degrades to shedding" `Quick
            test_supervisor_restart_cap_sheds;
        ] );
      ("queue-contract", contract_suite);
      ( "stealing",
        [
          Alcotest.test_case "mpsc concurrent steal is exact" `Slow
            test_mpsc_concurrent_steal_exact;
        ] );
    ]
