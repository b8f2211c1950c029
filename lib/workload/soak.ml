(* Full-system chaos soak harness.

   The structure is rounds of crash-and-recover over one durable directory:

     recover_compact -> Engine.create ~initial -> drive trace slice
       (chaos kills + supervised restarts + WAL + checkpoints)
     -> drain -> round checks -> tear WAL tail -> next round

   Every check is an IVL statement made end-to-end:
   - the recorded history of merges and read_total samples must satisfy
     Ivl.Monotone (each read inside [published-at-invoke, accepted-at-return]);
   - published weight must equal flushed weight (conservation: the pipeline
     invents nothing and loses only what crashes took);
   - recovery must land inside [newest durable checkpoint, pre-crash state]
     and never move backwards across recoveries;
   - the CountMin estimates must bracket a ground-truth oracle fed exactly
     the accepted operations: est(x) + lost >= true(x) with no slack, and
     est(x) <= true(x) + alpha*n outside a delta-sized allowance.

   Oracle soundness with loss: every accepted update either reaches the
   published sketch or is lost (killed worker's unflushed delta, torn WAL
   tail, unsynced page cache). Per-key loss cannot exceed total loss
   [accepted - published], hence the unconditional lower bound. *)

type config = {
  dir : string;
  shards : int;
  feeders : int;
  rounds : int;
  batch : int;
  steal : bool;
  queue_capacity : int;
  checkpoint_every : int;
  fsync_every : int;
  kills_per_round : int;
  kill_max_point : int;
  tear_tail : bool;
  chaos_seed : int64;
  cm_rows : int;
  cm_width : int;
  sketch_seed : int64;
  reader_interval : float;
  key_sample : int;
}

let default_config ~dir =
  {
    dir;
    shards = 4;
    feeders = 2;
    rounds = 4;
    batch = 256;
    steal = false;
    queue_capacity = 1024;
    checkpoint_every = 8;
    fsync_every = 16;
    kills_per_round = 2;
    (* A worker ticks once per popped batch, not per item, so short rounds
       see only a few dozen ticks: keep the window tight or the kill never
       lands. *)
    kill_max_point = 16;
    tear_tail = true;
    chaos_seed = 0xC4405L;
    cm_rows = 4;
    cm_width = 2048;
    sketch_seed = 0x5EEDL;
    reader_interval = 0.0005;
    key_sample = 4096;
  }

type round_report = {
  round : int;
  recovered_epoch : int;
  recovered_published : int;
  wal_bytes_truncated : int;
  kills : int;
  restarts : int;
  end_epoch : int;
  end_published : int;
  accepted : int;
  shed : int;
  monotone_violations : int;
  reader_regressions : int;
  conservation_failures : int;
  epoch_regressions : int;
  decode_failures : int;
  unexpected_failures : int;
  oracle_lower_violations : int;
  oracle_upper_failures : int;
  oracle_upper_allowance : int;
  checked_keys : int;
  driver : Driver.report;
  merge_lag : float array;
  envelope_samples : float array;
}

type verdict = {
  pass : bool;
  reasons : string list;
  rounds : round_report list;
  recoveries : int;
  epsilon : float;
  delta : float;
  accepted_total : int;
  final_published : int;
  lost_weight : int;
  wall : float;
}

exception Abort of string

let validate_config c ~spec ~ops =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if c.shards <= 0 then bad "Soak.run: shards must be positive";
  if c.feeders <= 0 then bad "Soak.run: feeders must be positive";
  if c.rounds <= 0 then bad "Soak.run: rounds must be positive";
  if c.batch <= 0 then bad "Soak.run: batch must be positive";
  if c.checkpoint_every <= 0 then bad "Soak.run: checkpoint_every must be positive";
  if c.fsync_every <= 0 then bad "Soak.run: fsync_every must be positive";
  if c.kills_per_round < 0 || c.kills_per_round > c.shards then
    bad "Soak.run: kills_per_round must be in [0, shards]";
  if c.kill_max_point < 1 then bad "Soak.run: kill_max_point must be >= 1";
  if c.cm_rows <= 0 || c.cm_width <= 0 then bad "Soak.run: bad CountMin geometry";
  if c.reader_interval <= 0.0 then bad "Soak.run: reader_interval must be positive";
  if c.key_sample <= 0 then bad "Soak.run: key_sample must be positive";
  if Array.length ops <> List.length spec.Trace.phases then
    bad "Soak.run: ops do not match the spec's phases"

let universe_of_ops ops =
  1
  + Array.fold_left
      (fun acc arr ->
        Array.fold_left
          (fun a op ->
            match op with Scenario.Update k | Scenario.Query k -> max a k)
          acc arr)
      0 ops

let last_segment dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then None
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n ->
           String.length n = 16
           && String.sub n 0 4 = "wal-"
           && Filename.check_suffix n ".seg")
    |> List.sort compare
    |> List.rev
    |> function
    | [] -> None
    | name :: _ ->
        let path = Filename.concat dir name in
        Some (path, (Unix.stat path).Unix.st_size)

let run ?(progress = fun _ -> ()) ?metrics c ~spec ~ops () =
  validate_config c ~spec ~ops;
  let module M = Pipeline.Targets.Countmin (struct
    let seed = c.sketch_seed
    let rows = c.cm_rows
    let width = c.cm_width
  end) in
  let module P = Pipeline.Engine.Make (M) in
  let module R = Durable.Recovery.Make (M) in
  let module Mono = Ivl.Monotone.Make (Spec.Counter_spec) in
  let epsilon = exp 1.0 /. float_of_int c.cm_width in
  let delta = exp (-.float_of_int c.cm_rows) in
  let universe = universe_of_ops ops in
  let oracles = Array.init c.feeders (fun _ -> Array.make universe 0) in
  let slices = Array.map (fun arr -> Stream.chunks arr ~pieces:c.rounds) ops in
  let tear_rng = Rng.Splitmix.create (Int64.add c.chaos_seed 0x7EA7L) in
  let prev_end_epoch = ref 0 and prev_end_pub = ref 0 and prev_rec_epoch = ref 0 in
  let reports = ref [] in
  let t_start = Unix.gettimeofday () in
  let oracle_totals () =
    let t = Array.make universe 0 in
    Array.iter (fun o -> Array.iteri (fun k v -> t.(k) <- t.(k) + v) o) oracles;
    t
  in
  let run_round r =
    (* ---- recover the previous incarnation (rounds > 0) ---- *)
    let pre_ckpt = Durable.Checkpoint.latest ~dir:c.dir in
    let initial, rec_epoch, rec_pub, wal_trunc, epoch_regress =
      if r = 0 then (None, 0, 0, 0, 0)
      else
        match R.recover_compact ~dir:c.dir () with
        | Error m -> raise (Abort (Printf.sprintf "round %d: recovery failed: %s" r m))
        | Ok (sketch, rep) ->
            let regress = ref 0 in
            (match pre_ckpt with
            | Some (s : Durable.Checkpoint.snapshot) ->
                if
                  rep.recovered_epoch < s.epoch
                  || rep.recovered_published < s.published
                then incr regress
            | None -> ());
            if
              rep.recovered_epoch > !prev_end_epoch
              || rep.recovered_published > !prev_end_pub
            then incr regress;
            if rep.recovered_epoch < !prev_rec_epoch then incr regress;
            progress
              (Printf.sprintf "round %d: recovered epoch %d published %d (%d bytes torn)%s"
                 r rep.recovered_epoch rep.recovered_published rep.bytes_truncated
                 (if !regress > 0 then " REGRESSION" else ""));
            ( Some (sketch, rep.recovered_epoch, rep.recovered_published),
              rep.recovered_epoch,
              rep.recovered_published,
              rep.bytes_truncated,
              !regress )
    in
    prev_rec_epoch := rec_epoch;
    (* ---- fresh incarnation: WAL + checkpoints + supervisor + chaos ---- *)
    let registry =
      match metrics with Some r -> r | None -> Obs.Registry.create ()
    in
    let wal =
      Durable.Wal.create ~fsync:(Durable.Wal.Every_n c.fsync_every) ~metrics:registry
        ~dir:c.dir ()
    in
    let kills =
      Conc.Chaos.random_kills
        ~seed:(Int64.add c.chaos_seed (Int64.of_int ((r * 7919) + 1)))
        ~domains:c.shards
        ~victims:(min c.kills_per_round c.shards)
        ~max_point:c.kill_max_point
    in
    let chaos =
      Conc.Chaos.instantiate
        (Conc.Chaos.plan ~yield_prob:0.05 ~stall_prob:0.01 ~stall_spins:500 ~kills
           ~seed:(Int64.add c.chaos_seed (Int64.of_int r))
           ())
        ~domains:c.shards
    in
    let base = rec_pub in
    let eng =
      P.create ~steal:c.steal ~queue_capacity:c.queue_capacity ~batch:c.batch
        ~on_tick:(fun ~shard -> Conc.Chaos.point_once chaos ~domain:shard)
        ~on_merge:(fun ~ctx:_ ~epoch ~weight ~blob ->
          Durable.Wal.append wal ~epoch ~weight ~blob)
        ~checkpoint_every:c.checkpoint_every
        ~on_checkpoint:(fun ~epoch ~published ~blob ->
          Durable.Checkpoint.write ~dir:c.dir ~epoch ~published ~blob ())
        ~supervisor:Pipeline.Engine.default_supervisor ~metrics:registry ?initial
        ~shards:c.shards ()
    in
    (* ---- reader domain: the one read_total caller, envelope sampler ---- *)
    let stop = Atomic.make false in
    let reader_regressions = ref 0 in
    let env_samples = ref [] in
    let reader =
      Domain.spawn (fun () ->
          let last = ref (-1) in
          let n = ref 0 in
          while not (Atomic.get stop) do
            let v = P.read_total eng in
            if v < !last then incr reader_regressions;
            last := v;
            incr n;
            if !n land 7 = 0 then begin
              let st = P.stats eng in
              let enq =
                Array.fold_left
                  (fun a (s : P.shard_stats) -> a + s.enqueued)
                  0 st.shards
              in
              env_samples :=
                float_of_int (max 0 (enq - (st.published - base))) :: !env_samples
            end;
            Unix.sleepf c.reader_interval
          done)
    in
    (* ---- drive this round's trace slice ---- *)
    let round_ops = Array.init (Array.length slices) (fun p -> slices.(p).(r)) in
    let make_sink ~feeder =
      let o = oracles.(feeder) in
      Sink.make
        ~ingest:(fun k ->
          if P.ingest eng k then begin
            o.(k) <- o.(k) + 1;
            true
          end
          else false)
        ~try_ingest:(fun k ->
          if P.try_ingest eng k then begin
            o.(k) <- o.(k) + 1;
            true
          end
          else false)
        ~query:(fun k -> ignore (P.query eng (fun g -> Sketches.Countmin.query g k)))
        ()
    in
    let driver =
      Driver.run ~feeders:c.feeders ~metrics:registry ~make_sink ~spec ~ops:round_ops ()
    in
    Atomic.set stop true;
    Domain.join reader;
    P.drain eng;
    Durable.Wal.close wal;
    (* ---- round checks, all at quiescence ---- *)
    let st = P.stats eng in
    let flushed =
      Array.fold_left (fun a (s : P.shard_stats) -> a + s.flushed_items) 0 st.shards
    in
    let restarts =
      Array.fold_left (fun a (s : P.shard_stats) -> a + s.restarts) 0 st.shards
    in
    let conservation_failures =
      if st.decode_failures = 0 && st.published - base <> flushed then 1
      else if st.published > base + flushed then 1 (* weight invented *)
      else 0
    in
    let monotone_violations = List.length (Mono.violations (P.history eng)) in
    let unexpected_failures = List.length (P.failures eng) in
    let otot = oracle_totals () in
    let accepted_so_far = Array.fold_left ( + ) 0 otot in
    let lost = accepted_so_far - st.published in
    let conservation_failures =
      conservation_failures + if lost < 0 then 1 else 0
    in
    let stride = max 1 (universe / c.key_sample) in
    let checked = ref 0 and lower_v = ref 0 and upper_f = ref 0 in
    let eb = fst (P.query eng (fun g -> Sketches.Countmin.error_bound g)) in
    let k = ref 0 in
    while !k < universe do
      let truth = otot.(!k) in
      let est = fst (P.query eng (fun g -> Sketches.Countmin.query g !k)) in
      incr checked;
      if est + max 0 lost < truth then incr lower_v;
      if float_of_int est > float_of_int truth +. eb then incr upper_f;
      k := !k + stride
    done;
    let allowance =
      max 1 (int_of_float (ceil (3.0 *. delta *. float_of_int !checked)))
    in
    let report =
      {
        round = r;
        recovered_epoch = rec_epoch;
        recovered_published = rec_pub;
        wal_bytes_truncated = wal_trunc;
        kills = List.length (Conc.Chaos.killed chaos);
        restarts;
        end_epoch = st.epoch;
        end_published = st.published;
        accepted = driver.Driver.accepted;
        shed = driver.Driver.shed;
        monotone_violations;
        reader_regressions = !reader_regressions;
        conservation_failures;
        epoch_regressions = epoch_regress;
        decode_failures = st.decode_failures;
        unexpected_failures;
        oracle_lower_violations = !lower_v;
        oracle_upper_failures = !upper_f;
        oracle_upper_allowance = allowance;
        checked_keys = !checked;
        driver;
        merge_lag = st.merge_lag;
        envelope_samples = Array.of_list !env_samples;
      }
    in
    prev_end_epoch := st.epoch;
    prev_end_pub := st.published;
    reports := report :: !reports;
    progress
      (Printf.sprintf
         "round %d: %d accepted, %d shed, %d kills, %d restarts, epoch %d, published \
          %d, lost %d"
         r driver.Driver.accepted driver.Driver.shed report.kills restarts st.epoch
         st.published (max 0 lost));
    (* ---- simulate a crash mid-append before the next incarnation ---- *)
    if c.tear_tail && r < c.rounds - 1 then
      match last_segment c.dir with
      | Some (path, size) when size > 8 ->
          let cut = 1 + Rng.Splitmix.next_int tear_rng (min (size - 1) 512) in
          Unix.truncate path (size - cut);
          progress (Printf.sprintf "round %d: tore %d bytes off %s" r cut path)
      | _ -> ()
  in
  let abort_reason = ref None in
  (try
     for r = 0 to c.rounds - 1 do
       run_round r
     done
   with Abort m -> abort_reason := Some m);
  let rounds = List.rev !reports in
  let otot = oracle_totals () in
  let accepted_total = Array.fold_left ( + ) 0 otot in
  let final_published = !prev_end_pub in
  let reasons = ref (match !abort_reason with Some m -> [ m ] | None -> []) in
  let add fmt = Printf.ksprintf (fun m -> reasons := m :: !reasons) fmt in
  List.iter
    (fun (r : round_report) ->
      if r.monotone_violations > 0 then
        add "round %d: %d IVL monotone violations" r.round r.monotone_violations;
      if r.reader_regressions > 0 then
        add "round %d: published total went backwards %d times" r.round
          r.reader_regressions;
      if r.conservation_failures > 0 then
        add "round %d: weight conservation broken" r.round;
      if r.epoch_regressions > 0 then
        add "round %d: recovery regressed the published epoch" r.round;
      if r.decode_failures > 0 then
        add "round %d: %d blob decode failures" r.round r.decode_failures;
      if r.unexpected_failures > 0 then
        add "round %d: %d unexpected engine failures" r.round r.unexpected_failures;
      if r.oracle_lower_violations > 0 then
        add "round %d: %d estimates below the oracle lower bound" r.round
          r.oracle_lower_violations;
      if r.oracle_upper_failures > r.oracle_upper_allowance then
        add "round %d: %d upper-bound failures exceed the δ allowance %d" r.round
          r.oracle_upper_failures r.oracle_upper_allowance)
    rounds;
  if List.length rounds < c.rounds then
    add "only %d of %d rounds completed" (List.length rounds) c.rounds;
  {
    pass = !reasons = [];
    reasons = List.rev !reasons;
    rounds;
    recoveries = max 0 (List.length rounds - 1);
    epsilon;
    delta;
    accepted_total;
    final_published;
    lost_weight = max 0 (accepted_total - final_published);
    wall = Unix.gettimeofday () -. t_start;
  }

let pctl samples p =
  if Array.length samples = 0 then 0.0 else Stats.Percentile.percentile samples p

let verdict_to_string v =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "round  rec-epoch  rec-pub  kills  restarts  end-epoch    end-pub   accepted  \
     shed  mono  regress  low  high/allow\n";
  List.iter
    (fun (r : round_report) ->
      Buffer.add_string b
        (Printf.sprintf
           "%5d %10d %8d %6d %9d %10d %10d %10d %5d %5d %8d %4d %6d/%-5d\n" r.round
           r.recovered_epoch r.recovered_published r.kills r.restarts r.end_epoch
           r.end_published r.accepted r.shed r.monotone_violations r.epoch_regressions
           r.oracle_lower_violations r.oracle_upper_failures r.oracle_upper_allowance))
    v.rounds;
  let lag = Array.concat (List.map (fun r -> r.merge_lag) v.rounds) in
  let env = Array.concat (List.map (fun r -> r.envelope_samples) v.rounds) in
  Buffer.add_string b
    (Printf.sprintf
       "freshness: merge lag p50/p99 = %.2f/%.2f ms, envelope width p50/p99 = %.0f/%.0f \
        items\n"
       (1e3 *. pctl lag 50.0) (1e3 *. pctl lag 99.0) (pctl env 50.0) (pctl env 99.0));
  Buffer.add_string b
    (Printf.sprintf
       "(ε,δ) = (%.4f, %.4f); accepted %d, published %d, lost %d (%.3f%%); %d \
        recoveries; %.1fs\n"
       v.epsilon v.delta v.accepted_total v.final_published v.lost_weight
       (if v.accepted_total > 0 then
          100.0 *. float_of_int v.lost_weight /. float_of_int v.accepted_total
        else 0.0)
       v.recoveries v.wall);
  List.iter (fun m -> Buffer.add_string b (Printf.sprintf "FAIL: %s\n" m)) v.reasons;
  Buffer.add_string b (Printf.sprintf "soak: %s\n" (if v.pass then "PASS" else "FAIL"));
  Buffer.contents b
