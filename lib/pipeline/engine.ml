let default_queue_capacity = 1024

(* The longest a shard holds unshipped weight before its worker ships a
   partial delta (docs/PERFORMANCE.md §12 chose it). *)
let max_age = 0.002

(* [stats]'s merge lags stop growing at [max_lags] entries (8 MB). An
   engine reads the cap once, at create; only [with_lag_cap] changes it. *)
let max_lags = 1 lsl 20
let lag_cap = ref max_lags

let with_lag_cap cap f =
  let old = !lag_cap in
  lag_cap := cap;
  Fun.protect ~finally:(fun () -> lag_cap := old) f

(* The engine's clock ticks every [poll_interval] seconds. The supervisor's
   policy for a dead shard worker: at most [max_restarts] restarts per
   shard, beyond which the shard is permanently shed; backoff doubling from
   [backoff_base] up to [backoff_cap] seconds, jittered from
   [jitter_seed]. *)
let max_restarts = 5
let backoff_base = 0.002
let backoff_cap = 0.05
let poll_interval = 0.0005
let jitter_seed = 0xD1EDL

(* The clock's ageing of one shard, one tick at a time (engine.mli states
   the rule). A quiet shard has nothing more coming to fill its delta, so
   waiting for [max_age] would buy nothing; what a flush left behind is
   timed afresh; [kicked] keeps one kick per held weight, so a shard whose
   worker died with its delta is not kicked on every tick. *)
type age = {
  since : float; (* when the held weight was first timed; infinity: none *)
  flushes : int; (* the shard's [flushes] when [since] was set *)
  enqueued : int; (* the shard's [enqueued] at the previous tick *)
  kicked : bool; (* due once already for this held weight *)
}

let age_idle =
  { since = Float.infinity; flushes = 0; enqueued = 0; kicked = false }

let age_step a ~enqueued ~flushed_items ~flushes ~now =
  let quiet = enqueued = a.enqueued in
  if enqueued - flushed_items <= 0 then ({ age_idle with enqueued }, false)
  else
    let a =
      if
        a.since = Float.infinity
        || flushes <> a.flushes
        || (a.kicked && not quiet)
      then { since = now; flushes; enqueued; kicked = false }
      else { a with enqueued }
    in
    if (not a.kicked) && (quiet || now -. a.since >= max_age) then
      ({ a with kicked = true }, true)
    else (a, false)

module Make (M : Mergeable.S) = struct
  type delta = {
    shard : int;
    weight : int; (* stream items summarized in the blob *)
    born : float; (* encode time, for merge-lag percentiles *)
    ctx : Obs.Span.context; (* trace context, Span.zero for untraced deltas *)
    blob : Bytes.t;
  }

  type shard = {
    q : int Mpsc.t;
    enqueued : int Atomic.t;
    dropped : int Atomic.t;
    consumed : int Atomic.t;
    flushed_items : int Atomic.t;
    flushes : int Atomic.t;
    max_depth : int Atomic.t;
    alive : bool Atomic.t;
    failed : exn option Atomic.t;
    restarts : int Atomic.t;
    shed : bool Atomic.t; (* permanently degraded: restart cap exceeded *)
    last_error : string option Atomic.t;
    parks : int Atomic.t; (* idle waits: own queue empty *)
    (* Set by the clock when the shard has held unshipped weight for
       [max_age]: the worker ships what it has, however little. *)
    due : bool Atomic.t;
    (* One-slot mailbox for a sampled batch's trace context: [trace_mark]
       stores (ctx, mark time) when a traced key lands in this shard's
       queue, and the worker's next flush claims it — the span covers
       queue residency plus fold. One slot suffices at 1/sample_every
       tracing; a second mark before the next flush just replaces the first
       (lossy, like the span ring). *)
    pending : (Obs.Span.context * int) option Atomic.t;
  }

  type shard_stats = {
    enqueued : int;
    dropped : int;
    consumed : int;
    flushed_items : int;
    flushes : int;
    max_depth : int;
    alive : bool;
    restarts : int;
    shed : bool;
    last_error : string option;
    steals : int;
    parks : int;
  }

  type stats = {
    shards : shard_stats array;
    merges : int;
    decode_failures : int;
    published : int;
    epoch : int;
    merge_lag : float array; (* seconds, one sample per merge *)
  }

  type t = {
    shards : shard array;
    mq : delta Mpsc.t;
    batch : int;
    on_tick : (shard:int -> unit) option;
    on_merge :
      (ctx:Obs.Span.context -> epoch:int -> weight:int -> blob:Bytes.t -> unit)
      option;
    gm : Mutex.t; (* guards global/epoch/published/lags *)
    mutable global : M.t;
    mutable epoch : int;
    mutable published : int;
    base : int; (* recovered published weight ([initial]), else 0 *)
    (* The first [lag_cap] merge lags in seconds, oldest first, in
       [lags.(0 .. n_lags - 1)]: a flat float array that doubles when full,
       so a merge stores its lag unboxed and {!stats} copies them with one
       [Array.sub] while holding [gm]. [last_lag] is the newest merge's lag,
       nan before the first. *)
    lag_cap : int;
    mutable lags : float array;
    mutable n_lags : int;
    mutable last_lag : float;
    merges : int Atomic.t;
    decode_failures : int Atomic.t;
    merger_failed : exn option Atomic.t;
    lag_timer : Obs.Timer.t option; (* merge-lag quantiles, observed per merge *)
    tracer : Obs.Tracer.t option; (* span sink for queue/merge stages *)
    rec_ : (int, int, int) Conc.Recorder.t option; (* [~history:true] *)
    supervised : bool;
    mutable workers : unit Domain.t array;
    mutable merger : unit Domain.t option;
    mutable clock : unit Domain.t option;
    stopping : bool Atomic.t; (* tells the clock a drain has begun *)
    dm : Mutex.t; (* serializes drain: concurrent callers both return *)
    mutable drained : bool;
  }

  let shard_count t = Array.length t.shards

  (* SplitMix64-style finalizer (truncated to native int) so adjacent
     elements spread across shards. *)
  let shard_of t x =
    let h = x * 0x1E3779B97F4A7C15 in
    let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
    (h lxor (h lsr 27)) land max_int mod shard_count t

  let worker t i =
    Obs.Thread_name.set (Printf.sprintf "shard-%d" i);
    let s = t.shards.(i) in
    (* Worker-private pop buffer, so the steady-state consume path
       allocates nothing (the queue only boxes on the push side). *)
    let buf = Array.make t.batch 0 in
    (* The worker's one delta: [M.ship] hands back an empty one to go on
       with — this one, emptied in place, where the sketch can do that. *)
    let local = ref (M.create ()) in
    let count = ref 0 in
    let absorb n =
      for j = 0 to n - 1 do
        M.update !local (Array.unsafe_get buf j)
      done;
      count := !count + n;
      ignore (Atomic.fetch_and_add s.consumed n)
    in
    let flush () =
      Atomic.set s.due false;
      if !count > 0 then begin
        (* Claim any traced batch that landed here since the last flush and
           close its queue-residency span. *)
        let ctx =
          match Atomic.exchange s.pending None with
          | None -> Obs.Span.zero
          | Some (ctx, mark_ns) -> (
              match t.tracer with
              | None -> ctx
              | Some tr ->
                  let sid =
                    Obs.Tracer.record tr ~ctx ~stage:"queue" ~start_ns:mark_ns
                      ~end_ns:(Obs.Tracer.now_ns ())
                  in
                  Obs.Span.with_parent ctx sid)
        in
        let blob, empty = M.ship !local in
        local := empty;
        let d =
          { shard = i; weight = !count;
            born = Unix.gettimeofday (); ctx; blob }
        in
        if Mpsc.push t.mq d then begin
          ignore (Atomic.fetch_and_add s.flushed_items !count);
          ignore (Atomic.fetch_and_add s.flushes 1)
        end;
        count := 0
      end
    in
    let rec loop () =
      (match t.on_tick with Some f -> f ~shard:i | None -> ());
      (* Count the would-block, then block on our own queue until enough
         keys arrive to be worth a wake-up, the clock kicks it, or it
         closes. Enough is what completes the delta, capped at a quarter
         batch (rounded up) so the last keys of a delta never wait behind a
         whole batch's worth of updates: at most four parks per shipped
         delta. A delta ships when full or when the clock marks it [due],
         and the clock's kick ends the park, so keys waiting here instead
         of in [local] are no less visible. *)
      let n =
        match Mpsc.try_pop_into s.q buf ~max:t.batch with
        | 0 ->
            ignore (Atomic.fetch_and_add s.parks 1);
            Mpsc.pop_into s.q buf ~max:t.batch
              ~min:(min (t.batch - !count) ((t.batch + 3) / 4))
        | n -> n
      in
      if n >= 0 then begin
        absorb n;
        if !count >= t.batch || Atomic.get s.due then flush ();
        loop ()
      end
      else flush () (* closed and drained: final flush, then exit *)
    in
    (* On any death: close the queue FIRST, then clear [alive]. The watchdog
       triggers on [alive = false], so this order guarantees its reopen
       happens after our close — never the other way around, which would
       leave a freshly restarted worker blocked on a closed queue. Closing
       also turns ingest into fail-fast drops while the shard is down. *)
    try loop () with
    | Conc.Chaos.Killed _ as e ->
        (* Crash-stop: the delta under accumulation is lost (consumed >
           flushed records how much). *)
        Atomic.set s.last_error (Some (Printexc.to_string e));
        Mpsc.close s.q;
        Atomic.set s.alive false
    | e ->
        Atomic.set s.failed (Some e);
        Atomic.set s.last_error (Some (Printexc.to_string e));
        Mpsc.close s.q;
        Atomic.set s.alive false

  (* The merger is the pipeline's only writer of the global sketch:
     validate the blob outside the mutex, fold it into the global in place
     under it, stamp a new epoch. The recorded update op brackets exactly
     the merge critical section, so the history seen by the envelope
     checker is the pipeline's published state. The
     durability hooks run after the critical section, still in the merger's
     domain: epochs reach the WAL strictly in order without holding the
     mutex across disk writes (write-behind — a crash between merge and
     append loses that record, which recovery's envelope absorbs). *)
  let merger t =
    Obs.Thread_name.set "merger";
    let dom = shard_count t in
    let rec loop () =
      match Mpsc.pop t.mq with
      | None -> ()
      | Some d ->
          (match M.fold d.blob with
          | Error _ -> ignore (Atomic.fetch_and_add t.decode_failures 1)
          | Ok apply ->
              let stamped = ref 0 in
              let lag = ref 0.0 in
              let merge () =
                Mutex.protect t.gm (fun () ->
                    t.global <- apply t.global;
                    t.epoch <- t.epoch + 1;
                    t.published <- t.published + d.weight;
                    lag := Unix.gettimeofday () -. d.born;
                    t.last_lag <- !lag;
                    if t.n_lags < t.lag_cap then begin
                      if t.n_lags = Array.length t.lags then begin
                        let a = Array.make (2 * t.n_lags) 0.0 in
                        Array.blit t.lags 0 a 0 t.n_lags;
                        t.lags <- a
                      end;
                      t.lags.(t.n_lags) <- !lag;
                      t.n_lags <- t.n_lags + 1
                    end;
                    stamped := t.epoch)
              in
              (match t.rec_ with
              | Some r ->
                  Conc.Recorder.record_update r ~domain:dom ~obj:0 d.weight merge
              | None -> merge ());
              ignore (Atomic.fetch_and_add t.merges 1);
              (match t.lag_timer with
              | Some tm -> Obs.Timer.observe tm !lag
              | None -> ());
              (* The merge span starts at the delta's encode time, so it
                 covers merger-queue residency plus the fold itself —
                 the same window [lag_timer] measures. *)
              let ctx_out =
                match t.tracer with
                | Some tr when not (Obs.Span.is_zero d.ctx) ->
                    let sid =
                      Obs.Tracer.record tr ~ctx:d.ctx ~stage:"merge"
                        ~start_ns:(int_of_float (d.born *. 1e9))
                        ~end_ns:(Obs.Tracer.now_ns ())
                    in
                    Obs.Span.with_parent d.ctx sid
                | _ -> d.ctx
              in
              match t.on_merge with
              | Some f ->
                  f ~ctx:ctx_out ~epoch:!stamped ~weight:d.weight ~blob:d.blob
              | None -> ());
          loop ()
    in
    try loop () with e -> Atomic.set t.merger_failed (Some e)

  (* The clock: one domain per engine, ticking every [poll_interval]
     until a drain begins. Each tick ages every shard's unshipped weight
     ({!age_step}), marking a shard [due] and kicking its queue to end the
     worker's park, and, when [supervised], restarts dead workers.

     Supervision: detect dead workers (their heartbeat loop has exited and
     cleared [alive]) and restart them with capped exponential backoff plus
     jitter. A shard that keeps dying runs out of restart budget and is
     permanently shed — its queue stays closed, ingest fail-fast drops — with
     the reason kept in [last_error]. *)
  let clock t =
    Obs.Thread_name.set "clock";
    let g = Rng.Splitmix.create jitter_seed in
    let n = shard_count t in
    let restart_at = Array.make n None in
    let ages = Array.make n age_idle in
    let age i now =
      let s = t.shards.(i) in
      let enqueued = Atomic.get s.enqueued in
      let flushes = Atomic.get s.flushes in
      let flushed_items = Atomic.get s.flushed_items in
      let a, due = age_step ages.(i) ~enqueued ~flushed_items ~flushes ~now in
      ages.(i) <- a;
      if due then begin
        Atomic.set s.due true;
        Mpsc.kick s.q
      end
    in
    while not (Atomic.get t.stopping) do
      Unix.sleepf poll_interval;
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        age i now;
        let s = t.shards.(i) in
        if
          t.supervised
          && (not (Atomic.get s.alive))
          && (not (Atomic.get s.shed))
          && not (Atomic.get t.stopping)
        then begin
          match restart_at.(i) with
          | None ->
              let r = Atomic.get s.restarts in
              if r >= max_restarts then begin
                Atomic.set s.last_error
                  (Some
                     (Printf.sprintf
                        "shed: restart cap %d exceeded (last error: %s)"
                        max_restarts
                        (Option.value ~default:"unknown"
                           (Atomic.get s.last_error))));
                Atomic.set s.shed true
              end
              else begin
                let backoff =
                  Float.min backoff_cap
                    (backoff_base *. (2.0 ** float_of_int r))
                in
                (* jitter in [0.5, 1.5) de-synchronizes mass restarts *)
                let jitter = 0.5 +. Rng.Splitmix.next_float g in
                restart_at.(i) <-
                  Some (Unix.gettimeofday () +. (backoff *. jitter))
              end
          | Some at when Unix.gettimeofday () >= at ->
              restart_at.(i) <- None;
              (* The old incarnation has exited; reap it before respawning. *)
              Domain.join t.workers.(i);
              ignore (Atomic.fetch_and_add s.restarts 1);
              Mpsc.reopen s.q;
              Atomic.set s.alive true;
              t.workers.(i) <- Domain.spawn (fun () -> worker t i)
          | Some _ -> ()
        end
      done
    done

  let published t =
    Mutex.lock t.gm;
    let p = t.published in
    Mutex.unlock t.gm;
    p

  (* The live IVL freshness gap: accepted weight not yet published. The
     recovered base counts as accepted, since [published] starts at it.
     [published] is read under the merge mutex BEFORE summing per-shard
     [enqueued]: enqueued only grows, so the gap computed in that order
     never understates how far a concurrent [read_total] can trail the true
     total (docs/OBSERVABILITY.md proves this is the live v_max - v_min
     freshness bound once ingest quiesces). [dropped] plays no part: it
     also counts pushes that were never enqueued. *)
  let accepted t =
    Array.fold_left (fun acc (s : shard) -> acc + Atomic.get s.enqueued) t.base
      t.shards

  let envelope_width t =
    let p = published t in
    max 0 (accepted t - p)

  (* Exporting the pipeline is pure registration: every series below is a
     scrape-time callback over counters the engine already maintains, so
     instrumentation costs the hot paths nothing. *)
  let register_metrics t reg =
    let sum f =
      Array.fold_left (fun acc s -> acc + Atomic.get (f s)) 0 t.shards
    in
    let counter name help f = Obs.Registry.counter_fn reg ~help name f in
    let gauge name help f = Obs.Registry.gauge_fn reg ~help name f in
    counter "pipeline_ingested_total" "Elements accepted into shard queues"
      (fun () -> sum (fun (s : shard) -> s.enqueued));
    counter "pipeline_dropped_total"
      "Elements shed: dead-worker queue, try_ingest full, or drain leftovers"
      (fun () -> sum (fun (s : shard) -> s.dropped));
    counter "pipeline_consumed_total" "Elements folded into shard-local deltas"
      (fun () -> sum (fun (s : shard) -> s.consumed));
    counter "pipeline_flushed_items_total" "Elements shipped to the merger"
      (fun () -> sum (fun (s : shard) -> s.flushed_items));
    counter "pipeline_restarts_total" "Supervisor restarts across all shards"
      (fun () -> sum (fun (s : shard) -> s.restarts));
    counter "pipeline_merges_total" "Deltas folded into the global sketch"
      (fun () -> Atomic.get t.merges);
    counter "pipeline_decode_failures_total"
      "Blobs the merger could not decode" (fun () ->
        Atomic.get t.decode_failures);
    counter "pipeline_published_total"
      "Total weight merged into the published sketch" (fun () ->
        published t);
    gauge "pipeline_epoch" "Merge counter stamping every query snapshot"
      (fun () ->
        Mutex.lock t.gm;
        let e = t.epoch in
        Mutex.unlock t.gm;
        float_of_int e);
    gauge "pipeline_shed_shards" "Shards permanently degraded to shedding"
      (fun () ->
        float_of_int
          (Array.fold_left
             (fun acc (s : shard) -> if Atomic.get s.shed then acc + 1 else acc)
             0 t.shards));
    gauge "pipeline_envelope_width"
      "Live IVL freshness gap: accepted weight not yet published" (fun () ->
        float_of_int (envelope_width t));
    Array.iteri
      (fun i (s : shard) ->
        let labels = [ ("shard", string_of_int i) ] in
        let scounter name help f =
          Obs.Registry.counter_fn reg ~labels ~help name (fun () ->
              Atomic.get (f s))
        in
        Obs.Registry.gauge_fn reg ~labels
          ~help:"Current shard queue occupancy (relaxed read)"
          "pipeline_queue_depth" (fun () ->
            float_of_int (Mpsc.length_relaxed s.q));
        Obs.Registry.counter_fn reg ~labels
          ~help:"High-water queue depth observed at ingest"
          "pipeline_queue_max_depth" (fun () -> Atomic.get s.max_depth);
        Obs.Registry.gauge_fn reg ~labels ~help:"1 if the shard worker is up"
          "pipeline_shard_alive" (fun () ->
            if Atomic.get s.alive then 1.0 else 0.0);
        Obs.Registry.gauge_fn reg ~labels
          ~help:"1 if the shard is permanently shed" "pipeline_shard_shed"
          (fun () -> if Atomic.get s.shed then 1.0 else 0.0);
        scounter "pipeline_shard_enqueued_total"
          "Elements accepted into this shard's queue" (fun s -> s.enqueued);
        scounter "pipeline_shard_dropped_total" "Elements this shard shed"
          (fun s -> s.dropped);
        scounter "pipeline_shard_consumed_total"
          "Elements this shard folded into deltas" (fun s -> s.consumed);
        scounter "pipeline_shard_flushed_items_total"
          "Elements this shard shipped to the merger" (fun s ->
            s.flushed_items);
        scounter "pipeline_shard_flushes_total" "Blobs this shard shipped"
          (fun s -> s.flushes);
        scounter "pipeline_shard_restarts_total"
          "Supervisor restarts of this shard's worker" (fun s -> s.restarts);
        scounter "pipeline_shard_parks_total"
          "Idle waits: the worker's queue was empty" (fun s -> s.parks))
      t.shards

  let create ?(queue_capacity = default_queue_capacity) ?(batch = 512) ?on_tick
      ?on_merge ?(supervised = false) ?(history = false) ?metrics ?tracer
      ?initial ~shards () =
    if shards <= 0 then invalid_arg "Engine.create: shards must be positive";
    if queue_capacity <= 0 then
      invalid_arg "Engine.create: queue_capacity must be positive";
    (match initial with
    | Some (_, epoch0, published0) when epoch0 < 0 || published0 < 0 ->
        invalid_arg "Engine.create: initial epoch/published must be non-negative"
    | _ -> ());
    if batch <= 0 then invalid_arg "Engine.create: batch must be positive";
    let mk_shard _ =
      {
        q = Mpsc.create ~capacity:queue_capacity;
        enqueued = Atomic.make 0;
        dropped = Atomic.make 0;
        consumed = Atomic.make 0;
        flushed_items = Atomic.make 0;
        flushes = Atomic.make 0;
        max_depth = Atomic.make 0;
        alive = Atomic.make true;
        failed = Atomic.make None;
        restarts = Atomic.make 0;
        shed = Atomic.make false;
        last_error = Atomic.make None;
        parks = Atomic.make 0;
        due = Atomic.make false;
        pending = Atomic.make None;
      }
    in
    let t =
      {
        shards = Array.init shards mk_shard;
        mq = Mpsc.create ~capacity:(max 4 (2 * shards));
        batch;
        on_tick;
        on_merge;
        gm = Mutex.create ();
        global = M.create ();
        epoch = 0;
        published = 0;
        base = (match initial with Some (_, _, p) -> p | None -> 0);
        lag_cap = !lag_cap;
        lags = Array.make 1024 0.0;
        n_lags = 0;
        last_lag = Float.nan;
        merges = Atomic.make 0;
        decode_failures = Atomic.make 0;
        merger_failed = Atomic.make None;
        lag_timer =
          Option.map
            (fun reg ->
              Obs.Registry.timer reg
                ~help:"Seconds from delta encode to merge into the global"
                "pipeline_merge_lag_seconds")
            metrics;
        tracer;
        rec_ =
          (if history then Some (Conc.Recorder.create ~domains:(shards + 2))
           else None);
        supervised;
        workers = [||];
        merger = None;
        clock = None;
        stopping = Atomic.make false;
        dm = Mutex.create ();
        drained = false;
      }
    in
    (* Seeding recovered state must happen before any domain spawns: the
       creating thread briefly borrows the merger's recorder slot (domain
       [shards]) to log the carried-over weight as one synchronous update op,
       so [Ivl.Monotone] sees the recovered base instead of flagging the
       first post-restart query as out of thin air. Single-threaded here, so
       the borrow cannot race the real merger. *)
    (match initial with
    | None -> ()
    | Some (g0, epoch0, published0) -> (
        t.global <- g0;
        t.epoch <- epoch0;
        t.published <- published0;
        match t.rec_ with
        | Some r when published0 > 0 ->
            Conc.Recorder.record_update r ~domain:shards ~obj:0 published0
              (fun () -> ())
        | _ -> ()));
    (match metrics with Some reg -> register_metrics t reg | None -> ());
    t.workers <- Array.init shards (fun i -> Domain.spawn (fun () -> worker t i));
    t.merger <- Some (Domain.spawn (fun () -> merger t));
    t.clock <- Some (Domain.spawn (fun () -> clock t));
    t

  (* Relaxed depth read: the high-water mark is a heuristic, and taking the
     queue mutex here once per ingest serialized feeders against the
     consumer (the stats-path race this replaces). *)
  let note_depth s =
    let depth = Mpsc.length_relaxed s.q in
    if depth > Atomic.get s.max_depth then Atomic.set s.max_depth depth

  (* Every ingest path settles a shard's counters here: [pushed] of the [n]
     keys it offered [s] got into the queue, the rest were shed. *)
  let account (s : shard) ~n ~pushed =
    if pushed > 0 then ignore (Atomic.fetch_and_add s.enqueued pushed);
    if pushed < n then ignore (Atomic.fetch_and_add s.dropped (n - pushed))

  let ingest t x =
    let s = t.shards.(shard_of t x) in
    note_depth s;
    let ok = Mpsc.push s.q x in
    account s ~n:1 ~pushed:(Bool.to_int ok);
    ok

  (* The counting sort's arrays, one set per domain and reused: every
     server connection runs in its own domain, so a 256-key frame routes
     without allocating. They grow to the largest batch and shard count
     seen. No systhread calls [ingest_batch], so one domain never runs two
     at once. *)
  type scratch = {
    mutable shard : int array;
    mutable sorted : int array;
    mutable start : int array;
    mutable next : int array;
  }

  let scratch_key =
    Domain.DLS.new_key (fun () ->
        { shard = [||]; sorted = [||]; start = [||]; next = [||] })

  (* A stable counting sort by shard turns the batch into one slice per
     shard, each pushed with one [Mpsc.push_slice]: a 256-key frame costs a
     few lock holds and wake-ups per shard instead of one per key. *)
  let ingest_batch t keys ~len:n =
    if n < 0 || n > Array.length keys then
      invalid_arg "Engine.ingest_batch: len out of bounds";
    let ns = shard_count t in
    let sc = Domain.DLS.get scratch_key in
    if Array.length sc.shard < n then begin
      sc.shard <- Array.make n 0;
      sc.sorted <- Array.make n 0
    end;
    if Array.length sc.start < ns + 1 then begin
      sc.start <- Array.make (ns + 1) 0;
      sc.next <- Array.make ns 0
    end;
    let shard = sc.shard and sorted = sc.sorted in
    let start = sc.start and next = sc.next in
    Array.fill start 0 (ns + 1) 0;
    for i = 0 to n - 1 do
      let j = shard_of t (Array.unsafe_get keys i) in
      shard.(i) <- j;
      start.(j + 1) <- start.(j + 1) + 1
    done;
    for j = 1 to ns do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    Array.blit start 0 next 0 ns;
    for i = 0 to n - 1 do
      let j = shard.(i) in
      sorted.(next.(j)) <- keys.(i);
      next.(j) <- next.(j) + 1
    done;
    let accepted = ref 0 in
    for j = 0 to ns - 1 do
      let len = start.(j + 1) - start.(j) in
      if len > 0 then begin
        let s = t.shards.(j) in
        note_depth s;
        let pushed = Mpsc.push_slice s.q sorted ~off:start.(j) ~len in
        account s ~n:len ~pushed;
        accepted := !accepted + pushed
      end
    done;
    !accepted

  (* Mark one key's shard as carrying a sampled trace context: the worker's
     next flush claims the mark and records the queue-residency span. Call
     alongside the ingest of a traced batch's first key (the server does);
     a zero context is a no-op so untraced ingest pays one branch. *)
  let trace_mark t ~key ~ctx =
    if not (Obs.Span.is_zero ctx) then
      Atomic.set
        t.shards.(shard_of t key).pending
        (Some (ctx, Obs.Tracer.now_ns ()))

  let try_ingest t x =
    let s = t.shards.(shard_of t x) in
    note_depth s;
    let ok = Mpsc.try_push s.q x = `Ok in
    account s ~n:1 ~pushed:(Bool.to_int ok);
    ok

  let drain t =
    (* The mutex makes drain safe for any number of concurrent callers: one
       performs the shutdown, the rest block until it completes, and every
       caller returns with the pipeline fully drained. The clock is
       stopped first so no restart races the queue-closing sweep. *)
    Mutex.lock t.dm;
    if not t.drained then begin
      Atomic.set t.stopping true;
      (match t.clock with Some d -> Domain.join d | None -> ());
      t.clock <- None;
      Array.iter (fun (s : shard) -> Mpsc.close s.q) t.shards;
      Array.iter Domain.join t.workers;
      (* Whatever a dead worker left queued was never summarized: drops. *)
      Array.iter
        (fun (s : shard) ->
          let left = Mpsc.drain_remaining s.q in
          if left > 0 then ignore (Atomic.fetch_and_add s.dropped left))
        t.shards;
      Mpsc.close t.mq;
      (match t.merger with Some d -> Domain.join d | None -> ());
      t.merger <- None;
      t.drained <- true
    end;
    Mutex.unlock t.dm

  let query t f =
    Mutex.lock t.gm;
    let v = f t.global and e = t.epoch in
    Mutex.unlock t.gm;
    (v, e)

  let snapshot t =
    Mutex.lock t.gm;
    let blob = M.encode t.global and e = t.epoch and p = t.published in
    Mutex.unlock t.gm;
    (blob, e, p)

  let read_total t =
    match t.rec_ with
    | Some r ->
        Conc.Recorder.record_query r ~domain:(shard_count t + 1) ~obj:0 0
          (fun () -> published t)
    | None -> published t

  let published_at t =
    Mutex.lock t.gm;
    let p = t.published and e = t.epoch in
    Mutex.unlock t.gm;
    (p, e)

  let last_merge_lag t =
    Mutex.protect t.gm (fun () ->
        if Float.is_nan t.last_lag then None else Some t.last_lag)

  let stats t =
    Mutex.lock t.gm;
    let epoch = t.epoch and published = t.published in
    let merge_lag = Array.sub t.lags 0 t.n_lags in
    Mutex.unlock t.gm;
    {
      shards =
        Array.map
          (fun (s : shard) ->
            {
              enqueued = Atomic.get s.enqueued;
              dropped = Atomic.get s.dropped;
              consumed = Atomic.get s.consumed;
              flushed_items = Atomic.get s.flushed_items;
              flushes = Atomic.get s.flushes;
              max_depth = Atomic.get s.max_depth;
              alive = Atomic.get s.alive;
              restarts = Atomic.get s.restarts;
              shed = Atomic.get s.shed;
              last_error = Atomic.get s.last_error;
              steals = 0;
              parks = Atomic.get s.parks;
            })
          t.shards;
      merges = Atomic.get t.merges;
      decode_failures = Atomic.get t.decode_failures;
      published;
      epoch;
      merge_lag;
    }

  let dead t =
    Array.to_list t.shards
    |> List.mapi (fun i (s : shard) -> (i, Atomic.get s.alive))
    |> List.filter_map (fun (i, alive) -> if alive then None else Some i)

  let failures t =
    let worker_fails =
      Array.to_list t.shards
      |> List.mapi (fun i (s : shard) ->
             match Atomic.get s.failed with
             | Some e -> Some (Printf.sprintf "shard %d" i, e)
             | None -> None)
      |> List.filter_map Fun.id
    in
    match Atomic.get t.merger_failed with
    | Some e -> ("merger", e) :: worker_fails
    | None -> worker_fails

  let history t =
    match t.rec_ with
    | Some r -> Conc.Recorder.history r
    | None -> Hist.History.of_events []
end
