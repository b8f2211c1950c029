(* The chaos soak runner: one trace, one chain of engine incarnations over
   one durable directory, one fault schedule, one sampler.

     Driver (background domain) -> sink -> incarnation i
       Engine: feeders ingest in process; chaos kills shard workers
       Served: Client -> Chaos_proxy -> Server, Replica subscribed
     orchestrator, at even fractions of the update volume:
       stop i (drain + checks) [-> tear the WAL tail | -> stay down]
       -> recover_compact -> Engine.create ~initial -> i+1

   Conservation is one check for both sinks, made per incarnation at
   drain — Jagadeesan & Riely's in-flight bound read at quiescence:
   published - base = flushed (the merger folds exactly what workers
   shipped), lost = accepted - (published - base) >= 0 (weight is never
   invented), and flushed = enqueued on every shard that never died.
   Only a worker death may lose weight (its unflushed delta, its queued
   backlog), so an incarnation with no kill and no restart requires
   lost = 0. The served sink has no kills and drains
   through every restart, so it always requires lost = 0, and each
   recovery to resume exactly at the previous final.

   Oracle soundness with loss (engine sink): every accepted update either
   reaches the published sketch or is lost. Per-key loss cannot exceed
   total loss [accepted - published], hence the unconditional lower bound
   est(x) + lost >= true(x). *)

type 'sk bound = {
  estimate : 'sk -> int -> int;
  slack : 'sk -> float;
  epsilon : float;
  delta : float;
}

module type SKETCH = sig
  module M : Pipeline.Mergeable.S

  val eval : M.t -> Frame.query -> (int * int) list option
  val bound : M.t bound option
end

type engine = { kills : int; tear_tail : bool }

type served = {
  conns : int;
  partitions : int;
  outage : float;
  faults : Chaos_proxy.faults;
}

type sink = Engine of engine | Served of served

type config = {
  dir : string;
  shards : int;
  feeders : int;
  restarts : int;
  seed : int64;
  sink : sink;
}

(* Settings every soak runs with. [batch] is the engine's merge cadence.
   A worker ticks once per popped batch, not per item, so an incarnation
   sees only a few dozen ticks: a kill lands within [kill_window] ticks,
   or it would never land. The engine sink checkpoints every
   [checkpoint_every] epochs and fsyncs its WAL every [fsync_every]
   appends; the served sink's client sends [client_batch]-key frames and
   tries each batch [retries] times, enough to outlive an outage. *)
let batch = 256
let kill_window = 16
let checkpoint_every = 8
let fsync_every = 16
let client_batch = 128
let retries = 64
let default_engine = { kills = 2; tear_tail = true }

let default_served =
  {
    conns = 2;
    partitions = 1;
    outage = 0.3;
    faults =
      {
        Chaos_proxy.latency = (0.0, 0.002);
        corrupt_prob = 0.005;
        reset_prob = 0.005;
        drop_conn_prob = 0.02;
      };
  }

let default_config ~dir sink =
  {
    dir;
    shards = 4;
    feeders = 2;
    restarts = 2;
    seed = 0xC4405L;
    sink;
  }

type oracle = { lower : int; upper : int; allowance : int; checked : int }

type incarnation = {
  index : int;
  recovered_epoch : int;
  recovered_published : int;
  wal_bytes_truncated : int;
  recovery_regressions : int;
  kills : int;
  worker_restarts : int;
  end_epoch : int;
  end_published : int;
  accepted : int;
  lost : int;
  conservation_failures : int;
  monotone_violations : int;
  reader_regressions : int;
  decode_failures : int;
  unexpected_failures : int;
  oracle : oracle option;
  merge_lag : float array;
}

type check = { name : string; ok : bool; detail : string }

(* ---- the served checks: one decision per claim, one format ---- *)

(* [reasons] holds a [Some why] per violated condition; the detail keeps
   what was measured and appends every reason. *)
let judge name detail reasons =
  match List.filter_map Fun.id reasons with
  | [] -> { name; ok = true; detail }
  | why -> { name; ok = false; detail = detail ^ ": " ^ String.concat "; " why }

let fail_if cond fmt = Printf.ksprintf (fun m -> if cond then Some m else None) fmt

type leg = { base : int; ingested : int; published : int }

let conservation ?(miscounts = 0) legs =
  let n = List.length legs and first = List.hd legs in
  let broken = List.filter (fun l -> l.published <> l.base + l.ingested) legs in
  let rec missed = function
    | a :: (b :: _ as rest) -> Bool.to_int (b.base <> a.published) + missed rest
    | _ -> 0
  in
  judge "conservation"
    (Printf.sprintf "published %d = %d recovered + %d ingested, %d incarnation%s"
       (List.nth legs (n - 1)).published first.base
       (List.fold_left (fun a l -> a + l.ingested) 0 legs)
       n (if n = 1 then "" else "s"))
    [
      fail_if (broken <> [])
        "%d of %d incarnations broke published = recovered + ingested"
        (List.length broken) n;
      fail_if (missed legs > 0) "%d recoveries missed the previous published weight"
        (missed legs);
      fail_if (miscounts > 0) "%d incarnations broke the drain-time flush accounting"
        miscounts;
    ]

let ack_envelope ~acked ~published ~slack ~exhausted =
  judge "ack envelope"
    (Printf.sprintf "acked %d, published %d, slack <= %d, exhausted %d" acked
       published slack exhausted)
    [
      fail_if (exhausted > 0) "%d keys exhausted their retries (fate unknown)" exhausted;
      fail_if (acked < published)
        "acked %d < published %d: weight appeared without an ack" acked published;
      fail_if (acked - published > slack)
        "acked %d exceeds published %d by more than the slack %d" acked published
        slack;
    ]

let freshness ~width ~held ~deadline =
  judge "freshness"
    (Printf.sprintf "longest quiet hold %.1f ms, deadline %.0f ms, final envelope width %d"
       (1e3 *. held) (1e3 *. deadline) width)
    [
      fail_if (held > deadline) "a quiet leader held accepted keys for %.1f ms"
        (1e3 *. held);
      fail_if (width > 0) "%d accepted keys still unpublished at the end" width;
    ]

let replica_envelope ~samples ~ahead ~faults ~resyncs =
  judge "replica envelope"
    (Printf.sprintf "%d samples, %d follower-ahead, %d resyncs" samples ahead resyncs)
    [
      fail_if (samples = 0) "no staleness samples taken";
      fail_if (ahead > 0) "follower led the leader in %d of %d samples" ahead samples;
      fail_if (faults > 0 && resyncs < 1) "no resync despite %d fault events" faults;
    ]

type image = { epoch : int; published : int; blob : Bytes.t option }

let convergence ?status ~leader:l ~follower:f () =
  (* the conditions cascade: only the first that fails is meaningful *)
  let why =
    if l.blob = None then Some "no leader snapshot"
    else if l.published = 0 then Some "the leader never published"
    else if f.epoch <> l.epoch then
      Some
        ("follower never reached the leader's epoch"
        ^ Option.fold ~none:"" ~some:(Printf.sprintf " (status %s)") status)
    else if f.published <> l.published then Some "published weights differ"
    else if f.blob = None then Some "follower held no sketch"
    else if f.blob <> l.blob then Some "follower sketch differs from the leader's"
    else None
  in
  judge "convergence"
    (Printf.sprintf "leader epoch %d published %d, follower epoch %d published %d%s"
       l.epoch l.published f.epoch f.published
       (if why = None then ", bit-for-bit" else ""))
    [ why ]

let slo m =
  let v = Obs.Slo.eval m in
  let state = Obs.Slo.state_to_string v.Obs.Slo.state in
  judge "slo"
    (Printf.sprintf "%d breaches, final state %s" v.Obs.Slo.breaches state)
    [
      Option.map
        (fun (dim, ratio) -> Printf.sprintf "breached, last by %s at %.2fx budget" dim ratio)
        (Obs.Slo.last_breach m);
      fail_if (v.Obs.Slo.state <> Obs.Slo.Ok) "final state %s, not ok" state;
    ]

let report ~who checks =
  let verdict ok = if ok then "PASS" else "FAIL" in
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%s: %s %s (%s)\n" who c.name (verdict c.ok) c.detail)
       checks
    @ [ Printf.sprintf "%s: %s\n" who (verdict (List.for_all (fun c -> c.ok) checks)) ])

type served_report = {
  duplicates_server : int;
  resyncs : int;
  follower_ahead : int;
  client : Client.stats;
  proxy : Chaos_proxy.stats;
}

type verdict = {
  pass : bool;
  checks : check list;
  incarnations : incarnation list;
  restarts_done : int;
  partitions_done : int;
  accepted : int;
  published : int;
  envelope_samples : float array;
  served : served_report option;
  driver : Workload.Driver.report;
  wall : float;
}

let validate c ~spec ~ops =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if c.shards <= 0 then bad "Net.Soak: shards must be positive";
  if c.feeders <= 0 then bad "Net.Soak: feeders must be positive";
  if c.restarts < 0 then bad "Net.Soak: restarts must be >= 0";
  (match c.sink with
  | Engine e ->
      if e.kills < 0 || e.kills > c.shards then
        bad "Net.Soak: kills must be in [0, shards]"
  | Served s ->
      if s.conns <= 0 then bad "Net.Soak: conns must be positive";
      if s.partitions < 0 then bad "Net.Soak: partitions must be >= 0";
      if s.outage < 0.0 then bad "Net.Soak: outage must be >= 0");
  if Array.length ops <> List.length spec.Workload.Trace.phases then
    bad "Net.Soak: ops do not match the spec's phases"

let fold_ops f acc ops =
  Array.fold_left (fun acc arr -> Array.fold_left f acc arr) acc ops

let universe_of_ops ops =
  1
  + fold_ops
      (fun a -> function
        | Workload.Scenario.Update k | Workload.Scenario.Query k -> max a k)
      0 ops

let updates_of_ops ops =
  fold_ops
    (fun a -> function
      | Workload.Scenario.Update _ -> a + 1 | Workload.Scenario.Query _ -> a)
    0 ops

(* Freeze the driven operations as a closed-loop recorded trace: the
   incident-capture path. *)
let record_ops ~path spec ops =
  let recorded (p : Workload.Trace.phase) =
    {
      p with
      Workload.Trace.rate = Workload.Trace.Unlimited;
      shape =
        Workload.Trace.Recorded
          { universe = Workload.Trace.universe_of p.shape };
    }
  in
  Workload.Trace.write ~path
    { spec with Workload.Trace.phases = List.map recorded spec.Workload.Trace.phases }
    ops

(* Simulate a crash mid-append: cut up to 512 bytes off the newest WAL
   segment, so the next recovery must truncate a torn frame. *)
let tear_wal_tail ~rng dir =
  match List.rev (Durable.Wal.segments_of dir) with
  | [] -> None
  | (_, name) :: _ ->
      let path = Filename.concat dir name in
      let size = (Unix.stat path).Unix.st_size in
      if size <= 8 then None
      else begin
        let cut = 1 + Rng.Splitmix.next_int rng (min (size - 1) 512) in
        Unix.truncate path (size - cut);
        Some (path, cut)
      end

(* Interleave restart, partition, restart, ... then the leftovers. *)
let rec weave r p =
  if r = 0 && p = 0 then []
  else if r >= p && r > 0 then `Restart :: weave (r - 1) p
  else `Partition :: weave r (p - 1)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let pctl samples p =
  if Array.length samples = 0 then 0.0
  else Stats.Percentile.percentile samples p

let sampler_interval = 0.001
let slo_every = 20 (* sampler ticks: ~20 ms between SLO evaluations *)
let envelope_every = 8 (* sampler ticks between envelope-width samples *)
let key_sample = 4096 (* max keys compared against the oracle *)
let settle = 30.0 (* seconds the follower may take to reach the final epoch *)

(* Seconds a leader whose accepted count stopped growing may hold an
   accepted key unpublished: the engine's [max_age] plus [freshness_slack]
   for its clock, a wake-up and a merge on a loaded host. A correct engine
   was seen holding up to about 60 ms on 2 vCPUs shared by a dozen domains;
   one that ships partial deltas at 200 ms holds about 200 ms. *)
let freshness_slack = 0.15
let freshness_deadline = Pipeline.Engine.max_age +. freshness_slack

(* One feeder's view of the engine sink: [gate] is held around every
   ingest, so a restart that takes every gate has no ingest in flight;
   [counts] is the feeder's slice of the ground-truth oracle. *)
type feeder = {
  gate : Mutex.t;
  mutable since : int; (* ingests since the last trace die roll *)
  counts : int array;
  mutable accepted : int;
  mutable attempted : int;
}

module Make (S : SKETCH) = struct
  module Srv = Server.Make (S.M)
  module P = Srv.P
  module Rep = Replica.Make (S.M)
  module R = Durable.Recovery.Make (S.M)
  module Mono = Ivl.Monotone.Make (Spec.Counter_spec)

  (* One engine incarnation and its durable plumbing. [live] turns off
     the sampler's [read_total] before the drain, so the history is read
     once its reader has quiesced. *)
  type life = {
    index : int;
    eng : P.t;
    wal : Durable.Wal.writer;
    base : int;
    rec_epoch : int;
    truncated : int;
    regressions : int;
    chaos : Conc.Chaos.t option;
    accepted0 : int;
    mutable srv : Srv.t option;
    mutable live : bool;
    mutable last_read : int;
    mutable reader_regressions : int;
  }

  let run ?(progress = ignore) ?metrics ?tracer ?http_port ?record
      ?(on_start = ignore) c ~spec ~ops () =
    validate c ~spec ~ops;
    let reg = match metrics with Some r -> r | None -> Obs.Registry.create () in
    let t_start = Unix.gettimeofday () in
    let universe = universe_of_ops ops in
    let feeders =
      Array.init c.feeders (fun _ ->
          {
            gate = Mutex.create ();
            since = 0;
            counts = Array.make universe 0;
            accepted = 0;
            attempted = 0;
          })
    in
    let fed f = Array.fold_left (fun a x -> a + f x) 0 feeders in
    (* [sm] guards the current incarnation and the previous final state *)
    let sm = Mutex.create () in
    let cur = ref None in
    let last_end = ref (0, 0) in
    let port = ref 0 in
    let prev_rec_epoch = ref 0 in
    let started = ref 0 in
    let reports = ref [] in
    let dup_server = ref 0 in
    let envelope = ref [] in
    let tear_rng = Rng.Splitmix.create (Int64.add c.seed 0x7EA7L) in
    let torn = ref false (* the last restart tore the WAL tail *) in
    (* ---- one incarnation: recover, WAL, engine ---- *)
    let open_life ~on_merge =
      let index = !started in
      let pre_ckpt = Durable.Checkpoint.latest ~dir:c.dir in
      let initial, rec_epoch, base, truncated, regressions =
        if index = 0 then (None, 0, 0, 0, 0)
        else
          match R.recover_compact ~metrics:reg ~dir:c.dir () with
          | Error m -> failwith ("Net.Soak: recovery failed: " ^ m)
          | Ok (sk, r) ->
              let end_epoch, end_pub = !last_end in
              let regress =
                (match pre_ckpt with
                | Some (s : Durable.Checkpoint.snapshot) ->
                    Bool.to_int
                      (r.R.recovered_epoch < s.epoch
                      || r.R.recovered_published < s.published)
                | None -> 0)
                (* never past the previous final, and exactly at it when
                   nothing tore the WAL tail *)
                + Bool.to_int
                    (if !torn then
                       r.R.recovered_epoch > end_epoch
                       || r.R.recovered_published > end_pub
                     else
                       (r.R.recovered_epoch, r.R.recovered_published)
                       <> !last_end)
                + Bool.to_int (r.R.recovered_epoch < !prev_rec_epoch)
              in
              progress
                (Printf.sprintf
                   "incarnation %d: recovered epoch %d published %d (%d \
                    bytes torn)%s"
                   index r.R.recovered_epoch r.R.recovered_published
                   r.R.bytes_truncated
                   (if regress > 0 then " REGRESSION" else ""));
              ( Some (sk, r.R.recovered_epoch, r.R.recovered_published),
                r.R.recovered_epoch,
                r.R.recovered_published,
                r.R.bytes_truncated,
                regress )
      in
      prev_rec_epoch := rec_epoch;
      let fsync =
        match c.sink with
        | Engine _ -> Some (Durable.Wal.Every_n fsync_every)
        | Served _ -> None
      in
      let wal = Durable.Wal.create ?fsync ~metrics:reg ~dir:c.dir () in
      (* The engine sink checkpoints every [checkpoint_every]-th epoch from
         the merge hook: the merger waits for the hook, so [P.snapshot]
         there is exactly this epoch's state. *)
      let checkpoint_source = ref None in
      let on_merge ~ctx ~epoch ~weight ~blob =
        Durable.Wal.merge_hook ?tracer wal ~ctx ~epoch ~weight ~blob;
        on_merge ~ctx ~epoch ~weight ~blob;
        match !checkpoint_source with
        | Some eng when epoch mod checkpoint_every = 0 ->
            let blob, epoch, published = P.snapshot eng in
            Durable.Checkpoint.write ~dir:c.dir ~epoch ~published ~blob ()
        | _ -> ()
      in
      let chaos, eng =
        match c.sink with
        | Served _ ->
            ( None,
              P.create ~batch ~on_merge ~metrics:reg ?tracer ?initial
                ~shards:c.shards () )
        | Engine e ->
            let kills =
              Conc.Chaos.random_kills
                ~seed:(Int64.add c.seed (Int64.of_int ((index * 7919) + 1)))
                ~domains:c.shards ~victims:e.kills ~max_point:kill_window
            in
            let chaos =
              Conc.Chaos.instantiate
                (Conc.Chaos.plan ~yield_prob:0.05 ~stall_prob:0.01
                   ~stall_spins:500 ~kills
                   ~seed:(Int64.add c.seed (Int64.of_int index))
                   ())
                ~domains:c.shards
            in
            let eng =
              P.create ~batch
                ~on_tick:(fun ~shard -> Conc.Chaos.point_once chaos ~domain:shard)
                ~on_merge ~supervised:true ~history:true ~metrics:reg ?tracer
                ?initial
                ~shards:c.shards ()
            in
            checkpoint_source := Some eng;
            (Some chaos, eng)
      in
      incr started;
      {
        index;
        eng;
        wal;
        base;
        rec_epoch;
        truncated;
        regressions;
        chaos;
        accepted0 = fed (fun f -> f.accepted);
        srv = None;
        live = true;
        last_read = -1;
        reader_regressions = 0;
      }
    in
    let start () =
      let life = ref None in
      let make_engine ~on_merge =
        let l = open_life ~on_merge in
        life := Some l;
        l.eng
      in
      let srv =
        match c.sink with
        | Engine _ ->
            ignore (make_engine ~on_merge:(fun ~ctx:_ ~epoch:_ ~weight:_ ~blob:_ -> ()));
            None
        | Served s ->
            Some
              (Srv.create ~host:"127.0.0.1" ~port:0 ~max_conns:(s.conns + 8)
                 ~read_timeout:5.0 ~sub_queue:4096 ~dedup_dir:c.dir ~metrics:reg
                 ?tracer ~eval:S.eval ~make_engine ())
      in
      let l = Option.get !life in
      l.srv <- srv;
      on_start l.eng;
      Mutex.protect sm (fun () ->
          cur := Some l;
          Option.iter (fun s -> port := Srv.port s) srv);
      l
    in
    (* ---- drain, check, retire ---- *)
    let stop (l : life) =
      Mutex.protect sm (fun () -> l.live <- false);
      (* [cur] stays set through the drain: the staleness sampler must keep
         seeing the live engine's growing published weight — the final
         fan-out reaches the replica before the drained total lands in
         [last_end] *)
      let accepted =
        match l.srv with
        | Some srv ->
            let st = Srv.stop srv in
            dup_server := !dup_server + st.Srv.duplicates;
            st.Srv.ingested
        | None ->
            P.drain l.eng;
            fed (fun f -> f.accepted) - l.accepted0
      in
      Durable.Wal.close l.wal;
      let st = P.stats l.eng in
      let shards f = Array.fold_left (fun a s -> a + f s) 0 st.P.shards in
      let count p = shards (fun s -> Bool.to_int (p s)) in
      let flushed = shards (fun s -> s.P.flushed_items) in
      let published = st.P.published - l.base in
      let lost = accepted - published in
      let kills =
        match l.chaos with
        | Some ch -> List.length (Conc.Chaos.killed ch)
        | None -> 0
      in
      let worker_restarts = shards (fun s -> s.P.restarts) in
      let conservation_failures =
        Bool.to_int
          ((st.P.decode_failures = 0 && published <> flushed)
          || published > flushed)
        + Bool.to_int (lost < 0)
        + Bool.to_int (kills = 0 && worker_restarts = 0 && lost > 0)
        + count (fun s ->
              s.P.alive && s.P.restarts = 0 && s.P.flushed_items <> s.P.enqueued)
      in
      let engine_sink = match c.sink with Engine _ -> true | Served _ -> false in
      let oracle =
        match S.bound with
        | Some b when engine_sink ->
            let truth = Array.make universe 0 in
            Array.iter
              (fun f -> Array.iteri (fun k v -> truth.(k) <- truth.(k) + v) f.counts)
              feeders;
            let lost_total = max 0 (fed (fun f -> f.accepted) - st.P.published) in
            let stride = max 1 (universe / key_sample) in
            let checked, lower, upper =
              fst
                (P.query l.eng (fun g ->
                     let slack = b.slack g in
                     let rec go k (n, lo, up) =
                       if k >= universe then (n, lo, up)
                       else
                         let est = b.estimate g k in
                         go (k + stride)
                           ( n + 1,
                             lo + Bool.to_int (est + lost_total < truth.(k)),
                             up
                             + Bool.to_int
                                 (float_of_int est > float_of_int truth.(k) +. slack)
                           )
                     in
                     go 0 (0, 0, 0)))
            in
            let allowance =
              max 1 (int_of_float (ceil (3.0 *. b.delta *. float_of_int checked)))
            in
            Some { lower; upper; allowance; checked }
        | _ -> None
      in
      let report : incarnation =
        {
          index = l.index;
          recovered_epoch = l.rec_epoch;
          recovered_published = l.base;
          wal_bytes_truncated = l.truncated;
          recovery_regressions = l.regressions;
          kills;
          worker_restarts;
          end_epoch = st.P.epoch;
          end_published = st.P.published;
          accepted;
          lost;
          conservation_failures;
          monotone_violations =
            (if engine_sink then List.length (Mono.violations (P.history l.eng))
             else 0);
          reader_regressions = l.reader_regressions;
          decode_failures = st.P.decode_failures;
          (* a shard dead after restarts yet not shed escaped the
             supervisor *)
          unexpected_failures =
            List.length (P.failures l.eng)
            + count (fun s ->
                  s.P.restarts > 0 && (not s.P.alive) && not s.P.shed);
          oracle;
          merge_lag = st.P.merge_lag;
        }
      in
      reports := report :: !reports;
      progress
        (Printf.sprintf
           "incarnation %d: %d accepted, %d kills, %d worker restarts, epoch \
            %d, published %d, lost %d"
           l.index accepted report.kills report.worker_restarts st.P.epoch
           st.P.published lost);
      Mutex.protect sm (fun () ->
          last_end := (st.P.epoch, st.P.published);
          cur := None)
    in
    let published_now () =
      Mutex.protect sm (fun () ->
          match !cur with
          | Some l -> P.published l.eng
          | None -> snd !last_end)
    in
    ignore (start ());
    (* ---- served: the proxy everyone talks through, client, replica ---- *)
    let net =
      match c.sink with
      | Engine _ -> None
      | Served s ->
          let proxy =
            Chaos_proxy.create ~seed:(Int64.add c.seed 0xBADL)
              ~upstream:(fun () ->
                ("127.0.0.1", Mutex.protect sm (fun () -> !port)))
              ()
          in
          (* the replica's first dial must land, so faults arm after it *)
          let rep =
            Rep.connect ~metrics:reg ?tracer ~host:"127.0.0.1"
              ~port:(Chaos_proxy.port proxy) ()
          in
          let cli =
            Client.create ~conns:s.conns ~batch:client_batch ~retries
              ~read_timeout:2.0 ~session:(Int64.add c.seed 0x5E55L)
              ~metrics:reg ?tracer
              ~host:"127.0.0.1" ~port:(Chaos_proxy.port proxy) ()
          in
          Chaos_proxy.set_faults proxy s.faults;
          Some (s, proxy, rep, cli)
    in
    (* ---- the Theorem-6 SLO over the live incarnation ---- *)
    (* A dimension reads -1 (unknown, in budget) while no incarnation is
       live or the follower is mid-resync — a dead leader is a restart in
       progress, not an SLO burn. The engine sink has no follower, so its
       staleness is always unknown. *)
    let with_life f () =
      Mutex.protect sm (fun () -> match !cur with None -> -1.0 | Some l -> f l)
    in
    let monitor =
      Obs.Slo.create ~metrics:reg
        ~budget:
          (* served: slack 4.0 (double the theorem's default), since
             restarts park the merger and partitions freeze the replica *)
          (Obs.Slo.theorem6_budget
             ?slack:(if Option.is_some net then Some 4.0 else None)
             ~shards:c.shards ~batch
             ~queue_capacity:Pipeline.Engine.default_queue_capacity ())
        ~envelope:(with_life (fun l -> float_of_int (P.envelope_width l.eng)))
        ~staleness:
          (match net with
          | None -> fun () -> -1.0
          | Some (_, _, rep, _) -> (
              fun () ->
                match (Rep.stats rep).Rep.status with
                | `Live ->
                    float_of_int (max 0 (published_now () - Rep.published rep))
                | _ -> -1.0))
        ~merge_lag:
          (with_life (fun l ->
               Option.value ~default:(-1.0) (P.last_merge_lag l.eng)))
        ()
    in
    (* ---- the driver's sinks ---- *)
    let make_sink =
      match net with
      | Some (_, _, _, cli) -> fun ~feeder:_ -> Client.sink cli
      | None ->
          fun ~feeder ->
            let f = feeders.(feeder) in
            (* one trace die roll per engine batch: a sampled roll roots the
               waterfall with a zero-width "ingest" span and marks the key's
               shard, so the queue, merge and wal stages follow *)
            let mark eng k =
              match tracer with
              | None -> ()
              | Some tr ->
                  f.since <- f.since + 1;
                  if f.since >= batch then begin
                    f.since <- 0;
                    match Obs.Tracer.sample tr with
                    | None -> ()
                    | Some ctx ->
                        let now = Obs.Tracer.now_ns () in
                        let sid =
                          Obs.Tracer.record tr ~ctx ~stage:"ingest" ~start_ns:now
                            ~end_ns:now
                        in
                        P.trace_mark eng ~key:k
                          ~ctx:(Obs.Span.with_parent ctx sid)
                  end
            in
            (* [cur] only changes while every gate is held *)
            let guarded ingest k =
              Mutex.protect f.gate (fun () ->
                  f.attempted <- f.attempted + 1;
                  match !cur with
                  | None -> false
                  | Some l ->
                      mark l.eng k;
                      let ok = ingest l.eng k in
                      if ok then begin
                        f.counts.(k) <- f.counts.(k) + 1;
                        f.accepted <- f.accepted + 1
                      end;
                      ok)
            in
            Workload.Sink.make ~ingest:(guarded P.ingest)
              ~try_ingest:(guarded P.try_ingest)
              ~query:(fun k ->
                Mutex.protect f.gate (fun () ->
                    Option.iter
                      (fun l ->
                        ignore (P.query l.eng (fun g -> S.eval g (Frame.Point k))))
                      !cur))
              ()
    in
    (* ---- one sampler domain ---- *)
    let sampler_stop = Atomic.make false in
    let ahead = Atomic.make 0 and samples = Atomic.make 0 in
    (* served: [held] is the longest the live leader was seen holding an
       accepted key while its accepted count had not grown since
       [grew_at]. A sample reads [published] at [t] before [accepted], so
       an unchanged count above it was held at [t]. *)
    let seen = Atomic.make (-1, 0) (* leader incarnation, accepted *)
    and grew_at = ref 0.0
    and held = Atomic.make 0.0 in
    let watch_quiet () =
      Mutex.protect sm (fun () ->
          match !cur with
          | Some l when l.live ->
              let t = Unix.gettimeofday () in
              let pub = P.published l.eng in
              let acc = P.accepted l.eng in
              if (l.index, acc) <> Atomic.get seen then begin
                Atomic.set seen (l.index, acc);
                grew_at := t
              end
              else if acc > pub && t -. !grew_at > Atomic.get held then
                Atomic.set held (t -. !grew_at)
          | _ -> ())
    in
    let sample tick =
      match net with
      | None ->
          Mutex.protect sm (fun () ->
              match !cur with
              | Some l when l.live ->
                  (* the one read_total caller: published never regresses
                     within an incarnation *)
                  let v = P.read_total l.eng in
                  if v < l.last_read then
                    l.reader_regressions <- l.reader_regressions + 1;
                  l.last_read <- v;
                  if tick mod envelope_every = 0 then
                    envelope :=
                      float_of_int (P.envelope_width l.eng) :: !envelope
              | _ -> ())
      | Some (_, _, rep, _) ->
          (* follower first, leader second: the leader only grows, so
             rep > lead is a genuine lead *)
          let rp = Rep.published rep in
          let lp = published_now () in
          if rp > lp then Atomic.incr ahead;
          Atomic.incr samples;
          watch_quiet ();
          (* breach_after 5 at this cadence means >= 100 ms of sustained
             over-budget burn, not one unlucky sample *)
          if tick mod slo_every = 0 then ignore (Obs.Slo.eval monitor)
    in
    let sampler =
      Domain.spawn (fun () ->
          let tick = ref 0 in
          while not (Atomic.get sampler_stop) do
            incr tick;
            sample !tick;
            Unix.sleepf sampler_interval
          done)
    in
    (* ---- live telemetry plane ---- *)
    let restarts_done = ref 0 and partitions_done = ref 0 in
    let http =
      Option.map
        (fun p ->
          let health () =
            [
              ("published", string_of_int (published_now ()));
              ("restarts", string_of_int !restarts_done);
            ]
            @
            match net with
            | None -> [ ("accepted", string_of_int (fed (fun f -> f.accepted))) ]
            | Some (_, _, rep, cli) ->
                [
                  ("replica_published", string_of_int (Rep.published rep));
                  ("client_acked", string_of_int (Client.stats cli).Client.acked);
                  ("partitions", string_of_int !partitions_done);
                ]
          in
          let h =
            Obs.Http.create ~port:p
              ~handler:
                (Obs.Http.telemetry_handler ~registry:reg ?tracer ~slo:monitor ~health ())
              ()
          in
          progress
            (Printf.sprintf "telemetry: http://127.0.0.1:%d/metrics"
               (Obs.Http.port h));
          h)
        http_port
    in
    (* ---- drive the trace from a background domain ---- *)
    let driver = Atomic.make None in
    let driver_d =
      Domain.spawn (fun () ->
          Atomic.set driver
            (Some
               (Workload.Driver.run ~feeders:c.feeders ~metrics:reg ~make_sink
                  ~spec ~ops ())))
    in
    (* ---- the fault schedule ---- *)
    let restart () =
      let l = Option.get (Mutex.protect sm (fun () -> !cur)) in
      progress
        (Printf.sprintf "restart %d: stopping incarnation %d (published %d)"
           (!restarts_done + 1) l.index (published_now ()));
      (match net with
      | None ->
          Array.iter (fun f -> Mutex.lock f.gate) feeders;
          stop l;
          (match c.sink with
          | Engine { tear_tail = true; _ } -> (
              match tear_wal_tail ~rng:tear_rng c.dir with
              | Some (path, cut) ->
                  torn := true;
                  progress (Printf.sprintf "tore %d bytes off %s" cut path)
              | None -> torn := false)
          | _ -> ());
          ignore (start ());
          Array.iter (fun f -> Mutex.unlock f.gate) feeders
      | Some (s, _, _, _) ->
          stop l;
          Unix.sleepf s.outage;
          ignore (start ()));
      incr restarts_done
    in
    let partition (s, proxy, _, _) =
      progress
        (Printf.sprintf "partition %d: severing all flows for %.2fs"
           (!partitions_done + 1) s.outage);
      Chaos_proxy.set_partition proxy true;
      Unix.sleepf s.outage;
      Chaos_proxy.set_partition proxy false;
      incr partitions_done
    in
    let events =
      weave c.restarts
        (match net with Some (s, _, _, _) -> s.partitions | None -> 0)
    in
    let n_events = List.length events in
    let updates = updates_of_ops ops in
    let progressed () =
      match net with
      | Some (_, _, _, cli) -> (Client.stats cli).Client.acked
      | None -> fed (fun f -> f.attempted)
    in
    List.iteri
      (fun i ev ->
        let target = updates * (i + 1) / (n_events + 1) in
        while Atomic.get driver = None && progressed () < target do
          Unix.sleepf 0.01
        done;
        match (ev, net) with
        | `Restart, _ -> restart ()
        | `Partition, Some n -> partition n
        | `Partition, None -> ())
      events;
    Domain.join driver_d;
    let driver = Option.get (Atomic.get driver) in
    (* ---- quiesce, retire the last incarnation, verdicts ---- *)
    let final_l = Option.get (Mutex.protect sm (fun () -> !cur)) in
    let stop_sampler () =
      Atomic.set sampler_stop true;
      Domain.join sampler
    in
    let served_checks =
      match net with
      | None ->
          stop_sampler ();
          stop final_l;
          None
      | Some (s, proxy, rep, cli) ->
          (* transparent wire, every in-flight batch resolved *)
          Chaos_proxy.set_partition proxy false;
          Chaos_proxy.set_faults proxy Chaos_proxy.no_faults;
          Client.close cli;
          let cs = Client.stats cli in
          (* quiet now: once the sampler has seen the last growth, the
             engine must publish what it took without a drain *)
          let rec wait_quiet () =
            let width = P.envelope_width final_l.eng in
            if
              snd (Atomic.get seen) = P.accepted final_l.eng
              && (width = 0 || Atomic.get held > freshness_deadline)
            then (width, Atomic.get held)
            else begin
              Unix.sleepf 0.0005;
              wait_quiet ()
            end
          in
          let width, held = wait_quiet () in
          P.drain final_l.eng;
          let leader_blob, epoch, pub = P.snapshot final_l.eng in
          ignore (Rep.wait_epoch ~timeout:settle rep epoch);
          stop_sampler ();
          let rs = Rep.stats rep in
          let rep_blob = Option.map fst (Rep.query rep S.M.encode) in
          Rep.close rep;
          stop final_l;
          let proxy_stats = Chaos_proxy.stop proxy in
          let incs = List.rev !reports in
          let n_ahead = Atomic.get ahead in
          let checks =
            [
              conservation
                ~miscounts:(sum (fun i -> Bool.to_int (i.conservation_failures > 0)) incs)
                (List.map
                   (fun i ->
                     { base = i.recovered_published; ingested = i.accepted;
                       published = i.end_published })
                   incs);
              ack_envelope ~acked:cs.Client.acked ~published:pub
                ~slack:(!restarts_done * s.conns * client_batch)
                ~exhausted:cs.Client.exhausted;
              freshness ~width ~held ~deadline:freshness_deadline;
              replica_envelope ~samples:(Atomic.get samples) ~ahead:n_ahead
                ~faults:n_events ~resyncs:rs.Rep.resyncs;
              convergence
                ~status:(Replica.status_to_string rs.Rep.status)
                ~leader:{ epoch; published = pub; blob = Some leader_blob }
                ~follower:
                  { epoch = rs.Rep.epoch; published = rs.Rep.published; blob = rep_blob }
                ();
              (* zero tolerance at drain: Warning may arm during chaos, but
                 a Breach — sustained over-budget burn — fails the run *)
              slo monitor;
            ]
          in
          Some
            ( checks,
              {
                duplicates_server = !dup_server;
                resyncs = rs.Rep.resyncs;
                follower_ahead = n_ahead;
                client = cs;
                proxy = proxy_stats;
              } )
    in
    Option.iter Obs.Http.stop http;
    let incs = List.rev !reports in
    let published = snd !last_end in
    let served = Option.map snd served_checks in
    let accepted =
      match served with
      | Some s -> s.client.Client.acked
      | None -> fed (fun f -> f.accepted)
    in
    (* the engine sink's verdicts: per-incarnation counters, zero each *)
    let counted name what count detail =
      let n = sum count incs in
      let detail = Option.value detail ~default:(Printf.sprintf "%d %s" n what) in
      judge name detail
        (List.map
           (fun (i : incarnation) ->
             fail_if (count i > 0) "incarnation %d: %d %s" i.index (count i) what)
           incs)
    in
    let engine_checks () =
      let lost = max 0 (accepted - published) in
      [
        counted "monotone" "IVL monotone violations" (fun i -> i.monotone_violations) None;
        counted "reader" "published-total regressions" (fun i -> i.reader_regressions) None;
        counted "conservation" "weight conservation failures"
          (fun i -> i.conservation_failures)
          (Some
             (Printf.sprintf "accepted %d, published %d, lost %d (%.3f%%)" accepted
                published lost
                (100.0 *. float_of_int lost /. float_of_int (max 1 accepted))));
        counted "recovery envelope" "recoveries outside the envelope"
          (fun i -> i.recovery_regressions)
          (Some
             (Printf.sprintf "%d recoveries, %d bytes torn" (List.length incs - 1)
                (sum (fun i -> i.wal_bytes_truncated) incs)));
        counted "decode" "blob decode failures" (fun i -> i.decode_failures) None;
        counted "engine failures" "unexpected engine failures"
          (fun i -> i.unexpected_failures) None;
      ]
      @ Option.fold ~none:[]
          ~some:(fun b ->
            let o f = sum (fun i -> Option.fold ~none:0 ~some:f i.oracle) incs in
            [
              counted "oracle" "estimates outside the oracle bounds (low + excess high)"
                (fun i ->
                  Option.fold ~none:0
                    ~some:(fun o -> o.lower + max 0 (o.upper - o.allowance))
                    i.oracle)
                (Some
                   (Printf.sprintf
                      "(ε,δ) = (%.4f, %.4f), %d keys checked, %d low, %d/%d high"
                      b.epsilon b.delta (o (fun o -> o.checked)) (o (fun o -> o.lower))
                      (o (fun o -> o.upper)) (o (fun o -> o.allowance))));
            ])
          S.bound
    in
    let record_check path =
      judge "record" ("trace to " ^ path)
        [ Result.fold ~ok:(fun () -> None) ~error:Option.some (record_ops ~path spec ops) ]
    in
    let checks =
      Option.fold ~none:(engine_checks ()) ~some:fst served_checks
      @ Option.to_list (Option.map record_check record)
    in
    {
      pass = List.for_all (fun c -> c.ok) checks;
      checks;
      incarnations = incs;
      restarts_done = !restarts_done;
      partitions_done = !partitions_done;
      accepted;
      published;
      envelope_samples = Array.of_list !envelope;
      served;
      driver;
      wall = Unix.gettimeofday () -. t_start;
    }
end

let verdict_to_string v =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.bprintf b fmt in
  pf
    "incarnation  rec-epoch    rec-pub  torn  kills  w-restarts  end-epoch    \
     end-pub   accepted   lost\n";
  List.iter
    (fun (i : incarnation) ->
      pf "%11d %10d %10d %5d %6d %11d %10d %10d %10d %6d\n" i.index
        i.recovered_epoch i.recovered_published i.wal_bytes_truncated i.kills
        i.worker_restarts i.end_epoch i.end_published i.accepted i.lost)
    v.incarnations;
  (match v.served with
  | None ->
      let lag = Array.concat (List.map (fun i -> i.merge_lag) v.incarnations) in
      let env = v.envelope_samples in
      pf
        "freshness: merge lag p50/p99 = %.2f/%.2f ms, envelope width p50/p99 \
         = %.0f/%.0f items\n"
        (1e3 *. pctl lag 50.0) (1e3 *. pctl lag 99.0) (pctl env 50.0)
        (pctl env 99.0)
  | Some s ->
      pf
        "traffic: %d duplicates suppressed (client saw %d), %d proxy resets, \
         %d corruptions, %d refused dials, %d reconnects\n"
        s.duplicates_server s.client.Client.duplicates_suppressed
        s.proxy.Chaos_proxy.resets
        s.proxy.Chaos_proxy.corruptions s.proxy.Chaos_proxy.refused
        s.client.Client.reconnects);
  pf "%d restarts, %d partitions; %.1fs\n" v.restarts_done v.partitions_done
    v.wall;
  Buffer.add_string b (report ~who:"soak" v.checks);
  Buffer.contents b

let bench v ~total_ops =
  let incs = v.incarnations in
  let count n = float_of_int n in
  let flag name =
    List.exists (fun c -> c.name = name && not c.ok) v.checks |> Bool.to_int |> count
  in
  match v.served with
  | Some s ->
      ( "served-soak",
        [
          ("served-soak-conservation-violations", "violations", flag "conservation");
          ("served-soak-ack-violations", "violations", flag "ack envelope");
          ("served-soak-freshness-violations", "violations", flag "freshness");
          ("served-soak-replica-violations", "violations", flag "replica envelope");
          ("served-soak-convergence-violations", "violations", flag "convergence");
          ("served-soak-exhausted", "violations", count s.client.Client.exhausted);
          ("served-soak-follower-ahead", "violations", count s.follower_ahead);
          ("served-soak-restarts", "count", count v.restarts_done);
          ("served-soak-partitions", "count", count v.partitions_done);
          ("served-soak-resyncs", "count", count s.resyncs);
          ("served-soak-duplicates", "count", count s.duplicates_server);
          ("served-soak-proxy-resets", "count", count s.proxy.Chaos_proxy.resets);
          ("served-soak-total-ops", "count", count total_ops);
        ] )
  | None ->
      let oracle f = sum (fun i -> match i.oracle with Some o -> f o | None -> 0) in
      let phase_max f =
        List.fold_left
          (fun a (p : Workload.Driver.phase_report) -> Float.max a (f p))
          0.0 v.driver.Workload.Driver.phases
      in
      let d = v.driver in
      let lost = max 0 (v.accepted - v.published) in
      ( "soak",
        [
          (* correctness gates: zero tolerance in `bench compare` *)
          ("soak-monotone-violations", "violations",
           count (sum (fun i -> i.monotone_violations) incs));
          ("soak-oracle-lower-violations", "violations",
           count (oracle (fun o -> o.lower) incs));
          ("soak-oracle-upper-excess", "violations",
           count (oracle (fun o -> max 0 (o.upper - o.allowance)) incs));
          ("soak-epoch-regressions", "violations",
           count (sum (fun i -> i.recovery_regressions) incs));
          ("soak-conservation-failures", "violations",
           count (sum (fun i -> i.conservation_failures) incs));
          ("soak-reader-regressions", "violations",
           count (sum (fun i -> i.reader_regressions) incs));
          ("soak-unexpected-failures", "violations",
           count (sum (fun i -> i.unexpected_failures) incs));
          ("soak-decode-failures", "violations",
           count (sum (fun i -> i.decode_failures) incs));
          (* budget: loss as a percentage of accepted weight *)
          ("soak-lost-weight-pct", "pct",
           if v.accepted > 0 then 100.0 *. count lost /. count v.accepted else 0.0);
          (* timing: warn-gated *)
          ("soak-achieved-rate", "ops/s",
           if d.Workload.Driver.wall > 0.0 then
             count d.Workload.Driver.issued /. d.Workload.Driver.wall
           else 0.0);
          ("soak-update-p99", "ns/op",
           1e9 *. phase_max (fun p -> p.Workload.Driver.update_p99));
          ("soak-query-p99", "ns/op",
           1e9 *. phase_max (fun p -> p.Workload.Driver.query_p99));
          (* informational *)
          ("soak-recoveries", "count", count (List.length incs - 1));
          ("soak-restarts", "count", count (sum (fun i -> i.worker_restarts) incs));
          ("soak-kills", "count", count (sum (fun i -> i.kills) incs));
          ("soak-total-ops", "count", count total_ops);
        ] )
