(* The stack benchmark: one served stack, four seeded workloads.

   The stack is `serve countmin`'s default deployment: Net.Server over a
   4-shard, batch-512 CountMin (4x2048) engine, a WAL (Every_n 64) plus the
   dedup journal in one directory, one Net.Replica follower and one
   Net.Client (1 sender connection, batch 256, flush_age 50 ms). Every run
   starts as a restart from a seeded WAL, warms up for 2 s, measures for
   --seconds, then drains and checks the outputs.

     dune exec --profile release bench/stack/stack.exe -- \
       --workload served-ingest --seed 1 --seconds 20 --trace 0

   The last line of standard output is one JSON object (correct, attempted,
   failed, metrics): the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. README.md beside this file defines every metric. *)

module Measure = Stack_measure.Measure
module Json = Stack_measure.Json

(* The deployment's hash coins: `serve countmin` derives them from its
   default --seed 42 (+7). They belong to the deployment, not the workload,
   so they never follow --seed. *)
module M = Pipeline.Targets.Countmin (struct
  let seed = 49L
  let rows = 4
  let width = 2048
end)

module Srv = Net.Server.Make (M)
module P = Srv.P
module Rep = Net.Replica.Make (M)
module Rec = Durable.Recovery.Make (M)

let host = "127.0.0.1"
let shards = 4
let engine_batch = 512
let client_batch = 256
let flush_age = 0.05
let seed_deltas = 2000
let key_count = 1 lsl 22
let warmup = 2.0
let slice = 1.0
let tick = 0.001
let setups = 3
let trace_every = 64
let resolve_timeout = 10.0
let run_root = Filename.concat "bench" (Filename.concat "stack" "_run")

type workload = Served_ingest | Fresh_open | Query_mix | Engine_skew

let workloads =
  [
    ("served-ingest", Served_ingest);
    ("fresh-open", Fresh_open);
    ("query-mix", Query_mix);
    ("engine-skew", Engine_skew);
  ]

let served w = w <> Engine_skew

(* Offered rate of the open-loop producers, keys/s; [None] = closed loop. *)
let rate = function
  | Fresh_open -> Some 100_000.0
  | Query_mix -> Some 50_000.0
  | Served_ingest | Engine_skew -> None

(* CLOCK_MONOTONIC in seconds: nanosecond resolution, immune to clock
   steps. Unix.gettimeofday's microsecond would hide sub-microsecond calls. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------ helpers ------------------------------ *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create x = { a = Array.make 4096 x; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) x in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let last v = v.a.(v.n - 1)
end

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let segment_bytes dir =
  Array.fold_left
    (fun acc f ->
      if Filename.check_suffix f ".seg" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)
let finite a = List.filter Float.is_finite (Array.to_list a) |> Array.of_list
let mean a = Stats.Moments.(mean (of_array a))
let scale k a = Array.map (fun x -> x *. k) a

(* ------------------------------- inputs ------------------------------ *)

let zipf_keys seed =
  Workload.Stream.generate ~seed
    (Workload.Stream.Zipf (65536, 1.1))
    ~length:key_count

let hot_flip_keys seed =
  let phase =
    {
      Workload.Trace.name = "engine-skew";
      ops = key_count;
      query_ratio = 0.0;
      rate = Workload.Trace.Unlimited;
      shape =
        Workload.Trace.Hot_flip
          { universe = 65536; hot_ratio = 0.5; flip_every = 65536 };
    }
  in
  Array.map
    (function Workload.Scenario.Update k | Workload.Scenario.Query k -> k)
    (Workload.Trace.materialize { Workload.Trace.seed; phases = [ phase ] }).(0)

(* The restart image: [seed_deltas] CountMin deltas of [engine_batch] keys
   each, appended with the engine's own WAL writer and record format. *)
let seed_wal ~dir keys =
  let w = Durable.Wal.create ~dir () in
  for d = 0 to seed_deltas - 1 do
    let delta = M.create () in
    for j = 0 to engine_batch - 1 do
      M.update delta keys.(((d * engine_batch) + j) land (key_count - 1))
    done;
    Durable.Wal.append w ~epoch:(d + 1) ~weight:engine_batch
      ~blob:(M.encode delta)
  done;
  Durable.Wal.close w

(* Each set-up recovers a private copy of the seeded log: hard links, since
   recovery deletes the segments it replays and never rewrites them. *)
let node_dir ~root ~seed_dir k =
  let d = Filename.concat root (Printf.sprintf "node%d" k) in
  Unix.mkdir d 0o755;
  Array.iter
    (fun f -> Unix.link (Filename.concat seed_dir f) (Filename.concat d f))
    (Sys.readdir seed_dir);
  d

(* ------------------------------- stack ------------------------------- *)

(* Span buffers of the traced run, one per recording domain: [main] (set-up,
   sampler, queries, shutdown), [load] (the producer) and [merger] (the
   on_merge hook, which the engine runs in its merger domain). *)
type tracing = { main : Spans.buf; load : Spans.buf; merger : Spans.buf }

type stack = {
  eng : P.t;
  srv : Srv.t option;
  rep : Rep.t option;
  cli : Net.Client.t option;
  wal : Durable.Wal.writer option;
  recovered : Rec.report;
  recovery_s : float;
  recovery_bytes : int;
  setup_keys : int;  (** keys acked during set-up *)
  setup_s : float;
}

let eval g = function
  | Net.Frame.Point k -> Some [ (k, Sketches.Countmin.query g k) ]
  | _ -> None

let wait_live rep =
  let deadline = now () +. resolve_timeout in
  while Rep.status rep <> `Live && now () < deadline do
    Unix.sleepf tick
  done;
  if Rep.status rep <> `Live then failwith "replica never went Live"

(* Set-up time runs from the start of recovery until the replica is Live
   and a first 1-key batch is acked (engine-skew: until Engine.create
   returns). *)
let setup w ~dir ~tr =
  let sp = Option.map (fun t -> t.main) tr in
  let root = match sp with Some b -> Spans.open_ b "setup" | None -> -1 in
  let t0 = now () in
  let recovery_bytes = segment_bytes dir in
  let sk, r =
    Spans.with_ sp ~parent:root "recover_compact" (fun () ->
        match Rec.recover_compact ~dir () with
        | Ok x -> x
        | Error m -> failwith m)
  in
  let recovery_s = now () -. t0 in
  let initial = (sk, r.Rec.recovered_epoch, r.Rec.recovered_published) in
  let st =
    if not (served w) then
      let eng =
        Spans.with_ sp ~parent:root "engine_create" (fun () ->
            P.create ~shards ~batch:engine_batch ~initial ())
      in
      {
        eng;
        srv = None;
        rep = None;
        cli = None;
        wal = None;
        recovered = r;
        recovery_s;
        recovery_bytes;
        setup_keys = 0;
        setup_s = 0.0;
      }
    else
      let wal = ref None in
      let merger_sp = Option.map (fun t -> t.merger) tr in
      let srv =
        Spans.with_ sp ~parent:root "server_create" (fun () ->
            Srv.create ~host ~port:0 ~dedup_dir:dir ~eval
              ~make_engine:(fun ~on_merge ->
                let wr = Durable.Wal.create ~dir () in
                wal := Some wr;
                P.create ~shards ~batch:engine_batch ~initial
                  ~on_merge:(fun ~ctx ~epoch ~weight ~blob ->
                    Spans.with_ merger_sp "wal.append" (fun () ->
                        Durable.Wal.append wr ~epoch ~weight ~blob);
                    on_merge ~ctx ~epoch ~weight ~blob)
                  ())
              ())
      in
      let port = Srv.port srv in
      let rep =
        Spans.with_ sp ~parent:root "replica_live" (fun () ->
            let rep = Rep.connect ~host ~port () in
            wait_live rep;
            rep)
      in
      let cli =
        Spans.with_ sp ~parent:root "first_ack" (fun () ->
            let c =
              Net.Client.create ~conns:1 ~batch:client_batch ~flush_age ~host
                ~port ()
            in
            ignore (Net.Client.push c 0);
            Net.Client.flush c;
            c)
      in
      {
        eng = Srv.engine srv;
        srv = Some srv;
        rep = Some rep;
        cli = Some cli;
        wal = !wal;
        recovered = r;
        recovery_s;
        recovery_bytes;
        setup_keys = (Net.Client.stats cli).Net.Client.acked;
        setup_s = 0.0;
      }
  in
  Option.iter (fun b -> Spans.close b root) sp;
  { st with setup_s = now () -. t0 }

(* Shutdown order matters: drain the engine while the server still serves,
   let the follower reach the final epoch and compare it bit for bit, and
   only then stop the server (stopped first, the follower would redial a
   dead port until wait_epoch timed out) and close the WAL. *)
let converge ?sp st =
  Spans.with_ sp "engine.drain" (fun () -> P.drain st.eng);
  match st.rep with
  | None -> true
  | Some rep ->
      let blob, epoch, _ = P.snapshot st.eng in
      Spans.with_ sp "replica.wait_epoch" (fun () -> Rep.wait_epoch rep epoch)
      &&
      match Rep.query rep M.encode with
      | Some (b, _) -> Bytes.equal b blob
      | None -> false

let close_stack ?sp st =
  Option.iter Rep.close st.rep;
  Option.iter Net.Client.close st.cli;
  Option.iter
    (fun s -> Spans.with_ sp "server.stop" (fun () -> ignore (Srv.stop s)))
    st.srv;
  Option.iter
    (fun w -> Spans.with_ sp "wal.close" (fun () -> Durable.Wal.close w))
    st.wal

(* ----------------------------- measurement --------------------------- *)

(* Counters read at the window's edges and after the drain. *)
type snap = {
  t : float;
  cpu_user : float;
  cpu_sys : float;
  minor : int;
  major : int;
  heap_words : int;
  cli_s : Net.Client.stats option;
  srv_s : Srv.stats option;
  rep_s : Rep.stats option;
  eng_s : P.stats;
  wal_bytes : int;
  wal_appends : int;
}

let snap st ~dir =
  let tm = Unix.times () in
  let gc = Gc.quick_stat () in
  {
    t = now ();
    cpu_user = tm.Unix.tms_utime;
    cpu_sys = tm.Unix.tms_stime;
    minor = gc.Gc.minor_collections;
    major = gc.Gc.major_collections;
    heap_words = gc.Gc.top_heap_words;
    cli_s = Option.map Net.Client.stats st.cli;
    srv_s = Option.map Srv.stats st.srv;
    rep_s = Option.map Rep.stats st.rep;
    eng_s = P.stats st.eng;
    wal_bytes = (match st.wal with Some _ -> segment_bytes dir | None -> 0);
    wal_appends =
      (match st.wal with Some w -> Durable.Wal.appended w | None -> 0);
  }

let accepted (s : P.stats) =
  Array.fold_left
    (fun a (x : P.shard_stats) -> a + x.P.enqueued - x.P.dropped)
    0 s.P.shards

(* Keys the stack has taken so far: acked by the server, or accepted by the
   engine when there is no server. *)
let done_keys s =
  match s.cli_s with Some c -> c.Net.Client.acked | None -> accepted s.eng_s

(* What one measured phase leaves behind. Latencies are in seconds, except
   [q_lat_us]. *)
type result = {
  st : stack;
  s0 : snap;  (** window start *)
  s1 : snap;  (** window end *)
  s2 : snap;  (** after drain and convergence *)
  keys : int;  (** keys acked (engine-skew: accepted) inside the window *)
  edges : float array;  (** slice edges, [s0.t] to [s1.t] *)
  counts : int array;  (** keys acked (accepted) so far, at each edge *)
  lat : float array;  (** leader visibility of sampled keys due in window *)
  rep_lat : float array;  (** follower visibility of the same keys *)
  lat_due : float array;  (** due time of each [lat] key *)
  q_lat_us : float array;  (** queries started inside the window *)
  q_t : float array;  (** start time of each [q_lat_us] query *)
  late : float array;
      (** how far behind schedule the generator ran: open-loop keys and
          sampler ticks inside the window *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
}

let window r = r.s1.t -. r.s0.t

(* One measured phase on a set-up stack: [warmup] s, a [seconds] window,
   then the drain that resolves every key still in flight.

   Two generator domains. The spawned one is the producer: Client.push
   (engine-skew: Engine.ingest), closed loop or open loop at [rate]. The
   main domain samples the published total every [tick] — Client.query
   Total plus Replica.published, or an in-process Engine.query in
   engine-skew — and between ticks sends query-mix's closed-loop Point
   queries. After the window it only samples, while the producer flushes
   the client and drains the engine, until the last key is visible on
   leader and follower. *)
let measure w st ~dir ~keys ~seconds ~tr =
  let mask = Array.length keys - 1 in
  let base = st.recovered.Rec.recovered_published + st.setup_keys in
  let stop = Atomic.make false and finished = Atomic.make false in
  let t_start = now () in
  let t_w = t_start +. warmup in
  let t_e = t_w +. seconds in
  let main_sp = Option.map (fun t -> t.main) tr in
  let load_sp = Option.map (fun t -> t.load) tr in
  (* sampled keys: global push index and due time *)
  let s_idx = Vec.create 0 and s_due = Vec.create 0.0 in
  let late = Vec.create 0.0 and tick_late = Vec.create 0.0 in
  let load_failed = ref 0 in
  let producer () =
    let ingest, span =
      match st.cli with
      | Some c -> (Net.Client.push c, "client.push")
      | None -> (P.ingest st.eng, "engine.ingest")
    in
    let i = ref 0 in
    let push_one ~due =
      if Measure.sampled !i then begin
        Vec.push s_idx !i;
        Vec.push s_due due
      end;
      let k = keys.(!i land mask) in
      let ok =
        if !i mod trace_every = 0 then
          Spans.with_ load_sp span (fun () -> ingest k)
        else ingest k
      in
      if not ok then incr load_failed;
      incr i
    in
    (match rate w with
    | None ->
        while not (Atomic.get stop) do
          push_one ~due:(if Measure.sampled !i then now () else 0.0)
        done
    | Some r ->
        (* open loop: key i is due at t_start + i/r whatever the stack
           does, so a stall makes the following keys late, and it shows *)
        while not (Atomic.get stop) do
          let t = now () in
          let due_n = int_of_float ((t -. t_start) *. r) + 1 in
          if !i >= due_n then
            Unix.sleepf (t_start +. (float_of_int !i /. r) -. t)
          else
            while !i < due_n && not (Atomic.get stop) do
              let due = t_start +. (float_of_int !i /. r) in
              if Measure.sampled !i && due >= t_w && due < t_e then
                Vec.push late (now () -. due);
              push_one ~due
            done
        done);
    Option.iter
      (fun c ->
        Spans.with_ load_sp "client.flush" (fun () -> Net.Client.flush c))
      st.cli;
    Spans.with_ load_sp "engine.drain" (fun () -> P.drain st.eng);
    !i
  in
  let load =
    Domain.spawn (fun () ->
        let n = producer () in
        Atomic.set finished true;
        n)
  in
  (* --- main domain --- *)
  let s_ts = Vec.create 0.0 and s_lead = Vec.create 0 and s_rep = Vec.create 0 in
  let q_lat = Vec.create 0.0 and q_t = Vec.create 0.0 in
  let queries = ref 0 and q_failed = ref 0 in
  let timed_query ?parent sp q =
    let q0 = now () in
    incr queries;
    let v =
      match st.cli with
      | Some cli -> (
          match
            Spans.with_ sp ?parent "client.query" (fun () ->
                Net.Client.query cli q)
          with
          | Ok (Net.Frame.Result { pairs = [ (_, v) ]; _ }) -> Some v
          | Ok _ | Error _ ->
              incr q_failed;
              None)
      | None ->
          Some
            (fst
               (Spans.with_ sp ?parent "engine.query" (fun () ->
                    P.query st.eng Sketches.Countmin.updates)))
    in
    let q1 = now () in
    if q0 >= t_w && q0 < t_e then begin
      Vec.push q_lat ((q1 -. q0) *. 1e6);
      Vec.push q_t q0
    end;
    (v, q1)
  in
  let sample () =
    let sid =
      match main_sp with Some b -> Spans.open_ b "sampler.poll" | None -> -1
    in
    (match timed_query ~parent:sid main_sp Net.Frame.Total with
    | Some v, t ->
        Vec.push s_ts t;
        Vec.push s_lead v;
        Vec.push s_rep
          (match st.rep with
          | Some rep ->
              Spans.with_ main_sp ~parent:sid "replica.published" (fun () ->
                  Rep.published rep)
          | None -> v)
    | None, _ -> ());
    Option.iter (fun b -> Spans.close b sid) main_sp
  in
  let s0 = ref None and s1 = ref None in
  let next_tick = ref t_start and qkey = ref (key_count / 2) in
  let expected = ref None and deadline = ref infinity in
  let resolved want =
    s_lead.Vec.n > 0 && Vec.last s_lead >= want && Vec.last s_rep >= want
  in
  let edges = Vec.create 0.0 and counts = Vec.create 0 in
  let edge t n =
    Vec.push edges t;
    Vec.push counts n
  in
  let taken () =
    match st.cli with
    | Some c -> (Net.Client.stats c).Net.Client.acked
    | None -> accepted (P.stats st.eng)
  in
  let running = ref true in
  while !running do
    let t = now () in
    if !s0 = None && t >= t_w then begin
      let s = snap st ~dir in
      s0 := Some s;
      edge s.t (done_keys s)
    end;
    if !s1 = None && t >= t_e then begin
      let s = snap st ~dir in
      s1 := Some s;
      edge s.t (done_keys s);
      Atomic.set stop true;
      deadline := t +. resolve_timeout
    end
    else if !s1 = None && !s0 <> None && t >= Vec.last edges +. slice then
      edge t (taken ());
    if !expected = None && Atomic.get finished then
      (* the load has flushed and drained: everything the stack took is
         published, and the sampler must now see it *)
      expected := Some (st.recovered.Rec.recovered_published + taken ());
    match !expected with
    | Some want when resolved want -> running := false
    | _ when t > !deadline -> running := false
    | _ ->
        if t >= !next_tick then begin
          if t >= t_w && t < t_e then Vec.push tick_late (t -. !next_tick);
          sample ();
          while !next_tick <= now () do
            next_tick := !next_tick +. tick
          done
        end
        else if w = Query_mix && t < t_e then begin
          incr qkey;
          let sp = if !queries mod trace_every = 0 then main_sp else None in
          ignore (timed_query sp (Net.Frame.Point keys.(!qkey land mask)))
        end
        else Unix.sleepf (Float.max 0.0 (!next_tick -. now ()))
  done;
  let pushed = Domain.join load in
  let s0 = Option.get !s0 and s1 = Option.get !s1 in
  let converged = converge ?sp:main_sp st in
  let s2 = snap st ~dir in
  close_stack ?sp:main_sp st;
  (* visibility of the sampled keys due inside the window *)
  let idx = Vec.to_array s_idx and due = Vec.to_array s_due in
  let inw =
    List.filter (fun k -> due.(k) >= s0.t && due.(k) < s1.t)
      (List.init (Array.length idx) Fun.id)
    |> Array.of_list
  in
  let idx = Array.map (fun k -> idx.(k)) inw
  and due = Array.map (fun k -> due.(k)) inw in
  let ts = Vec.to_array s_ts and lead = Vec.to_array s_lead in
  let lat, unresolved = Measure.visibility ~ts ~total:lead ~base ~idx ~due in
  let rep_lat, rep_unresolved =
    Measure.visibility ~ts ~total:(Vec.to_array s_rep) ~base ~idx ~due
  in
  let published = s2.eng_s.P.published in
  let recovered = st.recovered.Rec.recovered_published in
  let acked, sent, lost =
    match s2.cli_s with
    | Some c ->
        ( c.Net.Client.acked,
          pushed + st.setup_keys,
          c.Net.Client.shed + c.Net.Client.exhausted )
    | None -> (accepted s2.eng_s, pushed, 0)
  in
  let server_errors =
    match s2.srv_s with Some s -> s.Srv.decode_errors | None -> 0
  in
  let checks =
    [
      ("conservation", published = recovered + acked);
      ("replica", converged);
      ("monotone", Measure.first_decrease lead = None);
      ( "errors",
        !q_failed = 0
        && s2.eng_s.P.decode_failures = 0
        && server_errors = 0
        && P.failures st.eng = [] );
      ("delivery", !load_failed = 0 && lost = 0 && acked = sent);
      ("visibility", unresolved = 0 && rep_unresolved = 0);
    ]
  in
  {
    st;
    s0;
    s1;
    s2;
    keys = done_keys s1 - done_keys s0;
    edges = Vec.to_array edges;
    counts = Vec.to_array counts;
    lat;
    rep_lat;
    lat_due = due;
    q_lat_us = Vec.to_array q_lat;
    q_t = Vec.to_array q_t;
    late = Array.append (Vec.to_array late) (Vec.to_array tick_late);
    attempted = sent + !queries;
    failed = sent - acked + !q_failed;
    checks;
  }

(* ------------------------------ metrics ------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }
let pct a p = Measure.percentile a p

(* Per-slice medians (Measure.slice_median): see the window slicing. *)
let sliced_lat r p =
  let ok = Array.map Float.is_finite r.lat in
  let pick a =
    List.filteri (fun k _ -> ok.(k)) (Array.to_list a) |> Array.of_list
  in
  Measure.slice_median ~edges:r.edges ~times:(pick r.lat_due)
    ~values:(scale 1e3 (pick r.lat)) (fun a -> pct a p)

let sliced_query r p =
  Measure.slice_median ~edges:r.edges ~times:r.q_t ~values:r.q_lat_us (fun a ->
      pct a p)

let ingest_kops r = Measure.slice_rate ~edges:r.edges ~counts:r.counts /. 1e3

let setup_and_window ~setup_times r =
  [
    m "setup_s" (Measure.median (Array.of_list setup_times)) "s";
    m "ingest_kops" (ingest_kops r) "kkeys/s";
    m "visible_p50_ms" (sliced_lat r 50.0) "ms";
    m "visible_p90_ms" (sliced_lat r 90.0) "ms";
  ]

(* Printed beside the end-to-end metrics but not gated: on a 2-vCPU VM the
   query figures follow the host's thread wake-up latency, and the tails
   its scheduling pauses, more than the program, so they do not repeat
   within a usable bound from run to run. *)
let ungated r =
  let lat_ms = scale 1e3 (finite r.lat) in
  let rep_ms = scale 1e3 (finite r.rep_lat) in
  [
    m "visible_p99_ms" (pct lat_ms 99.0) "ms";
    m "replica_visible_p50_ms" (pct rep_ms 50.0) "ms";
    m "replica_visible_p90_ms" (pct rep_ms 90.0) "ms";
    m "query_qps" (Measure.slice_event_rate ~edges:r.edges ~times:r.q_t) "1/s";
    m "query_p50_us" (sliced_query r 50.0) "us";
    m "query_p99_us" (sliced_query r 99.0) "us";
    m "failed_frac"
      (Measure.failed_frac ~attempted:r.attempted ~failed:r.failed)
      "frac";
    m "top_heap_mb" (float_of_int (r.s1.heap_words * 8) /. 1e6) "MB";
    m "sampled_keys" (float_of_int (Array.length r.lat)) "count";
    m "window_s" (window r) "s";
  ]

(* How much worse, in percent, the traced half reads than the untraced one
   on the workload's headline metric. *)
let overhead_pct w ~untraced:u ~traced:t =
  match w with
  | Served_ingest | Engine_skew ->
      fdiv (ingest_kops u -. ingest_kops t) (ingest_kops u) *. 100.0
  | Fresh_open | Query_mix ->
      let p50 r = sliced_lat r 50.0 in
      fdiv (p50 t -. p50 u) (p50 u) *. 100.0

(* Single-threaded costs of the codec layers, timed on the run's own keys
   and batch sizes: the ledger's per-operation prices. *)
type micro = {
  update_ns : float;
  delta_bytes : int;
  d_encode_us : float;
  d_decode_us : float;
  d_merge_us : float;
  f_encode_us : float;
  f_decode_us : float;
}

let micro keys =
  let mask = Array.length keys - 1 in
  let time_us n f =
    Array.init n (fun i ->
        let t0 = now () in
        f i;
        (now () -. t0) *. 1e6)
    |> Measure.median
  in
  let n_upd = 1 lsl 20 in
  let d = M.create () in
  let t0 = now () in
  for i = 0 to n_upd - 1 do
    M.update d keys.(i land mask)
  done;
  let update_ns = (now () -. t0) *. 1e9 /. float_of_int n_upd in
  let deltas =
    Array.init 64 (fun j ->
        let d = M.create () in
        for i = 0 to engine_batch - 1 do
          M.update d keys.(((j * engine_batch) + i) land mask)
        done;
        d)
  in
  let blobs = Array.map M.encode deltas in
  let global = M.create () in
  let frames =
    Array.init 256 (fun j ->
        Array.init client_batch (fun i ->
            keys.(((j * client_batch) + i) land mask)))
  in
  let req j =
    Net.Frame.Batch
      { session = 1L; seq = j; ctx = Obs.Span.zero; keys = frames.(j) }
  in
  let encoded = Array.init 256 (fun j -> Net.Frame.encode_request (req j)) in
  {
    update_ns;
    delta_bytes = Bytes.length blobs.(0);
    d_encode_us = time_us 64 (fun j -> ignore (M.encode deltas.(j)));
    d_decode_us = time_us 64 (fun j -> ignore (M.decode blobs.(j)));
    d_merge_us = time_us 64 (fun j -> ignore (M.merge global deltas.(j)));
    f_encode_us =
      time_us 256 (fun j -> ignore (Net.Frame.encode_request (req j)));
    f_decode_us =
      time_us 256 (fun j -> ignore (Net.Frame.decode_request encoded.(j)));
  }

let per_layer w ~untraced:ru ~traced:r ~spans:fl ~micro:mb =
  let win = window r in
  let sv = served w in
  (* a layer the workload does not run reads 0 *)
  let served_only name v unit_ = m name (if sv then v else 0.0) unit_ in
  let span_us name =
    Spans.durations_us fl name
      ~t0_ns:(int_of_float (r.s0.t *. 1e9))
      ~t1_ns:(int_of_float (r.s1.t *. 1e9))
  in
  let push_us = span_us "client.push" in
  let ingest_ns = scale 1e3 (span_us "engine.ingest") in
  let wal_us = span_us "wal.append" in
  let e0 = r.s0.eng_s and e1 = r.s1.eng_s and e2 = r.s2.eng_s in
  let merges = e1.P.merges - e0.P.merges in
  let pub = e1.P.published - e0.P.published in
  let keys_per_merge = idiv pub merges in
  let enq =
    Array.mapi
      (fun i (s : P.shard_stats) ->
        float_of_int (s.P.enqueued - e0.P.shards.(i).P.enqueued))
      e1.P.shards
  in
  let sum_shard f (s : P.stats) =
    Array.fold_left (fun a x -> a + f x) 0 s.P.shards
  in
  let shard_d f = float_of_int (sum_shard f e1 - sum_shard f e0) in
  let per_s n = float_of_int n /. win in
  let lags =
    let n0 = Array.length e0.P.merge_lag and n1 = Array.length e1.P.merge_lag in
    scale 1e3 (Array.sub e1.P.merge_lag n0 (n1 - n0))
  in
  let srv_d f =
    match (r.s0.srv_s, r.s1.srv_s) with Some a, Some b -> f b - f a | _ -> 0
  in
  let srv_end f =
    match r.s2.srv_s with Some s -> float_of_int (f s) | None -> 0.0
  in
  let ingested = srv_d (fun s -> s.Srv.ingested) in
  let keys_per_frame = idiv ingested (srv_d (fun s -> s.Srv.batches)) in
  let cli f = match r.s2.cli_s with Some c -> float_of_int (f c) | None -> 0.0 in
  let rep f = match r.s2.rep_s with Some s -> float_of_int (f s) | None -> 0.0 in
  let rep_ms = scale 1e3 (finite r.rep_lat) in
  let lag_ms =
    Array.to_list (Array.map2 (fun a b -> (b -. a) *. 1e3) r.lat r.rep_lat)
    |> List.filter Float.is_finite |> Array.of_list
  in
  let cpu_s =
    r.s1.cpu_user -. r.s0.cpu_user +. (r.s1.cpu_sys -. r.s0.cpu_sys)
  in
  let cpu_us_per_key = fdiv (cpu_s *. 1e6) (float_of_int r.keys) in
  let wal_mean_us = mean wal_us in
  (* Ledger: each row is a per-operation price times the share of a key
     that pays it. A key pays one sketch update, 1/keys_per_merge of a
     delta encode, its decode and merge at the leader (and again at the
     follower), 1/keys_per_frame of a frame encode and decode, and
     1/keys_per_merge of a WAL append. *)
  let copies = if sv then 2.0 else 1.0 in
  let l_update = mb.update_ns /. 1e3 in
  let l_codec =
    fdiv (mb.d_encode_us +. (copies *. mb.d_decode_us)) keys_per_merge
  in
  let l_merge = fdiv (copies *. mb.d_merge_us) keys_per_merge in
  let l_frame =
    if sv then fdiv (mb.f_encode_us +. mb.f_decode_us) keys_per_frame else 0.0
  in
  let l_wal = if sv then fdiv wal_mean_us keys_per_merge else 0.0 in
  let explained = l_update +. l_codec +. l_merge +. l_frame +. l_wal in
  [
    m "client.push_us_p50" (pct push_us 50.0) "us";
    m "client.push_us_p99" (pct push_us 99.0) "us";
    m "client.keys_per_frame" keys_per_frame "count";
    served_only "client.query_us_p50" (pct r.q_lat_us 50.0) "us";
    served_only "client.query_us_p99" (pct r.q_lat_us 99.0) "us";
    m "client.errors" (cli (fun c -> c.Net.Client.errors)) "count";
    m "client.reconnects" (cli (fun c -> c.Net.Client.reconnects)) "count";
    m "client.shed" (cli (fun c -> c.Net.Client.shed)) "count";
    m "frame.bytes_per_key"
      (idiv (srv_d (fun s -> s.Srv.bytes_in)) ingested)
      "B/key";
    m "frame.encode_us" mb.f_encode_us "us";
    m "frame.decode_us" mb.f_decode_us "us";
    m "server.frames_in_per_s" (per_s (srv_d (fun s -> s.Srv.frames_in))) "1/s";
    m "server.bytes_out_per_s" (per_s (srv_d (fun s -> s.Srv.bytes_out))) "B/s";
    m "server.queries_per_s" (per_s (srv_d (fun s -> s.Srv.queries))) "1/s";
    m "server.decode_errors" (srv_end (fun s -> s.Srv.decode_errors)) "count";
    m "server.duplicates" (srv_end (fun s -> s.Srv.duplicates)) "count";
    m "engine.merges_per_s" (per_s merges) "1/s";
    m "engine.keys_per_merge" keys_per_merge "count";
    m "engine.queue_max_depth"
      (float_of_int
         (Array.fold_left
            (fun a (s : P.shard_stats) -> max a s.P.max_depth)
            0 e1.P.shards))
      "count";
    m "engine.shard_skew"
      (fdiv (Array.fold_left Float.max 0.0 enq) (mean enq))
      "ratio";
    m "engine.parks" (shard_d (fun s -> s.P.parks)) "count";
    m "engine.steals" (shard_d (fun s -> s.P.steals)) "count";
    m "engine.dropped"
      (float_of_int (sum_shard (fun s -> s.P.dropped) e2))
      "count";
    m "engine.decode_failures" (float_of_int e2.P.decode_failures) "count";
    m "engine.ingest_ns_p50" (pct ingest_ns 50.0) "ns";
    m "engine.ingest_ns_p99" (pct ingest_ns 99.0) "ns";
    m "engine.merge_lag_ms_p50" (pct lags 50.0) "ms";
    m "engine.merge_lag_ms_p99" (pct lags 99.0) "ms";
    m "sketch.update_ns" mb.update_ns "ns";
    m "sketch.delta_bytes" (float_of_int mb.delta_bytes) "B";
    m "sketch.encode_us" mb.d_encode_us "us";
    m "sketch.decode_us" mb.d_decode_us "us";
    m "sketch.merge_us" mb.d_merge_us "us";
    m "wal.append_us_p50" (pct wal_us 50.0) "us";
    m "wal.append_us_p99" (pct wal_us 99.0) "us";
    m "wal.busy_frac" (Array.fold_left ( +. ) 0.0 wal_us /. (win *. 1e6)) "frac";
    m "wal.bytes_per_key" (idiv (r.s1.wal_bytes - r.s0.wal_bytes) pub) "B/key";
    m "wal.appends" (float_of_int (r.s1.wal_appends - r.s0.wal_appends)) "count";
    m "recovery.s" r.st.recovery_s "s";
    m "recovery.replayed" (float_of_int r.st.recovered.Rec.replayed) "count";
    m "recovery.bytes" (float_of_int r.st.recovery_bytes) "B";
    served_only "replica.visible_p50_ms" (pct rep_ms 50.0) "ms";
    served_only "replica.visible_p90_ms" (pct rep_ms 90.0) "ms";
    served_only "replica.lag_ms_p50" (pct lag_ms 50.0) "ms";
    served_only "replica.lag_ms_p90" (pct lag_ms 90.0) "ms";
    m "replica.deltas" (rep (fun s -> s.Rep.deltas)) "count";
    m "replica.skipped" (rep (fun s -> s.Rep.skipped)) "count";
    m "replica.resyncs" (rep (fun s -> s.Rep.resyncs)) "count";
    m "gen.late_ms_p99" (pct (scale 1e3 r.late) 99.0) "ms";
    m "gen.late_ms_max" (Array.fold_left Float.max 0.0 (scale 1e3 r.late)) "ms";
    m "proc.cpu_us_per_key" cpu_us_per_key "us/key";
    m "proc.sys_frac" (fdiv (r.s1.cpu_sys -. r.s0.cpu_sys) cpu_s) "frac";
    m "proc.minor_gcs_per_s" (per_s (r.s1.minor - r.s0.minor)) "1/s";
    m "proc.major_gcs_per_s" (per_s (r.s1.major - r.s0.major)) "1/s";
    m "proc.top_heap_mb" (float_of_int (r.s1.heap_words * 8) /. 1e6) "MB";
    m "trace.overhead_pct" (overhead_pct w ~untraced:ru ~traced:r) "pct";
    m "ledger.update_us_per_key" l_update "us/key";
    m "ledger.codec_us_per_key" l_codec "us/key";
    m "ledger.merge_us_per_key" l_merge "us/key";
    m "ledger.frame_us_per_key" l_frame "us/key";
    m "ledger.wal_us_per_key" l_wal "us/key";
    m "ledger.unexplained_us_per_key" (cpu_us_per_key -. explained) "us/key";
    m "ledger.explained_frac" (fdiv explained cpu_us_per_key) "frac";
  ]

(* ------------------------------- output ------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.12g" v else "0"

let print_metrics ms =
  List.iter
    (fun x -> Printf.printf "metric %s %s %s\n" x.name (num x.value) x.unit_)
    ms

let json ~correct ~attempted ~failed ms =
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (num x.value) x.unit_)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

(* -------------------------------- runs ------------------------------- *)

let run w ~seed ~seconds ~trace ~spans_file =
  let root = Filename.concat run_root (string_of_int (Unix.getpid ())) in
  rm_rf root;
  mkdir_p root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let seed = Int64.of_int seed in
      let seed_dir = Filename.concat root "seed" in
      let zipf = zipf_keys seed in
      seed_wal ~dir:seed_dir zipf;
      let keys = if w = Engine_skew then hot_flip_keys seed else zipf in
      let nodes = ref 0 in
      let fresh_dir () =
        incr nodes;
        node_dir ~root ~seed_dir !nodes
      in
      (* all set-ups but the last are torn down unmeasured: they only
         feed the set-up time median *)
      let phase ~tr ~seconds ~n_setups =
        let extra =
          List.init (n_setups - 1) (fun _ ->
              let dir = fresh_dir () in
              let st = setup w ~dir ~tr:None in
              ignore (converge st);
              close_stack st;
              rm_rf dir;
              st.setup_s)
        in
        let dir = fresh_dir () in
        let st = setup w ~dir ~tr in
        (* recovery leaves hundreds of MB of garbage; collecting it here
           keeps its sweep out of the measured window, by chance or not *)
        Gc.full_major ();
        let r = measure w st ~dir ~keys ~seconds ~tr in
        rm_rf dir;
        (st.setup_s :: extra, r)
      in
      let verdict rs =
        let failing =
          List.concat_map
            (fun r ->
              List.filter_map
                (fun (n, ok) -> if ok then None else Some n)
                r.checks)
            rs
          |> List.sort_uniq compare
        in
        (match failing with
        | [] -> print_endline "stack: PASS"
        | l -> Printf.printf "stack: FAIL %s\n" (String.concat " " l));
        ( failing = [],
          List.fold_left (fun a r -> a + r.attempted) 0 rs,
          List.fold_left (fun a r -> a + r.failed) 0 rs )
      in
      if not trace then begin
        let setup_times, r = phase ~tr:None ~seconds ~n_setups:setups in
        let e2e = setup_and_window ~setup_times r in
        print_metrics e2e;
        print_metrics (ungated r);
        let ok, attempted, failed = verdict [ r ] in
        let ok = ok && List.for_all (fun x -> Float.is_finite x.value) e2e in
        print_endline (json ~correct:ok ~attempted ~failed e2e);
        ok
      end
      else begin
        (* untraced and traced halves of one budget: the difference is the
           tracing overhead *)
        let half = seconds /. 2.0 in
        let _, ru = phase ~tr:None ~seconds:half ~n_setups:1 in
        let tr =
          {
            main = Spans.create ~dom:0;
            load = Spans.create ~dom:1;
            merger = Spans.create ~dom:2;
          }
        in
        let _, rt = phase ~tr:(Some tr) ~seconds:half ~n_setups:1 in
        let fl = Spans.flatten [ tr.main; tr.load; tr.merger ] in
        Spans.write fl spans_file;
        Printf.printf "spans: %d written to %s (%d dropped)\n"
          (Array.length fl.Spans.f_name) spans_file
          (tr.main.Spans.dropped + tr.load.Spans.dropped
         + tr.merger.Spans.dropped);
        List.iter
          (fun (nm, c, tot, self) ->
            Printf.printf "span %-20s n=%-7d total_ms=%-10.1f self_ms=%.1f\n"
              nm c (float_of_int tot /. 1e6) (float_of_int self /. 1e6))
          (Spans.summary fl);
        let layers =
          per_layer w ~untraced:ru ~traced:rt ~spans:fl ~micro:(micro keys)
        in
        print_metrics layers;
        let ok, attempted, failed = verdict [ ru; rt ] in
        print_endline (json ~correct:ok ~attempted ~failed layers);
        ok
      end)

(* --check-spread R: R runs per workload, each in a fresh process with its
   own seed, then each end-to-end metric's median, quartiles and
   (max-min)/median against its bound in BENCHMARK.json. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_spread names ~seed ~seconds ~reps =
  let bench = Json.parse (read_file "BENCHMARK.json") in
  let bounds =
    Json.to_list (Json.member "end_to_end" bench)
    |> List.map (fun e ->
           ( Json.to_string (Json.member "name" e),
             Json.to_float (Json.member "bound" e) ))
  in
  let child name s =
    let args =
      [|
        Sys.executable_name; "--workload"; name; "--seed"; string_of_int s;
        "--seconds"; Printf.sprintf "%g" seconds; "--trace"; "0";
      |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let last = ref "" in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then last := l
       done
     with End_of_file -> ());
    let status = Unix.close_process_in ic in
    match (status, Json.parse !last) with
    | Unix.WEXITED 0, j when Json.member "correct" j = Json.Bool true ->
        Some (Json.member "metrics" j)
    | _ -> None
    | exception Failure _ -> None
  in
  let ok = ref true in
  List.iter
    (fun name ->
      let runs = List.init reps (fun r -> child name (seed + r)) in
      if List.mem None runs then begin
        Printf.printf "spread %s: a run failed or was incorrect\n%!" name;
        ok := false
      end
      else
        List.iter
          (fun (metric, bound) ->
            let value j =
              Json.to_float
                (Json.member "value" (Json.member metric (Option.get j)))
            in
            let vs = Array.of_list (List.map value runs) in
            let q1, med, q3 = Measure.quartiles vs in
            let mo = Stats.Moments.of_array vs in
            let range =
              fdiv (Stats.Moments.max mo -. Stats.Moments.min mo) med
            in
            let pass = range <= bound in
            if not pass then ok := false;
            Printf.printf
              "spread %-13s %-15s median=%-10.4g q1=%-10.4g q3=%-10.4g \
               iqr=%5.1f%% range=%5.1f%% bound=%4.0f%% %s\n%!"
              name metric med q1 q3
              (fdiv (q3 -. q1) med *. 100.0)
              (range *. 100.0) (bound *. 100.0)
              (if pass then "ok" else "FAIL"))
          bounds)
    names;
  !ok

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and spans = ref "" and spread = ref 0 in
  let usage =
    "stack.exe --workload NAME --seed N [--seconds S] [--trace 0|1]\n\
    \          [--spans FILE]\n\
     stack.exe --check-spread R [--workload NAME|all] [--seed N]\n\
    \          [--seconds S]\n\
     workloads: "
    ^ String.concat " " (List.map fst workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S measured window (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--spans", Arg.Set_string spans, "FILE span file of a traced run");
      ("--check-spread", Arg.Set_int spread, "R runs per workload, then spread");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad msg =
    prerr_endline ("stack: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  if !seconds <= 0.0 then bad "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !spread > 0 then begin
    let names =
      if !workload = "" || !workload = "all" then List.map fst workloads
      else if List.mem_assoc !workload workloads then [ !workload ]
      else bad ("unknown workload " ^ !workload)
    in
    let ok = check_spread names ~seed:!seed ~seconds:!seconds ~reps:!spread in
    exit (if ok then 0 else 1)
  end;
  match List.assoc_opt !workload workloads with
  | None -> bad ("unknown workload " ^ !workload)
  | Some w ->
      let spans_file =
        if !spans <> "" then !spans
        else
          Filename.concat run_root
            (Printf.sprintf "spans-%s-%d.tsv" !workload !seed)
      in
      mkdir_p (Filename.dirname spans_file);
      let ok =
        run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~spans_file
      in
      exit (if ok then 0 else 1)
