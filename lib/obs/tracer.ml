let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type t = {
  sample_every : int;
  m : Mutex.t;  (* guards dice, ring and the stage-timer table *)
  dice : Rng.Splitmix.t;
  ring : Span.record option array;  (* keep most-recent spans, ring-indexed *)
  mutable written : int;
  stamp : int Atomic.t;  (* monotone record tick, shared across domains *)
  metrics : Registry.t option;
  stage_timers : (string, Timer.t) Hashtbl.t;
  sampled_n : int Atomic.t;
  spans_n : int Atomic.t;
}

(* Every tracer rolls the same die sequence, and keeps this many spans. *)
let seed = 0x7ace5L
let keep = 512

let create ?(sample_every = 64) ?metrics () =
  if sample_every < 0 then invalid_arg "Obs.Tracer.create: sample_every < 0";
  let t =
    {
      sample_every;
      m = Mutex.create ();
      dice = Rng.Splitmix.create seed;
      ring = Array.make keep None;
      written = 0;
      stamp = Atomic.make 0;
      metrics;
      stage_timers = Hashtbl.create 8;
      sampled_n = Atomic.make 0;
      spans_n = Atomic.make 0;
    }
  in
  (match metrics with
  | Some reg ->
      Registry.counter_fn reg "trace_sampled_total"
        ~help:"Trace contexts handed out by the sampler" (fun () ->
          Atomic.get t.sampled_n);
      Registry.counter_fn reg "trace_spans_total"
        ~help:"Stage spans recorded" (fun () -> Atomic.get t.spans_n);
      Registry.counter_fn reg "trace_spans_dropped_total"
        ~help:"Spans evicted from the recent-span window" (fun () ->
          max 0 (t.written - keep))
  | None -> ());
  t

let sampled t = Atomic.get t.sampled_n
let spans t = Atomic.get t.spans_n

(* Ids must be nonzero (zero means "untraced") and unique enough to join
   spans across tiers; 64 random bits from the seeded stream are both. *)
let rec nonzero_id dice =
  let id = Rng.Splitmix.next_int64 dice in
  if Int64.equal id 0L then nonzero_id dice else id

let sample t =
  if t.sample_every = 0 then None
  else begin
    Mutex.lock t.m;
    let hit = Rng.Splitmix.next_int t.dice t.sample_every = 0 in
    let ctx =
      if hit then begin
        let id = nonzero_id t.dice in
        Atomic.incr t.sampled_n;
        Some { Span.trace_id = id; parent = 0L }
      end
      else None
    in
    Mutex.unlock t.m;
    ctx
  end

let stage_timer t reg stage =
  match Hashtbl.find_opt t.stage_timers stage with
  | Some timer -> timer
  | None ->
      let timer =
        Registry.timer reg "trace_stage_seconds"
          ~help:"Per-stage latency of sampled requests"
          ~labels:[ ("stage", stage) ]
      in
      Hashtbl.add t.stage_timers stage timer;
      timer

let record t ~ctx ~stage ~start_ns ~end_ns =
  if Span.is_zero ctx then 0L
  else begin
    Mutex.lock t.m;
    let span_id = nonzero_id t.dice in
    let stamp = Atomic.fetch_and_add t.stamp 1 in
    let dur_ns = max 0 (end_ns - start_ns) in
    let r =
      {
        Span.trace_id = ctx.Span.trace_id;
        span_id;
        parent = ctx.Span.parent;
        stage;
        start_ns;
        dur_ns;
        stamp;
      }
    in
    t.ring.(t.written mod Array.length t.ring) <- Some r;
    t.written <- t.written + 1;
    let timer =
      match t.metrics with
      | Some reg -> Some (stage_timer t reg stage)
      | None -> None
    in
    Mutex.unlock t.m;
    Atomic.incr t.spans_n;
    (match timer with
    | Some timer -> Timer.observe timer (float_of_int dur_ns *. 1e-9)
    | None -> ());
    span_id
  end

let recent t n =
  Mutex.lock t.m;
  let len = Array.length t.ring in
  let have = min t.written len in
  let take = min (max 0 n) have in
  let out = ref [] in
  (* newest-first walk back from the write cursor, then reverse *)
  for i = 0 to take - 1 do
    match t.ring.((t.written - 1 - i + (2 * len)) mod len) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  Mutex.unlock t.m;
  !out
