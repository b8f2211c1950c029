type budget = { envelope_width : float; staleness : float; merge_lag : float }

let theorem6_budget ?(slack = 2.0) ~shards ~batch ~queue_capacity () =
  if slack <= 0.0 then invalid_arg "Obs.Slo.theorem6_budget: slack <= 0";
  if shards < 1 || batch < 1 || queue_capacity < 1 then
    invalid_arg "Obs.Slo.theorem6_budget: shards/batch/queue_capacity < 1";
  (* Theorem 6 instantiated for this engine: each of the [shards] workers
     can hold one open batch plus a full shard queue of accepted-but-
     unmerged updates, so the envelope of any interleaved read is bounded
     by shards*(batch+queue_capacity); slack covers merger-queue
     residency, which the static bound cannot see. *)
  let in_flight = float_of_int (shards * (batch + queue_capacity)) *. slack in
  {
    envelope_width = in_flight;
    staleness = in_flight;
    merge_lag = Float.max 1.0 (float_of_int batch /. 64.0);
  }

type state = Ok | Warning | Breach

let state_to_string = function
  | Ok -> "ok"
  | Warning -> "warning"
  | Breach -> "breach"

let state_code = function Ok -> 0 | Warning -> 1 | Breach -> 2

type verdict = {
  state : state;
  worst_dim : string;
  worst_ratio : float;
  breaches : int;
}

(* The burn-rate machine's thresholds: a ratio of [warn_ratio] arms
   [Warning]; [breach_after] consecutive over-budget evaluations enter
   [Breach]; [clear_after] consecutive clean ones step down a level. *)
let warn_ratio = 0.8
let breach_after = 5
let clear_after = 3

type t = {
  budget : budget;
  envelope : unit -> float;
  staleness : unit -> float;
  merge_lag : unit -> float;
  m : Mutex.t;
  mutable state : state;
  mutable over_streak : int;  (* consecutive evals with some ratio >= 1 *)
  mutable clean_streak : int;  (* consecutive evals fully under warn_ratio *)
  mutable breaches_n : int;
  mutable last_breach : (string * float) option;
  mutable last : verdict;
  mutable ratios : (string * float) list;  (* last per-dimension burn *)
}

let default_budget =
  { envelope_width = 1e6; staleness = 1e6; merge_lag = 5.0 }

let create ?(budget = default_budget) ?metrics ~envelope ~staleness ~merge_lag
    () =
  let t =
    {
      budget;
      envelope;
      staleness;
      merge_lag;
      m = Mutex.create ();
      state = Ok;
      over_streak = 0;
      clean_streak = 0;
      breaches_n = 0;
      last_breach = None;
      last = { state = Ok; worst_dim = "none"; worst_ratio = 0.0; breaches = 0 };
      ratios = [];
    }
  in
  (match metrics with
  | Some reg ->
      Registry.gauge_fn reg "slo_status"
        ~help:"Envelope SLO state: 0 ok, 1 warning, 2 breach" (fun () ->
          float_of_int (state_code t.state));
      Registry.gauge_fn reg "slo_burn_ratio"
        ~help:"Worst dimension's value / budget at last evaluation" (fun () ->
          t.last.worst_ratio);
      Registry.counter_fn reg "slo_breaches_total"
        ~help:"Times the SLO machine entered breach" (fun () -> t.breaches_n);
      List.iter
        (fun dim ->
          Registry.gauge_fn reg "slo_ratio"
            ~labels:[ ("dim", dim) ]
            ~help:"Per-dimension value / budget at last evaluation" (fun () ->
              match List.assoc_opt dim t.ratios with
              | Some r -> r
              | None -> 0.0))
        [ "envelope_width"; "staleness"; "merge_lag" ]
  | None -> ());
  t

let breaches t = t.breaches_n
let last_breach t = t.last_breach
let current t = t.last

(* A negative reading means "unknown" (no replica, no merges yet): score 0
   rather than poisoning the machine with a sentinel. *)
let ratio value limit =
  if value < 0.0 || limit <= 0.0 then 0.0 else value /. limit

let eval t =
  let e = ratio (t.envelope ()) t.budget.envelope_width in
  let s = ratio (t.staleness ()) t.budget.staleness in
  let l = ratio (t.merge_lag ()) t.budget.merge_lag in
  Mutex.lock t.m;
  t.ratios <-
    [ ("envelope_width", e); ("staleness", s); ("merge_lag", l) ];
  let worst_dim, worst_ratio =
    List.fold_left
      (fun (wd, wr) (d, r) -> if r > wr then (d, r) else (wd, wr))
      ("none", 0.0) t.ratios
  in
  if worst_ratio >= 1.0 then begin
    t.over_streak <- t.over_streak + 1;
    t.clean_streak <- 0
  end
  else if worst_ratio < warn_ratio then begin
    t.clean_streak <- t.clean_streak + 1;
    t.over_streak <- 0
  end
  else begin
    (* the hysteresis band: neither arming breach nor clearing warning *)
    t.over_streak <- 0;
    t.clean_streak <- 0
  end;
  (match t.state with
  | Ok -> if worst_ratio >= warn_ratio then t.state <- Warning
  | Warning ->
      if t.over_streak >= breach_after then begin
        t.state <- Breach;
        t.breaches_n <- t.breaches_n + 1;
        t.last_breach <- Some (worst_dim, worst_ratio)
      end
      else if t.clean_streak >= clear_after then t.state <- Ok
  | Breach -> if t.clean_streak >= clear_after then t.state <- Warning);
  let v = { state = t.state; worst_dim; worst_ratio; breaches = t.breaches_n } in
  t.last <- v;
  Mutex.unlock t.m;
  v
