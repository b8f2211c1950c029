(** Continuous envelope-SLO monitoring: is the system's quantitative
    correctness bound actually holding *right now*?

    IVL makes correctness quantitative — a read is "good" relative to the
    width of its envelope (Rinberg & Keidar, PODC 2020, Theorem 6). This
    module turns that from a post-mortem test assertion into a live
    service-level objective: three dimensions (accepted-but-unpublished
    envelope width, replica staleness, merge lag) are each read through a
    callback, divided by a budget, and folded through a burn-rate state
    machine with hysteresis:

    - [Ok] → [Warning] when any ratio reaches 0.8 of its budget (ratios
      >= 1.0 are over budget);
    - [Warning] → [Breach] only after {!breach_after} {e consecutive}
      over-budget evaluations (a single chaos-induced spike is not an
      incident);
    - downgrades require {!clear_after} consecutive evaluations under
      0.8 of budget (no flapping at the boundary).

    Evaluation is pull-based ({!eval} from a scrape, the HTTP [/healthz]
    handler or a soak's sampler loop) or push-based (a [poll] domain). *)

type budget = {
  envelope_width : float;  (** max acceptable [pipeline_envelope_width] *)
  staleness : float;  (** max acceptable replica lag, in published weight *)
  merge_lag : float;  (** max acceptable delta age at merge, seconds *)
}

val theorem6_budget :
  ?slack:float -> shards:int -> batch:int -> queue_capacity:int -> unit -> budget
(** The envelope bound the engine's own structure implies: at any instant
    at most [shards * (batch + queue_capacity)] accepted updates can sit
    unpublished (each worker holds one open batch and a full queue), scaled
    by [slack] (default 2.0) to absorb merger-queue residency. Staleness
    gets the same bound (a healthy follower trails by at most what the
    leader has in flight) and merge lag defaults to 1s per 64 batch items
    of fold work, floored at 1s. *)

type state = Ok | Warning | Breach

val state_to_string : state -> string

type verdict = {
  state : state;
  worst_dim : string;  (** dimension with the highest burn ratio *)
  worst_ratio : float;  (** its value / budget *)
  breaches : int;  (** times the machine entered [Breach], ever *)
}

type t

val breach_after : int
(** 5: consecutive over-budget evaluations that enter [Breach]. *)

val clear_after : int
(** 3: consecutive evaluations under 0.8 of budget that step the state
    down one level. *)

val create :
  ?budget:budget ->
  ?metrics:Registry.t ->
  envelope:(unit -> float) ->
  staleness:(unit -> float) ->
  merge_lag:(unit -> float) ->
  unit ->
  t
(** [metrics] registers [slo_status], [slo_burn_ratio],
    [slo_ratio{dim="..."}] gauges and [slo_breaches_total]. A negative
    callback value means "dimension unknown" (e.g. no replica attached)
    and is scored as in-budget. *)

val eval : t -> verdict
(** Read all three dimensions, advance the state machine, return the
    current verdict. Thread-safe; call from any domain at any cadence. *)

val current : t -> verdict
(** Last verdict without advancing the machine ([Ok]/ratio 0 before the
    first {!eval}). *)

val breaches : t -> int
(** Times the machine has ever entered [Breach] — the soak's
    zero-tolerance drain check reads this after a final {!eval}. *)

val last_breach : t -> (string * float) option
(** The dimension and burn ratio of the evaluation that last moved the
    machine into [Breach]; [None] before the first breach. A drain-time
    verdict's [worst_dim] describes the drained system, not the incident,
    so breach reports name this one. *)
