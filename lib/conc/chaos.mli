(** Chaos injection for real multicore (domain) workloads.

    The simulator's {!Simulation.Fault} controls the schedule exactly; on
    real hardware the OS schedules domains, so adversity must be injected
    from inside the workload. A {!t} gives each domain a deterministic
    stream of injected misfortunes at {e injection points} the workload
    places between and inside operations:

    - randomized {e yields} (a handful of [Domain.cpu_relax] calls) and
      longer {e stalls} (thousands of spins), which shake out interleavings
      real schedulers rarely produce on an idle machine; and
    - {e kills}: at a pre-chosen point a victim domain raises {!Killed},
      emulating crash-stop domain death. Placed inside a
      {!Recorder.record_update} body, the kill lands {e mid-operation}: the
      invocation is logged, the response never is, and the recorded history
      carries a pending operation exactly like the paper's adversarial
      completions (the update may or may not have taken effect, and the
      checkers must accept both).

    Everything is per-domain deterministic given [(seed, domain)]: re-running
    a failing chaos seed reproduces the same injection sequence (the OS
    schedule of course still varies). *)

exception Killed of { domain : int; point : int }
(** Raised at the victim's chosen injection point; [point] is the 1-based
    count of points the domain had passed. *)

type plan = {
  seed : int64;
  yield_prob : float;  (** per-point probability of a short yield burst *)
  stall_prob : float;  (** per-point probability of a long stall *)
  stall_spins : int;  (** spin count of a long stall *)
  kills : (int * int) list;
      (** [(domain, point)]: domain raises {!Killed} at its [point]-th
          injection point (1-based). At most one kill per domain is
          honoured (the earliest). *)
}

val plan :
  ?yield_prob:float ->
  ?stall_prob:float ->
  ?stall_spins:int ->
  ?kills:(int * int) list ->
  seed:int64 ->
  unit ->
  plan
(** Defaults: [yield_prob = 0.2], [stall_prob = 0.02],
    [stall_spins = 2000], no kills.
    @raise Invalid_argument on probabilities outside [0,1] or negative
    spin counts. *)

val random_kills :
  seed:int64 -> domains:int -> victims:int -> max_point:int -> (int * int) list
(** Pick [victims] distinct victim domains (each with a kill point uniform
    in [\[1, max_point\]]) — the usual way to seed a soak-test round.
    @raise Invalid_argument if [victims > domains] or [max_point < 1]. *)

type t

val instantiate : plan -> domains:int -> t
(** Fresh per-domain RNGs and kill countdowns for one run. Delivered kills
    are reported by {!killed}; yields and stalls leave no record. *)

val point : t -> domain:int -> unit
(** An injection point. May yield, stall, or raise {!Killed} (once per
    victim domain; after that the domain is marked dead and must stop
    calling). Each domain must only be driven from its own domain. *)

val point_once : t -> domain:int -> unit
(** Like {!point}, except a domain that has already been killed passes
    through as a no-op instead of re-raising. This is the hook for
    supervised pipelines: the first incarnation of a victim worker dies at
    its chosen point, and the incarnation the supervisor restarts runs the
    same hook harmlessly — one injected crash per victim, no crash loop
    into a shed. *)

val points_passed : t -> domain:int -> int
(** Injection points this domain has passed (including the killing one). *)

val killed : t -> int list
(** Domains that have raised {!Killed}, ascending. Read after the workers
    are joined. *)
