(** Replayable, versioned binary workload traces.

    A trace is a phased description of traffic: each {!phase} names an
    operation count, a query mix, a target offered {!rate} and a key
    {!shape}. Materialization is a pure function of the trace seed — the
    same spec replays bit-for-bit across runs and across domains — and a
    materialized trace can be frozen to disk in the repository's standard
    wire framing ({!Wire.Codec}: magic, version, kind tag,
    {!Wire.Codec.fnv1a} checksum per frame), so a soak run can be
    reproduced from the file alone even if the generator code later
    changes.

    File layout: one [trace-header] frame (format version, seed, phase
    descriptors) followed by [trace-block] frames, each holding up to
    {!block_ops} operations of a single phase in order. Every frame is
    independently checksummed; {!read} rejects torn or bit-flipped files
    with a precise error instead of replaying garbage. *)

(** Key-distribution shape of one phase. All samplers draw exclusively from
    a phase-local {!Rng.Splitmix} generator, never from shared state. *)
type shape =
  | Uniform of { universe : int }
  | Zipf of { universe : int; skew : float }
  | Drift of { universe : int; s0 : float; s1 : float; steps : int }
      (** Zipf whose skew drifts linearly from [s0] to [s1] over [steps]
          equal segments of the phase; the CDF is recomputed at each
          boundary. Models a hot set that sharpens or flattens over time. *)
  | Burst of { universe : int; burst : int }
      (** One uniformly drawn key repeated [burst] times per train. *)
  | Hot_flip of { universe : int; hot_ratio : float; flip_every : int }
      (** A single hot key absorbs [hot_ratio] of the traffic and is
          re-drawn every [flip_every] operations — the worst case for any
          cache or counter plane keyed on recent frequency. *)
  | Adversarial of { universe : int }
      (** Single-key hammer: every operation hits key 0, maximizing
          counter contention and CountMin row collisions. *)
  | Recorded of { universe : int }
      (** Operations exist only in the trace file (captured by
          [trace record]); {!materialize} refuses this shape. *)

(** Offered-rate curve of one phase, in operations per second across all
    feeder domains. *)
type rate =
  | Unlimited  (** Closed loop: push as fast as the sink accepts. *)
  | Fixed of float
  | Diurnal of { mean : float; amplitude : float; period : float }
      (** [mean * (1 + amplitude * sin (2πt/period))] with [t] in seconds
          from phase start — a compressed day/night load curve. *)

type phase = {
  name : string;
  ops : int;
  query_ratio : float;  (** Fraction of operations that are queries. *)
  rate : rate;
  shape : shape;
}

type spec = { seed : int64; phases : phase list }

val total_ops : spec -> int
val universe_of : shape -> int
(** The shape's declared key universe. *)

val validate : spec -> (unit, string) result
(** Check every phase for nonsensical parameters (empty universe, negative
    counts, ratios outside [\[0,1\]], …) before any work is done. *)

val phase_seed : int64 -> int -> int64
(** [phase_seed seed i] is the derived generator seed of phase [i]. Exposed
    so tests can assert phases are decorrelated. *)

val materialize : spec -> Scenario.op array array
(** [materialize spec] generates each phase's operations, one inner array
    per phase, deterministically from [spec.seed].
    @raise Invalid_argument on an invalid spec or a {!Recorded} phase. *)

val write : path:string -> spec -> Scenario.op array array -> (unit, string) result
(** Freeze a spec plus its (materialized or captured) operations to [path].
    The operation arrays must match the per-phase [ops] counts. *)

val read : path:string -> (spec * Scenario.op array array, string) result
(** Load and fully validate a trace file: framing, checksums, header
    schema, block ordering and per-phase operation counts. *)

val default_spec : ?seed:int64 -> ops:int -> universe:int -> unit -> spec
(** A canonical mixed trace exercising every generator: steady Zipf, skew
    drift, burst trains, hot-key flips under a diurnal rate curve, and an
    adversarial single-key hammer. [ops] is the total across phases. *)

val describe : spec -> string
(** Multi-line human summary, one phase per line — the [trace cat] view. *)
