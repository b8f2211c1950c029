(** The tracing decision point and span sink.

    One tracer per process tier (client, server+engine, replica). Two
    operations matter:

    - {!sample} — taken once per batch at the edge (client [push] path,
      or a bench feeder). A deterministic SplitMix64 die decides whether
      this batch is traced: roughly one in [sample_every] batches gets a
      fresh nonzero {!Span.context}; the rest get {!Span.zero} and every
      downstream stage short-circuits. Every tracer rolls the same seeded
      die ([0x7ace5]), so the decision sequence is reproducible.
    - {!record} — called by each stage as it completes, with the context
      it was handed. No-op on a zero context (the hot path is one load and
      one compare). For sampled work it mints a span id, stamps a
      tracer-local monotone tick, appends the span to a bounded in-memory
      ring (what [/trace?n=K] and [soak --trace-dump K] print), and
      feeds the duration into a per-stage KLL timer
      ([trace_stage_seconds{stage="..."}]). The tracer is the process's only
      tracing path; lifecycle facts such as restarts and sheds are counted
      by registry series, not spans.

    Recording takes a mutex — acceptable because only sampled batches
    (1/[sample_every]) ever reach it; the unsampled path is wait-free. *)

type t

val create : ?sample_every:int -> ?metrics:Registry.t -> unit -> t
(** [sample_every] (default 64): expected batches per sampled trace; [1]
    traces everything, [0] disables sampling entirely. The recent-span
    ring keeps the last 512 spans. [metrics] registers
    [trace_sampled_total], [trace_spans_total], [trace_spans_dropped_total]
    and lazily one [trace_stage_seconds] timer per stage.
    @raise Invalid_argument if [sample_every < 0]. *)

val sample_every : t -> int

val sample : t -> Span.context option
(** Roll the die for a fresh batch: [Some ctx] with a nonzero trace id
    (parent 0 — the root) about once per [sample_every] calls, [None]
    otherwise. Thread-safe. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds — the stage timestamp base. *)

val record :
  t -> ctx:Span.context -> stage:string -> start_ns:int -> end_ns:int -> int64
(** [record t ~ctx ~stage ~start_ns ~end_ns] logs one completed stage and
    returns its minted span id — pass it downstream via
    {!Span.with_parent}. Returns [0L] without recording when [ctx] is
    {!Span.zero}. [stage] should be a preallocated constant (it is stored by
    reference in the span ring). *)

val recent : t -> int -> Span.record list
(** The most recent [n] spans, oldest first. Spans beyond the 512-span
    window are gone (counted in [trace_spans_dropped_total]). *)

val spans : t -> int
(** Spans ever recorded. *)

val sampled : t -> int
(** Contexts ever handed out by {!sample}. *)
