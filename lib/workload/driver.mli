(** Closed- and open-loop trace driver.

    Pushes a materialized {!Trace} through any ingest {!sink} (in practice
    [Pipeline.Engine]) phase by phase. A phase whose rate is
    {!Trace.Unlimited} runs {e closed-loop}: feeders issue blocking ingests
    back-to-back, so the measured rate {e is} the system's capacity under
    backpressure. A phase with a {!Trace.Fixed} or {!Trace.Diurnal} rate
    runs {e open-loop}: each feeder computes per-operation deadlines on the
    offered-rate curve, sleeps until the deadline, and uses non-blocking
    ingest — a full queue is a shed, not a stall — so offered vs achieved
    rate and shed counts measure how the system degrades when the load does
    not politely wait.

    Feeders are separate domains; each gets a contiguous chunk of the
    phase's operations and [1/feeders] of the offered rate. Latencies are
    stride-sampled (every {!sample_stride}-th operation) to keep memory
    bounded; percentiles are exact over the retained samples. *)

type sink = Sink.t
(** The ingest/query surface a feeder drives — see {!Sink}. The driver
    calls [sink.flush] at the end of each feeder's chunk (inside the
    feeder's measured wall time, before the phase barrier) so buffered
    sinks like the net client are empty when a phase ends. *)

type phase_report = {
  phase : string;
  wall : float;  (** slowest feeder's seconds in this phase *)
  issued : int;  (** operations attempted (updates + queries) *)
  accepted : int;  (** updates the sink took *)
  shed : int;  (** updates dropped or shed *)
  queries : int;
  offered_rate : float;  (** mean target op/s; 0 for closed-loop phases *)
  achieved_rate : float;  (** issued / wall *)
  update_p50 : float;  (** seconds, over sampled ingest latencies *)
  update_p99 : float;
  query_p50 : float;
  query_p99 : float;
}

type report = {
  phases : phase_report list;
  wall : float;
  issued : int;
  accepted : int;
  shed : int;
  queries : int;
}

val run :
  ?feeders:int ->
  ?metrics:Obs.Registry.t ->
  make_sink:(feeder:int -> sink) ->
  spec:Trace.spec ->
  ops:Scenario.op array array ->
  unit ->
  report
(** Drive every phase of [ops] (as produced by {!Trace.materialize} or
    {!Trace.read}) through the sinks. [make_sink ~feeder] is called once per
    feeder index before the domains spawn, so each feeder can own private
    un-shared state (e.g. a per-feeder oracle slice the caller merges
    afterwards). Phases run in order with a barrier between them; feeders of
    one phase run concurrently.

    [metrics] registers [driver_issued_total], [driver_accepted_total],
    [driver_shed_total], [driver_queries_total] (scrape-time callbacks over
    the driver's counters, live mid-run) and per-phase
    [driver_update_seconds]/[driver_query_seconds] timers labelled
    [phase="name"] fed from the stride samples.
    @raise Invalid_argument if [feeders <= 0] or [ops] does not match the
    spec's phase count. *)

val report_to_string : report -> string
(** Human-readable per-phase table. *)
