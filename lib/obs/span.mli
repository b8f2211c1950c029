(** Trace spans: the unit of the cross-tier waterfall.

    A {!context} is what travels — on the wire inside a batch frame
    ([Net.Frame]), and in-process attached to a shard delta
    ([Pipeline.Engine]). It is deliberately tiny (two int64s) so an
    unsampled request pays nothing beyond comparing against {!zero}. Every
    batch frame carries one (16 bytes), zero or not.

    A {!record} is what a {!Tracer} keeps locally once a stage completes:
    the context plus this stage's own span id, name and timing. Records
    from different tiers sharing a [trace_id] line up into one waterfall
    (client enqueue → sender flush → server decode → ingest → queue →
    merge → WAL append → replica apply). *)

type context = {
  trace_id : int64;  (** whole-request identity; 0 means "not sampled" *)
  parent : int64;  (** span id of the stage that handed the request on *)
}

val zero : context
(** The untraced context: both fields 0. *)

val is_zero : context -> bool
(** Sampled or not — the single branch every stage takes. *)

val with_parent : context -> int64 -> context
(** [with_parent ctx span_id] is the context a stage hands downstream after
    recording its own span as [span_id]. *)

type record = {
  trace_id : int64;
  span_id : int64;
  parent : int64;
  stage : string;  (** preallocated stage-name constant, e.g. ["decode"] *)
  start_ns : int;  (** wall-clock nanoseconds at stage entry *)
  dur_ns : int;  (** stage latency in nanoseconds (>= 0) *)
  stamp : int;  (** tracer-local monotone tick: smaller = recorded earlier *)
}

val record_to_json : record -> string
(** One span as a JSON object — the element type of [/trace?n=K]. *)
