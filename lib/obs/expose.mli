(** Pure exposition formats over a {!Snapshot.t}. No sockets, no IO — these
    return strings; callers decide where bytes go (a file, stdout, a CI
    artifact). *)

val to_prometheus : Snapshot.t -> string
(** Prometheus text format, version 0.0.4: [# HELP] / [# TYPE] headers,
    histogram [_bucket{le="..."}] cumulative series plus [_sum]/[_count],
    timers as summaries with [{quantile="..."}] series. *)

val to_json : Snapshot.t -> string
(** Stable JSON:
    [{ "at": <float>, "metrics": [ { "name", "type", "labels",
       ("value" | "buckets" | "quantiles"), "count", "sum" } ] }].
    Metrics are in snapshot order (sorted by name then labels). *)
