(** The one exposition format over a {!Snapshot.t}. No sockets, no IO —
    it returns a string; callers decide where the bytes go (a file,
    stdout, the HTTP [/metrics] route, a CI artifact). *)

val to_prometheus : Snapshot.t -> string
(** Prometheus text format, version 0.0.4: [# HELP] / [# TYPE] headers,
    timers as summaries with [{quantile="..."}] series plus
    [_sum]/[_count]. *)
