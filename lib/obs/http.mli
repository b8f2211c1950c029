(** A minimal select-polled HTTP/1.1 endpoint for live telemetry.

    Same shape as [Net.Chaos_proxy]'s accept loop: one domain polls the
    listening socket with a 50ms [select] so [stop] is always noticed,
    and each accepted connection is served to completion inline —
    request parse, one handler call, one response, close. That is the
    right trade for a scrape plane: requests are tiny, responses are a
    metrics page, and serving inline means no per-connection domains to
    reap. Each connection gets 2 s from accept to read its request and
    write the response; a slower peer is closed unanswered, so one stalled
    peer delays the next scrape by at most 2 s. Not a general web server —
    no keep-alive, no chunking, no TLS.

    The handler is pure request → response; {!telemetry_handler} is the
    standard one serving [/metrics], [/healthz] and [/trace?n=K] over a
    registry, a tracer and an SLO monitor. *)

type response = {
  status : int;  (** e.g. 200, 404, 503 *)
  content_type : string;
  body : string;
}

type handler = path:string -> query:(string * string) list -> response option
(** [None] means 404. [query] is the parsed [?k=v&k2=v2] part. *)

type t

val create : ?host:string -> ?port:int -> handler:handler -> unit -> t
(** Bind, listen and start the accept domain. [host] defaults to
    127.0.0.1; [port] 0 (the default) lets the kernel pick — read it back
    with {!port}. @raise Unix.Unix_error if the bind fails (port taken). *)

val port : t -> int

val stop : t -> unit
(** Stop accepting, close the socket, join the domain. Idempotent. *)

val requests : t -> int
(** Requests served (any status) since {!create}. *)

val telemetry_handler :
  registry:Registry.t ->
  ?tracer:Tracer.t ->
  ?slo:Slo.t ->
  ?health:(unit -> (string * string) list) ->
  unit ->
  handler
(** The standard telemetry routes:
    - [/metrics] — Prometheus text via {!Expose.to_prometheus};
    - [/healthz] — JSON status: SLO verdict (the response is HTTP 503
      when breached, so load balancers and [curl -f] see it) plus the
      [health] callback's key/value pairs (engine + WAL + supervisor
      status strings);
    - [/trace?n=K] — the tracer's [K] (default 64) most recent spans as
      a JSON array, oldest first.

    Evaluating [/healthz] calls {!Slo.eval}, so scraping it at any
    cadence drives the burn-rate machine without a dedicated poller. *)
