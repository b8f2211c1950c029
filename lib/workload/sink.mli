(** The ingest/query surface a {!Driver} pushes a trace through.

    Extracted from the driver so that anything that can accept keys — the
    in-process [Pipeline.Engine] (the soak's engine sink, [Net.Soak]), a
    batching network client ([Net.Client]), a mock in a test — slots under
    the trace machinery without touching driver logic. A sink is four
    closures:

    - [ingest]/[try_ingest]: the blocking (closed-loop, backpressure) and
      non-blocking (open-loop, shed-on-full) update paths;
    - [query]: a point query whose result checking is the caller's business
      (the soak harness closes the loop against its oracle);
    - [flush]: push any buffered work downstream and wait for it to be
      accepted — the driver calls this at the end of every feeder's chunk so
      phase barriers (and post-run oracles) never race a sink-side buffer.
      For unbuffered sinks this is a no-op.

    Whoever built the sink owns what it holds (a client, an engine) and
    closes it; the driver never does. *)

type t = {
  ingest : int -> bool;
      (** Blocking ingest; [false] means the element was dropped anyway
          (dead shard, drained pipeline, closed connection). *)
  try_ingest : int -> bool;  (** Non-blocking; [false] on a full queue too. *)
  query : int -> unit;
  flush : unit -> unit;
}

val make :
  ?try_ingest:(int -> bool) ->
  ?query:(int -> unit) ->
  ?flush:(unit -> unit) ->
  ingest:(int -> bool) ->
  unit ->
  t
(** [try_ingest] defaults to [ingest] (a sink without a non-blocking path
    just blocks); [query] and [flush] default to no-ops. *)
