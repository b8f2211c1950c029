(** Fault-injecting TCP proxy: the adversary half of the served soak.

    The proxy listens on its own (ephemeral) port and, per accepted
    connection, dials the real endpoint returned by [upstream ()] and
    pumps bytes both ways — through a seeded fault model that can delay
    chunks, flip bits, cut connections mid-frame, refuse dials, or
    partition everything. Neither endpoint cooperates: clients, replicas
    and the server under test see exactly the failures a hostile network
    would deliver, which is what makes the end-to-end verdicts
    (conservation, ack envelope, follower never-ahead) meaningful.

    [upstream] is consulted at {e dial time}, so a soak that restarts its
    server on a new port just updates the value the callback reads —
    reconnecting clients flow to the new incarnation through the same
    proxy port.

    Faults compose per chunk, in order: latency, then corruption, then
    reset. A reset forwards half the chunk before cutting both directions
    — deliberately mid-frame, so endpoints exercise their torn-stream
    paths, not just clean EOF. Corruption flips exactly one bit; the
    framing checksum ({!Wire.Codec}) turns that into [Err Malformed] or a
    decode failure at the endpoint, never silent damage. *)

type faults = {
  latency : float * float;  (** (min, max) seconds added per chunk *)
  corrupt_prob : float;  (** per-chunk probability of one flipped bit *)
  reset_prob : float;  (** per-chunk probability of a mid-stream reset *)
  drop_conn_prob : float;  (** per-accept probability of refusing *)
}

val no_faults : faults
(** All zeros: a transparent forwarder. *)

type t

type stats = {
  conns : int;  (** forwarded connections over the proxy's life *)
  active : int;  (** pairs currently flowing *)
  refused : int;  (** dials refused (fault, partition, upstream down) *)
  resets : int;  (** mid-stream cuts injected *)
  corruptions : int;  (** bit flips injected *)
  bytes : int;  (** payload bytes forwarded (both directions) *)
}

val create :
  ?host:string ->
  seed:int64 ->
  upstream:(unit -> string * int) ->
  unit ->
  t
(** Bind an ephemeral port on [host] (default 127.0.0.1) and spawn the
    accept domain. The proxy starts as a transparent forwarder
    ({!no_faults}); {!set_faults} arms a fault model. [seed] makes every
    fault decision reproducible. Two pump domains per forwarded
    connection. *)

val port : t -> int
(** The proxy's listening port — point clients and replicas here. *)

val set_faults : t -> faults -> unit
(** Swap the fault model mid-run (e.g. quiesce to {!no_faults} before the
    convergence check). Applies to the next chunk/dial. *)

val set_partition : t -> bool -> unit
(** [true] severs every live flow and refuses new dials until [false] —
    a full network partition between the endpoints. *)

val stats : t -> stats

val stop : t -> stats
(** Sever everything, join all domains, close the listener. Idempotent. *)
