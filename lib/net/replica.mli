(** Follower replica: subscribes to a leader's merge stream and rebuilds
    its published sketch, epoch by epoch — and {e re}-subscribes, from
    scratch, whenever the stream breaks.

    Replication is a direct cash-out of the merge algebra the pipeline is
    built on: the leader's published state at epoch [e] {e is}
    [fold merge (decode snapshot) deltas(e0+1..e)], so a follower that
    applies exactly that sequence holds a bit-identical summary — the exact
    convergence the tests check with [M.encode] equality after the leader
    drains.

    Between merges the follower is a relaxed replica of a relaxed object:
    its published total always equals the leader's published total {e at
    some recent epoch}, so every follower answer sits inside the leader's
    IVL envelope (the follower can only lag, never invent weight — the
    Theorem-6-style bound the end-to-end tests assert). Self-healing
    preserves exactly this: during [`Resyncing] the replica keeps serving
    its last applied state, which still lags the leader, and the fresh
    snapshot then jumps it forward to the leader's current prefix.

    {2 Stream discipline}

    The epoch filter makes the handshake race-free: a delta is applied iff
    its epoch is exactly [local + 1]; epochs [<= local] are duplicates of
    state already inside the seed snapshot (skipped, counted); a gap means
    the leader dropped this subscriber (bounded queue overflow) or
    restarted underneath it. Any break — transport error, decode failure,
    epoch gap, a snapshot after the seed — transitions to [`Resyncing]: the
    connection is torn down and the replica redials with backoff until a
    new {!Frame.Subscribe} handshake applies a fresh seed snapshot (whose
    epoch resets the filter). {!connect} and every resync join the stream
    the same way: dial, send [Subscribe], apply the seed; after it the
    stream carries only deltas. Only one thing makes the stream [`Broken]:
    a seed snapshot that arrives intact but does not decode — a leader of
    another sketch, shape or seed (the CountMin family fingerprint), which
    every resync would fetch again; such a follower publishes nothing.
    Silently
    resuming after a gap would undercount forever, so that is the one
    thing the replica never does. *)

val status_to_string :
  [< `Syncing | `Live | `Resyncing of string | `Broken of string | `Closed ] ->
  string
(** ["live"], ["resyncing: <reason>"], ...: a {!Make.status} as the CLI
    and the soak print it. *)

module Make (M : Pipeline.Mergeable.S) : sig
  type t

  type status =
    [ `Syncing  (** connected, snapshot not yet applied *)
    | `Live  (** snapshot applied; deltas streaming *)
    | `Resyncing of string
      (** stream broke (the reason); redialing, last state still served *)
    | `Broken of string
      (** an undecodable seed snapshot: stream unsound *)
    | `Closed ]

  type stats = {
    epoch : int;  (** last applied epoch; -1 before the snapshot *)
    published : int;  (** follower's replica of the leader's published weight *)
    deltas : int;  (** deltas applied *)
    skipped : int;  (** duplicate epochs skipped (handshake overlap) *)
    resyncs : int;  (** successful re-subscriptions after a break *)
    last_break : string option;  (** reason for the most recent break *)
    status : status;
  }

  val connect :
    ?metrics:Obs.Registry.t ->
    ?tracer:Obs.Tracer.t ->
    host:string ->
    port:int ->
    unit ->
    t
  (** Dial the leader, send {!Frame.Subscribe}, apply the seed snapshot,
      and spawn the apply domain (thread name [replica]). The leader registers the subscription
      before it sends the seed, so when [connect] returns [`Live] every
      later merge reaches this follower — including the final fan-out of
      a leader stopped right after [connect]. A handshake that breaks
      before the seed arrives returns [`Syncing] and heals through the
      resync path; a seed that does not decode returns [`Broken].
      A 1 s receive timeout paces the apply loop's wait — an idle leader
      just means quiet patience, not failure. Redial attempts while
      [`Resyncing] are 50 ms apart; every break is healed, however many
      there are. Frames are capped at {!Conn.max_frame}.

      [metrics] registers [replica_resyncs_total], [replica_deltas_total],
      [replica_skipped_total] and [replica_epoch], [replica_published],
      [replica_status] gauges (status encoded 0 syncing / 1 live /
      2 resyncing / 3 broken / 4 closed).

      [tracer] samples delta applies for ["replica_apply"] spans (the
      delta is validated, then folded in place under the replica mutex). Deltas cross the wire without a
      trace context — the server's fan-out strips it — so these spans are
      locally-sampled roots at the tracer's own rate, not continuations of
      an ingest waterfall; they quantify the apply leg's cost on the same
      [trace_stage_seconds] series.

      @raise Unix.Unix_error if the first dial itself fails (later breaks
      self-heal instead). *)

  val query : t -> (M.t -> 'a) -> ('a * int) option
  (** Run [f] on the replica sketch under the replica mutex; the epoch
      identifies the leader prefix it reflects. [None] until the first
      snapshot has been applied. During [`Resyncing] this serves the last
      applied state — stale but still inside the leader's envelope. *)

  val published : t -> int
  val epoch : t -> int
  val stats : t -> stats
  val status : t -> status

  val wait_epoch : ?timeout:float -> t -> int -> bool
  (** Block (polling) until the replica is [`Live] at epoch [>= e] — the
      convergence barrier: after the leader drains at epoch [e], a [true]
      return means the follower holds the leader's exact final state.
      Keeps waiting through [`Syncing]/[`Resyncing]; [false] on timeout
      (default 10 s), [`Broken] or [`Closed]. *)

  val close : t -> unit
  (** Reset the connection and join the apply domain. Idempotent. The
      sketch remains queryable at its last applied epoch. *)
end
