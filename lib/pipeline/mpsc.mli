(** Bounded multi-producer queue with blocking backpressure.

    The pipeline's transport: ingest callers push elements into shard
    queues, shard workers push encoded deltas into the merger queue. A full
    queue blocks producers (backpressure propagates upstream to the feeders)
    rather than growing without bound; {!try_push} gives callers that
    prefer shedding load a non-blocking variant whose [`Full] result they
    count as a drop.

    [close] makes the queue terminal: producers fail fast (no hang on a dead
    consumer — a chaos-killed shard worker closes its queue on the way out),
    while the consumer drains the remaining elements and then sees the empty
    mark. Mutex + condition variables: simple, fair enough, and blocking
    waits release the core, which matters when shards + merger + feeders
    oversubscribe a small machine. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** Block while full; [false] iff the queue is (or becomes) closed — the
    element was not enqueued. *)

val push_slice : 'a t -> 'a array -> off:int -> len:int -> int
(** [push_slice q src ~off ~len] enqueues [src.(off) .. src.(off + len - 1)]
    in order, blocking while the queue is full — the backpressure of
    {!push}. Each lock hold enqueues as much of the rest of the slice as
    fits and signals the consumer once. Returns the number enqueued: [len],
    or fewer iff the queue is (or becomes) closed, in which case exactly
    that prefix was enqueued and nothing after it. A slice longer than the
    capacity completes as the consumer makes room. Concurrent producers'
    slices may interleave between lock holds, never within one.
    @raise Invalid_argument if the slice is not within [src]. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking push. *)

val pop : 'a t -> 'a option
(** Block while empty and open; [None] iff closed and drained. Single
    consumer. Allocates only its [Some]. *)

val try_pop_into : 'a t -> 'a array -> max:int -> int
(** Non-blocking batch pop into a caller-owned buffer: takes up to
    [min max (Array.length buf)] elements, FIFO, into [buf.(0..n-1)] and
    returns the count — [0] means empty-but-open, [-1] means closed and
    drained. Allocation-free at steady state. Runs under the queue mutex,
    so it is safe from any domain, concurrently with other consumers.
    @raise Invalid_argument if [max <= 0]. *)

val pop_into : ?min:int -> 'a t -> 'a array -> max:int -> int
(** Blocking {!try_pop_into}: waits while fewer than [min] (default 1,
    capped at the capacity) elements are queued, the queue is open and no
    {!kick} is pending; returns [n > 0], [0] iff a kick ended it with
    nothing queued, or [-1] iff closed and drained. While it waits,
    producers signal only once [min] elements are queued or the queue is
    full, so a consumer that wants a batch pays one wake-up for it, not one
    per element; {!close} and {!kick} wake it at once, with whatever is
    queued. Every return consumes the pending kick. [~min] keeps one
    threshold per queue, so it assumes a single consumer.
    @raise Invalid_argument if [max <= 0] or [min <= 0]. *)

val kick : 'a t -> unit
(** End the consumer's {!pop_into} wait now, below its [min]; a kick sent
    while no [pop_into] waits is kept for the next one, which returns
    without waiting. Kicks do not queue up: one pending kick ends one
    [pop_into]. {!try_pop_into} leaves a pending kick in place. *)

val close : 'a t -> unit
(** Idempotent. Wakes every blocked producer and the consumer. *)

val reopen : 'a t -> unit
(** Undo {!close}: producers may push again and a (new) consumer blocks on
    empty instead of seeing the end mark. Elements that were queued at close
    time are still there, in order — the supervisor uses this to hand a
    crashed shard's backlog to its restarted worker instead of shedding it.
    Idempotent; a no-op on an open queue. *)

val drain_remaining : 'a t -> int
(** Discard whatever is still queued and return the count — used by the
    pipeline's drain to account for elements a dead worker never consumed. *)

val length : 'a t -> int
(** Exact (taken under the queue mutex). *)

val length_relaxed : 'a t -> int
(** Unsynchronized, approximate length — no lock, no contention with the
    consumer. For stats and depth heuristics only; immediates cannot
    tear, so the value is always one that was recently written. *)
