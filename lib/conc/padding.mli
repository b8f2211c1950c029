(** Cache-line padding for contended heap blocks.

    An [int Atomic.t] is a one-word block; [Array.init n (fun _ ->
    Atomic.make 0)] therefore packs eight hot counters per 64-byte line and
    every fetch-and-add bounces the line between writers ({e false
    sharing}). These helpers re-allocate a block at two cache lines' size so
    its mutable word owns its line. Block size is preserved by the moving
    GC, so the isolation is permanent, unlike allocation-order spacing.

    The cost is memory (128 bytes per padded block) and colder sequential
    scans, so padding is for {e known-contended} cells — per-domain slots,
    single hot counters — never for bulk storage like a sketch matrix
    (see {!Flat_pcm} for how bulk hot storage avoids sharing instead). *)

val copy : 'a -> 'a
(** [copy v] returns a structurally identical copy of [v] whose block spans
    two cache lines. Returns [v] unchanged when padding is impossible or
    pointless (immediates, custom/no-scan blocks, already-large blocks).
    Use only on freshly created blocks that nothing else aliases — the
    original keeps existing but updates to the copy do not propagate. *)

val atomic : 'a -> 'a Atomic.t
(** [atomic v] is [copy (Atomic.make v)]: an atomic on its own line. *)

val atomic_array : int -> 'a -> 'a Atomic.t array
(** [atomic_array n v] is [n] independently padded atomics — the standard
    layout for per-domain counter slots. *)
