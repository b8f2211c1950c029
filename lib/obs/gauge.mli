(** A last-value-wins gauge: one padded plain float store.

    The cell is the middle slot of a float array long enough that the hot
    word shares no cache line with any neighbouring block, so a gauge
    updated on every batch loop never false-shares with other metrics.
    Stores and loads are plain (non-atomic): word-sized float array slots
    never tear, a racing read returns some previously stored value, and
    that is exactly the semantics a gauge needs — there is no envelope to
    maintain because a gauge is not monotone.

    Any domain may [set]; with multiple setters the scrape sees one of the
    racing values (last-wins per the memory order the hardware provides).
    Gauges whose value is derived from other state (queue depths, epochs)
    are better registered as callbacks ({!Registry.gauge_fn}). *)

type t

val create : unit -> t
(** A gauge reading 0. *)

val set : t -> float -> unit
(** Plain store, 0 B/op. *)

val read : t -> float
