(** Space-Saving top-k sketch (Metwally, Agrawal & El Abbadi 2005).

    Tracks at most [capacity] (element, count, overestimation) triples; when
    a new element arrives with the table full it evicts the minimum-count
    entry and inherits its count. Guarantees: every element with true
    frequency > n/capacity is present, and each reported count
    over-estimates the true frequency by at most n/capacity — an
    (ε,δ)-bounded frequency object with ε = n/capacity and δ = 0. Referenced
    by the paper ([26]) among the sketches IVL is meant to parallelize. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val update : t -> int -> unit

val query : t -> int -> int
(** Estimated frequency: the tracked count, or 0 if untracked. Always ≥ the
    true frequency for tracked elements; ≤ true + n/capacity. *)

val guaranteed_error : t -> int
(** The current maximum over-estimation bound, min-count of the table (≤
    n/capacity). *)

val top : t -> (int * int) list
(** Tracked (element, estimated count) pairs, descending by count. *)

val total : t -> int
(** Stream length n. *)

val copy : t -> t
(** Deep copy in O(capacity); future updates to either side are independent.
    Used by the concurrent striped top-k to publish immutable snapshots. *)

val merge : capacity:int -> t -> t -> t
(** [merge ~capacity a b] summarizes the concatenation of both streams:
    counts of common elements add; elements tracked by only one side are
    over-approximated by adding the other side's minimum count (matching the
    Space-Saving error semantics); the result keeps the [capacity] largest.
    Mergeability (Agarwal et al.) underlies the striped concurrent top-k.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int
(** The table capacity this sketch was created with. *)

val entries : t -> (int * int * int) list
(** Tracked [(element, count, error)] triples, ascending by element — the
    sketch's whole state beyond [(capacity, n)]. *)
