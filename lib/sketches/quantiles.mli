(** A KLL-style quantiles sketch (Karnin, Lang & Liberty 2016; the paper's
    Quantiles reference [1] is the mergeable-summaries line of work).

    Estimates the rank of any element within ±εn with probability ≥ 1 − δ,
    using a hierarchy of compactors: level i stores items each representing
    2^i stream items; when a level overflows, a random half of its (sorted)
    items is promoted. The sketch answers rank and quantile queries. *)

type t

val create : ?k:int -> seed:int64 -> unit -> t
(** [k] is the top-level capacity (default 200 ≈ ε of about 1%%). *)

val update : t -> int -> unit

val rank : t -> int -> int
(** Estimated number of stream items ≤ x. *)

val quantile : t -> float -> int
(** [quantile t phi] for phi ∈ [0,1]: an element whose estimated rank is
    ~phi·n. @raise Invalid_argument outside [0,1]; @raise Not_found on an
    empty sketch. *)

val total : t -> int
(** Stream length n. *)

val retained : t -> int
(** Number of items currently stored (the space the sketch actually uses). *)

val copy : t -> t
(** Deep copy; the copy's future updates and compactions are independent.
    O(retained) — sketches hold O(k log n) items, so copies are cheap. *)

val merge : t -> t -> t
(** [merge a b] summarizes the concatenation of both inputs' streams: level
    buffers are concatenated level-wise and re-compacted. The result keeps
    [a]'s parameters; both inputs are left untouched. Mergeability is the
    property (Agarwal et al., "Mergeable summaries") that makes the striped
    concurrent quantiles sketch possible. *)
