(** A family of [d] independent hash functions with a common range [w].

    This is exactly the "coin flip vector" of the paper's CountMin sketch
    (Section 5): the hash functions are drawn once from the random source and
    thereafter define the deterministic algorithm CM(c#). A family is shared
    between a concurrent implementation and the sequential specification it
    is checked against, so both observe the same coins.

    Rows are normally pairwise-independent {!Universal} functions; tests may
    instead pin arbitrary mappings ({!of_mapping}) to reproduce hand-crafted
    collisions such as Example 9 of the paper. A third, opt-in mode
    ({!seeded_km}) derives all [d] rows from two base functions by
    Kirsch–Mitzenmacher double hashing, halving-or-better the per-update
    hashing cost on the ingestion hot paths (see docs/PERFORMANCE.md for the
    measured accuracy trade). *)

type t

val create : Rng.Splitmix.t -> rows:int -> width:int -> t
(** [create g ~rows ~width] draws [rows] independent pairwise-independent
    functions with range [width].
    @raise Invalid_argument if [rows <= 0] or [width <= 0]. *)

val of_mapping : width:int -> (int -> int) array -> t
(** [of_mapping ~width fns] builds a family from arbitrary row functions
    (each must map into [\[0, width)]; out-of-range results are reduced
    modulo [width]). Intended for deterministic tests.
    @raise Invalid_argument on an empty array or [width <= 0]. *)

val rows : t -> int
val width : t -> int

val hash : t -> row:int -> int -> int
(** [hash f ~row x] applies the [row]-th function to [x]. On a double-hashed
    family this evaluates both base functions; loops over all rows should
    use {!probe}/{!probe_col} instead, which share that work. *)

val probe : t -> int -> int
(** [probe f x] performs all row-independent hashing work for [x] once and
    packs it into an immediate int (no allocation). For universal/explicit
    families the pack is [x] itself; for a double-hashed family it carries
    the two base hashes, so a d-row loop costs 2 field evaluations total
    instead of d. Only meaningful as input to {!probe_col} on the same
    family. *)

val probe_col : t -> int -> row:int -> int
(** [probe_col f p ~row] is the column of [row] for the element packed into
    [p] by {!probe}. Invariant: [probe_col f (probe f x) ~row = hash f ~row
    x] for every row — the one-pass update loop and any per-row caller
    always agree. *)

val seeded : seed:int64 -> rows:int -> width:int -> t
(** Convenience: a family drawn from a fresh SplitMix64 stream with [seed]. *)

val seeded_km : seed:int64 -> rows:int -> width:int -> t
(** Kirsch–Mitzenmacher double hashing: draw two base functions h1, h2 from
    a fresh SplitMix64 stream and derive row [i] as
    [(h1 x + i·(1 + h2 x)) mod width] with the stride in [\[1, width)], so
    the [rows] probes of one element are distinct whenever [rows <= width].
    Same seed, same family — byte-for-byte reproducible like {!seeded}.
    Double-hashed families cannot be serialized ({!coefficients} is [None])
    and are only {!compatible} with equal-coefficient KM families.
    @raise Invalid_argument if [rows <= 0], [width <= 0], or
    [width > 2^30] (the packed {!probe} must fit an immediate int). *)

val double_hashed : t -> bool
(** [true] iff the family was built by {!seeded_km}. *)

val coefficients : t -> (int * int) array option
(** The per-row field coefficients [(a, b)] when every row is a
    pairwise-independent {!Universal} function, [None] if any row was pinned
    with {!of_mapping} or the family is double-hashed. Serializing these
    (the wire codecs do) captures the coin-flip vector exactly. *)

val of_coefficients : width:int -> (int * int) array -> t
(** Rebuild a family from serialized coefficients; the exact inverse of
    {!coefficients} on universal families.
    @raise Invalid_argument on an empty array or [width <= 0]. *)

val compatible : t -> t -> bool
(** Two families are compatible when they hash identically: physically equal,
    universal with equal widths, row counts and coefficients, or
    double-hashed with equal widths, row counts and base coefficients.
    Mergeable sketches require compatible families; families built with
    {!of_mapping} are only compatible with themselves. *)
