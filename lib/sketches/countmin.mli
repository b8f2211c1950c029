(** Sequential CountMin sketch (Cormode & Muthukrishnan 2005; Section 5 of
    the paper).

    A d×w matrix of counters and d pairwise-independent hash functions.
    [update a] increments one counter per row; [query a] returns the minimum
    of [a]'s counters, which over-estimates the true frequency f_a by at most
    αn with probability ≥ 1 − δ when w = ⌈e/α⌉ and d = ⌈ln 1/δ⌉ (n is the
    stream length). In the paper's terms the sketch is a sequential
    (ε,δ)-bounded implementation of the exact-frequency oracle with ε = αn.

    This is the runnable, mutable implementation; the persistent state
    machine used by the checkers is [Spec.Countmin_spec]. Both take the same
    {!Hashing.Family.t} coins, so a concurrent run can be validated against
    the very specification instance it raced against. *)

type t

val create : family:Hashing.Family.t -> t
(** A zeroed sketch using [family]'s d rows and width w. *)

val create_for_error : seed:int64 -> alpha:float -> delta:float -> t
(** [create_for_error ~seed ~alpha ~delta] sizes the matrix per the classic
    analysis: w = ⌈e/alpha⌉, d = ⌈ln (1/delta)⌉, and draws fresh coins from
    [seed]. @raise Invalid_argument unless [0 < alpha] and [0 < delta < 1]. *)

val family : t -> Hashing.Family.t
(** The coin-flip vector defining this instance. *)

val rows : t -> int
val width : t -> int

val update : t -> int -> unit
(** Process one element. *)

val update_many : t -> int -> count:int -> unit
(** [update_many t a ~count] processes [count] occurrences of [a] with one
    addition per row — what combining buffers (pipeline shards,
    {!Conc.Buffered_pcm}-style delegation) flush with. Equivalent to
    [count] calls of {!update} for every query.
    @raise Invalid_argument if [count < 0]. *)

val query : t -> int -> int
(** Estimated frequency of an element: min over rows. *)

val updates : t -> int
(** Number of updates processed so far (the stream length n). *)

val error_bound : t -> float
(** The additive bound αn = (e/w)·n at the current stream length. *)

val cell : t -> row:int -> col:int -> int
(** Direct counter access (tests and debugging). *)

val nonzero : t -> row:int -> int
(** Number of non-zero counters in [row], in O(1): each row keeps an
    occupancy bitmap and a count that a counter's first non-zero value
    sets, whichever operation wrote it.
    @raise Invalid_argument if [row] is out of range. *)

val iter_row : t -> row:int -> (int -> int -> unit) -> unit
(** [iter_row t ~row f] calls [f col count] on each non-zero counter of
    [row], in ascending column order. It visits
    the set bits of the row's occupancy bitmap, so it costs
    O(width/32 + non-zero counters), not O(width).
    @raise Invalid_argument if [row] is out of range. *)

val occupancy : t -> row:int -> int array
val counters : t -> row:int -> int array
(** [occupancy t ~row] and [counters t ~row] are [row]'s occupancy bitmap
    and counters themselves, not copies, for walks that must not call a
    closure per cell ([Wire.Countmin.encode]): bit [col land 31] of bitmap
    word [col lsr 5] is set iff counter [col] is non-zero, and
    [(j lsl 5) lor bit_index low] is the column of the lowest set bit [low]
    of word [j]. Read them only; a write through either breaks the sketch.
    @raise Invalid_argument if [row] is out of range. *)

val bit_index : int -> int
(** [bit_index low] is [k] for [low = 1 lsl k], [0 <= k < 32]; any other
    argument gives a meaningless index. *)

val reset : t -> unit
(** Zero all counters and the update count. Only the occupied counters are
    written, so emptying a sparse delta costs what {!iter_row} does. *)

val merge : t -> t -> t
(** [merge a b] summarizes the concatenation of both inputs' streams:
    cell-wise sums, stream lengths add. CountMin's linear structure makes
    this exact — the merged sketch equals the sketch of the combined stream
    — which is what lets shard-local deltas fold into a global sketch
    (Agarwal et al., "Mergeable summaries"). Inputs are left untouched.
    @raise Invalid_argument unless the families are
    {!Hashing.Family.compatible} (same coin-flip vector). *)

val add : t -> row:int -> col:int -> int -> unit
(** [add t ~row ~col c] adds [c] to one counter and leaves the stream length
    alone: a sparse delta folds into a sketch in place one cell at a time,
    closed by one {!add_updates}.
    @raise Invalid_argument if [c < 0] or the cell is out of range. *)

val unsafe_add : t -> row:int -> col:int -> int -> unit
(** {!add} without its checks, inlined and making no call: for a walk that
    has validated [row], [col] and [c >= 0] itself ([Wire.Countmin.fold],
    one call per non-zero cell). Anything else writes out of bounds or
    breaks the occupancy count. *)

val add_updates : t -> int -> unit
(** [add_updates t n] grows the stream length by [n].
    @raise Invalid_argument if [n < 0]. *)
