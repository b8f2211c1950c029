(** Algorithm 3: binary snapshot from a batched counter — the reduction
    behind the Ω(n) lower bound (Theorem 14).

    Component [i] lives in bit [i] of the counter: switching 0→1 adds 2^i;
    switching 1→0 adds 2^n − 2^i, which clears the bit modulo 2^n using only
    additions. Invariant 1 of the paper: the counter always holds
    c·2^n + Σ v_i·2^i, so a scan is one counter read plus local decoding.
    The counter implementation is pluggable: the SWMR snapshot counter
    reproduces the paper's proof setting; the FAA counter isolates the
    reduction logic. *)

type t

val create : n:int -> Algos.counter_impl -> t
(** [n] components (= processes), each with process-local state v_i.
    @raise Invalid_argument if [n <= 0] or [n > 20] (bit-budget guard). *)

val registers : t -> Machine.reg_spec array
(** The underlying counter's register bank. *)

val update_prog : t -> proc:int -> v:int -> unit Program.t
(** Set component [proc] to [v] ∈ {0,1}; returns immediately (0 shared
    steps) when unchanged — line 4 of Algorithm 3.
    @raise Invalid_argument if [v] is not a bit. *)

val update_op : ?obj:int -> t -> proc:int -> v:int -> unit -> Machine.operation

val scan_op : ?obj:int -> t -> unit -> Machine.operation
(** Read the counter once; the result is the component vector encoded as a
    bitmask of the low [n] bits. *)
