(** Arithmetic in GF(p) for the Mersenne prime p = 2^61 - 1.

    The CountMin and Count sketches need pairwise-independent hash functions
    of the form x ↦ ((a·x + b) mod p) mod w. Working modulo a Mersenne prime
    lets us reduce products with shifts and masks instead of division, and
    2^61 - 1 comfortably exceeds any element universe we use. *)

val p : int
(** The modulus 2^61 - 1 (fits in a 63-bit OCaml [int]). *)

val reduce : int -> int
(** [reduce x] is [x mod p] for [0 <= x < 2 * p]. Inlined. *)

val add : int -> int -> int
(** [add a b] is [(a + b) mod p] for field elements [a], [b]. *)

val mul : int -> int -> int
(** [mul a b] is [mul_add a b 0]. *)

val mul_add : int -> int -> int -> int
(** [mul_add a x b] is [(a*x + b) mod p] for field elements [a], [x], [b]
    (each in [\[0, p)]), always canonical. Computed without overflow or
    calls from 31/30-bit limbs: four multiplies and four Mersenne folds,
    inlined into {!Universal.apply}. *)

val random_element : Rng.Splitmix.t -> int
(** [random_element g] is uniform on [\[0, p)]. *)

val random_nonzero : Rng.Splitmix.t -> int
(** [random_nonzero g] is uniform on [\[1, p)]. *)
