(** Sequential specification of the Morris approximate counter as a
    randomized object: the coin vector is an infinite sequence of uniform
    floats realized purely from a seed (coin [k] hashes [seed + k]), so the
    state machine is deterministic given the seed and persistent for the
    checkers. The estimate after the k-th consumed coin is 2^x − 1. *)

type coin = int64 (* seed of the coin-flip vector *)

type state

type update = unit
type query = unit
type value = float

val name : string
val init : coin -> state

val apply_update : state -> update -> state
val eval_query : state -> query -> value
val compare_value : value -> value -> int
val commutative_updates : bool
val pp_update : Format.formatter -> update -> unit
val pp_query : Format.formatter -> query -> unit
val pp_value : Format.formatter -> value -> unit

module Fixed (_ : sig
  val seed : int64
end) : Quantitative.S with type update = unit and type query = unit and type value = float
