(** Simulated implementations of the paper's algorithms (and their foils),
    expressed in the {!Program} instruction set so the machine can count
    their steps and extract checkable histories. *)

(** A batched-counter implementation usable as a building block —
    {!Binary_snapshot} (Algorithm 3) plugs one in. *)
type counter_impl = {
  registers : Machine.reg_spec array;  (** the register bank it needs *)
  update_prog : proc:int -> amount:int -> unit Program.t;
  read_prog : unit -> int Program.t;
  impl_name : string;
}

(** The IVL batched counter — Algorithm 2. Register [i] (SWMR, owner [i])
    holds process [i]'s accumulated batches. update: read own + write own
    (2 steps, O(1)); read: collect all [n] and sum (O(n)). Theorem 11. *)
module Ivl_counter : sig
  val registers : n:int -> Machine.reg_spec array
  val update_prog : base:int -> proc:int -> amount:int -> unit Program.t
  val read_prog : base:int -> n:int -> int Program.t
  val impl : n:int -> counter_impl

  val update_op : ?obj:int -> proc:int -> amount:int -> unit -> Machine.operation
  val read_op : ?obj:int -> n:int -> unit -> Machine.operation
end

(** A linearizable counter from fetch-and-add: one MWMR register, O(1) —
    but built from a primitive strictly stronger than SWMR registers, the
    contrast the end of Section 6 draws. *)
module Faa_counter : sig
  val registers : Machine.reg_spec array
  val update_prog : base:int -> amount:int -> unit Program.t
  val read_prog : base:int -> int Program.t
  val impl : counter_impl

  val update_op : ?obj:int -> amount:int -> unit -> Machine.operation
  val read_op : ?obj:int -> unit -> Machine.operation
end

(** Simulated PCM — Algorithm 1 under concurrent invocations: a d×w bank of
    MWMR counters bumped with [Faa] (line 5) and read plainly (line 9).
    Hash functions are explicit mappings so tests can pin collisions
    (Example 9). *)
module Pcm_sim : sig
  type t

  val make : ?base:int -> d:int -> w:int -> hash:(int -> int -> int) -> unit -> t
  (** [hash row element] must return a column in [\[0, w)]. *)

  val registers : t -> initial:(int -> int) -> Machine.reg_spec array
  val zero_registers : t -> Machine.reg_spec array
  val cell : t -> int -> int -> int
  val update_prog : t -> int -> unit Program.t
  val update_op : ?obj:int -> t -> a:int -> unit -> Machine.operation
  val query_op : ?obj:int -> t -> a:int -> unit -> Machine.operation
end

(** An IVL max register: the Algorithm 2 recipe applied to a second monotone
    object (update O(1), read O(n), IVL against [Spec.Max_spec]). *)
module Ivl_max : sig
  val registers : n:int -> Machine.reg_spec array
  val update_prog : base:int -> proc:int -> value:int -> unit Program.t
  val read_prog : base:int -> n:int -> int Program.t
  val update_op : ?obj:int -> proc:int -> value:int -> unit -> Machine.operation
  val read_op : ?obj:int -> n:int -> unit -> Machine.operation
end

(** The Section 3.4 separation, materialized: an up/down counter from two
    monotone cells (increments in one, decrement magnitudes in the other).
    Reading the increment cell {e first} can observe only the decrement of a
    concurrent inc;dec pair — below every linearization, not IVL, and the
    checker catches it; reading decrements first stays IVL. *)
module Updown_two_cell : sig
  val registers : Machine.reg_spec array
  val update_prog : base:int -> delta:int -> unit Program.t
  val update_op : ?obj:int -> delta:int -> unit -> Machine.operation

  val read_op : ?obj:int -> variant:[ `Buggy | `Safe ] -> unit -> Machine.operation
end
