(** {!Mergeable.S} instances for every wire-codec'd sketch, parameterized by
    the sketch's coins/size so that all deltas of one pipeline share them.
    Apply then feed to {!Engine.Make}:

    {[
      module M = Pipeline.Targets.Countmin (struct
        let seed = 42L
        let rows = 4
        let width = 1024
      end)

      module P = Pipeline.Engine.Make (M)
    ]} *)

module Countmin (_ : sig
  val seed : int64
  val rows : int
  val width : int
end) : Mergeable.S with type t = Sketches.Countmin.t

module Kmv (_ : sig
  val seed : int64
  val k : int
end) : Mergeable.S with type t = Sketches.Kmv.t

(** Each ingested element counts one event (Section 6.2's batched counter as
    the degenerate "sketch"); useful for pipeline plumbing tests where exact
    conservation is checkable. *)
module Counter : Mergeable.S with type t = Sketches.Batched_counter.t
