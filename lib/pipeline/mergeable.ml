(** The contract a sketch must meet to ride the sharded ingestion pipeline.

    A [t] plays two roles: the {e shard-local delta} each worker accumulates
    (born empty via [create], fed by [update], shipped as a {!Wire.Codec}
    blob by [ship], which hands back the empty delta the worker goes on
    with), and the {e global sketch} the merger folds encoded deltas into
    with [fold]. The pipeline is correct for any summary where merge is
    associative and commutative with [create ()] as identity — the
    "mergeable summaries" algebra (Agarwal et al.) that every sketch in this
    repository satisfies; the merge-algebra property tests pin it down.

    [encode]/[fold] put the wire codecs on the hot path: every delta a
    worker ships to the merger is a versioned, checksummed blob, so codec
    bugs surface immediately as decode failures in the pipeline stats rather
    than lying dormant until a first networked deployment. *)

module type S = sig
  type t

  val name : string
  (** Short human-readable sketch name, for reports. *)

  val create : unit -> t
  (** A fresh empty delta. All deltas (and the global) must share hash
      parameters so that [merge] never rejects a sibling. *)

  val update : t -> int -> unit
  (** Fold one stream element into a delta. *)

  val merge : t -> t -> t
  (** Combine two summaries; neither input is mutated.
      @raise Invalid_argument on incompatible parameters (a pipeline bug —
      all deltas come from [create]). *)

  val encode : t -> Bytes.t
  (** Serialize a summary: a checkpoint, the replica's seed snapshot. *)

  val ship : t -> Bytes.t * t
  (** [ship d] is [(encode d, e)], [e] an empty delta equal to [create ()]
      — how a worker flushes: it ships the blob and goes on with [e], and
      never touches [d] again. CountMin empties [d] in place and returns it,
      so a worker keeps one delta for its whole life; a sketch without an
      in-place empty returns [create ()]. *)

  val decode : Bytes.t -> (t, Wire.Codec.error) result
  (** Deserialize; never raises. *)

  val fold : Bytes.t -> (t -> t, Wire.Codec.error) result
  (** [fold blob] validates the whole encoded delta and only then returns
      [apply]; [apply acc] folds it into an accumulator the caller owns and
      returns the result, which replaces [acc]. CountMin adds its non-zero
      cells into [acc] in place, in O(non-zero cells); the other sketches
      [decode] and [merge]. The staging lets a caller validate outside its
      lock and mutate inside it. An [Error] touches nothing: at the merger
      it counts as a decode failure (and loses that delta), at a replica it
      forces a resync, in recovery it skips the record.
      @raise Invalid_argument from [apply] on an incompatible accumulator
      (a pipeline bug, as for [merge]). *)
end
