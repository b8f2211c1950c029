(** Wire codec for the sequential CountMin sketch.

    One canonical sparse form, used for shard deltas, checkpoints and the
    replica's seed snapshot alike: dimensions, a 64-bit fingerprint of the
    hash family, the stream length, and per row only the non-zero cells as
    varint (column gap, count) pairs in ascending column order. Equal
    sketches encode to equal bytes.

    The hash coins are not serialized. The decoder supplies its own family
    and the blob's fingerprint must match it: randomized IVL (Def. 3) holds
    only for deltas drawn with one common coin vector, so a sketch built
    with another seed or shape is rejected as [Corrupt] instead of being
    merged. decode ∘ encode is the identity on sketches of that family. *)

val kind : int

val fingerprint : Hashing.Family.t -> int64
(** FNV-1a-64 over the family's row count, width and per-row coefficients.
    The last family's value is kept, so a process that uses one family
    computes it once.
    @raise Invalid_argument if the family was built with
    {!Hashing.Family.of_mapping} or {!Hashing.Family.seeded_km}
    ({!Hashing.Family.coefficients} is [None]). *)

val encode : Sketches.Countmin.t -> Bytes.t
(** The blob, written into a buffer the calling domain reuses and copied
    out at its exact size: it allocates the blob and nothing else.
    @raise Invalid_argument as {!fingerprint}. *)

val decode :
  family:Hashing.Family.t -> Bytes.t -> (Sketches.Countmin.t, Codec.error) result
(** A fresh sketch over [family]. Never raises; see {!Codec.decode}. *)

val fold :
  family:Hashing.Family.t ->
  Bytes.t ->
  (Sketches.Countmin.t -> unit, Codec.error) result
(** [fold ~family blob] validates the whole blob — frame, dimensions,
    fingerprint, every column and count — and only then returns [apply]:
    [apply acc] adds the blob's cells and stream length into [acc] in place,
    in O(non-zero cells), without allocating. A blob that fails any check
    returns [Error] and touches nothing.
    @raise Invalid_argument from [apply] if [acc]'s family is not
    compatible with [family]. *)
