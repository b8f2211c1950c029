(** Epoch-stamped full-sketch snapshots, atomically installed.

    A checkpoint bounds recovery's replay work: restart folds the newest
    decodable snapshot and replays only WAL records past its epoch. Each
    snapshot is one checksummed {!Wire.Codec} frame (kind [checkpoint])
    written via temp file + [fsync] + atomic rename, so a crash leaves
    either the old checkpoint set or the old set plus one complete new file
    — never a torn file under a real checkpoint name. *)

type snapshot = { epoch : int; published : int; blob : Bytes.t }

val keep : int
(** 2: the checkpoints {!write} leaves — keeping more than one means a
    corrupt newest checkpoint degrades recovery to the previous epoch
    instead of to empty. *)

val write :
  dir:string -> epoch:int -> published:int -> blob:Bytes.t -> unit -> unit
(** Install a snapshot (directory created if missing) and prune all but the
    {!keep} newest. *)

val candidates : dir:string -> snapshot list * int
(** Frame-valid snapshots newest-first, plus the count of corrupt checkpoint
    files passed over. Sketch-level decodability is the caller's check
    ([Durable.Recovery] walks the list until [M.decode] succeeds). *)

val other_version : dir:string -> int option
(** The wire version of the newest checkpoint file written under a format
    version other than {!Wire.Codec.version}, if any: {!candidates} counts
    such a file as corrupt, though no byte of it is damaged. *)

val latest : dir:string -> snapshot option
(** Head of {!candidates}. *)
