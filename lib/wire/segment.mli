(** Reading a flat concatenation of {!Codec} frames — the on-disk shape of
    a write-ahead-log segment file, the dedup journal and a trace file.

    An append-only log written as back-to-back frames needs no index: each
    frame's header declares its own length, so a reader can walk the file and
    re-validate every frame (magic, version, length, {!Codec.fnv1a}
    checksum) as it goes. Crash tolerance falls out of one rule: {e the log
    is the longest valid prefix}. Whatever a crash left after that prefix — a torn
    half-written frame, a checksum-corrupt record, stale garbage — is
    reported as a {!tail} for the caller ([Durable.Wal]) to truncate away.

    {!iter} reads an open channel and leaves file handling to the caller. *)

type tail =
  | Clean  (** The file ends exactly on a frame boundary. *)
  | Torn of {
      valid_prefix : int;
      dropped_bytes : int;
      reason : string;
      version : int option;
    }
      (** Bytes past [valid_prefix] are not a valid frame; a recovering
          writer should truncate the file to [valid_prefix]. [version] is
          [Some v] when the walk stopped at a frame header of wire version
          [v] other than {!Codec.version}: data in another format, which
          no reader here reads, rather than damage. *)

val iter : in_channel -> (Bytes.t -> unit) -> tail
(** [iter ic f] reads the frames of the segment file open on [ic] (from
    its start) one at a time and hands each valid one to [f], so memory
    holds one frame, not the file. Each frame is a complete,
    checksum-verified {!Codec} blob (header included), ready for
    [Codec.decode]; kind-level validation is the caller's business. The
    first invalid byte ends the walk, and everything from it to the end
    of the file is the returned tail. *)
