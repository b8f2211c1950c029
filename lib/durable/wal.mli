(** Write-ahead delta log for the ingestion pipeline.

    Every delta the merger folds into the global sketch is first recorded
    here as one {!Wire.Codec} frame (kind [wal-record]) enveloping the
    delta's already-framed blob plus the merge epoch and stream weight.
    Segments are append-only files rotated at a size threshold; recovery
    ([Durable.Recovery]) replays the suffix past the newest checkpoint.

    The reader implements one crash rule: {e the log is the longest valid
    prefix}. A torn tail (crash mid-append), a checksum-corrupt record, a
    foreign frame kind, or an epoch going backwards all end the log at that
    byte — everything after it (later segments included) is reported as
    truncated, never replayed. *)

type fsync_policy =
  | Always  (** fsync every append: lose nothing, pay a disk flush per merge. *)
  | Every_n of int  (** fsync every n appends: loss window of n merges. *)
  | Never  (** leave flushing to the OS: crash may lose the page-cache tail. *)

val policy_to_string : fsync_policy -> string

val validate_dir :
  ?must_exist:bool -> dir:string -> unit -> (unit, string) result
(** Pre-flight a WAL directory path and return a printable diagnostic
    instead of letting [Sys_error]/[Unix_error] escape from deep inside
    {!create} or {!read}. With [must_exist] (the default, the reader's
    contract) the directory must exist, be a directory, and be readable;
    with [~must_exist:false] (a writer about to {!create} it) a missing
    directory is fine as long as its parent exists and is writable. *)

val segments_of : string -> (int * string) list
(** The WAL segment files in a directory, as (index, file name) in index
    order, the order {!iter} reads them; other files are skipped.
    @raise Sys_error if the directory cannot be read. *)

val remove_segments : dir:string -> int
(** Delete every [wal-*.seg] file in [dir] (other files, e.g. checkpoints,
    untouched) and return how many were removed. A missing directory removes
    nothing. Used by [Durable.Recovery.recover_compact] after the recovered
    state has been checkpointed: clearing replayed segments keeps a torn
    tail from a previous incarnation from truncating records a {e later}
    incarnation appends (the longest-valid-prefix rule cuts everything after
    the first bad frame, later segments included). *)

(** {2 Writer} — single-threaded; the pipeline's merger is its one caller. *)

type writer

val segment_bytes : int
(** 4 MiB: a writer starts a new segment when the next frame would take the
    current one past this (a larger frame still gets a segment of its
    own). *)

val create :
  ?fsync:fsync_policy -> ?metrics:Obs.Registry.t -> dir:string -> unit -> writer
(** Open a fresh segment in [dir] (created if missing), numbered after any
    existing segments — a recovering writer never appends into a possibly
    torn file. [fsync] defaults to [Every_n 64].

    [metrics] exports the writer: [wal_appends_total],
    [wal_rotations_total], [wal_segment_index], [wal_unsynced] (the live
    fsync-loss window), and a [wal_fsync_seconds] latency summary observed
    at every durability point (policy-driven appends, rotations,
    {!close}).
    @raise Invalid_argument on a non-positive [Every_n]. *)

val append : writer -> epoch:int -> weight:int -> blob:Bytes.t -> unit
(** Append one record; rotates and applies the fsync policy as configured.
    Epochs must be strictly increasing — the reader treats a non-monotone
    epoch as corruption.
    @raise Invalid_argument on a stale epoch, negative weight, or a closed
    writer. *)

val merge_hook :
  ?tracer:Obs.Tracer.t ->
  writer ->
  ctx:Obs.Span.context ->
  epoch:int ->
  weight:int ->
  blob:Bytes.t ->
  unit
(** [merge_hook ?tracer w] is {!append} in the shape of
    [Pipeline.Engine.create]'s [on_merge] hook. With a [tracer] and a
    nonzero [ctx] (a sampled delta) the append is recorded as the
    waterfall's ["wal"] stage. *)

val close : writer -> unit
(** Flush, fsync and close the current segment. Idempotent. *)

val appended : writer -> int
val rotations : writer -> int
val segment_index : writer -> int

(** {2 Reader} *)

type record = { epoch : int; weight : int; blob : Bytes.t }

type read_report = {
  segments : int;  (** segment files present *)
  bytes_truncated : int;  (** bytes past the first bad frame, all segments *)
  truncated_reason : string option;  (** why the log was cut, if it was *)
  other_version : int option;
      (** the wire version of the frame header the log was cut at, when it
          is not {!Wire.Codec.version}: the rest of the log is in another
          format, not torn *)
}

val iter : dir:string -> (record -> unit) -> read_report
(** [iter ~dir f] scans every segment in order and calls [f] on each record
    of the longest valid prefix, in epoch order. Segments are streamed
    frame by frame ({!Wire.Segment.iter}): memory holds one record, not the
    log. A missing directory reads as an empty log. Never raises on corrupt
    data — corruption is truncation, reported in the result; exceptions
    from [f] propagate. *)
