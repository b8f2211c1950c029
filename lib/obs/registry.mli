(** The metrics registry: names and scrapes the repo's IVL instruments.

    Registration (cold path, mutex-guarded) hands back instruments whose
    hot paths never touch the registry again — a counter add is a striped
    fetch-and-add whether or not anything ever scrapes it. {!snapshot}
    walks the registered instruments and reads each one; per-instrument
    reads are IVL (see {!Snapshot}), and the walk holds no lock that any
    hot path can contend on.

    Instruments are identified by (name, label set). Constructors are
    get-or-create: asking twice for the same identity returns the same
    instrument (so components can wire metrics without threading handles),
    while asking for an existing identity {e as a different kind} raises.

    Besides owned instruments, existing state can be exported without
    restructuring it: {!counter_fn} and {!gauge_fn} register callbacks that
    the snapshot invokes at scrape time — how the pipeline exposes counters
    it already maintains as atomics, and how derived values like the live
    envelope-width gap are computed. Callbacks must be cheap and safe to
    call from the scraping domain. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] (default [Unix.gettimeofday]) stamps snapshots — injectable for
    deterministic tests. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val timer : t -> ?help:string -> ?labels:(string * string) list -> string -> Timer.t
(** A snapshot reports every timer at the quantiles 0.5, 0.9, 0.99 and 1. *)

val counter_fn :
  t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** Export an existing monotone int (an [Atomic.t], a sum of them...) as a
    counter. Re-registering the same identity replaces the callback. *)

val gauge_fn :
  t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> float) -> unit
(** Export a derived value as a gauge, computed at scrape time. *)

val snapshot : t -> Snapshot.t
(** Read every instrument once. Samples are sorted by (name, labels) so
    output is deterministic modulo concurrent writes. *)
