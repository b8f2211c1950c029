(** The metrics registry: names the series a scrape reads.

    Components keep their own state (atomics, sums of per-shard atomics,
    derived values) and export it through callbacks: {!counter_fn} and
    {!gauge_fn} register a function that the snapshot invokes at scrape
    time, so a hot path never touches the registry. A callback summing
    monotone per-shard atomics is still an {e intermediate-value} read
    (Lemma 10): the sum lies between the value at the scrape's start and
    at its end. {!timer} is the one instrument the registry owns.
    {!snapshot} walks the registrations and reads each one (see
    {!Snapshot}); the walk holds no lock that any hot path can contend on.
    Callbacks must be cheap and safe to call from the scraping domain.

    Series are identified by (name, label set); label order does not
    matter. Registering an existing identity {e as a different kind}
    raises. *)

type t

val create : ?now:(unit -> float) -> unit -> t
(** [now] (default [Unix.gettimeofday]) stamps snapshots — injectable for
    deterministic tests. *)

val timer : t -> ?help:string -> ?labels:(string * string) list -> string -> Timer.t
(** Get-or-create: asking twice for the same identity returns the same
    timer. A snapshot reports every timer at the quantiles 0.5, 0.9, 0.99
    and 1.
    @raise Invalid_argument if the identity names a counter or gauge. *)

val counter_fn :
  t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> int) -> unit
(** Export an existing monotone int (an [Atomic.t], a sum of them...) as a
    counter. Re-registering the same identity replaces the callback.
    @raise Invalid_argument if the identity names a gauge or timer. *)

val gauge_fn :
  t -> ?help:string -> ?labels:(string * string) list -> string -> (unit -> float) -> unit
(** Export a derived value as a gauge, computed at scrape time.
    Re-registering the same identity replaces the callback.
    @raise Invalid_argument if the identity names a counter or timer. *)

val snapshot : t -> Snapshot.t
(** Read every series once. Samples are sorted by (name, labels) so
    output is deterministic modulo concurrent writes. *)
