(** A striped quantile timer: KLL sketches behind per-stripe mutexes — the
    one latency instrument.

    A [Timer] records every observation into a {!Sketches.Quantiles}
    sketch (±εn rank error, ~1% at k = 200) — the right tool for
    merge-lag and fsync-latency distributions where the interesting signal
    is a p99 shift well below a factor of 2.

    The price is a mutex and sketch allocation per observe. Striping keeps
    the mutex uncontended (a domain locks the stripe picked by its id), and
    a scrape locks each stripe only long enough to {!Sketches.Quantiles.copy}
    it, merging the copies outside the locks — a scrape never blocks an
    observer for more than one O(retained) copy. *)

type t

val create : seed:int64 -> unit -> t
(** A few more stripes than [Domain.recommended_domain_count ()], each a
    KLL sketch with k = 200 seeded from [seed]. *)

val observe : t -> float -> unit
(** Record one observation (e.g. seconds), from any domain. Takes the
    calling domain's stripe mutex; allocates (sketch internals). *)

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds. *)

val count : t -> int

val sum : t -> float
(** Sum of observed values, accumulated in integer nanounits (1e-9 of the
    observed unit) — exact to 1e-9, overflows after ~9.2e9 unit-sums. *)

val quantile : t -> float -> float
(** Merged-sketch [phi]-quantile; 0 on an empty timer.
    @raise Invalid_argument outside [0,1]. *)

val quantiles : t -> float list -> (float * float) list
(** One merge, several probes — what a scrape uses. *)
