(** A monotone metrics counter whose reads are IVL by construction.

    The hot path is {!Conc.Striped_total}: writers fetch-and-add into
    per-domain padded slots (wait-free, zero allocation), and a scrape sums
    the slots. The sum is an {e intermediate-value} read in the paper's
    sense — the scan interleaves with concurrent adds, but each slot is
    monotone, so per Lemma 10 every read lies in [[v_inv, v_rsp]]. No lock
    is ever taken: concurrent scrapes cost the writers nothing beyond the
    cache traffic of the scan itself. *)

type t

val create : unit -> t
(** A few more slots than [Domain.recommended_domain_count ()]. *)

val add : t -> int -> unit
(** Add [v] (any domain, any time). Wait-free, 0 B/op. *)

val incr : t -> unit

val read : t -> int
(** IVL read: any intermediate value between the counter's value at the
    read's invocation and at its response. Successive reads from one domain
    are monotone. *)
