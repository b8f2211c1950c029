(** One consistent-enough view of a registry: what scrapes and formatters
    share.

    "Consistent enough" is precise here: every sample is an intermediate-
    value read of its instrument (counters are monotone, so each lies in
    its own [[v_inv, v_rsp]] envelope), but the snapshot as a whole is
    {e not} atomic across instruments — two counters scraped microseconds
    apart can disagree about which of them saw an event first. That is the paper's trade made deliberately: no scrape
    ever locks a hot path. *)

type summary_view = {
  q : (float * float) list;
      (** (phi, value) at phi = 0.5, 0.9, 0.99 and 1, for every timer *)
  s_count : int;
  s_sum : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Summary of summary_view

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;  (** sorted by key *)
  value : value;
}

type t = { at : float;  (** scrape wall-clock time *) samples : sample list }

val find : t -> ?labels:(string * string) list -> string -> value option
(** Look a sample up by name and (exact, order-insensitive) label set. *)

val counter_value : t -> ?labels:(string * string) list -> string -> int
(** Convenience: the counter's value, or 0 if absent/not a counter. *)

val gauge_value : t -> ?labels:(string * string) list -> string -> float
(** Convenience: the gauge's value, or 0 if absent/not a gauge. *)
