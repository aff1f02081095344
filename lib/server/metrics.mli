(** A small thread-safe registry for the schema service: counters
    (sessions opened/committed/rolled back, violations found), latency
    histograms, and gauges — surfaced by the [stats] request and the
    admin endpoint's /metrics.

    A gauge is not a stored value but a reader: the module that owns the
    fact (the broker's epoch, a journal's position, the open-database
    count) registers it once, and {!render} and {!export} call it each
    time they run, so [stats] and /metrics read the same live value.
    Readers are called {e after} the registry's mutex is released: a
    reader may take its owner's leaf lock (even one held elsewhere while
    that thread calls into this registry) and may bump this registry's
    counters.  It must not take a lock that the caller of [render] or
    [export] may hold (the tenant registry's mutex). *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
(** Bump a counter (created at zero on first use). *)

val counter : t -> string -> int
(** Current value (0 if never bumped). *)

val counters : t -> (string * int) list
(** Every counter with its value, sorted by name — the registry's way of
    aggregating per-tenant totals into the daemon-wide [stats]. *)

val gauge : t -> string -> (unit -> int) -> unit
(** Register the reader of a gauge, replacing any reader of the same
    name. *)

val remove_gauge : t -> string -> unit
(** Forget a gauge's reader (no-op if none): an owner that goes away
    before the registry does removes what it registered. *)

val observe : t -> string -> float -> unit
(** Record one observation, in seconds, into a latency histogram. *)

val observe_count : t -> string -> int -> unit
(** Record one observation into a plain-magnitude histogram (bounds
    1/2/4/8/16/32) — group-commit batch sizes.  The exporter leaves the
    name unsuffixed and [render] prints raw values, not microseconds.
    A name is one kind forever: don't mix [observe] and [observe_count]. *)

val export : ?labels:(string * string) list -> t -> Obs.Export.metric list
(** The registry as exporter metrics for the admin endpoint's /metrics:
    names are prefixed [gomsm_] with dots mapped to underscores, the
    given labels (e.g. [("db", tenant)]) are attached to every series,
    and the [latency.<op>] histograms collapse into one
    [gomsm_latency_seconds] family with an [op] label.  Buckets stay
    per-bin here; {!Obs.Export.render} computes the cumulative [le]
    sums. *)

val render : t -> string list
(** The whole registry, one record per line — counters, then gauges, then
    histograms, each group sorted:
    [counter <name> <value>], [gauge <name> <value>] and
    [hist <name> count <n> mean_us <m> max_us <x> le_1ms <k> ...]. *)
