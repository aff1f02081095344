(** Query profiling: per-(rule, stratum) evaluation counters and a bounded
    top-K table of normalized query fingerprints.

    One {!t} lives per broker; the evaluator reports each rule evaluation
    through {!observe_rule} (wired via the engine's single observer seam,
    keeping the datalog library free of any obs dependency), and the
    broker records each finished query through {!note_query}.
    Accumulation is lock-free: counters are atomics, the table mutex
    guards only row creation and eviction.  Whether a rule evaluation is
    recorded is decided only by the current thread's {!Context}: a scope
    installed by {!with_scope}.  With no context on any thread,
    {!observe_rule} costs a single atomic load. *)

type t

val create : ?cap:int -> unit -> t
(** A fresh profile.  [cap] (default 256) bounds the fingerprint table;
    beyond it the row with the smallest cumulative time is evicted. *)

val reset : t -> unit

(** {1 Switches} *)

val set_enabled : bool -> unit
(** The [profile on|off] switch: when on, brokers install their profile as
    the per-thread sink around each request. *)

val enabled : unit -> bool

val set_slow_query_ms : float -> unit
(** Queries slower than this are logged at warn (comp=slowquery) with
    their fingerprint and per-rule time breakdown; [0] disables. *)

val slow_query_ms : unit -> float

val query_armed : unit -> bool
(** Whether finished queries should be measured at all: profiling enabled
    or a slow-query threshold set. *)

(** {1 Recording} *)

type cache_status = Hit | Miss | Unplanned

type event = {
  ev_stratum : int;  (** -1 for ad-hoc query bodies *)
  ev_label : string;
  ev_plan : string;
  ev_cache : cache_status;
  ev_derived : int;
  ev_ns : int;
}

val with_scope : ?sink:t -> ?collect:event list ref -> (unit -> 'a) -> 'a
(** Run a thunk with a per-thread recording scope installed: rule events
    go to [sink] (accumulated) and/or [collect] (raw, for [explain]).
    Scopes nest; the previous scope is restored on exit.  The thread's
    trace context, if any, is kept. *)

val scoped : unit -> bool
(** Would {!observe_rule} record on this thread?  Lets a caller skip
    rendering a rule's label and plan when nothing is listening; one atomic
    load when no thread carries a context. *)

val observe_rule :
  stratum:int ->
  label:string ->
  plan:string ->
  cache:cache_status ->
  (unit -> int) ->
  int
(** Time one rule evaluation.  The thunk returns the number of facts it
    derived; the event lands in the current thread's scope, if any (a
    trace context alone records nothing).  With no context on any thread
    this is one atomic load plus the thunk. *)

val fingerprint : string -> string
(** Normalize a query text pg_stat_statements-style: integer and quoted
    constants become [?], lowercase identifiers not used as predicate
    names (symbol constants) become [?], variables and predicate names
    survive, whitespace collapses. *)

val note_query : t -> text:string -> ns:int -> events:event list -> string
(** Record a finished query under its fingerprint (returned), and emit the
    slow-query warn line if it ran past the threshold. *)

val warn_slow : text:string -> ns:int -> events:event list -> unit
(** Only the slow-query warn line, nothing recorded: the broker's path
    when a threshold is set but profiling is off. *)

(** {1 Reading} *)

type query_row = { fp : string; calls : int; total_ns : int; max_ns : int }

type rule_row = {
  label : string;
  stratum : int;
  evals : int;
  derived : int;
  ns : int;
  plan_hits : int;
  plan_misses : int;
  plan : string;
}

val top : t -> k:int -> query_row list
(** Worst queries first (total time, then calls, then fingerprint). *)

val rules : t -> rule_row list
(** All rule rows, ordered by (stratum, label). *)

val fingerprints : t -> int
val rule_count : t -> int

val render_top : query_row list -> string list
(** The table shown by both [profile top] and [GET /profile] — one
    renderer so the two surfaces cannot disagree. *)

val page : query_row list -> string
(** The [GET /profile] body: [profiling on|off], then {!render_top} of
    [rows] — a broker's top 20, or the registry's merged table. *)

val render_rules : rule_row list -> string list

val merge_top : query_row list list -> k:int -> query_row list
(** Sum per-tenant tables fingerprint-wise and re-rank (the registry's
    aggregated [GET /profile]). *)

val export : ?labels:(string * string) list -> t -> Export.metric list
(** [gomsm_rule_eval_seconds{rule=...}] counters plus the
    [gomsm_query_fingerprints] gauge. *)
