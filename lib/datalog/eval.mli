(** Bottom-up evaluation of stratified Datalog programs. *)

type prepared

val prepare : Rule.t list -> prepared
(** Normalize rules (safety check, literal ordering) and stratify.
    @raise Rule.Unsafe on a rule that is not range restricted.
    @raise Stratify.Not_stratifiable on a negative dependency cycle. *)

val rules : prepared -> Rule.t list
val stratification : prepared -> Stratify.t
val is_idb : prepared -> string -> bool

val eval_lits :
  Database.t ->
  ?scan:(int -> Relation.t option) ->
  ?pre:Database.t * Database.t ->
  ?plan:Plan.t ->
  Rule.literal list ->
  Subst.t ->
  (Subst.t -> unit) ->
  unit
(** Enumerate substitutions satisfying a literal list (assumed already in an
    evaluable order).  [scan i] overrides the relation scanned by the [i]-th
    literal, which is how semi-naive deltas are injected.  [plan] permutes
    the evaluation order; [scan] indices always refer to the original body
    positions.  A plan whose length does not match the body is ignored.

    [pre = (dplus, dminus)] evaluates against the pre-update view
    [(db \ dplus) ∪ dminus] of a database that an update has already
    changed by the net delta [dplus]/[dminus], without copying it: scans
    not overridden by [scan] skip the tuples in [dplus] and also range
    over [dminus], and negated literals test membership in the view.  A
    fact in both [dplus] and [dminus] is in the view.  The view is exact
    when [dminus] holds only facts absent from [db] or also in [dplus]. *)

type planned_rule
(** A rule as the evaluator runs it, with its cached join plans. *)

val planned : prepared -> planned_rule list array
(** The prepared rules per stratum, aligned with
    [Stratify.strata (stratification p)]. *)

val rule_of : planned_rule -> Rule.t

val variant_plan :
  Database.t ->
  planned_rule ->
  variant:int ->
  first:int ->
  Rule.literal list ->
  Plan.t option
(** The cached join plan for one body shape of a prepared rule, with
    literal [first] placed first ([None] when the planner is off).
    [variant] keys the shape: a delta position [i >= 0] shares the plan
    {!run}'s semi-naive rounds use for that position, so the body must be
    the rule's own; other shapes take keys below [-1].  Like {!run}'s own
    plans, an entry is keyed by a size class too: the bit lengths of the
    cardinalities of the relations the body's positive literals read, so
    a plan retires once one of them has roughly doubled or halved.  Each
    lookup counts a hit or a miss in {!Plan}. *)

val rule_label : planned_rule -> string
(** The printed rule, rendered once and memoized; a query body prints as
    [$query :- body] with [?] for each constant, so every text of one
    query shape shares the label. *)

val plan_label : Plan.t option -> string
(** A chosen join order as printed, ["-"] when unplanned. *)

(** What the evaluator reports: a stratum's fixpoint (run by {!run} and
    by {!Incremental.apply}), or one rule-body evaluation (by {!run},
    {!run_naive} and {!run_query}).  The type index is what the observed thunk
    returns: nothing for a stratum, the number of facts derived (answers,
    for a query body) for a rule. *)
type _ event =
  | Stratum : { stratum : int; rules : int } -> unit event
      (** [rules] is the stratum's rule count *)
  | Rule : {
      stratum : int;  (** -1 for ad-hoc query bodies *)
      rule : planned_rule;
      plan : Plan.t option;  (** chosen join order; [None] when unplanned *)
      cache : [ `Hit | `Miss | `Unplanned ];  (** plan-cache outcome *)
    }
      -> int event

type observer = { observe : 'a. 'a event -> (unit -> 'a) -> 'a }

val observer : observer ref
(** The one observation seam: called around every event with a thunk that
    does the work.  The default just runs the thunk; the server installs a
    translator to its tracing and profiling, keeping this library free of
    any observability dependency.  Events carry raw values, so an observer
    renders labels only when it will record them. *)

val observe : 'a event -> (unit -> 'a) -> 'a
(** Apply the current {!observer}. *)

val run : prepared -> Database.t -> unit
(** Materialize all intensional predicates into the database, semi-naive
    fixpoint per stratum. *)

val run_naive : prepared -> Database.t -> unit
(** Naive fixpoint (re-evaluate everything until no change); kept for the
    evaluation-strategy ablation bench. *)

type query
(** A query body prepared for every text of its shape: normalized, its
    constants numbered as slots in text order, its answer variables sorted,
    and its join plans cached per size class like a rule's. *)

val prepare_query : Rule.literal list -> query
(** Normalize a query body and number its constants: the [k]-th constant
    term in text order (literals in order, arguments left to right) is
    slot [k], the order {!Parse.query_shape} lists a text's constants in.
    @raise Rule.Unsafe if the body cannot be ordered. *)

val run_query :
  Database.t -> query -> ?consts:Term.const array -> (Subst.t -> unit) -> unit
(** Answer a prepared query against a materialized database, with [consts]
    (one per slot) in place of the preparing body's constants, or with that
    body as it is.  The join plan is the cached one for the size class of
    the relations the body reads, made from the first body evaluated in
    that class; the plan
    orders the join, so answers come in that plan's order.  The evaluation
    is reported as a [Rule] event of stratum -1, with its plan-cache
    outcome. *)

val answer : query -> Subst.t -> (string * Term.const) list
(** An answer's bindings for every body variable, sorted by name: equal to
    {!Subst.bindings} of the answer substitution. *)

val query : Database.t -> Rule.literal list -> (Subst.t -> unit) -> unit
(** Answer a query body used once: {!run_query} without the slots, so the
    body is normalized and planned afresh (a plan-cache miss).
    @raise Rule.Unsafe if the body cannot be ordered. *)

val query_once : Database.t -> Rule.literal list -> Subst.t option
