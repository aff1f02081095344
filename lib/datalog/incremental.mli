(** Incremental consistency checking: a materialization maintained under
    base-fact changes by a stratified delete-and-rederive (DRed) algorithm,
    over a whole theory or only the rule cone of some constraints. *)

type state

val cone : Theory.t -> Constraint_compile.compiled list -> Rule.t list
(** The rules of the theory that the given constraints' violation
    predicates transitively need: their rule cone. *)

val check_affected :
  Theory.t -> Database.t -> delta:Delta.t -> Checker.violation list
(** Materialize from scratch only the {!cone} of the constraints that
    transitively depend on a predicate changed by [delta], and report only
    their violations: {!init} [~copy:false ~rules] plus {!violations}
    [~only].  The materialization writes only derived relations; the base
    relations are shared and only read, so the database's tuples and
    relation versions are left as they were.  [delta] is assumed already
    applied to the database. *)

val init : ?copy:bool -> ?rules:Rule.t list -> Theory.t -> Database.t -> state
(** Materialize the extensional database and keep it maintained.  [rules]
    (default: every rule of the theory, {!Theory.all_rules}) is the
    program maintained; a {!cone} keeps only what some constraints need,
    and its plans are its own.  With [~copy:false] the caller's database
    is maintained in place (every change must then go through {!apply});
    by default it is copied once.

    The materialization shares the base relations of that database: a
    base fact is stored once, and {!materialized} sees every base change
    {!apply} makes.
    @raise Invalid_argument if a declared base predicate is also derived. *)

val apply : state -> Delta.t -> Delta.t
(** Apply a base-fact delta and maintain the materialization (DRed).
    Returns the effective delta (facts actually inserted/removed), suitable
    for {!Delta.invert}-based rollback.

    The deletion phase evaluates against the pre-update state without
    copying it: a view of the updated materialization with the net
    changes so far masked out (see {!Eval.eval_lits}'s [pre]).  Only the
    rule variants of predicates with net changes fire: per stratum, the
    first [apply] on a state builds tables from each head predicate to
    its rules and from each body predicate to the literals that read it
    (positive, and negated with the flipped body made once), and a stratum
    none of whose literals reads a changed predicate is skipped.  Scratch
    fact sets are made only when a fact lands in them.  The cost follows
    the delta and what it derives, not the size of the base or of the
    program.
    @raise Invalid_argument if [delta] changes a derived predicate. *)

val violations :
  ?only:Constraint_compile.compiled list -> state -> Checker.violation list
(** Current violations, read directly off the maintained materialization.
    For a {!cone}, [only] must name constraints of that cone. *)

val edb : state -> Database.t
val materialized : state -> Database.t
