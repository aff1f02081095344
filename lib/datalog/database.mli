(** The extensional database: one relation per predicate, plus declared
    predicate signatures (used for arity checking and pretty printing).

    A database is either plain, or an {!overlay}: a read-through view of
    a plain base with changes of its own, which it keeps apart and never
    writes to the base. *)

type decl = { name : string; arity : int; columns : string list }

type t

exception Arity_mismatch of string * int * int
(** [Arity_mismatch (pred, expected, got)] *)

val create : ?size:int -> unit -> t
(** An empty plain database; [size] (default 64) is the initial size of
    its tables, a hint. *)

val overlay : t -> t
(** [overlay base] is a database that starts equal to [base] and takes
    its changes itself: an {!add} of a fact [base] lacks goes into the
    overlay's own added set, a {!remove} of a base fact into its removed
    set, and undoing either just empties it out again.  Reads see
    [(base \ removed) ∪ added]; {!iter_matching} probes [base]'s column
    indexes.  Creating one costs two empty tables, whatever the size of
    [base].  [base] is never written, but it is read on every access, so
    it must hold the same facts for as long as the overlay is used (its
    lazily built indexes are the one thing a read may extend).
    Declarations are read through as well; {!declare} on an overlay
    shadows the base's.

    {!relation}, {!relation_opt}, {!share}, {!copy}, {!share_relation} and
    {!clear_pred} hand out or rebuild relation objects, and raise
    [Invalid_argument] on an overlay, as do {!total} and
    {!declarations}.
    @raise Invalid_argument if [base] is itself an overlay. *)

val declare : t -> name:string -> columns:string list -> unit
(** Declare a predicate's signature; column names are used by the pretty
    printer and the arity is enforced on every subsequent {!add}. *)

val declaration : t -> string -> decl option
val declarations : t -> decl list

val relation : t -> string -> Relation.t
(** The relation for a predicate, created empty on first access.  Plain
    databases only. *)

val relation_opt : t -> string -> Relation.t option
(** Plain databases only. *)

val check_arity : t -> Fact.t -> unit
(** @raise Arity_mismatch if the fact disagrees with a declared signature. *)

val add : t -> Fact.t -> bool
(** [add db f] inserts [f]; returns [true] iff it was not present.
    @raise Arity_mismatch if [f] disagrees with the declared signature. *)

val remove : t -> Fact.t -> bool
val mem : t -> Fact.t -> bool
val count : t -> string -> int
val total : t -> int
val iter_pred : t -> string -> (Term.const array -> unit) -> unit

val iter_matching :
  t -> string -> col:int -> key:Term.const -> (Term.const array -> unit) -> unit
(** [iter_matching db pred ~col ~key f] applies [f] to each tuple of
    [pred] whose [col]-th component equals [key], found through the
    relation's column index (built on first use; a scan when
    {!Relation.use_indexes} is off).  On an overlay, the base's index and
    the added set's are probed, and hidden base tuples skipped.  No
    particular order. *)

val changes : t -> Fact.t list * Fact.t list
(** [changes over] is what the overlay changed over its base: the facts
    it adds and the base facts it removes, each list in descending
    {!Fact.compare} order.  Applied to the base, they reach the overlay's
    state, and every one of them is effective.
    @raise Invalid_argument on a plain database. *)

val facts : t -> string -> Fact.t list
val all_facts : t -> Fact.t list
val predicates : t -> string list
val copy : t -> t
(** A plain database with copies of every relation. *)

val share : ?copy:(string -> bool) -> t -> t
(** A database over the same relations: each relation of the argument is
    the very same object in the result (a change through either database
    is seen by both), except those whose predicate satisfies [copy]
    (default: none), which are copied.  Relations created later in either
    database stay private to it; see {!share_relation}.  Declarations are
    copied. *)

val share_relation : t -> from:t -> string -> unit
(** [share_relation db ~from pred] makes [from]'s relation for [pred] also
    [db]'s, if [db] has none yet. *)

val clear_pred : t -> string -> unit
