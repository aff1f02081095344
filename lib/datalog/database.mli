(** The extensional database: one relation per predicate, plus declared
    predicate signatures (used for arity checking and pretty printing). *)

type decl = { name : string; arity : int; columns : string list }

type t

exception Arity_mismatch of string * int * int
(** [Arity_mismatch (pred, expected, got)] *)

val create : unit -> t

val declare : t -> name:string -> columns:string list -> unit
(** Declare a predicate's signature; column names are used by the pretty
    printer and the arity is enforced on every subsequent {!add}. *)

val declaration : t -> string -> decl option
val declarations : t -> decl list

val relation : t -> string -> Relation.t
(** The relation for a predicate, created empty on first access. *)

val relation_opt : t -> string -> Relation.t option

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
val facts : t -> string -> Fact.t list
val all_facts : t -> Fact.t list
val predicates : t -> string list
val copy : t -> t

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
