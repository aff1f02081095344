(** A theory: declared base predicates, intensional rules, and named
    consistency constraints — the "definition feed" of the Consistency
    Control.  All three can be extended at run time, which is the paper's
    flexibility mechanism. *)

type pred_decl = { name : string; columns : string list }

type t

exception Duplicate of string

val create : unit -> t

val revision : t -> int
(** Bumped on every definition change; lets callers invalidate caches built
    against an older state of the theory. *)

val declare_predicate : t -> name:string -> columns:string list -> unit
(** @raise Duplicate if the predicate was already declared. *)

val predicate_declared : t -> string -> bool
val predicates : t -> pred_decl list

val add_rule : t -> Rule.t -> unit
val add_rules : t -> Rule.t list -> unit
val rules : t -> Rule.t list

val add_constraint : t -> name:string -> Formula.t -> unit
(** Compile and register a constraint.
    @raise Duplicate on a name clash.
    @raise Constraint_compile.Error if the formula is rejected. *)

val remove_constraint : t -> string -> bool
val replace_constraint : t -> name:string -> Formula.t -> unit
val constraints : t -> Constraint_compile.compiled list
val find_constraint : t -> string -> Constraint_compile.compiled option

val all_rules : t -> Rule.t list
(** Intensional rules followed by all compiled constraint rules. *)

val prepared : t -> Eval.prepared
(** Cached prepared program over {!all_rules}; invalidated by any change to
    the theory. *)

val fresh_database : t -> Database.t
(** A fresh empty database carrying this theory's predicate declarations. *)

val constraint_base_deps : t -> Constraint_compile.compiled -> string list
(** Base predicates a constraint transitively reads. *)

val affected_constraints :
  t -> changed_preds:string list -> Constraint_compile.compiled list
(** Constraints whose truth can depend on the given base predicates, in
    the order they were added: the same list for the same set of
    predicates.  An index from each base predicate to its dependent
    constraints is built once per {!revision}, so a call costs a lookup
    per changed predicate. *)
