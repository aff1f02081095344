(** Substitutions binding variables to constants during evaluation. *)

type t

val empty : t
val find : string -> t -> Term.const option
val binding : string -> t -> string * Term.const
(** The binding of a variable, as held (no copy).
    @raise Not_found if it is unbound. *)

val bind : string -> Term.const -> t -> t
val mem : string -> t -> bool
val bindings : t -> (string * Term.const) list

val unify_term : Term.t -> Term.const -> t -> t option
val unify_args : Term.t array -> Term.const array -> t -> t option

val apply_term : t -> Term.t -> Term.t
val apply_atom : t -> Atom.t -> Atom.t

val ground_atom : t -> Atom.t -> Fact.t
(** Ground an atom into a fact; unbound variables become {!Term.Fresh}
    placeholders (used when suggesting repairs with invented values). *)

val pp : t Fmt.t
