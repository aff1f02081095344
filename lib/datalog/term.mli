(** Terms of the deductive database: variables and constants.

    Symbols are hash-consed: every distinct spelling maps to one shared
    {!symbol} record with a unique integer [id], so constant equality on the
    evaluation hot path is an int comparison and tuple hashing mixes small
    ints instead of strings. *)

type symbol = private { id : int; name : string }
(** An interned symbol.  Obtain one only through {!intern} (or the [symc] /
    [sym] constructors); the record is private so every symbol in existence
    is canonical and [id] equality coincides with [name] equality. *)

type const =
  | Sym of symbol  (** interned symbol: identifiers, user names *)
  | Int of int  (** machine integer: argument positions, counters *)
  | Fresh of string
      (** Skolem placeholder; appears only in generated repairs, standing for
          a value the repair executor must invent. *)

type t =
  | Var of string
  | Const of const

val intern : string -> symbol
(** The canonical symbol for a spelling; thread-safe, append-only. *)

val interned_count : unit -> int
(** Number of distinct symbols interned so far (surfaced in server stats). *)

val query_scope : unit -> string -> const
(** A constant maker for one query parse that interns nothing: a spelling
    with an interned symbol gets that symbol; any other gets a query-local
    symbol with a fresh negative id, shared by equal spellings within this
    scope.  A query-local symbol equals no stored constant (every stored
    one is interned) and prints and compares by name. *)

val interned : string -> const option
(** The symbol spelled [s] if one was interned, interning nothing: a
    spelling never interned occurs in no database extension, so a lookup
    by it can stop at [None]. *)

val symc : string -> const
(** [symc s] is the constant [Sym (intern s)]. *)

val sym : string -> t
(** [sym s] is the constant term [Const (symc s)]. *)

val int : int -> t
(** [int i] is the constant term [Const (Int i)]. *)

val var : string -> t
(** [var v] is the variable term [Var v]. *)

val compare_const : const -> const -> int
(** Total order; symbols order by name (stable dump/journal byte format). *)

val equal_const : const -> const -> bool

val hash_const : const -> int

val equal_tuple : const array -> const array -> bool
(** Component-wise {!equal_const}, length included. *)

val hash_tuple : const array -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val is_var : t -> bool

val pp_const : const Fmt.t
val pp : t Fmt.t
val const_to_string : const -> string
val to_string : t -> string
