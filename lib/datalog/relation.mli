(** A relation: the extension of one predicate, a mutable set of tuples,
    with lazily-built per-column hash indexes for join lookups. *)

type t

val use_indexes : bool ref
(** Global switch for column indexing (on by default); the off position
    exists for the evaluation-strategy ablation bench. *)

val lookup : t -> col:int -> key:Term.const -> Term.const array list option
(** Tuples whose [col]-th component equals [key], via the (lazily built)
    column index.  [None] when indexing is disabled — the caller scans. *)

val distinct_keys : t -> col:int -> int option
(** Number of distinct values in column [col] (builds the index on first
    use); the planner's selectivity denominator.  [None] when indexing is
    disabled. *)

val create : ?size:int -> unit -> t
val mem : t -> Term.const array -> bool

val add : t -> Term.const array -> bool
(** [add r tuple] inserts [tuple]; returns [true] iff it was not present. *)

val remove : t -> Term.const array -> bool
(** [remove r tuple] deletes [tuple]; returns [true] iff it was present. *)

val version : t -> int
(** A counter that {!add}, {!remove} and {!clear} bump whenever they
    change the tuple set: while it stays put, so does the extension.  A
    {!copy} starts its own count. *)

type change = Added of Term.const array | Removed of Term.const array

val changes_since : t -> int -> change list option
(** [changes_since r v]: the net of the {!add}s and {!remove}s that
    changed [r] after version [v] — each row that is in the set now and
    was not at [v] ([Added]), or was and is not ([Removed]), once, in no
    particular order; a row added and removed again is in neither.
    Applied to the set at [v], they give the set now.  [None] when the
    log does not reach back to [v]: it is off until the first call (which
    turns it on, so a relation no render reads never logs), restarts at
    the current version after every call (so it holds what changed since
    the last reader, and a second reader at an older version gets
    [None]), restarts at each {!clear}, and is dropped whenever it would
    pass a fixed cap of entries.  A {!copy} starts with the log off. *)

val cardinal : t -> int
val iter : (Term.const array -> unit) -> t -> unit
val fold : (Term.const array -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Term.const array list
val is_empty : t -> bool
val clear : t -> unit
val copy : t -> t
