(** Identifier generation for schema objects, mirroring the paper's naming:
    [sid_1] for schemas, [tid_1] for types, [did_1] for operation
    declarations, [cid_1] for code pieces, [clid_1] for physical
    representations, [oid_1] for runtime objects. *)

type kind = Schema | Type | Decl | Code | Phrep | Object

type gen = {
  mutable schemas : int;
  mutable types : int;
  mutable decls : int;
  mutable codes : int;
  mutable phreps : int;
  mutable objects : int;
}

val create : unit -> gen
val copy : gen -> gen
(** A generator at the same counters, advanced independently. *)

val assign : into:gen -> gen -> unit
(** Set [into]'s counters to those of the second generator. *)

val prefix : kind -> string

val fresh : gen -> kind -> string
(** The next identifier of the given kind, e.g. [fresh g Type = "tid_7"]. *)

val kind_of : string -> kind option
(** Classify an identifier by its prefix. *)
