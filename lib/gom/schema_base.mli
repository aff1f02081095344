(** Typed queries over the Schema Base (the extensional database holding the
    schema facts).  These read the base predicates directly, so they are
    always current and need no materialized intensional state.  They work
    on a plain database and on an overlay ({!Datalog.Database.overlay})
    alike.

    A lookup by a known component probes that column's index; every list
    answer is sorted, and a lookup with one answer on a consistent base
    gives the least of several on an inconsistent one.  So answers do not
    depend on how the base is stored. *)

open Datalog

val scan : Database.t -> string -> (Term.const array -> unit) -> unit

val collect : Database.t -> string -> (Term.const array -> 'a option) -> 'a list
(** The answers of [f] over every tuple of the predicate, sorted. *)

val matching :
  Database.t ->
  string ->
  col:int ->
  string ->
  (Term.const array -> 'a option) ->
  'a list
(** [matching db pred ~col name f]: the answers of [f] over the tuples of
    [pred] whose [col]-th component is the symbol [name], sorted; found
    through the column's index. *)

val sym_of : Term.const -> string

(** {2 Schemas} *)

val find_schema : Database.t -> name:string -> string option
val schema_name : Database.t -> sid:string -> string option
val schemas : Database.t -> (string * string) list

(** {2 Types} *)

val find_type : Database.t -> sid:string -> name:string -> string option

val find_type_at :
  Database.t -> type_name:string -> schema_name:string -> string option
(** The paper's @-notation: [TypeName@SchemaName]. *)

val type_info : Database.t -> tid:string -> (string * string) option
(** (type name, schema id). *)

val type_name : Database.t -> tid:string -> string option
val schema_of_type : Database.t -> tid:string -> string option
val types_of_schema : Database.t -> sid:string -> (string * string) list

(** {2 Subtyping} *)

val direct_supertypes : Database.t -> tid:string -> string list
val direct_subtypes : Database.t -> tid:string -> string list

val supertypes : Database.t -> tid:string -> string list
(** Breadth-first, nearest first, excluding the type itself; cycle-safe
    even on inconsistent schemas. *)

val is_subtype : Database.t -> sub:string -> super:string -> bool
(** Reflexive-transitive. *)

(** {2 Attributes} *)

val direct_attrs : Database.t -> tid:string -> (string * string) list

val all_attrs : Database.t -> tid:string -> (string * string) list
(** Including inherited ones (the extension of [Attr_i] for this type),
    nearest declaration first. *)

val attr_domain : Database.t -> tid:string -> name:string -> string option

(** {2 Operations} *)

type decl_info = {
  did : string;
  receiver : string;
  op_name : string;
  result : string;
}

val decl_by_id : Database.t -> did:string -> decl_info option
val direct_decls : Database.t -> tid:string -> decl_info list

val resolve_decl : Database.t -> tid:string -> name:string -> decl_info option
(** Dynamic binding: the nearest declaration up the supertype chain. *)

val args_of_decl : Database.t -> did:string -> (int * string) list
val code_of_decl : Database.t -> did:string -> (string * string) option
val refinements_of : Database.t -> did:string -> string list

(** {2 Physical representations} *)

val phrep_of_type : Database.t -> tid:string -> string option
val type_of_phrep : Database.t -> clid:string -> string option
val slots_of_phrep : Database.t -> clid:string -> (string * string) list

(** {2 Versioning} *)

val evolutions_of_type : Database.t -> tid:string -> string list
val predecessors_of_type : Database.t -> tid:string -> string list

(** {2 Fashion} *)

val fashion_targets : Database.t -> tid:string -> string list
(** Types this type's instances are substitutable for via FashionType. *)

val fashion_sources : Database.t -> tid:string -> string list

val fashion_attr :
  Database.t ->
  owner_tid:string ->
  attr_name:string ->
  masked_tid:string ->
  (string * string) option
(** (read code id, write code id). *)

val fashion_decl :
  Database.t -> did:string -> masked_tid:string -> string option

(** {2 Subschemas (appendix A)} *)

val parent_schema : Database.t -> sid:string -> string option
val child_schemas : Database.t -> sid:string -> string list
val imports_of : Database.t -> sid:string -> string list

val renames_in :
  Database.t -> sid:string -> (string * string * string * string) list
(** (kind, new name, source sid, old name) renamings in force in a schema. *)

val renamed_away :
  Database.t ->
  sid:string ->
  kind:string ->
  source_sid:string ->
  old_name:string ->
  bool

val public_comps : Database.t -> sid:string -> (string * string) list
(** (kind, name) components made public. *)
