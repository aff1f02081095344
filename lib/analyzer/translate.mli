(** Translation of parsed definitions and evolution commands into changes of
    the base-predicate extensions — the Analyzer's mapping in the paper's
    architecture.  Translation writes each change into a working database
    as it makes it, so later parts of a unit see earlier parts; the
    accumulated delta is handed to the Consistency Control.  Name
    resolution implements the appendix-A visibility rules (own
    components, public components of direct subschemas and imports,
    renamings, conflict detection). *)

type env

val create :
  ?lookup_code:(string -> (string list * Ast.stmt) option) ->
  Datalog.Database.t ->
  Gom.Ids.gen ->
  env
(** [create work ids]: translation reads [work] and writes every change
    into it.  Pass an overlay ({!Datalog.Database.overlay}) over the
    committed base to keep the base as it is: the changes stay in the
    overlay, which a later [create] may continue from (an evolution
    session's earlier commands).  The generator is shared (advanced in
    place). *)

val delta : env -> Datalog.Delta.t
val diagnostics : env -> string list

val code_asts : env -> (string * (string list * Ast.stmt)) list
(** Parsed bodies registered during translation, for the Runtime. *)

val resolve_type_ref : env -> sid:string -> Ast.type_ref -> string option
(** Resolution with an unknown-name diagnostic. *)

val resolve_quiet : env -> sid:string -> Ast.type_ref -> string option

val resolve_schema_path :
  env -> from_sid:string -> Ast.schema_path -> string option
(** Absolute, parent-relative ([..]) or child-relative schema paths. *)

val translate_unit : env -> Ast.unit_item list -> unit
val translate_command : env -> Ast.command -> unit
