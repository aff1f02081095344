(** Translation of parsed definitions and evolution commands into changes of
    the base-predicate extensions — the Analyzer's mapping in the paper's
    architecture.  Works against a private copy of the schema base so later
    parts of a unit see earlier parts; the accumulated delta is handed to the
    Consistency Control.  Name resolution implements the appendix-A
    visibility rules (own components, public components of direct subschemas
    and imports, renamings, conflict detection). *)

type env

val create :
  ?lookup_code:(string -> (string list * Ast.stmt) option) ->
  ?deltas:Datalog.Delta.t list ->
  Datalog.Database.t ->
  Gom.Ids.gen ->
  env
(** The database is copied, and [deltas] (default none) are applied to the
    copy in order: changes not yet in the database, such as an evolution
    session's earlier commands.  The generator is shared (advanced in
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
