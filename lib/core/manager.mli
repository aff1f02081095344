(** The schema manager: the paper's Consistency Control wired to the
    Analyzer and the Runtime System (Figure 1).

    All changes to the Database Model go through sessions enclosed between
    {!begin_session} (BES) and {!end_session} (EES); consistency checking is
    deferred to EES, so arbitrary compositions of primitive updates — and
    user-defined complex evolution operations — are allowed in between.  On a
    detected inconsistency the manager generates repairs, decorated with
    Analyzer/Runtime explanations, that the user can execute; undoing the
    session ({!rollback}) is always among the options. *)

module Ast = Analyzer.Ast
module Object_store = Runtime.Object_store
module Value = Runtime.Value

type report = {
  violation : Datalog.Checker.violation;
  description : string;  (** human-readable, with witness bindings *)
}

type outcome = Consistent | Inconsistent of report list

type change = {
  delta : Datalog.Delta.t;  (** the net base-fact delta *)
  code : (string * (string list * Ast.stmt)) list;
      (** the code bindings it makes, by code id *)
  ids : Gom.Ids.gen;  (** the identifier counters it reaches *)
}
(** A change set: what a committed session changed in the Database
    Model, and what one journal record carries. *)

exception No_session
(** A session-only operation was called outside BES/EES. *)

exception Session_open
(** BES while a session is already open. *)


type t

(** {2 Construction and access} *)

val create :
  ?versioning:bool ->
  ?fashion:bool ->
  ?subschemas:bool ->
  ?sorts:bool ->
  unit ->
  t
(** A schema manager over a fresh schema base (built-in sorts seeded).  The
    optional flags select which section 4.1 / appendix A extensions are
    installed; all default to [true].

    The manager keeps at most one derived (IDB) state, maintained in place
    by DRed under every base change (modify, runtime modify, rollback),
    and its shape follows what has been read:
    - once anything reads derived state ({!materialized}, {!query}
      without [materialized], {!check_now} outside a session,
      {!repairs_for}), the whole program is kept maintained, for as
      long as reads keep coming: a session check that finds it unread
      since the previous session check drops it;
    - otherwise, at most the rule cone of the affected constraints is
      kept: those whose base predicates a session changed, keyed by the
      theory revision and their names.  A key seen for the first time is
      evaluated from scratch beside the base, which it only reads,
      leaving nothing behind; when the next session check needs the same
      key, the cone is evaluated in place and retained, so a check with
      that key evaluates nothing.  A check with another key drops it.
    A theory change drops either shape.  Verdicts do not depend on which
    shape is live. *)

val database : t -> Datalog.Database.t
(** The live extensional database (Schema Base + Object Base Model).  Treat
    as read-only: changes must go through sessions. *)

val theory : t -> Datalog.Theory.t
(** The Consistency Control's definitions.  Extending it (new predicates,
    rules, constraints) at run time is the paper's flexibility mechanism. *)

val runtime : t -> Runtime.t
(** The Runtime System bound to this manager. *)

val ids : t -> Gom.Ids.gen
val lookup_code : t -> string -> (string list * Ast.stmt) option

val code_version : t -> int
(** A counter bumped by every change to the code table (a registration,
    a rollback): while it stays put, {!lookup_code} answers the same. *)

val in_session : t -> bool

(** {2 Evolution sessions} *)

val begin_session : t -> unit
(** BES. @raise Session_open if one is already open. *)

val load_definitions : t -> string -> unit
(** Parse and absorb GOM definition frames (schemas, fashion clauses).
    @raise No_session outside a session.
    @raise Analyzer.Syntax_error on unparsable input. *)

val run_commands : t -> string -> unit
(** Parse and absorb evolution commands (without bes/ees markers; use
    {!run_script} for full scripts). *)

val propose : t -> Datalog.Delta.t -> unit
(** Raw base-fact changes (the modify interface). *)

val register_code : t -> string -> string list -> Ast.stmt -> unit
(** Register (or replace) interpretable code under a code id; used by
    complex evolution operators that rewrite method bodies. *)

val absorb : t -> Analyzer.result -> unit
(** Absorb a pre-computed analyzer result into the open session. *)

val session_delta : t -> Datalog.Delta.t
(** The session's net effective delta so far: per fact, only its overall
    movement relative to the BES state (changes undone within the session
    cancel out), so applying it to the BES state reproduces the current
    state exactly. *)

val session_diagnostics : t -> string list
(** Analyzer diagnostics collected during the session, oldest first. *)

val session_code_changes : t -> (string * (string list * Ast.stmt)) list
(** Code registrations made (or replaced) since BES, sorted by code id;
    together with {!session_delta} this is everything a committed session
    changed in the Database Model.  Capture it {e before} {!end_session}. *)

val end_session : ?delta:Datalog.Delta.t -> t -> outcome
(** EES: check consistency.  On [Consistent] the session is committed and
    closed; on [Inconsistent] it stays open for repairs or rollback.
    [delta], when given, must be {!session_delta} of the current state: a
    caller that needs it anyway (to journal the session) spares the check
    computing it again. *)

val rollback : t -> unit
(** Undo the whole session: inverse deltas, code registrations, and the
    object base snapshot are restored; the session closes. *)

(** {2 Change sets} *)

val commit :
  ?around_check:((unit -> outcome) -> outcome) -> t -> change -> outcome
(** The one entry for a change built elsewhere — the daemon's EES,
    journal recovery, a replica's records, a dump's load — so the same
    change reaches the same state.  Opens a session, applies the delta
    once, binds the code, raises each identifier counter to the change's
    (never back), and checks at EES: on [Consistent] the change is
    committed; on [Inconsistent] it is rolled back and the reports
    returned; an exception rolls it back and propagates.  [around_check]
    (default: just run it) wraps the check, for a caller's tracing.
    @raise Session_open if a session is already open. *)

val with_change : t -> change -> (unit -> 'a) -> 'a
(** [with_change t c f] runs [f] over [c] applied as {!commit} applies
    it, unchecked, and then always rolls it back: how a session's owner
    reads its own changes.  The rollback restores the counters too.
    @raise Session_open if a session is already open. *)

(** {2 Checking and repairs} *)

val materialized : t -> Datalog.Database.t
(** The derived (IDB) state the current base facts imply, the violation
    predicates included: the whole program's maintained state itself, not
    a copy, so it moves with every later change and must be treated as
    read-only.  Reading it keeps the whole program maintained until a
    session check finds it unread since the previous one. *)

val check_now : ?delta:Datalog.Delta.t -> t -> report list
(** Check without ending the session.  Inside a session only the
    constraints the session affects are read; outside one, every
    violation of {!materialized}.  [delta], as for {!end_session}, is the
    open session's {!session_delta} if the caller has it. *)

val repairs_for : t -> Datalog.Checker.violation -> (Datalog.Repair.t * string list) list
(** Generated repairs for a violation, each with its Analyzer/Runtime
    explanations (protocol step 7). *)

val execute_repair :
  t -> ?fill:(Object_store.obj -> Value.t) -> Datalog.Repair.t -> unit
(** Execute a chosen repair (protocol step 9): physical-model actions run
    through the Runtime System (adding a slot converts the affected objects
    using [fill], default the domain's default value; deleting a
    representation deletes all instances); other actions are plain base-fact
    changes.  Fresh placeholders are instantiated with new identifiers. *)

val query :
  ?materialized:Datalog.Database.t ->
  t ->
  Datalog.Rule.literal list ->
  (string * Datalog.Term.const) list list
(** Answer a deductive query against [materialized] — a materialization
    of the current state, such as {!Datalog.Checker.materialize}'s — or,
    by default, against {!materialized}; each answer is its witness
    bindings.  Lazily built relation indexes persist on the database, so
    concurrent queries must be serialized by the caller.
    @raise Datalog.Rule.Unsafe if the query cannot be ordered. *)

val query_text :
  ?materialized:Datalog.Database.t ->
  t ->
  string ->
  (string * Datalog.Term.const) list list
(** Same, from text (see {!Datalog.Parse}): e.g.
    [query_text m "Attr_i(T, A, D), not Slot(C, A, V)"].  The manager
    keeps a bounded table of prepared query shapes
    ({!Datalog.Parse.query_shape}): a text of a shape seen before skips
    parsing, normalizing and planning and reuses its shape's body, answer
    variables and plan for the size class of the relations it reads.  The
    table is mutable state like the relation indexes, so the same
    serialization applies.
    @raise Datalog.Parse.Error on syntax errors. *)

(** {2 Protocol drivers} *)

type choice =
  | Choose_repair of Datalog.Repair.t
  | Choose_rollback
  | Give_up  (** leave the session open for further manual changes *)

val end_session_with :
  t -> choose:(report -> (Datalog.Repair.t * string list) list -> choice) -> outcome
(** Drive EES to completion: while inconsistencies are detected, [choose]
    picks a repair (or rollback) for the first violation; chosen repairs are
    executed and checking resumes. *)

val run_script : t -> string -> outcome
(** Run a command script containing bes/ees markers; returns the outcome of
    the last EES. *)
