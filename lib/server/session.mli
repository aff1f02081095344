(** An evolution session as the broker holds it between [bes] and [ees]:
    the list of its analyzed commands, that is, the base-fact changes the
    update induces, applied to the shared manager only by {!replay}.

    Every command is analyzed against the committed base with the
    session's earlier changes applied to the analyzer's working copy
    ({!Analyzer.Translate.create}'s [deltas]), allocates identifiers from
    the session's own copy of the manager's counters, and sees the
    session's code before the committed code.  Replaying the commands in
    one manager session therefore reaches the state that absorbing each
    into the manager as it arrived would have reached, identifiers and
    code included. *)

type t

val create : owner:int -> Core.Manager.t -> t
(** An empty session for client [owner], with a copy of the manager's
    identifier counters.  Call while no other session can commit. *)

val owner : t -> int

val is_empty : t -> bool
(** No command analyzed yet: the session's state is the committed one. *)

val analyze : t -> Core.Manager.t -> Analyzer.Ast.command list -> string list
(** Analyze each command in turn and append its result to the session;
    returns the analyzer's diagnostics, in order.  Only reads the manager,
    so callers may run it beside other readers. *)

val replay : t -> Core.Manager.t -> (unit -> 'a) -> 'a
(** Apply the session to the manager as one manager session — its
    counters installed, each analyzed command absorbed in order — and run
    [f] over it.  Whatever [f] leaves in session, or an exception
    interrupts, is rolled back before [replay] returns, which restores the
    committed counters.  Needs the manager exclusively. *)
