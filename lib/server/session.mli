(** An evolution session as the broker holds it between [bes] and [ees]:
    the list of its analyzed commands, that is, the base-fact changes the
    update induces, applied to the shared manager only by {!replay}.

    Every command is analyzed over one overlay of the committed base
    ({!Datalog.Database.overlay}) that the session keeps from its first
    command to its end: each command's analysis writes its changes into
    it, so the next sees them without the base being copied or the
    earlier changes re-applied.  Commands allocate identifiers from the
    session's own copy of the manager's counters and see the session's
    code before the committed code.  Replaying the commands in one
    manager session therefore reaches the state that absorbing each into
    the manager as it arrived would have reached, identifiers and code
    included. *)

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
    so callers may run it beside other readers (it may build the base's
    column indexes, as an evaluation does).  The overlay is rebuilt from
    the session's results when [m] is not the manager it was built over.
    Between commands the committed base must hold the facts it held at
    the session's first command, or the manager be swapped: {!replay}
    and a rejected check both roll the manager back before they return. *)

val replay : t -> Core.Manager.t -> (unit -> 'a) -> 'a
(** Apply the session to the manager as one manager session — its
    counters installed, each analyzed command absorbed in order — and run
    [f] over it.  Whatever [f] leaves in session, or an exception
    interrupts, is rolled back before [replay] returns, which restores the
    committed counters.  Needs the manager exclusively. *)
