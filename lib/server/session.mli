(** An evolution session as the broker holds it between [bes] and [ees]:
    the base-fact changes its commands induce, the code they bind and the
    identifier counters they reach — one {!Core.Manager.change}, which
    only [ees] commits ({!Core.Manager.commit}).

    Every command is analyzed over one overlay of the committed base
    ({!Datalog.Database.overlay}) that the session keeps from its first
    command to its end: each command's analysis writes its changes into
    it, so the next sees them without the base being copied or the
    earlier changes re-applied, and the session's delta is read off the
    overlay itself ({!Datalog.Database.changes}).  Commands allocate
    identifiers from the session's own copy of the manager's counters
    and see the session's code before the committed code. *)

type t

val create : owner:int -> Core.Manager.t -> t
(** An empty session for client [owner], with a copy of the manager's
    identifier counters.  Call while no other session can commit. *)

val owner : t -> int

val is_empty : t -> bool
(** No command analyzed yet: the session's state is the committed one. *)

val analyze : t -> Core.Manager.t -> Analyzer.Ast.command list -> string list
(** Analyze the commands in turn into the session; returns the
    analyzer's diagnostics, in order.  Only reads the manager, so callers
    may run it beside other readers (it may build the base's column
    indexes, as an evaluation does).  Between commands the committed base
    must hold the facts it held at the session's first command, or the
    manager be swapped: {!Core.Manager.commit} and
    {!Core.Manager.with_change} leave it so. *)

val change : t -> Core.Manager.t -> Core.Manager.change
(** What the session changes over [m]: the overlay's added and removed
    facts, the code bindings that differ from [m]'s, sorted by code id,
    and the session's counters.  When [m] is not the manager the overlay
    was built over, the overlay is first rebuilt over [m]'s base with the
    session's changes re-applied. *)
