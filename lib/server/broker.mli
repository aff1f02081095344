(** The session broker: the paper's BES/EES discipline enforced across many
    clients sharing one {!Core.Manager.t}.

    At most one client — the {e writer} — holds the BES…EES critical
    section; a competing [bes] waits up to the acquire timeout (woken
    promptly when the slot frees) and then fails.  The writer's session
    is the broker's own value ({!Session}): each [script-line] is
    analyzed, under the shared lock, into the session's overlay of the
    committed base.  Nothing reaches the shared manager before [ees],
    which commits the session's change through {!Core.Manager.commit},
    the entry recovery and replicas apply its record through, or leaves
    the manager as it was (a rejected session stays open).  So [bes],
    [rollback] and a disconnect take no reader-writer lock and undo
    nothing, and every other client reads committed state only.  The
    writer itself sees its own changes: its
    [check]/[query]/[dump]/[explain] while its session holds commands are
    answered inside {!Core.Manager.with_change} under the exclusive lock,
    never through the response cache.  Readers
    ([check]/[query]/[dump]/[health] and replication feeds) run
    {e concurrently} under a shared lock — or straight out of a response
    cache published per state version — and are only excluded by
    exclusive sections.  The response cache admits an answer
    on its key's second sighting only: a doorkeeper of recently missed
    key hashes, which survives a version move, keeps texts asked once
    from filling the long-lived table.  Reads that miss the response
    cache share the manager's one maintained derived state: the first
    builds it, the rest only evaluate their own query body, prepared
    once per query shape ({!Core.Manager.query_text}).  A client that
    disconnects mid-session loses its session — the paper's "undo
    session" repair, with nothing to undo in the manager.

    Committed sessions are appended to the write-ahead journal (fsync
    before the acknowledgment) and checkpointed when the journal's caps
    say so.  A checkpoint runs whole inside the [ees] that triggers it:
    the drain, a render that re-renders only the chunks of rows changed
    since the last head (each relation's own change log says which) and
    folds the head's CRC from the cached ones, and the head written into
    the other segment file in one [write], with no fsync of its own.
    Every
    commit goes through the journal's batch writer: the committer
    enqueues its record under the exclusive lock, then awaits the fsync
    after releasing it, and one leader fsyncs the whole batch.  The
    acknowledgment follows the fsync that covers the record; the fsync
    wait holds no lock, so reads and the next session overlap it, and
    commits that arrive during an fsync share the next one.

    When a journal append or checkpoint fails with [EIO]/[ENOSPC] the
    broker enters {e degraded read-only mode}: every writer verb is
    refused (reads keep working), the [degraded] metrics gauge reads 1,
    and the [health] verb reports the reason.  A commit whose record
    failed is not kept: before the error reply the broker rebuilds its
    manager from the journal's files ({!Journal.reload}, after draining
    what earlier commits enqueued), so no reader is served a session that
    is not durable — and every session of a failed batch goes.  A checkpoint fails after
    the record of the commit that triggered it is durable, so that commit
    is acknowledged; the failure poisons the journal, and the next commit
    is the one refused.  The mode is one-way — restarting the server
    re-runs recovery and clears it.

    Each broker also carries a {e promotion epoch} (mirroring its
    journal's).  {!promote} flips a replica broker into the writer at
    [epoch + 1]; {!fence} permanently refuses mutators once a peer with a
    higher epoch is known to exist (observed on a subscriber's epoch, or
    delivered by the [fence] admin verb).  Fencing is enforced twice: at
    the protocol layer here, and inside {!Journal.append} — so a commit
    racing the fence still cannot write forked bytes. *)

type t

val create :
  ?journal:Journal.t ->
  ?acquire_timeout:float ->
  ?read_only:string ->
  metrics:Metrics.t ->
  Core.Manager.t ->
  t
(** [acquire_timeout] seconds a [bes] waits for the writer slot
    (default 5.0).  With [read_only] (the primary's address, for the
    redirect message) every writer verb — bes/ees/rollback/script-line —
    is refused: the broker serves a replica.  When to checkpoint is the
    [journal]'s decision ({!Journal.maybe_checkpoint}), from the caps it
    was recovered with; the [ees] that reaches a cap returns once the
    journal has switched segments, with the snapshot still being
    written.

    The broker registers its gauges on [metrics] as live readers
    ({!Metrics.gauge}): [degraded], [epoch] and [fenced]; with a journal
    also [journal_seq], [journal_base], [journal_bytes],
    [feed_subscribers] and [replication_lag_records].  {!close} removes
    them. *)

val handle : t -> client:int -> Protocol.request -> Protocol.response
(** Serve one request on behalf of client [client].  Never raises: internal
    errors become [err] responses.  [Quit] is answered with a goodbye; the
    connection itself is the caller's to close.  [Subscribe] is not served
    here — the daemon hands the connection to {!feed} instead. *)

val feed : t -> client:int -> from:int -> ?sub_epoch:int -> out_channel -> unit
(** Turn the connection into a replication feed for a subscriber whose last
    applied record is [from]: acknowledge (the ack body carries this node's
    epoch), then stream frames forever — a snapshot bootstrap if [from]
    predates the last checkpoint, raw journal records as they commit, pings
    (carrying the epoch) while idle.  Returns when the subscriber
    disconnects (or on a journal-less broker, after refusing).
    [sub_epoch] is the subscriber's promotion epoch: one above this node's
    means we are the stale side of a split brain — the broker fences
    itself and refuses the subscription. *)

val disconnect : t -> client:int -> unit
(** The client went away: drop its open session, if any, and free the
    writer slot. *)

val close : t -> unit
(** Remove the broker's gauges from its metrics registry (which may
    outlive it) and close its journal file descriptor: the tenant
    registry's eviction/shutdown path.  No checkpoint is forced
    — every record is already fsynced, so reopening the data directory
    replays the journal exactly like a restart.  The broker must not be
    used afterwards; callers guarantee no writer or feed is active. *)

val exclusively : t -> (unit -> 'a) -> 'a
(** Run [f] holding the broker's lock exclusively — every reader and
    writer excluded: the replica applier's way to mutate the shared
    manager safely. *)

val replace_manager : t -> Core.Manager.t -> unit
(** Swap the hosted manager (a replica bootstrapping from a snapshot),
    forgetting the cached state digest: the new state may sit at a
    sequence number the old one had.  Call only from within
    {!exclusively}. *)

val manager : t -> Core.Manager.t
val journal : t -> Journal.t option
val metrics : t -> Metrics.t

val profile : t -> Obs.Profile.t
(** This database's query-profile tables (rule counters and the bounded
    fingerprint top-K), accumulated while profiling is on. *)

val set_profiling : bool -> unit
(** The daemon-wide [profile on|off] switch: {!Obs.Profile.set_enabled}.
    While on, each request runs in a profile scope; nothing else arms the
    evaluator's observer. *)

val export : ?labels:(string * string) list -> t -> Obs.Export.metric list
(** Everything the admin endpoint scrapes for a bare broker:
    {!Metrics.export} of its registry — the broker's own gauges included —
    plus its profile's series. *)

val stat_lines : name:string -> t -> string list
(** The [db stat] body of this broker served as database [name]: name,
    state, epoch, role, journal position and size, writer, and this
    database's plan-cache traffic and profile table sizes. *)

val writer : t -> int option

val wake_pending : t -> bool
(** Whether a wakeup byte waits in the writer slot's wake pipe.  Releasing
    the slot writes one only while a [bes] is blocked on it, and a woken
    acquirer drains the pipe. *)

val degraded : t -> string option
(** The reason the broker is in degraded read-only mode, if it is. *)

(** {2 Epochs, fencing, promotion} *)

val epoch : t -> int
(** The promotion epoch this broker writes (or follows) at. *)

val fenced : t -> string option
(** The reason this broker is fenced, if it is. *)

val role : t -> string
(** ["primary"], ["replica"] or ["fenced"] — as reported by [health]. *)

val fence : t -> epoch:int -> source:string -> (unit, string) result
(** A peer with [epoch] exists: if it is above this broker's epoch,
    durably record the fence (journal marker + header) and permanently
    refuse mutators with reason starting ["fenced"]; [Error] with the
    refusal text when [epoch] is not above the current one.  [source]
    is recorded in the reason and the log line. *)

val promote : t -> (int * int, string) result
(** Flip a replica broker into the writer for its data directory at
    [epoch + 1] (durably journaled first): returns [(new epoch, seal
    seq)].  [Error] on a broker that is already a primary or is fenced.
    Callers (the replica daemon) must have stopped the feed thread. *)

val note_feed_epoch : t -> epoch:int -> unit
(** Adopt a higher epoch observed on the feed this broker replicates from
    (subscribe ack, ping, or record stamp); no-op otherwise.  Call only
    from the replica's feed thread. *)

val state_digest : t -> string option
(** CRC-32 (eight hex digits) over the sorted encoded base facts and the
    [code] lines of the code pieces a dump carries
    ({!Core.Persist.code_pieces}): the content fingerprint replicas
    compare against the primary's on idle pings.  [None] while committed
    records await their fsync, or once the broker is degraded or fenced —
    then the in-memory state does not describe a committed, durable
    position.  An open session is not in the manager, so mid-session the
    digest is the committed one. *)

val digest_of_manager : Core.Manager.t -> string
(** The digest function itself, for peers that host their own manager. *)
