(** The write-ahead journal of [gomsm serve].

    Every committed EES appends one record — the session's effective
    base-fact delta plus its code registrations and the identifier
    counters, in {!Core.Persist}'s textual format — and the record is
    fsynced before the client is acknowledged.  Periodically the whole
    manager state is checkpointed into the head of a fresh segment; the
    journal alone decides when ({!maybe_checkpoint}), from the caps it was
    recovered with.

    A data directory holds two segment files, [journal.log] and
    [journal.alt], used in turn.  Each starts with a {e head}: a header
    line, then the snapshot the segment's records follow.
    {v
    # gomsm journal v1 base <B> epoch <E>[ fenced] gen <G> head <N>
    # gomsm snapshot v1 seq <B> epoch <E> crc <hex>
    <the Core.Persist.render text, which the CRC-32 covers>
    v}
    [N] is the byte length of the snapshot line and text, so records start
    [N] bytes past the header line; [G] counts the heads written in the
    directory.  A segment that never carried a snapshot — a fresh
    directory's [journal.log] — is its header line alone
    ([# gomsm journal v1], generation 0, the empty state).  A checkpoint
    writes a new head over the other segment, overwrites what older bytes
    follow it with NULs, and switches: no fsync, rename, creation or
    unlink.  The next flush makes the head durable, and the live segment
    stays whole until then; a NUL run after the last record is free
    space, not a torn tail.

    On boot, {!recover} takes the segment with the higher generation among
    those whose head is whole and passes its CRC, loads its snapshot and
    commits each record's change through {!Core.Manager.commit}, the
    entry the primary's [ees] committed it through — skipping records the
    head covers, so a sequence number is never reused — and truncates a
    torn tail — a record without its matching [commit] line, with a
    sequence gap, that {!parse_record} refuses, or that does not commit —
    so a [kill -9]
    between EES-ack and checkpoint loses nothing that was acknowledged
    and nothing half-written survives.  Falling back to the older segment
    loses nothing acknowledged only while no record follows the newer
    head, so a segment whose head is torn or fails its CRC but holds a
    record past the recovered position raises {!Corrupt}.  A directory
    written before heads existed — a [snapshot.gomdb] or a
    [journal.retiring] in it, or a head-less segment whose header names a
    [base] above 0 — is refused with {!Corrupt}, every byte left as it
    was: the last build that converts one is commit [4c77f62].

    Record format (one record per committed session):
    {v
    begin <seq>
    epoch <e>                    (only when the promotion epoch is > 0)
    ids <schemas> <types> <decls> <codes> <phreps> <objects>
    add <fact>
    del <fact>
    code <cid> <params,>|<body>
    crc <unsigned decimal>
    commit <seq>
    v}

    Between records the journal may carry standalone epoch markers —
    [epoch <e>] (a promotion, or a replica adopting its feed's epoch) and
    [fenced <e>] (this node was fenced by a peer's higher epoch) — fsynced
    like records and replayed on recovery, so both the epoch and the
    fenced verdict survive a restart.  Checkpoints fold the current epoch
    (and the fenced flag) into the new head.

    The [crc] line is a CRC-32 (IEEE) over every record byte before it —
    [begin] through the last payload line, newlines included — so any
    single-bit flip inside a record is caught on replay and the record
    (and everything after it) is treated as the torn tail.  Records
    written before the checksum existed carry no [crc] line and still
    replay, so a [journal.log] of generation 0 from then is read as the
    live layout.

    Sequence numbers are {e global}: they keep increasing across
    checkpoints (each head records the sequence number its snapshot
    covers), so a record's number identifies it for the lifetime
    of the data directory.  The record stream doubles as the replication
    log — {!records_from} re-reads committed records verbatim for
    streaming to read replicas, and {!append_raw}/{!install_snapshot} are
    the replica's side of the same contract. *)

exception Corrupt of string

exception Fenced of { record_epoch : int; journal_epoch : int }
(** Raised by {!append} when the committer's epoch stamp is below the
    journal's current epoch: the writer has been superseded by a promotion
    and must not produce any more bytes. *)

type t

type recovery = {
  manager : Core.Manager.t;
  journal : t;
  from_snapshot : bool;  (** a checkpoint snapshot was loaded first *)
  replayed : int;  (** journal records replayed on top of it *)
  truncated_bytes : int;  (** torn/corrupt tail bytes dropped *)
}

val default_checkpoint_every : int
(** 64 records. *)

val default_checkpoint_bytes : int
(** 4 MiB. *)

val recover :
  ?label:string ->
  ?checkpoint_every:int ->
  ?checkpoint_bytes:int ->
  dir:string ->
  unit ->
  recovery
(** Open (creating if needed) the data directory and rebuild the manager:
    the live head's snapshot, then replay of the records after it, then
    tail truncation.  The returned
    journal is positioned for appending.  With [label] (a tenant name) the
    durability failpoint sites are additionally consulted under
    [<site>#<label>] names, so fault injection can target one tenant.
    [checkpoint_every] (default {!default_checkpoint_every}) and
    [checkpoint_bytes] (default {!default_checkpoint_bytes}) are the caps
    {!maybe_checkpoint} applies: they govern this data directory whether
    a primary or a replica appends to it.
    @raise Corrupt if the directory is in the layout before heads (see
    above), if the live snapshot is unreadable, if a segment that is not
    a whole head holds a record past the recovered position, or if no
    segment is usable and a header no longer parses (defaulting its base
    would silently renumber the log); other journal damage is repaired by
    truncation, never fatal. *)

val append :
  t ->
  ?epoch:int ->
  ids:Gom.Ids.gen ->
  code:(string * (string list * Analyzer.Ast.stmt)) list ->
  Datalog.Delta.t ->
  int
(** Append one committed-session record and return its sequence number
    once it is durable: {!enqueue} followed by {!await}.  Empty records
    (no facts, no code) are skipped and return the current sequence
    number.

    [epoch] (default: the journal's current epoch) is the committer's
    promotion epoch: the record is stamped with it, and an [epoch] below
    the journal's current one raises {!Fenced} {e before any byte is
    written} — the append-side half of split-brain fencing.

    If the write or fsync fails, the file is truncated back to its last
    durable size before the exception propagates, so a half-appended
    record never survives, and the journal refuses every later write
    (see {!enqueue}). *)

(** {2 The batch writer}

    Every byte a journal writes after its header — commit records, a
    replica's raw records, epoch markers — goes through one batch writer.
    Writers enqueue bytes; the first {!await}er becomes the batch leader
    and performs one write+fsync for the whole batch.  So commits that
    arrive during an fsync share the next one. *)

val enqueue :
  t ->
  ?epoch:int ->
  ids:Gom.Ids.gen ->
  code:(string * (string list * Analyzer.Ast.stmt)) list ->
  Datalog.Delta.t ->
  int
(** The first half of {!append}: enqueue the record and return its
    assigned sequence number at once.  The record is not durable until
    {!await} returns for it — a committer must await before
    acknowledging.  Concurrent enqueues are safe; {!seq} keeps reporting
    the last {e durable} record, which the assigned number may run ahead
    of.  After a failed flush the journal is poisoned: every later enqueue
    raises the flush's exception. *)

val await : t -> seq:int -> unit
(** The second half of {!append}: block until the record at [seq] is
    durable.  Raises the flush's exception if the batch covering [seq]
    failed (the record was lost and the file truncated).  Returns at once
    when [seq] is already durable. *)

val set_flush_observer : t -> (int -> unit) -> unit
(** Observe each flushed batch's record count (the observer runs under the
    batch lock — keep it cheap).  Call before the journal is shared across
    threads. *)

val in_flight : t -> bool
(** Records enqueued (or mid-flush) but not yet durable.  State digests
    and eviction wait it out. *)

val drain : t -> unit
(** Flush everything pending and wait out any in-flight batch; raises the
    sticky error if a flush ever failed, and then writes nothing more.
    {!checkpoint}, {!advance_epoch}, {!orphan_suffix} and {!close} drain
    implicitly. *)

(** {2 Checkpoints and positions}

    A checkpoint runs whole under the caller's exclusive section: it
    drains the batch writer (the triggering commit's own fsync), renders
    the manager — reusing the lines of every relation and code piece
    unchanged since the previous head — writes the head over the other
    segment and switches to it; {!base} moves to {!seq}.  If the live
    head was never fsynced (no flush since boot or since the previous
    switch), it is fsynced first, since it is what recovery falls back
    on.  A failure poisons the journal: the live segment stays as it was,
    nothing more is written, and the next {!enqueue} or {!append_raw}
    raises the error. *)

val checkpoint : t -> Core.Manager.t -> unit
(** {!maybe_checkpoint}'s path, unconditionally: drain, render the
    manager through the journal's {!Core.Persist.cache} — only the chunks
    of rows that changed since the previous head are re-rendered, each
    relation's own change log saying which, and the head's CRC is folded
    from the pieces' cached CRCs — then assemble the head in one buffer
    the journal keeps and write it over the other segment with one
    [write].  {!seq} is unchanged and {!base} advances to it; the new head
    is durable with the next flush.
    @raise Invalid_argument if an evolution session is open. *)

val maybe_checkpoint : t -> Core.Manager.t -> bool
(** The one checkpoint rule: checkpoint when either cap given to
    {!recover} is reached — {!since_checkpoint} at [checkpoint_every]
    records, or {!bytes} at [checkpoint_bytes] — and say whether it did.
    Every appender (the broker's commit, the replica's applier) calls it
    after each record; the checkpoint drains the pending batch, so the
    record just enqueued is durable when it returns, even if it then
    raises. *)

val seq : t -> int
(** Global sequence number of the last committed record (0 on a fresh
    data directory; unchanged by checkpoints). *)

val base : t -> int
(** Global sequence number the live head covers: records [base+1 .. seq]
    follow it in the live segment, records [<= base] are only reachable
    through its snapshot. *)

val since_checkpoint : t -> int
(** Records appended since the last checkpoint (or boot). *)

(** {2 Epochs and fencing} *)

val epoch : t -> int
(** Current promotion epoch: the highest epoch stamped, marked or adopted
    in this journal (0 on a fresh data directory). *)

val fenced : t -> bool
(** Whether the latest epoch event was a [fenced] marker — i.e. this node
    was fenced by a peer's higher epoch and has not acted (appended or
    been promoted) since. *)

val advance_epoch : t -> epoch:int -> fenced:bool -> unit
(** Durably raise the epoch with a standalone marker line ([epoch <e>]
    for a promotion or adoption, [fenced <e>] when fenced by a peer) —
    the marker goes through the batch writer and is durable on return.
    @raise Invalid_argument unless the marker changes state ([epoch]
    above the current one, or equal with a different fenced verdict). *)

val bytes : t -> int
(** Durable bytes after the live head: the records and markers appended
    since the last checkpoint.  The byte cap counts these, so a base
    larger than the cap does not checkpoint on every commit. *)

val stored_bytes : dir:string -> int
(** {!bytes} of the directory's journal, read from its files while no
    journal has it open. *)

val close : t -> unit

(** {2 Replication: the journal as a shipping log} *)

type parsed_record = {
  r_seq : int;
  r_epoch : int;  (** promotion epoch stamp; 0 when the record predates epochs *)
  r_change : Core.Manager.change;
      (** the committed change; counters at 0 when the record has no
          [ids] line *)
}

val records_from : t -> from:int -> (int * string) list
(** Committed records with sequence numbers in [(from, seq t]], each as its
    exact journal bytes (newline-terminated), oldest first, read from the
    live segment.  Empty when the
    subscriber is caught up; a subscriber whose [from] predates {!base}
    must bootstrap from the snapshot instead.  Only the [begin]/[commit]
    bracket is read, so no fact is decoded. *)

val parse_record : string -> parsed_record
(** Decode and check one record's text (as returned by {!records_from} or
    shipped over a feed) into the change it commits — the one record
    reader, which recovery uses too.
    Its rules: the text is whole lines from [begin n] to [commit n]; the
    [crc] line covers every byte before it, and only the matching [commit]
    may follow it; no comment or [fenced] line appears inside a record;
    nothing follows [commit].  Records written before the checksum
    existed carry no [crc] line and still parse.
    @raise Corrupt on anything else. *)

val apply_record : Core.Manager.t -> parsed_record -> bool
(** Commit the record's change through {!Core.Manager.commit}, the entry
    the primary's [ees] committed it through, so the state reached is the
    primary's and whatever derived state the manager keeps is maintained
    by DRed, not re-derived; [false] — with the manager left as it was —
    if it does not commit cleanly.  Recovery and a replica apply every
    record through it. *)

val append_raw : t -> ?epoch:int -> seq:int -> text:string -> unit -> unit
(** Append one record's exact bytes (the replica's write path); durable
    on return, like {!append}.
    [epoch] is the record's stamp: unlike {!append} a low stamp is fine
    (historical records predate promotions), but a stamp above the current
    epoch is adopted — the record bytes make the adoption durable.
    @raise Invalid_argument unless [seq = seq t + 1]. *)

val orphan_suffix : t -> seal:int -> int
(** Failover resync: move every committed record with sequence number
    above [seal] — history past the promoted node's seal, which the
    cluster has moved beyond — into [journal.orphaned] (exact bytes, with
    a provenance comment, appended and fsynced), then truncate them out of
    the live segment and rewind {!seq} to [seal].  Returns the number of
    records orphaned; never drops them silently.
    @raise Invalid_argument if [seal < base t] (the live head already
    covers past the seal; the caller must full-resync instead). *)

val reload : t -> Core.Manager.t
(** Rebuild a fresh manager from the segments as they stand now, leaving
    the journal handle untouched: how a resync rolls its in-memory state
    back after {!orphan_suffix}. *)

val orphaned_path : dir:string -> string

val install_snapshot : t -> seq:int -> text:string -> unit
(** The replica's bootstrap (or its reset, with [seq] 0): the
    checkpoint's switch to a head holding [text] (the
    {!Core.Persist.save} text) and covering sequence number [seq], fsynced
    before returning. *)

val read_snapshot : t -> string option
(** The live head's {!Core.Persist.save} text — without its snapshot
    line — if the live segment has a head.
    @raise Corrupt if the head fails its CRC. *)

val journal_path : dir:string -> string
(** The first segment file, [journal.log]: the live one in a fresh
    directory. *)

val alt_path : dir:string -> string
(** The second segment file, [journal.alt]. *)

val live_path : t -> string
(** The segment file the journal appends to. *)
