(** The tenant registry: many named databases inside one [gomsm serve].

    Each database is an independent {!Server.Broker.t} + journal rooted at
    [<data_dir>/<name>/]; the distinguished database ["default"] lives in
    [<data_dir>] itself, so a pre-existing single-tenant data directory is
    served unchanged (same files, same bytes) as [default].  Database
    names are 1–64 characters of letters, digits, [_] and [-] (no leading
    [-]), which keeps them shell-, path- and tombstone-safe: a dropped
    database is atomically renamed to [<name>.tomb] before deletion, and
    tombstones can never collide with a live name.

    Only a bounded number of databases ([max_open]) are held open at once.
    When the cap is reached, the least-recently-used idle database — no
    in-flight request or feed, no open evolution session — is {e evicted}:
    its journal file descriptor is closed and its in-memory state dropped.
    Every acknowledged commit is already fsynced record-by-record, so
    eviction needs no extra flush; a later [use] reopens the directory
    through {!Server.Journal.recover}, the same crash-tested path a
    restart takes, and the journal bytes are untouched by the cycle.

    The single-writer BES/EES discipline is {e per database}: two tenants
    commit concurrently, each under its own broker lock and journal fsync.

    All operations are thread-safe. *)

type config = {
  data_dir : string option;
      (** root of all databases; [None] = everything in-memory (no
          eviction: there is no disk to reopen an evicted tenant from) *)
  max_open : int;  (** open-database cap (at least 1) *)
  checkpoint_every : int;
  checkpoint_bytes : int;
      (** the journal caps each database is recovered with
          ({!Server.Journal.recover}; defaults
          {!Server.Journal.default_checkpoint_every} records and
          {!Server.Journal.default_checkpoint_bytes}) *)
  acquire_timeout : float;
  log : string -> unit;  (** open/evict/drop notices *)
}

val default_config : config

type t

val default_db : string
(** ["default"]. *)

val create : config -> t
(** Open the registry: create the root directory if needed and sweep any
    tombstones a crashed drop left behind.  No database is opened yet. *)

val validate : string -> (string, string) result
(** Check a database name against the naming rules. *)

val use : t -> string -> (string, string) result
(** Open (or touch, if already open) a database, evicting the LRU idle one
    if the cap is reached; returns the canonical name.  [default] always
    exists; any other name must have been created first. *)

val create_db : t -> string -> (unit, string) result
(** Create an empty database (mkdir; in-memory registries materialize the
    broker immediately). *)

val drop_db : t -> string -> (unit, string) result
(** Drop a database: refused for [default], while any request or feed is
    in flight on it, or while an evolution session is open.  On disk the
    directory is renamed to a tombstone (atomic) and then deleted, so a
    crash mid-drop never leaves a half-deleted database under its own
    name. *)

val list : t -> string list
(** One [<name> open|closed] line per database, sorted by name. *)

val stat : t -> string -> (string list, string) result
(** [key value] lines describing one database (state, sequence number,
    journal size, writer, path). *)

val with_db :
  t -> string -> (Server.Broker.t -> 'a) -> ('a, string) result
(** Run [f] against an open database (opening it if needed), pinned: the
    database cannot be evicted or dropped while [f] runs. *)

val open_count : t -> int
(** Databases currently held open. *)

val server_metrics : t -> Server.Metrics.t
(** The registry-level registry: the [open_dbs] gauge, the
    [evictions]/[db_creates]/[db_drops] counters, and what the daemon
    keeps there — connection counters and the process-wide gauges. *)

val export_metrics : t -> Obs.Export.metric list
(** The admin endpoint's /metrics body: daemon-wide series unlabeled, each
    tenant's series under a [db=] label — counters of evicted tenants
    included, gauges and profile series only while the tenant is open. *)

val stats_lines : t -> string list
(** Daemon-wide lines appended to a tenant's [stats] body: the server
    metrics plus [counter total.<name> <sum>] aggregates over every
    tenant's counters (evicted tenants included — their metrics registries
    outlive their brokers). *)

val shutdown : t -> unit
(** Close every open database's journal (tests; the daemon itself never
    returns). *)

val router : t -> Server.Daemon.router
(** The registry as the daemon's request router. *)
