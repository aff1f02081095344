(** Persistence of the Database Model ("a schema is always persistent, and
    with it, all its schema components"): the manager's whole state — base
    facts, identifier counters, registered code, objects with their slots,
    schema variables — serialized to a line-oriented textual format. *)

exception Corrupt of string

(** {2 Record-level encode/decode}

    The textual fact/code format of the dump, exposed so other durable
    formats (notably the server's write-ahead journal) can reuse it
    delta-by-delta rather than going through a whole-database dump. *)

val encode_fact : Datalog.Fact.t -> string
(** e.g. [Attr(tid_1, "x", tid_2)] — one fact, no trailing newline. *)

val add_fact : Buffer.t -> Datalog.Fact.t -> unit
(** {!encode_fact}, appended to a buffer. *)

val decode_fact : string -> Datalog.Fact.t
(** Inverse of {!encode_fact}. @raise Corrupt on malformed input. *)

val encode_code :
  cid:string -> params:string list -> body:Analyzer.Ast.stmt -> string
(** A registered code piece as one line: [<cid> <params,>|<body text>]. *)

val decode_code : string -> string * string list * Analyzer.Ast.stmt
(** Inverse of {!encode_code}. @raise Corrupt on malformed input. *)

val code_pieces :
  Manager.t -> (string * (string list * Analyzer.Ast.stmt)) list
(** The code pieces a dump carries, sorted by code id: those the [Code]
    and fashion facts name.  The code table can hold more (pieces no fact
    names); a dump, and so a snapshot, leaves those out. *)

val save : Manager.t -> path:string -> unit
(** @raise Invalid_argument if an evolution session is open. *)

type cache
(** What one render keeps for the next: each relation's lines and each
    code piece's line.  Keep one per manager lineage (a journal keeps
    one); a cache shared across unrelated managers stays correct but
    re-renders nearly everything. *)

val render_cache : unit -> cache

val save_to_buffer : ?cache:cache -> Manager.t -> Buffer.t
(** The {!save} text.  With [cache], a relation whose
    {!Datalog.Relation.version} has not moved since the previous render
    through the same cache, and a code piece not redefined since, reuse
    their rendered lines; the text is the same byte for byte. *)

val load : path:string -> Manager.t
(** Restore into a fresh manager with every extension installed.  The
    facts are replayed through a session, so the load fails on a dump that
    is inconsistent under that theory.
    @raise Corrupt on malformed input or an inconsistent dump. *)

val load_from_string : string -> Manager.t
