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
(** What one render keeps for the next: each relation's rows (less the
    built-ins) in sorted chunks of about 64, each chunk with its [fact]
    lines, their CRC-32 and length; and the code section as one piece.
    Keep one per manager lineage (a journal keeps one).  A cache shared
    across unrelated managers, or two caches over one manager (each read
    restarts a relation's log), stay correct but re-render more. *)

val render_cache : unit -> cache

type text = {
  pieces : string list;  (** the text is their concatenation *)
  length : int;  (** its length in bytes *)
  crc : int32;  (** its {!Fault.Crc32.string} *)
}

val render : ?cache:cache -> Manager.t -> text
(** The {!save} text, as pieces, with its length and CRC known without
    reading its bytes.  Without [cache], everything is rendered afresh.
    With one, a relation whose {!Datalog.Relation.version} moved since
    the previous render through the same cache takes the net changes its
    log ({!Datalog.Relation.changes_since}) holds since then: each lands
    by binary search in the chunk that holds its place, and only the
    chunks touched are re-rendered and re-checksummed.  A relation whose
    log does not reach back (another cache read it since, or it passed
    its cap), or a relation object the cache has not seen, is sorted and
    rendered afresh, and its log turned on.  The code section is
    re-rendered only when the code table or the facts naming code
    changed.  The CRC is folded from the pieces' cached CRCs
    ({!Fault.Crc32.combine_shift}).  Cached or not, the text is the same
    byte for byte.
    @raise Invalid_argument if an evolution session is open. *)

val contents : text -> string
(** The pieces, concatenated. *)

val load : path:string -> Manager.t
(** Restore into a fresh manager with every extension installed.  The
    facts, code and counters are committed as one change
    ({!Manager.commit}), so the load fails on a dump that is inconsistent
    under that theory.
    @raise Corrupt on malformed input or an inconsistent dump. *)

val load_from_string : string -> Manager.t
