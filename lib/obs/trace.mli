(** Request tracing: per-connection trace ids, per-operation spans, and a
    slow-op log.

    A span is opened with {!with_span} inside a {!with_context}; when it
    finishes it is emitted through {!Log} at debug level (comp=trace) with
    its trace id, span id, parent span id and duration, and — when it ran
    longer than the {!set_slow_ms} threshold — at warn level (comp=slow)
    with its full ancestry ([a>b>c]).

    The trace id and open spans live in the thread's {!Context} entry,
    next to any profile scope.  When tracing is disabled, no slow
    threshold is set and no thread carries a context, {!with_span} is two
    atomic loads — cheap enough to leave on every hot path (priced by the
    B11 bench series). *)

type span = {
  name : string;
  trace : string;
  span_id : string;
  parent : string option;
  ancestry : string list;  (** enclosing span names, outermost first *)
  ms : float;
  kvs : (string * string) list;
}

val set_enabled : bool -> unit
(** Record spans for every request, even untraced ones. *)

val set_slow_ms : float -> unit
(** Log any span at warn (comp=slow) when it runs at least this many
    milliseconds; [0.] (the default) disables the slow-op log. *)

val slow_ms : unit -> float

val armed : unit -> bool
(** Would a finished span be emitted somewhere (enabled, slow threshold
    set, or a test hook installed)? *)

val new_id : unit -> string
(** A fresh 16-hex-digit id. *)

val with_context : string -> (unit -> 'a) -> 'a
(** Run [f] with the given trace id as this thread's active trace; nested
    calls save and restore the outer context.  The thread's profile scope,
    if any, is kept. *)

val current_trace : unit -> string option

val with_span : ?kvs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Time [f] as a span named [name].  Recorded when this thread carries a
    trace id (a profile scope alone does not count) or tracing is armed; a
    no-op wrapper otherwise. *)

val set_hook : (span -> unit) option -> unit
(** Test hook: called with every finished span (before it is logged). *)
