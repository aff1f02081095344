(** The per-thread observation context shared by {!Trace} and {!Profile}.

    One [Thread.id]-keyed table, read without locking.  Each entry holds
    the request's trace id and open spans (written by {!Trace}) and the
    profile scope (written by {!Profile}); installing one keeps the other,
    so a trace context inside a profile scope, or the reverse, restores
    both on exit. *)

type frame = { f_name : string; f_id : string; f_start : int }
(** An open span: name, id, start on the monotonic clock (ns). *)

type scope = ..
(** Where a profile scope sends rule events; {!Profile} adds its case. *)

type t = {
  trace : string option;  (** the active trace id, if any *)
  mutable stack : frame list;  (** open spans, innermost first *)
  scope : scope option;  (** the active profile scope, if any *)
}

val current : unit -> t option
(** This thread's entry.  Never locks; with no entry on any thread this
    is one atomic load. *)

val with_ : (t -> t) -> (t -> 'a) -> 'a
(** [with_ update f] installs [update current] (an empty entry when the
    thread has none) as this thread's entry, runs [f] with it, and
    restores the previous entry — or none — on exit. *)
