(* The per-thread observation context: one entry per thread that is inside
   a [Trace.with_context] or a [Profile.with_scope] (or both), holding the
   trace id and open-span stack next to the profile scope.

   The table is an immutable map behind one atomic, so reads never lock:
   a replica's feed thread keeps a trace context for its whole life, and
   every span and rule evaluation on every other thread looks the table
   up.  With no entry anywhere a read is one atomic load.  A writer swaps
   in an updated map, retrying when another thread swapped first; each
   thread only ever writes its own key.  The daemon serves one connection
   per thread, so an entry's span stack needs no locking either. *)

type frame = { f_name : string; f_id : string; f_start : int (* mono ns *) }
type scope = ..

type t = {
  trace : string option;
  mutable stack : frame list;
  scope : scope option;
}

module Tids = Map.Make (Int)

let empty = { trace = None; stack = []; scope = None }
let table : t Tids.t Atomic.t = Atomic.make Tids.empty
let self () = Thread.id (Thread.self ())

let current () =
  let m = Atomic.get table in
  if Tids.is_empty m then None else Tids.find_opt (self ()) m

let rec swap f =
  let m = Atomic.get table in
  if not (Atomic.compare_and_set table m (f m)) then swap f

let with_ update f =
  let tid = self () in
  let saved = Tids.find_opt tid (Atomic.get table) in
  let c = update (Option.value saved ~default:empty) in
  swap (Tids.add tid c);
  Fun.protect
    ~finally:(fun () ->
      swap (fun m ->
          match saved with
          | Some s -> Tids.add tid s m
          | None -> Tids.remove tid m))
    (fun () -> f c)
