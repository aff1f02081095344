(* An evolution session as the broker holds it from BES to EES: the
   analyzed commands — the base-fact changes each induces — kept apart
   from the shared manager until EES applies them in one manager
   session.  Between the two, the manager holds only committed state. *)

module Manager = Core.Manager

type t = {
  owner : int;
  mutable results : Analyzer.result list;  (* newest first *)
  ids : Gom.Ids.gen;  (* the manager's counters at BES, advanced by analysis *)
  mutable work : (Manager.t * Datalog.Database.t) option;
      (* the overlay every command is analyzed over, holding the session's
         changes, and the manager whose committed base it reads *)
}

let create ~owner m =
  { owner; results = []; ids = Gom.Ids.copy (Manager.ids m); work = None }
let owner s = s.owner
let is_empty s = s.results = []

(* The newest binding the session's commands made for [cid], else the
   committed one. *)
let lookup_code s m cid =
  match
    List.find_map
      (fun r -> List.assoc_opt cid (List.rev r.Analyzer.code_asts))
      s.results
  with
  | Some c -> Some c
  | None -> Manager.lookup_code m cid

(* The session's overlay over [m]'s base.  Built on the first command;
   rebuilt, with the session's changes so far, when the broker has
   swapped its manager since (a replica's bootstrap, or a rebuild from
   the journal after a failed append), since the old one reads a base
   that is no longer committed. *)
let work s m =
  match s.work with
  | Some (m', w) when m' == m -> w
  | Some _ | None ->
      let w = Datalog.Database.overlay (Manager.database m) in
      List.iter
        (fun r -> ignore (Datalog.Delta.apply w r.Analyzer.delta))
        (List.rev s.results);
      s.work <- Some (m, w);
      w

let analyze s m commands =
  let w = work s m in
  List.concat_map
    (fun cmd ->
      let r =
        Analyzer.analyze_in ~lookup_code:(lookup_code s m) w s.ids [ cmd ]
      in
      s.results <- r :: s.results;
      r.Analyzer.diagnostics)
    commands

let replay s m f =
  Manager.begin_session m;
  Fun.protect
    ~finally:(fun () -> if Manager.in_session m then Manager.rollback m)
    (fun () ->
      Gom.Ids.assign ~into:(Manager.ids m) s.ids;
      List.iter (Manager.absorb m) (List.rev s.results);
      f ())
