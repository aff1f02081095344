(* An evolution session as the broker holds it from BES to EES: the
   analyzed commands — the base-fact changes each induces — kept apart
   from the shared manager until EES applies them in one manager
   session.  Between the two, the manager holds only committed state. *)

module Manager = Core.Manager

type t = {
  owner : int;
  mutable results : Analyzer.result list;  (* newest first *)
  ids : Gom.Ids.gen;  (* the manager's counters at BES, advanced by analysis *)
}

let create ~owner m =
  { owner; results = []; ids = Gom.Ids.copy (Manager.ids m) }
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

let analyze s m commands =
  List.concat_map
    (fun cmd ->
      let r =
        Analyzer.analyze_parsed ~lookup_code:(lookup_code s m)
          ~deltas:(List.rev_map (fun r -> r.Analyzer.delta) s.results)
          (Manager.database m) s.ids [ cmd ]
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
