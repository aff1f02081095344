(* An evolution session as the broker holds it from BES to EES: an
   overlay of the committed base holding the base-fact changes its
   commands induce, the code they bind and the identifier counters they
   reach — kept apart from the shared manager until EES commits them as
   one change.  Between the two, the manager holds only committed
   state. *)

module Manager = Core.Manager
module Database = Datalog.Database

type t = {
  owner : int;
  ids : Gom.Ids.gen;  (* the manager's counters at BES, advanced by analysis *)
  code : (string, string list * Analyzer.Ast.stmt) Hashtbl.t;
      (* the newest binding the session's commands made per code id *)
  mutable work : (Manager.t * Database.t) option;
      (* the overlay every command is analyzed over, holding the session's
         changes, and the manager whose committed base it reads *)
}

let create ~owner m =
  {
    owner;
    ids = Gom.Ids.copy (Manager.ids m);
    code = Hashtbl.create 8;
    work = None;
  }

let owner s = s.owner
let is_empty s = Option.is_none s.work

let lookup_code s m cid =
  match Hashtbl.find_opt s.code cid with
  | Some c -> Some c
  | None -> Manager.lookup_code m cid

let delta w =
  let additions, deletions = Database.changes w in
  Datalog.Delta.of_lists ~additions ~deletions

(* The session's overlay over [m]'s base.  Built on the first command;
   rebuilt, with the session's changes so far, when the broker has
   swapped its manager since (a replica's bootstrap, or a rebuild from
   the journal after a failed append), since the old one reads a base
   that is no longer committed. *)
let work s m =
  match s.work with
  | Some (m', w) when m' == m -> w
  | previous ->
      let w = Database.overlay (Manager.database m) in
      Option.iter
        (fun (_, old) -> ignore (Datalog.Delta.apply w (delta old)))
        previous;
      s.work <- Some (m, w);
      w

let analyze s m commands =
  let r =
    Analyzer.analyze_in ~lookup_code:(lookup_code s m) (work s m) s.ids
      commands
  in
  List.iter (fun (cid, c) -> Hashtbl.replace s.code cid c) r.Analyzer.code_asts;
  r.Analyzer.diagnostics

(* A binding equal to [m]'s is no change, as in
   [Manager.session_code_changes]. *)
let change s m : Manager.change =
  {
    delta = delta (work s m);
    code =
      Hashtbl.fold
        (fun cid c acc ->
          if Manager.lookup_code m cid = Some c then acc else (cid, c) :: acc)
        s.code []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    ids = s.ids;
  }
