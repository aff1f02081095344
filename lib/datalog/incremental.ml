(* Incremental consistency checking (the paper's refs [18, 20]).

   Two strategies are provided:

   - [check_affected]: re-materialize from scratch, but only the rule cone of
     the constraints that transitively depend on a changed base predicate.

   - a maintained [state]: the materialized database is kept up to date under
     base-fact insertions and deletions with a stratified
     delete-and-rederive (DRed) algorithm.  Per stratum: (1) overestimate
     deletions by firing rule variants where one positive literal ranges over
     net-deleted facts, or one negated literal over net-added facts, against
     the pre-update state; (2) remove candidates and rederive the ones still
     supported; (3) fire insertion variants (one positive literal over
     net-added facts, or one negated literal over net-deleted facts) and close
     under the stratum's own rules semi-naively.  Violation predicates are
     ordinary intensional predicates, so violations stay current. *)

type state = {
  theory : Theory.t;
  prepared : Eval.prepared;
  edb : Database.t;
  materialized : Database.t;
}

(* ------------------------------------------------------------------ *)
(* Strategy 1: affected-constraint cone checking                       *)
(* ------------------------------------------------------------------ *)

(* Intensional predicates needed (transitively) by a set of rules seeded
   from the given root predicates. *)
let rule_cone (all_rules : Rule.t list) (roots : string list) : Rule.t list =
  let needed = Hashtbl.create 16 in
  let rec visit p =
    if not (Hashtbl.mem needed p) then begin
      Hashtbl.replace needed p ();
      List.iter
        (fun r ->
          if r.Rule.head.Atom.pred = p then
            List.iter visit (Rule.body_preds r))
        all_rules
    end
  in
  List.iter visit roots;
  List.filter (fun r -> Hashtbl.mem needed r.Rule.head.Atom.pred) all_rules

let check_affected (theory : Theory.t) (edb : Database.t) ~(delta : Delta.t) :
    Checker.violation list =
  let changed = Delta.changed_preds delta in
  let affected = Theory.affected_constraints theory ~changed_preds:changed in
  if affected = [] then []
  else begin
    let roots =
      List.map (fun c -> c.Constraint_compile.viol_pred) affected
    in
    let rules = rule_cone (Theory.all_rules theory) roots in
    let db = Database.copy edb in
    Eval.run (Eval.prepare rules) db;
    Checker.violations_of ~only:affected theory db
  end

(* ------------------------------------------------------------------ *)
(* Strategy 2: maintained materialization (DRed)                       *)
(* ------------------------------------------------------------------ *)

let init ?(copy = true) (theory : Theory.t) (edb : Database.t) : state =
  let prepared = Theory.prepared theory in
  let strat = Eval.stratification prepared in
  List.iter
    (fun (d : Theory.pred_decl) ->
      if Stratify.is_idb strat d.name then
        invalid_arg
          ("Incremental.init: predicate is both base and derived: " ^ d.name))
    (Theory.predicates theory);
  (* [copy:false] maintains the caller's database in place, so that every
     base-fact change can be routed through {!apply}. *)
  let edb = if copy then Database.copy edb else edb in
  let materialized = Database.copy edb in
  Eval.run prepared materialized;
  { theory; prepared; edb; materialized }

let violations ?only (state : state) : Checker.violation list =
  Checker.violations_of ?only state.theory state.materialized

let edb state = state.edb
let materialized state = state.materialized

(* Replace the [i]-th literal of a body. *)
let replace_nth body i lit =
  List.mapi (fun j l -> if j = i then lit else l) body

let nonempty_rel db pred =
  match Database.relation_opt db pred with
  | Some r when not (Relation.is_empty r) -> Some r
  | Some _ | None -> None

(* Fire every variant of [rules] where one literal ranges over a delta:
   positive literals over [dplus_or_dminus], negated literals (flipped to
   positive) over the opposite delta.  Heads are passed to [emit]. *)
let fire_variants ~db ~pos_delta ~neg_delta rules emit =
  let plan_of body i =
    if !Plan.use_planner then Some (Plan.make ~first:i db body) else None
  in
  List.iter
    (fun (r : Rule.t) ->
      List.iteri
        (fun i lit ->
          match lit with
          | Rule.Pos a -> (
              match nonempty_rel pos_delta a.Atom.pred with
              | None -> ()
              | Some drel ->
                  Eval.eval_lits db
                    ~scan:(fun j -> if j = i then Some drel else None)
                    ?plan:(plan_of r.body i) r.body Subst.empty
                    (fun s -> emit (Subst.ground_atom s r.head)))
          | Rule.Neg a -> (
              match nonempty_rel neg_delta a.Atom.pred with
              | None -> ()
              | Some drel ->
                  (* Flip the negated literal to a positive scan over the
                     opposite delta; re-assert absence in [db] afterwards so
                     net-zero facts cannot fire the variant spuriously. *)
                  let body' =
                    replace_nth r.body i (Rule.Pos a) @ [ Rule.Neg a ]
                  in
                  Eval.eval_lits db
                    ~scan:(fun j -> if j = i then Some drel else None)
                    ?plan:(plan_of body' i) body' Subst.empty
                    (fun s -> emit (Subst.ground_atom s r.head)))
          | Rule.Cmp _ -> ())
        r.body)
    rules

(* Is [f] derivable by some rule of [rules] against [db]? *)
let rederivable db rules (f : Fact.t) =
  List.exists
    (fun (r : Rule.t) ->
      r.Rule.head.Atom.pred = f.pred
      &&
      match Subst.unify_args r.head.Atom.args f.args Subst.empty with
      | None -> false
      | Some s0 -> (
          let found = ref false in
          (try
             Eval.eval_lits db r.body s0 (fun _ ->
                 found := true;
                 raise Exit)
           with Exit -> ());
          !found))
    rules

let apply (state : state) (delta : Delta.t) : Delta.t =
  let old = Database.copy state.materialized in
  let effective = Delta.apply state.edb delta in
  List.iter (fun f -> ignore (Database.remove state.materialized f))
    effective.Delta.deletions;
  List.iter (fun f -> ignore (Database.add state.materialized f))
    effective.Delta.additions;
  let dplus = Database.create () and dminus = Database.create () in
  List.iter (fun f -> ignore (Database.add dplus f)) effective.Delta.additions;
  List.iter (fun f -> ignore (Database.add dminus f)) effective.Delta.deletions;
  let db = state.materialized in
  Array.iteri
    (fun stratum_index stratum_rules ->
      Eval.observe
        (Eval.Stratum
           { stratum = stratum_index; rules = List.length stratum_rules })
      @@ fun () ->
      let heads = Hashtbl.create 16 in
      List.iter
        (fun (r : Rule.t) -> Hashtbl.replace heads r.Rule.head.Atom.pred ())
        stratum_rules;
      (* Phase 1: overestimate deletions against the pre-update state.  The
         candidate set is itself closed under the stratum's recursive rules:
         a candidate-deleted fact may have supported further facts. *)
      let cand_db = Database.create () in
      let candidates = ref [] in
      let emit f =
        if Database.mem db f && Database.add cand_db f then
          candidates := f :: !candidates
      in
      fire_variants ~db:old ~pos_delta:dminus ~neg_delta:dplus stratum_rules
        emit;
      let rec propagate frontier =
        if frontier <> [] then begin
          let fresh = ref [] in
          let frontier_db = Database.create () in
          List.iter (fun f -> ignore (Database.add frontier_db f)) frontier;
          let emit' f =
            if Database.mem db f && Database.add cand_db f then
              fresh := f :: !fresh
          in
          fire_variants ~db:old ~pos_delta:frontier_db
            ~neg_delta:(Database.create ()) stratum_rules emit';
          candidates := !fresh @ !candidates;
          propagate !fresh
        end
      in
      propagate !candidates;
      let candidates = List.sort_uniq Fact.compare !candidates in
      List.iter (fun f -> ignore (Database.remove db f)) candidates;
      (* Phase 2: rederive candidates still supported in the new state. *)
      let out = ref candidates in
      let progress = ref true in
      while !progress do
        progress := false;
        let still_out, readded =
          List.partition (fun f -> not (rederivable db stratum_rules f)) !out
        in
        if readded <> [] then begin
          List.iter (fun f -> ignore (Database.add db f)) readded;
          progress := true
        end;
        out := still_out
      done;
      List.iter (fun f -> ignore (Database.add dminus f)) !out;
      (* Phase 3: insertions, then close the stratum semi-naively. *)
      let fresh = ref [] in
      fire_variants ~db ~pos_delta:dplus ~neg_delta:dminus stratum_rules
        (fun f -> if not (Database.mem db f) then fresh := f :: !fresh);
      let local = Database.create () in
      List.iter
        (fun f ->
          if Database.add db f then begin
            ignore (Database.add dplus f);
            ignore (Database.add local f)
          end)
        !fresh;
      let rec close local =
        if Database.total local > 0 then begin
          let fresh = ref [] in
          List.iter
            (fun (r : Rule.t) ->
              List.iteri
                (fun i lit ->
                  match lit with
                  | Rule.Pos a when Hashtbl.mem heads a.Atom.pred -> (
                      match nonempty_rel local a.Atom.pred with
                      | None -> ()
                      | Some drel ->
                          Eval.eval_lits db
                            ~scan:(fun j -> if j = i then Some drel else None)
                            ?plan:
                              (if !Plan.use_planner then
                                 Some (Plan.make ~first:i db r.body)
                               else None)
                            r.body Subst.empty
                            (fun s ->
                              let f = Subst.ground_atom s r.head in
                              if not (Database.mem db f) then
                                fresh := f :: !fresh))
                  | Rule.Pos _ | Rule.Neg _ | Rule.Cmp _ -> ())
                r.body)
            stratum_rules;
          let next = Database.create () in
          List.iter
            (fun f ->
              if Database.add db f then begin
                ignore (Database.add dplus f);
                ignore (Database.add next f)
              end)
            !fresh;
          close next
        end
      in
      close local)
    (Stratify.strata (Eval.stratification state.prepared));
  effective
