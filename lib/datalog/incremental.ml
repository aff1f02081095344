(* Incremental consistency checking (the paper's refs [18, 20]).

   One mechanism serves both checking strategies: a [state] whose
   materialization is kept up to date under base-fact insertions and
   deletions with a stratified delete-and-rederive (DRed) algorithm, over
   either the whole theory or only the rule cone of some constraints.

   - [check_affected]: materialize, from scratch beside the base (shared
     read-only: only derived relations are written), only the rule cone of
     the constraints that transitively depend on a changed base predicate,
     and read their violations.

   - a maintained [state], kept in step by [apply].  Per stratum: (1)
     overestimate deletions by firing rule variants where one positive
     literal ranges over net-deleted facts, or one negated literal over
     net-added facts, against the pre-update state; (2) remove candidates
     and rederive the ones still supported; (3) fire insertion variants
     (one positive literal over net-added facts, or one negated literal over
     net-deleted facts) and close under the stratum's own rules
     semi-naively.  Violation predicates are ordinary intensional
     predicates, so violations stay current.

   The materialization shares the base relations of the state's edb, so a
   base change is applied once, and the pre-update state of phase (1) is
   not a copy but a view of the current one: [(db \ dplus) ∪ dminus], with
   [dplus]/[dminus] the net changes so far (see [Eval.eval_lits]'s [pre]).
   An update therefore costs in proportion to what it changes, not to the
   size of the base. *)

type state = {
  theory : Theory.t;
  prepared : Eval.prepared;
  edb : Database.t;
  materialized : Database.t;
}

(* The rules the constraints' violation predicates transitively need. *)
let cone theory (constraints : Constraint_compile.compiled list) : Rule.t list
    =
  let all_rules = Theory.all_rules theory in
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
  List.iter (fun c -> visit c.Constraint_compile.viol_pred) constraints;
  List.filter (fun r -> Hashtbl.mem needed r.Rule.head.Atom.pred) all_rules

let init ?(copy = true) ?rules (theory : Theory.t) (edb : Database.t) : state =
  let prepared =
    match rules with
    | None -> Theory.prepared theory
    | Some rules -> Eval.prepare rules
  in
  let is_idb = Eval.is_idb prepared in
  List.iter
    (fun (d : Theory.pred_decl) ->
      if is_idb d.name then
        invalid_arg
          ("Incremental.init: predicate is both base and derived: " ^ d.name))
    (Theory.predicates theory);
  (* [copy:false] maintains the caller's database in place, so that every
     base-fact change can be routed through {!apply}. *)
  let edb = if copy then Database.copy edb else edb in
  let materialized = Database.share ~copy:is_idb edb in
  Eval.run prepared materialized;
  { theory; prepared; edb; materialized }

let violations ?only (state : state) : Checker.violation list =
  Checker.violations_of ?only state.theory state.materialized

let check_affected (theory : Theory.t) (edb : Database.t) ~(delta : Delta.t) :
    Checker.violation list =
  match
    Theory.affected_constraints theory
      ~changed_preds:(Delta.changed_preds delta)
  with
  | [] -> []
  | affected ->
      violations ~only:affected
        (init ~copy:false ~rules:(cone theory affected) theory edb)

let edb state = state.edb
let materialized state = state.materialized

(* Replace the [i]-th literal of a body. *)
let replace_nth body i lit =
  List.mapi (fun j l -> if j = i then lit else l) body

let nonempty_rel db pred =
  match Database.relation_opt db pred with
  | Some r when not (Relation.is_empty r) -> Some r
  | Some _ | None -> None

(* Fire every variant of [prs] where one literal ranges over a delta:
   positive literals over [pos_delta], negated literals (flipped to
   positive) over [neg_delta].  The other literals see [db], or its
   pre-update view under [pre].  Heads are passed to [emit]. *)
let fire_variants ~db ?pre ~pos_delta ~neg_delta prs emit =
  List.iter
    (fun pr ->
      let r = Eval.rule_of pr in
      List.iteri
        (fun i lit ->
          let fire drel ~variant body =
            Eval.eval_lits db
              ~scan:(fun j -> if j = i then Some drel else None)
              ?pre
              ?plan:(Eval.variant_plan db pr ~variant ~first:i body)
              body Subst.empty
              (fun s -> emit (Subst.ground_atom s r.Rule.head))
          in
          match lit with
          | Rule.Pos a -> (
              match nonempty_rel pos_delta a.Atom.pred with
              | None -> ()
              | Some drel -> fire drel ~variant:i r.Rule.body)
          | Rule.Neg a -> (
              match nonempty_rel neg_delta a.Atom.pred with
              | None -> ()
              | Some drel ->
                  (* Flip the negated literal to a positive scan over the
                     opposite delta; re-assert absence afterwards so
                     net-zero facts cannot fire the variant spuriously. *)
                  fire drel ~variant:(-2 - i)
                    (replace_nth r.Rule.body i (Rule.Pos a) @ [ Rule.Neg a ]))
          | Rule.Cmp _ -> ())
        r.Rule.body)
    prs

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
  let changed = Delta.changed_preds delta in
  List.iter
    (fun p ->
      if Eval.is_idb state.prepared p then
        invalid_arg ("Incremental.apply: base change to derived predicate " ^ p))
    changed;
  let effective = Delta.apply state.edb delta in
  let db = state.materialized in
  (* base relations are shared: a predicate the edb gained since [init]
     is shared on its first change *)
  List.iter (fun p -> Database.share_relation db ~from:state.edb p) changed;
  let dplus = Database.create () and dminus = Database.create () in
  List.iter (fun f -> ignore (Database.add dplus f)) effective.Delta.additions;
  List.iter (fun f -> ignore (Database.add dminus f)) effective.Delta.deletions;
  let pre = (dplus, dminus) in
  Array.iteri
    (fun stratum_index prs ->
      Eval.observe
        (Eval.Stratum { stratum = stratum_index; rules = List.length prs })
      @@ fun () ->
      let stratum_rules = List.map Eval.rule_of prs in
      let heads = Hashtbl.create 16 in
      List.iter
        (fun (r : Rule.t) -> Hashtbl.replace heads r.Rule.head.Atom.pred ())
        stratum_rules;
      (* Phase 1: overestimate deletions against the pre-update view.  The
         candidate set is itself closed under the stratum's recursive
         rules: a candidate-deleted fact may have supported further facts.
         Nothing of this stratum has changed yet, so [db] is still its
         pre-update state and the candidates are facts of [db]. *)
      let cand_db = Database.create () in
      let candidates = ref [] in
      let emit f =
        if Database.mem db f && Database.add cand_db f then
          candidates := f :: !candidates
      in
      fire_variants ~db ~pre ~pos_delta:dminus ~neg_delta:dplus prs emit;
      let rec propagate frontier =
        if frontier <> [] then begin
          let fresh = ref [] in
          let frontier_db = Database.create () in
          List.iter (fun f -> ignore (Database.add frontier_db f)) frontier;
          let emit' f =
            if Database.mem db f && Database.add cand_db f then
              fresh := f :: !fresh
          in
          fire_variants ~db ~pre ~pos_delta:frontier_db
            ~neg_delta:(Database.create ()) prs emit';
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
      fire_variants ~db ~pos_delta:dplus ~neg_delta:dminus prs (fun f ->
          if not (Database.mem db f) then fresh := f :: !fresh);
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
            (fun pr ->
              let r = Eval.rule_of pr in
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
                              (Eval.variant_plan db pr ~variant:i ~first:i
                                 r.Rule.body)
                            r.Rule.body Subst.empty
                            (fun s ->
                              let f = Subst.ground_atom s r.Rule.head in
                              if not (Database.mem db f) then
                                fresh := f :: !fresh))
                  | Rule.Pos _ | Rule.Neg _ | Rule.Cmp _ -> ())
                r.Rule.body)
            prs;
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
    (Eval.planned state.prepared);
  effective
