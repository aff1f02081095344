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
   size of the base.

   Nor to the size of the program: per stratum, trigger tables built on
   the first update map each body predicate to the rule literals that
   read it (and each head predicate to its rules), so an update fires
   only the rule variants of predicates with net changes, skips a stratum
   no changed predicate reaches, and allocates a scratch set only when a
   fact lands in it.  A state only ever checked ([check_affected]) builds
   no tables. *)

(* A rule variant one literal of which ranges over a delta: literal [lit]
   of [pr], evaluated as [body] (the rule's own, or, for a negated
   literal, the body with the literal flipped to a positive scan and its
   absence re-asserted last) under the plan cache key [variant]. *)
type trigger = {
  pr : Eval.planned_rule;
  lit : int;
  variant : int;
  body : Rule.literal list;
}

type stratum = {
  index : int;
  size : int;  (* rules, for the observer *)
  by_head : (string, Rule.t list) Hashtbl.t;  (* for rederivation *)
  pos : (string, trigger list) Hashtbl.t;  (* body predicate -> positive *)
  neg : (string, trigger list) Hashtbl.t;  (* body predicate -> negated *)
}

type state = {
  theory : Theory.t;
  prepared : Eval.prepared;
  edb : Database.t;
  materialized : Database.t;
  strata : stratum array Lazy.t;
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

(* Replace the [i]-th literal of a body. *)
let replace_nth body i lit =
  List.mapi (fun j l -> if j = i then lit else l) body

let push tbl key x =
  Hashtbl.replace tbl key
    (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

let strata prepared =
  Array.mapi
    (fun index prs ->
      let st =
        {
          index;
          size = List.length prs;
          by_head = Hashtbl.create 8;
          pos = Hashtbl.create 8;
          neg = Hashtbl.create 8;
        }
      in
      List.iter
        (fun pr ->
          let r = Eval.rule_of pr in
          push st.by_head r.Rule.head.Atom.pred r;
          List.iteri
            (fun i lit ->
              match lit with
              | Rule.Pos a ->
                  push st.pos a.Atom.pred
                    { pr; lit = i; variant = i; body = r.Rule.body }
              | Rule.Neg a ->
                  push st.neg a.Atom.pred
                    {
                      pr;
                      lit = i;
                      variant = -2 - i;
                      body =
                        replace_nth r.Rule.body i (Rule.Pos a) @ [ Rule.Neg a ];
                    }
              | Rule.Cmp _ -> ())
            r.Rule.body)
        prs;
      st)
    (Eval.planned prepared)

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
  { theory; prepared; edb; materialized; strata = lazy (strata prepared) }

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

let nonempty_rel db pred =
  match Database.relation_opt db pred with
  | Some r when not (Relation.is_empty r) -> Some r
  | Some _ | None -> None

(* Fire [t] with its delta literal ranging over [drel]; the other literals
   see [db], or its pre-update view under [pre].  Heads go to [emit]. *)
let fire_trigger ~db ?pre drel t emit =
  let head = (Eval.rule_of t.pr).Rule.head in
  Eval.eval_lits db
    ~scan:(fun j -> if j = t.lit then Some drel else None)
    ?pre
    ?plan:(Eval.variant_plan db t.pr ~variant:t.variant ~first:t.lit t.body)
    t.body Subst.empty
    (fun s -> emit (Subst.ground_atom s head))

(* Fire the triggers of [table] for every predicate with facts in
   [delta], each over those facts. *)
let fire ~db ?pre table delta emit =
  List.iter
    (fun p ->
      match Hashtbl.find_opt table p with
      | None -> ()
      | Some ts -> (
          match nonempty_rel delta p with
          | None -> ()
          | Some drel -> List.iter (fun t -> fire_trigger ~db ?pre drel t emit) ts))
    (Database.predicates delta)

(* Every variant where one literal ranges over a delta: positive literals
   over [pos_delta], negated ones (flipped) over [neg_delta]. *)
let fire_variants ~db ?pre st ~pos_delta ~neg_delta emit =
  fire ~db ?pre st.pos pos_delta emit;
  fire ~db ?pre st.neg neg_delta emit

(* Does some literal of the stratum read a predicate [delta] has facts of? *)
let reaches st delta =
  List.exists
    (fun p ->
      (Hashtbl.mem st.pos p || Hashtbl.mem st.neg p)
      && nonempty_rel delta p <> None)
    (Database.predicates delta)

(* Is [f] derivable by some rule of the stratum against [db]? *)
let rederivable db st (f : Fact.t) =
  List.exists
    (fun (r : Rule.t) ->
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
    (Option.value ~default:[] (Hashtbl.find_opt st.by_head f.pred))

(* A scratch fact set, made on its first fact. *)
let scratch_add cell f =
  let db =
    match !cell with
    | Some db -> db
    | None ->
        let db = Database.create ~size:8 () in
        cell := Some db;
        db
  in
  Database.add db f

(* One stratum of {!apply}.  (1) overestimate deletions against the
   pre-update view, closing the candidates under the stratum's recursive
   rules; (2) remove the candidates and rederive those still supported;
   (3) fire the insertion variants and close the stratum semi-naively. *)
let apply_stratum db ~pre:((dplus, dminus) as pre) st =
  (* Phase 1.  Nothing of this stratum has changed yet, so [db] is still
     its pre-update state and the candidates are facts of [db]. *)
  let cand = ref None in
  let candidates = ref [] in
  let emit f =
    if Database.mem db f && scratch_add cand f then
      candidates := f :: !candidates
  in
  fire_variants ~db ~pre st ~pos_delta:dminus ~neg_delta:dplus emit;
  let rec propagate frontier =
    if frontier <> [] then begin
      let fresh = ref [] in
      let frontier_db = Database.create ~size:8 () in
      List.iter (fun f -> ignore (Database.add frontier_db f)) frontier;
      fire ~db ~pre st.pos frontier_db (fun f ->
          if Database.mem db f && scratch_add cand f then fresh := f :: !fresh);
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
      List.partition (fun f -> not (rederivable db st f)) !out
    in
    if readded <> [] then begin
      List.iter (fun f -> ignore (Database.add db f)) readded;
      progress := true
    end;
    out := still_out
  done;
  List.iter (fun f -> ignore (Database.add dminus f)) !out;
  (* Phase 3: insertions, then close the stratum semi-naively over the
     positive literals of its own heads — [local] holds only heads. *)
  let fresh = ref [] in
  fire_variants ~db st ~pos_delta:dplus ~neg_delta:dminus (fun f ->
      if not (Database.mem db f) then fresh := f :: !fresh);
  let rec close fresh =
    let local = ref None in
    List.iter
      (fun f ->
        if Database.add db f then begin
          ignore (Database.add dplus f);
          ignore (scratch_add local f)
        end)
      fresh;
    match !local with
    | None -> ()
    | Some local ->
        let fresh = ref [] in
        fire ~db st.pos local (fun f ->
            if not (Database.mem db f) then fresh := f :: !fresh);
        close !fresh
  in
  close !fresh

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
  let dplus = Database.create ~size:8 ()
  and dminus = Database.create ~size:8 () in
  List.iter (fun f -> ignore (Database.add dplus f)) effective.Delta.additions;
  List.iter (fun f -> ignore (Database.add dminus f)) effective.Delta.deletions;
  Array.iter
    (fun st ->
      if reaches st dplus || reaches st dminus then
        Eval.observe (Eval.Stratum { stratum = st.index; rules = st.size })
        @@ fun () -> apply_stratum db ~pre:(dplus, dminus) st)
    (Lazy.force state.strata);
  effective
