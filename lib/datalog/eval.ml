(* Bottom-up evaluation of stratified Datalog programs.

   [eval_lits] enumerates the substitutions satisfying a body against a
   database; positive literals scan relations (optionally overridden, which is
   how semi-naive deltas are injected), negated literals and comparisons are
   tested once their variables are bound (guaranteed by [Rule.normalize]).
   A [Plan.t] permutes the body into a cheaper join order; within a positive
   literal, the most selective bound column (smallest index bucket) is chosen
   at runtime instead of the first bound one.

   [run] materializes the intensional predicates into the database with a
   semi-naive fixpoint per stratum; [run_naive] is the naive fixpoint kept for
   the ablation bench.

   Plans are cached on the prepared program per (rule, bound pattern, size
   class): the bound pattern is the semi-naive delta position (or none;
   DRed's rule variants in [Incremental] add keys of their own), and the
   size class — the bit lengths of the cardinalities of the relations the
   body's positive literals read — retires a plan once one of them has
   roughly doubled or halved, so a plan computed against an empty
   bootstrap database is not reused against a populated one.  It costs a
   lookup per literal, whatever the size of the database.  Cache traffic
   is counted in [Plan] and surfaced by the server's [stats] verb. *)

type planned_rule = {
  rule : Rule.t;
  mutable plans : ((int * int) * Plan.t) list;
      (* (delta position | -1, size class) -> plan; a handful of entries *)
  mutable label : string option;
      (* the printed rule, rendered once on first observation *)
}

(* ------------------------------------------------------------------ *)
(* Observation seam                                                    *)
(* ------------------------------------------------------------------ *)

(* One hook around each stratum fixpoint and each rule evaluation: the
   server installs a translator to its tracing and profiling code here,
   without this library depending on either.  Events carry raw values
   (the planned rule, the plan); rendering them is the observer's call,
   so an observer with nowhere to record builds no string.  Each case
   fixes what its thunk returns: nothing for a stratum, the number of
   facts derived for a rule. *)

type _ event =
  | Stratum : { stratum : int; rules : int } -> unit event
  | Rule : {
      stratum : int;
      rule : planned_rule;
      plan : Plan.t option;
      cache : [ `Hit | `Miss | `Unplanned ];
    }
      -> int event

type observer = { observe : 'a. 'a event -> (unit -> 'a) -> 'a }

let observer = ref { observe = (fun _ f -> f ()) }
let observe ev f = !observer.observe ev f

let query_head = "$query"

(* A query body prints with [?] for each constant: every constant of a
   query is a slot of its shape, which the pseudo-rule stands for. *)
let masked_literal ppf (lit : Rule.literal) =
  let mask (t : Term.t) = match t with Term.Const _ -> Term.var "?" | _ -> t in
  let atom (a : Atom.t) = { a with args = Array.map mask a.args } in
  Rule.pp_literal ppf
    (match lit with
    | Rule.Pos a -> Rule.Pos (atom a)
    | Rule.Neg a -> Rule.Neg (atom a)
    | Rule.Cmp (op, x, y) -> Rule.Cmp (op, mask x, mask y))

let rule_label pr =
  match pr.label with
  | Some l -> l
  | None ->
      let r = pr.rule in
      let l =
        if r.Rule.head.Atom.pred = query_head then
          Fmt.str "%s :- %a" query_head
            Fmt.(list ~sep:(any ", ") masked_literal)
            r.Rule.body
        else Rule.to_string r
      in
      pr.label <- Some l;
      l

let plan_label = function Some p -> Fmt.str "%a" Plan.pp p | None -> "-"

type prepared = {
  rules : Rule.t list;
  strat : Stratify.t;
  planned : planned_rule list array;  (* per stratum, aligned with strata *)
}

let prepare rules =
  let rules = List.map Rule.normalize rules in
  let strat = Stratify.compute rules in
  let planned =
    Array.map
      (List.map (fun r -> { rule = r; plans = []; label = None }))
      (Stratify.strata strat)
  in
  { rules; strat; planned }

let rules t = t.rules
let stratification t = t.strat
let is_idb t pred = Stratify.is_idb t.strat pred

let bit_length n =
  let rec go b n = if n = 0 then b else go (b + 1) (n lsr 1) in
  go 0 n

(* The size class of [body] over [db]: the bit length of each positive
   literal's relation, six bits apiece.  A long body wraps around, and two
   classes that collide share a plan: plans are orderings only, so that
   costs speed, never an answer. *)
let rec size_class db acc (body : Rule.literal list) =
  match body with
  | [] -> acc
  | Rule.Pos a :: body ->
      let n =
        match Database.relation_opt db a.Atom.pred with
        | Some r -> Relation.cardinal r
        | None -> 0
      in
      size_class db ((acc lsl 6) lor bit_length n) body
  | (Rule.Neg _ | Rule.Cmp _) :: body -> size_class db acc body

(* The cached plan of one body shape of [pr]: [variant] tells the shapes
   apart (the semi-naive delta position, -1 for none; {!Incremental}'s
   DRed variants add their own), and the size class of the relations the
   body reads retires a plan once one has roughly doubled.  Computed
   against [db]'s current statistics on first use; the cache outcome is
   counted in [Plan] and reported so the profiler can count hits and
   misses per rule. *)
let cached_plan db (pr : planned_rule) ~variant ?first body :
    Plan.t option * [ `Hit | `Miss | `Unplanned ] =
  if not !Plan.use_planner then (None, `Unplanned)
  else begin
    let key = (variant, size_class db 0 body) in
    match List.assoc_opt key pr.plans with
    | Some p ->
        Plan.record_hit ();
        (Some p, `Hit)
    | None ->
        let p = Plan.make ?first db body in
        pr.plans <- (key, p) :: pr.plans;
        Plan.record_miss ();
        (Some p, `Miss)
  end

let plan_for db pr ~(delta : int option) =
  cached_plan db pr
    ~variant:(match delta with Some i -> i | None -> -1)
    ?first:delta pr.rule.Rule.body

let variant_plan db pr ~variant ~first body =
  fst (cached_plan db pr ~variant ~first body)

let planned t = t.planned
let rule_of pr = pr.rule

(* Iterate the tuples of [rel] that can unify with [args] under [s]. *)
let scan_rel rel (args : Term.t array) s consider =
  if !Plan.use_planner then begin
    (* the most selective bound column: the smallest index bucket among
       the arguments bound under [s]; an empty bucket proves there is no
       match at all *)
    let best = ref None in
    let empty = ref false in
    (try
       Array.iteri
         (fun j arg ->
           match Subst.apply_term s arg with
           | Term.Const key -> (
               match Relation.lookup rel ~col:j ~key with
               | Some [] ->
                   empty := true;
                   raise Exit
               | Some bucket -> (
                   match !best with
                   | Some b when List.compare_lengths b bucket <= 0 -> ()
                   | Some _ | None -> best := Some bucket)
               | None -> ())
           | Term.Var _ -> ())
         args
     with Exit -> ());
    if not !empty then
      match !best with
      | Some bucket -> List.iter consider bucket
      | None -> Relation.iter consider rel
  end
  else begin
    (* planner off: the historical first-bound-column heuristic *)
    let rec first_bound j =
      if j >= Array.length args then None
      else
        match Subst.apply_term s args.(j) with
        | Term.Const c -> Some (j, c)
        | Term.Var _ -> first_bound (j + 1)
    in
    match first_bound 0 with
    | Some (col, key) -> (
        match Relation.lookup rel ~col ~key with
        | Some tuples -> List.iter consider tuples
        | None -> Relation.iter consider rel)
    | None -> Relation.iter consider rel
  end

(* Enumerate substitutions satisfying [lits] against [db], extending [s].
   [scan i] may override the relation scanned by the [i]-th literal (used to
   restrict one literal to a delta); [plan] permutes the evaluation order —
   [scan] indices always refer to the original body positions.  With
   [pre = (dplus, dminus)] the other literals see the pre-update view
   [(db \ dplus) ∪ dminus] instead of [db]: scans skip [dplus] tuples and
   also range over [dminus], negations test the view. *)
let eval_lits db ?(scan = fun _ -> None) ?pre ?plan lits s k =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  let order =
    match plan with
    | Some p when Array.length p.Plan.order = n -> p.Plan.order
    | Some _ | None -> [||]
  in
  let rec go pos s =
    if pos >= n then k s
    else
      let i = if order == [||] then pos else order.(pos) in
      match lits.(i) with
      | Rule.Pos a -> (
          let args = a.Atom.args in
          let consider tuple =
            match Subst.unify_args args tuple s with
            | None -> ()
            | Some s -> go (pos + 1) s
          in
          match scan i with
          | Some rel -> scan_rel rel args s consider
          | None -> (
              let pred = a.Atom.pred in
              match pre with
              | None -> (
                  match Database.relation_opt db pred with
                  | Some rel -> scan_rel rel args s consider
                  | None -> ())
              | Some (dplus, dminus) -> (
                  (match Database.relation_opt db pred with
                  | None -> ()
                  | Some rel -> (
                      match Database.relation_opt dplus pred with
                      | Some added when not (Relation.is_empty added) ->
                          scan_rel rel args s (fun tuple ->
                              if not (Relation.mem added tuple) then
                                consider tuple)
                      | Some _ | None -> scan_rel rel args s consider));
                  match Database.relation_opt dminus pred with
                  | Some removed -> scan_rel removed args s consider
                  | None -> ())))
      | Rule.Neg a ->
          let f = Subst.ground_atom s a in
          if not (Fact.is_ground f) then
            invalid_arg
              (Fmt.str "eval: negated literal not ground: %a" Fact.pp f);
          let present =
            match pre with
            | None -> Database.mem db f
            | Some (dplus, dminus) ->
                (Database.mem db f && not (Database.mem dplus f))
                || Database.mem dminus f
          in
          if not present then go (pos + 1) s
      | Rule.Cmp (op, x, y) -> (
          match Subst.apply_term s x, Subst.apply_term s y with
          | Term.Const a, Term.Const b ->
              if Rule.eval_cmp op a b then go (pos + 1) s
          | Term.Var v, Term.Const c when op = Rule.Eq ->
              go (pos + 1) (Subst.bind v c s)
          | Term.Const c, Term.Var v when op = Rule.Eq ->
              go (pos + 1) (Subst.bind v c s)
          | _ ->
              invalid_arg
                (Fmt.str "eval: comparison with unbound variable: %a"
                   Rule.pp_literal (Rule.Cmp (op, x, y))))
  in
  go 0 s

(* Evaluate one rule, collecting head facts not yet in [db] into [acc];
   returns how many it appended (the observer seam's derived count). *)
let derive_rule db ?scan ?plan (r : Rule.t) acc =
  let n = ref 0 in
  eval_lits db ?scan ?plan r.body Subst.empty (fun s ->
      let f = Subst.ground_atom s r.head in
      if not (Database.mem db f) then begin
        acc := f :: !acc;
        incr n
      end);
  !n

(* [derive_rule] for a prepared rule of stratum [stratum]: resolve the
   plan, then evaluate under the observer. *)
let derive_planned db ?scan ~stratum ~delta (pr : planned_rule) acc =
  let plan, cache = plan_for db pr ~delta in
  ignore
    (observe
       (Rule { stratum; rule = pr; plan; cache })
       (fun () -> derive_rule db ?scan ?plan pr.rule acc))

(* One stratum, semi-naive.  [recursive p] holds for predicates defined in
   this stratum; rules mentioning them positively participate in delta
   rounds. *)
let run_stratum db ~stratum (prs : planned_rule list) =
  let heads = Hashtbl.create 16 in
  List.iter
    (fun pr -> Hashtbl.replace heads pr.rule.Rule.head.Atom.pred ())
    prs;
  let recursive p = Hashtbl.mem heads p in
  (* Round 0: every rule against the full database. *)
  let fresh = ref [] in
  List.iter (fun pr -> derive_planned db ~stratum ~delta:None pr fresh) prs;
  let delta = Database.create () in
  List.iter
    (fun f -> if Database.add db f then ignore (Database.add delta f))
    !fresh;
  (* Delta rounds: rule variants with one recursive literal over the delta. *)
  let variants =
    List.concat_map
      (fun pr ->
        List.mapi (fun i lit -> i, lit) pr.rule.Rule.body
        |> List.filter_map (fun (i, lit) ->
               match lit with
               | Rule.Pos a when recursive a.Atom.pred ->
                   Some (pr, i, a.Atom.pred)
               | Rule.Pos _ | Rule.Neg _ | Rule.Cmp _ -> None))
      prs
  in
  let rec loop delta =
    if Database.total delta > 0 then begin
      let fresh = ref [] in
      List.iter
        (fun (pr, i, pred) ->
          match Database.relation_opt delta pred with
          | None -> ()
          | Some drel ->
              if not (Relation.is_empty drel) then
                derive_planned db
                  ~scan:(fun j -> if j = i then Some drel else None)
                  ~stratum ~delta:(Some i) pr fresh)
        variants;
      let next = Database.create () in
      List.iter
        (fun f -> if Database.add db f then ignore (Database.add next f))
        !fresh;
      loop next
    end
  in
  loop delta

let run t db =
  Array.iteri
    (fun i prs ->
      observe
        (Stratum { stratum = i; rules = List.length prs })
        (fun () -> run_stratum db ~stratum:i prs))
    t.planned

(* Naive fixpoint per stratum: re-evaluate every rule until nothing new. *)
let run_naive t db =
  Array.iteri
    (fun stratum prs ->
      let changed = ref true in
      while !changed do
        changed := false;
        let fresh = ref [] in
        List.iter
          (fun pr -> derive_planned db ~stratum ~delta:None pr fresh)
          prs;
        List.iter (fun f -> if Database.add db f then changed := true) !fresh
      done)
    t.planned

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* A query body prepared once for every text of its shape: normalized,
   with each literal's constants numbered as slots in text order (the
   order {!Parse.query_shape} lists them in), and its answer variables
   sorted.  The pseudo-rule [$query :- body] holds the normalized body,
   with the preparing text's constants, and the plans per size class,
   keyed like a rule's own; it prints its slots as [?] ({!rule_label}). *)
type query = {
  shape : planned_rule;
  slots : int array list;
      (* aligned with the body: per term, its slot or -1; [no_slots] when
         the literal has no constant *)
  vars : string list;  (* every body variable, sorted, de-duplicated *)
}

let no_slots = [||]

(* The prepared body with [consts] in its slots. *)
let instantiate q consts =
  let term slots j t =
    if slots.(j) < 0 then t else Term.Const consts.(slots.(j))
  in
  let atom slots (a : Atom.t) =
    { a with args = Array.mapi (term slots) a.args }
  in
  List.map2
    (fun lit slots ->
      if slots == no_slots then lit
      else
        match lit with
        | Rule.Pos a -> Rule.Pos (atom slots a)
        | Rule.Neg a -> Rule.Neg (atom slots a)
        | Rule.Cmp (op, x, y) -> Rule.Cmp (op, term slots 0 x, term slots 1 y))
    q.shape.rule.Rule.body q.slots

let query_rule lits = Rule.normalize (Rule.make (Atom.make query_head []) lits)

let prepare_query lits =
  let n = ref 0 in
  let number (t : Term.t) =
    match t with
    | Term.Const _ ->
        incr n;
        !n - 1
    | Term.Var _ -> -1
  in
  let numbered =
    List.map
      (fun lit ->
        let slots =
          match lit with
          | Rule.Pos a | Rule.Neg a -> Array.map number a.Atom.args
          | Rule.Cmp (_, x, y) ->
              let sx = number x in
              [| sx; number y |]
        in
        (lit, if Array.for_all (fun s -> s < 0) slots then no_slots else slots))
      lits
  in
  let r = query_rule lits in
  (* [Rule.normalize] reorders the literals without copying them *)
  let slots = List.map (fun lit -> List.assq lit numbered) r.Rule.body in
  {
    shape = { rule = r; plans = []; label = None };
    slots;
    vars =
      List.sort_uniq String.compare (List.concat_map Rule.literal_vars lits);
  }

(* Answer a query body, an instance of the pseudo-rule [shape], against a
   materialized database.  The body is observed as a pseudo-rule of
   stratum -1, so an [explain] sees the query's own join order, plan-cache
   outcome and time, not only the rules that materialized its input. *)
let answer_body db shape body k =
  let plan, cache = cached_plan db shape ~variant:(-1) body in
  ignore
    (observe
       (Rule { stratum = -1; rule = shape; plan; cache })
       (fun () ->
         let n = ref 0 in
         eval_lits db ?plan body Subst.empty (fun s ->
             incr n;
             k s);
         !n))

(* A prepared query with [consts] in its slots (the preparing text's own
   when absent). *)
let run_query db q ?consts k =
  answer_body db q.shape
    (match consts with
    | Some c -> instantiate q c
    | None -> q.shape.rule.Rule.body)
    k

(* An answer's bindings, in variable order: what [Subst.bindings] gives,
   without sorting per answer. *)
let answer q s = List.map (fun v -> Subst.binding v s) q.vars

(* A body used once needs no slots or answer variables. *)
let query db lits k =
  let r = query_rule lits in
  answer_body db { rule = r; plans = []; label = None } r.Rule.body k

let query_once db lits =
  let result = ref None in
  (try
     query db lits (fun s ->
         result := Some s;
         raise Exit)
   with Exit -> ());
  !result
