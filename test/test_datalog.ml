(* Tests for the deductive-database substrate. *)

open Datalog

let sym = Term.sym
let v = Term.var

let fact p args = Fact.make p (List.map Term.symc args)
let atom = Atom.make

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Terms and facts                                                      *)
(* ------------------------------------------------------------------ *)

let test_const_order () =
  check_bool "sym < int" true (Term.compare_const (Term.symc "z") (Int 0) < 0);
  check_bool "int < fresh" true (Term.compare_const (Int 99) (Fresh "a") < 0);
  check_bool "sym eq" true (Term.equal_const (Term.symc "a") (Term.symc "a"));
  check_bool "sym ne" false (Term.equal_const (Term.symc "a") (Term.symc "b"))

let test_fact_equal () =
  check_bool "equal" true (Fact.equal (fact "p" [ "a"; "b" ]) (fact "p" [ "a"; "b" ]));
  check_bool "diff pred" false (Fact.equal (fact "p" [ "a" ]) (fact "q" [ "a" ]));
  check_bool "diff arity" false
    (Fact.equal (fact "p" [ "a" ]) (fact "p" [ "a"; "b" ]))

let test_fact_ground () =
  check_bool "ground" true (Fact.is_ground (fact "p" [ "a" ]));
  check_bool "fresh not ground" false
    (Fact.is_ground (Fact.make "p" [ Term.Fresh "x" ]))

let test_atom_to_fact () =
  let a = atom "p" [ sym "a"; v "X" ] in
  Alcotest.check_raises "unbound var" (Invalid_argument "Atom.to_fact: unbound variable X")
    (fun () -> ignore (Atom.to_fact a))

let test_interning () =
  (* the intern table is canonical: equal names yield the same symbol *)
  (match Term.symc "intern_probe", Term.symc "intern_probe" with
  | Term.Sym a, Term.Sym b ->
      check_bool "physically equal" true (a == b);
      check_int "same id" a.Term.id b.Term.id
  | _ -> Alcotest.fail "symc must build Sym");
  (* equality and hashing agree with names *)
  check_bool "hash stable" true
    (Term.hash_const (Term.symc "intern_probe")
    = Term.hash_const (Term.symc "intern_probe"));
  (* ordering is by name, independent of intern order: intern "zz" first,
     then "aa" (fresh names so the ids are newly assigned in that order) *)
  let z = Term.symc "zz_intern_order" in
  let a = Term.symc "aa_intern_order" in
  check_bool "name order" true (Term.compare_const a z < 0);
  check_bool "name order rev" true (Term.compare_const z a > 0);
  (* the table only grows on genuinely new names *)
  let n0 = Term.interned_count () in
  ignore (Term.symc "intern_probe");
  check_int "no growth on reuse" n0 (Term.interned_count ());
  ignore (Term.symc "intern_probe_fresh_name");
  check_int "growth on fresh" (n0 + 1) (Term.interned_count ())

(* ------------------------------------------------------------------ *)
(* Database                                                             *)
(* ------------------------------------------------------------------ *)

let test_db_add_remove () =
  let db = Database.create () in
  check_bool "first add" true (Database.add db (fact "p" [ "a" ]));
  check_bool "dup add" false (Database.add db (fact "p" [ "a" ]));
  check_int "count" 1 (Database.count db "p");
  check_bool "mem" true (Database.mem db (fact "p" [ "a" ]));
  check_bool "remove" true (Database.remove db (fact "p" [ "a" ]));
  check_bool "remove again" false (Database.remove db (fact "p" [ "a" ]));
  check_int "empty" 0 (Database.count db "p")

let test_db_arity_check () =
  let db = Database.create () in
  Database.declare db ~name:"p" ~columns:[ "x"; "y" ];
  Alcotest.check_raises "arity" (Database.Arity_mismatch ("p", 2, 1)) (fun () ->
      ignore (Database.add db (fact "p" [ "a" ])))

let test_db_copy_independent () =
  let db = Database.create () in
  ignore (Database.add db (fact "p" [ "a" ]));
  let db2 = Database.copy db in
  ignore (Database.add db2 (fact "p" [ "b" ]));
  check_int "orig unchanged" 1 (Database.count db "p");
  check_int "copy grew" 2 (Database.count db2 "p")

(* Property: an overlay reads like a copy of its base with the same
   changes applied — add and remove answer alike, and so do mem, count,
   iteration and keyed lookups, indexed or scanned — and leaves its base
   as it was.  Facts of two predicates over a three-symbol domain, so that
   changes undo each other and hit base facts often. *)
let prop_overlay_equals_copy =
  let domain = [| "a"; "b"; "c" |] in
  let fact_of (binary, x, y) =
    if binary then fact "q" [ domain.(x); domain.(y) ] else fact "p" [ domain.(x) ]
  in
  let fact_gen = QCheck.Gen.(triple bool (int_bound 2) (int_bound 2)) in
  let op_gen = QCheck.Gen.pair QCheck.Gen.bool fact_gen in
  let all_facts =
    List.concat_map
      (fun x ->
        fact_of (false, x, 0) :: List.init 3 (fun y -> fact_of (true, x, y)))
      [ 0; 1; 2 ]
  in
  let sorted db pred iter =
    let acc = ref [] in
    iter db pred (fun t -> acc := Fact.make_arr pred t :: !acc);
    List.sort Fact.compare !acc
  in
  QCheck.Test.make ~count:500 ~long_factor:20 ~name:"overlay = copy"
    QCheck.(
      make
        ~print:(fun (_, base, ops, _) ->
          Printf.sprintf "base %s; ops %s"
            (String.concat " " (List.map (fun f -> Fmt.str "%a" Fact.pp (fact_of f)) base))
            (String.concat " "
               (List.map
                  (fun (add, f) ->
                    (if add then "+" else "-") ^ Fmt.str "%a" Fact.pp (fact_of f))
                  ops)))
        Gen.(
          quad (return ()) (list_size (int_range 0 8) fact_gen)
            (list_size (int_range 0 16) op_gen) bool))
    (fun ((), base_facts, ops, indexed) ->
      let base = Database.create () in
      Database.declare base ~name:"q" ~columns:[ "x"; "y" ];
      List.iter (fun f -> ignore (Database.add base (fact_of f))) base_facts;
      let before = List.sort Fact.compare (Database.all_facts base) in
      let over = Database.overlay base and copy = Database.copy base in
      let saved = !Relation.use_indexes in
      Relation.use_indexes := indexed;
      Fun.protect ~finally:(fun () -> Relation.use_indexes := saved)
      @@ fun () ->
      List.for_all
        (fun (add, f) ->
          let f = fact_of f in
          if add then Database.add over f = Database.add copy f
          else Database.remove over f = Database.remove copy f)
        ops
      && List.for_all (fun f -> Database.mem over f = Database.mem copy f) all_facts
      && List.for_all
           (fun pred ->
             Database.count over pred = Database.count copy pred
             && sorted over pred Database.iter_pred
                = sorted copy pred Database.iter_pred
             && List.for_all
                  (fun (col, key) ->
                    let key = Term.symc domain.(key) in
                    let matching db pred =
                      Database.iter_matching db pred ~col ~key
                    in
                    sorted over pred matching = sorted copy pred matching)
                  [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ])
           [ "p"; "q" ]
      && List.sort Fact.compare (Database.all_facts over)
         = List.sort Fact.compare (Database.all_facts copy)
      && List.sort Fact.compare (Database.all_facts base) = before
      && (try
            ignore (Database.add over (fact "q" [ "a" ]));
            false
          with Database.Arity_mismatch _ -> true))

(* ------------------------------------------------------------------ *)
(* Rule safety / normalization                                          *)
(* ------------------------------------------------------------------ *)

let test_normalize_reorders () =
  let r =
    Rule.make (atom "q" [ v "X" ])
      [ Rule.Neg (atom "r" [ v "X" ]); Rule.Pos (atom "p" [ v "X" ]) ]
  in
  let r = Rule.normalize r in
  (match r.Rule.body with
  | [ Rule.Pos _; Rule.Neg _ ] -> ()
  | _ -> Alcotest.fail "expected positive literal first")

let test_normalize_unsafe_head () =
  let r = Rule.make (atom "q" [ v "X" ]) [ Rule.Pos (atom "p" [ sym "a" ]) ] in
  check_bool "unsafe" true
    (try
       ignore (Rule.normalize r);
       false
     with Rule.Unsafe _ -> true)

let test_normalize_unsafe_neg () =
  let r =
    Rule.make (atom "q" [ v "X" ])
      [ Rule.Pos (atom "p" [ v "X" ]); Rule.Neg (atom "r" [ v "Y" ]) ]
  in
  check_bool "unsafe neg" true
    (try
       ignore (Rule.normalize r);
       false
     with Rule.Unsafe _ -> true)

let test_eq_binding_is_safe () =
  (* X = a counts as a binding assignment. *)
  let r =
    Rule.make (atom "q" [ v "X" ])
      [ Rule.Cmp (Rule.Eq, v "X", sym "a"); Rule.Pos (atom "p" [ v "Y" ]) ]
  in
  ignore (Rule.normalize r)

(* ------------------------------------------------------------------ *)
(* Stratification                                                       *)
(* ------------------------------------------------------------------ *)

let test_stratify_negation_layers () =
  let rules =
    [
      Rule.make (atom "a" [ v "X" ]) [ Rule.Pos (atom "e" [ v "X" ]) ];
      Rule.make (atom "b" [ v "X" ])
        [ Rule.Pos (atom "e" [ v "X" ]); Rule.Neg (atom "a" [ v "X" ]) ];
    ]
  in
  let s = Stratify.compute rules in
  check_int "a stratum" 0 (Option.get (Stratify.stratum s "a"));
  check_int "b stratum" 1 (Option.get (Stratify.stratum s "b"))

let test_stratify_rejects_neg_cycle () =
  let rules =
    [
      Rule.make (atom "a" [ v "X" ])
        [ Rule.Pos (atom "e" [ v "X" ]); Rule.Neg (atom "b" [ v "X" ]) ];
      Rule.make (atom "b" [ v "X" ])
        [ Rule.Pos (atom "e" [ v "X" ]); Rule.Neg (atom "a" [ v "X" ]) ];
    ]
  in
  check_bool "not stratifiable" true
    (try
       ignore (Stratify.compute rules);
       false
     with Stratify.Not_stratifiable _ -> true)

let test_stratify_pos_cycle_ok () =
  let rules =
    [
      Rule.make (atom "t" [ v "X"; v "Y" ]) [ Rule.Pos (atom "e" [ v "X"; v "Y" ]) ];
      Rule.make
        (atom "t" [ v "X"; v "Z" ])
        [ Rule.Pos (atom "e" [ v "X"; v "Y" ]); Rule.Pos (atom "t" [ v "Y"; v "Z" ]) ];
    ]
  in
  ignore (Stratify.compute rules)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let tc_rules =
  [
    Rule.make (atom "t" [ v "X"; v "Y" ]) [ Rule.Pos (atom "e" [ v "X"; v "Y" ]) ];
    Rule.make
      (atom "t" [ v "X"; v "Z" ])
      [ Rule.Pos (atom "e" [ v "X"; v "Y" ]); Rule.Pos (atom "t" [ v "Y"; v "Z" ]) ];
  ]

let chain_db n =
  let db = Database.create () in
  for i = 1 to n - 1 do
    ignore
      (Database.add db
         (Fact.make "e" [ Term.symc (string_of_int i); Term.symc (string_of_int (i + 1)) ]))
  done;
  db

let test_tc_chain () =
  let db = chain_db 20 in
  Eval.run (Eval.prepare tc_rules) db;
  check_int "tc size" (19 * 20 / 2) (Database.count db "t")

let test_tc_naive_matches_seminaive () =
  let db1 = chain_db 12 and db2 = chain_db 12 in
  Eval.run (Eval.prepare tc_rules) db1;
  Eval.run_naive (Eval.prepare tc_rules) db2;
  check_int "same size" (Database.count db1 "t") (Database.count db2 "t");
  List.iter
    (fun f -> check_bool "same facts" true (Database.mem db2 f))
    (Database.facts db1 "t")

let test_negation_eval () =
  let rules =
    [
      Rule.make (atom "unreached" [ v "X" ])
        [ Rule.Pos (atom "node" [ v "X" ]); Rule.Neg (atom "t" [ sym "1"; v "X" ]) ]
    ]
    @ tc_rules
  in
  let db = chain_db 5 in
  List.iter
    (fun i -> ignore (Database.add db (fact "node" [ string_of_int i ])))
    [ 1; 2; 3; 4; 5; 99 ];
  Eval.run (Eval.prepare rules) db;
  (* nodes not reachable from 1: 1 itself and 99 *)
  check_int "unreached" 2 (Database.count db "unreached");
  check_bool "99 unreached" true (Database.mem db (fact "unreached" [ "99" ]))

let test_query () =
  let db = chain_db 6 in
  Eval.run (Eval.prepare tc_rules) db;
  let count = ref 0 in
  Eval.query db [ Rule.Pos (atom "t" [ sym "1"; v "X" ]) ] (fun _ -> incr count);
  check_int "reachable from 1" 5 !count

let test_query_once () =
  let db = chain_db 4 in
  Eval.run (Eval.prepare tc_rules) db;
  check_bool "found" true
    (Eval.query_once db [ Rule.Pos (atom "t" [ sym "1"; sym "4" ]) ] <> None);
  check_bool "not found" true
    (Eval.query_once db [ Rule.Pos (atom "t" [ sym "4"; sym "1" ]) ] = None)

(* Property: evaluation with column indexes agrees with plain scans. *)
let prop_indexing_agrees =
  QCheck.Test.make ~count:80 ~name:"indexed evaluation = scan evaluation"
    QCheck.(small_list (pair (int_bound 6) (int_bound 6)))
    (fun edges ->
      let build () =
        let db = Database.create () in
        List.iter
          (fun (x, y) ->
            ignore
              (Database.add db (fact "e" [ string_of_int x; string_of_int y ])))
          edges;
        Eval.run (Eval.prepare tc_rules) db;
        db
      in
      Relation.use_indexes := true;
      let with_idx = build () in
      Relation.use_indexes := false;
      let without = build () in
      Relation.use_indexes := true;
      Database.count with_idx "t" = Database.count without "t"
      && List.for_all (Database.mem without) (Database.facts with_idx "t"))

(* ------------------------------------------------------------------ *)
(* Join planning and indexes                                            *)
(* ------------------------------------------------------------------ *)

let is_permutation (p : Plan.t) n =
  let sorted = Array.copy p.Plan.order in
  Array.sort Int.compare sorted;
  sorted = Array.init n (fun i -> i)

(* The greedy planner starts with the most selective literal. *)
let test_plan_small_relation_first () =
  let db = Database.create () in
  for i = 1 to 100 do
    ignore (Database.add db (fact "big" [ string_of_int i; "x" ]))
  done;
  ignore (Database.add db (fact "small" [ "a"; "b" ]));
  let body =
    [
      Rule.Pos (atom "big" [ v "X"; v "Y" ]);
      Rule.Pos (atom "small" [ v "X"; v "Z" ]);
    ]
  in
  let p = Plan.make db body in
  check_bool "permutation" true (is_permutation p 2);
  check_int "small first" 1 p.Plan.order.(0);
  check_int "big second" 0 p.Plan.order.(1)

(* Negations cost nothing once ground, so they run at their earliest ground
   position — here between the two joins, not at their input position. *)
let test_plan_negation_floats_early () =
  let db = Database.create () in
  for i = 1 to 10 do
    ignore (Database.add db (fact "e" [ string_of_int i; "m" ]))
  done;
  for i = 1 to 100 do
    ignore (Database.add db (fact "big" [ "m"; string_of_int i ]))
  done;
  let body =
    [
      Rule.Pos (atom "e" [ v "X"; v "Y" ]);
      Rule.Pos (atom "big" [ v "Y"; v "Z" ]);
      Rule.Neg (atom "blocked" [ v "X" ]);
    ]
  in
  let p = Plan.make db body in
  check_bool "permutation" true (is_permutation p 3);
  check_int "e first" 0 p.Plan.order.(0);
  check_int "negation before the expensive join" 2 p.Plan.order.(1);
  check_int "big last" 1 p.Plan.order.(2)

(* Comparisons are pure filters and likewise float to the earliest position
   where their variables are bound. *)
let test_plan_comparison_floats_early () =
  let db = Database.create () in
  for i = 1 to 10 do
    ignore (Database.add db (fact "e" [ string_of_int i; "m" ]))
  done;
  for i = 1 to 100 do
    ignore (Database.add db (fact "big" [ "m"; string_of_int i ]))
  done;
  let body =
    [
      Rule.Pos (atom "e" [ v "X"; v "Y" ]);
      Rule.Pos (atom "big" [ v "Y"; v "Z" ]);
      Rule.Cmp (Rule.Ne, v "X", v "Y");
    ]
  in
  let p = Plan.make db body in
  check_bool "permutation" true (is_permutation p 3);
  check_int "filter right after binding" 2 p.Plan.order.(1)

(* The semi-naive delta literal is pinned to the front regardless of cost. *)
let test_plan_delta_pinned_first () =
  let db = Database.create () in
  ignore (Database.add db (fact "small" [ "a"; "b" ]));
  for i = 1 to 100 do
    ignore (Database.add db (fact "big" [ string_of_int i; "x" ]))
  done;
  let body =
    [
      Rule.Pos (atom "big" [ v "X"; v "Y" ]);
      Rule.Pos (atom "small" [ v "X"; v "Z" ]);
    ]
  in
  let p = Plan.make ~first:0 db body in
  check_int "delta first" 0 p.Plan.order.(0)

(* A body whose literals never share a column still yields a valid plan
   (cross product, smaller side first). *)
let test_plan_no_bound_column () =
  let db = Database.create () in
  ignore (Database.add db (fact "p" [ "a" ]));
  for i = 1 to 20 do
    ignore (Database.add db (fact "q" [ string_of_int i ]))
  done;
  let body =
    [ Rule.Pos (atom "q" [ v "Y" ]); Rule.Pos (atom "p" [ v "X" ]) ]
  in
  let p = Plan.make db body in
  check_bool "permutation" true (is_permutation p 2);
  check_int "smaller side first" 1 p.Plan.order.(0)

(* Planner on and off derive the same facts. *)
let test_planner_equivalence () =
  let db_on = chain_db 12 and db_off = chain_db 12 in
  Eval.run (Eval.prepare tc_rules) db_on;
  Plan.use_planner := false;
  Fun.protect
    ~finally:(fun () -> Plan.use_planner := true)
    (fun () -> Eval.run (Eval.prepare tc_rules) db_off);
  check_int "same closure" (Database.count db_off "t") (Database.count db_on "t");
  List.iter
    (fun f -> check_bool "fact agrees" true (Database.mem db_off f))
    (Database.facts db_on "t")

(* Emptied index buckets are dropped, not leaked. *)
let test_index_remove_drops_empty_buckets () =
  let r = Relation.create () in
  let t1 = [| Term.symc "k"; Term.symc "1" |] in
  let t2 = [| Term.symc "k"; Term.symc "2" |] in
  let t3 = [| Term.symc "j"; Term.symc "3" |] in
  List.iter (fun t -> ignore (Relation.add r t)) [ t1; t2; t3 ];
  check_int "two keys" 2 (Option.get (Relation.distinct_keys r ~col:0));
  (match Relation.lookup r ~col:0 ~key:(Term.symc "k") with
  | Some b -> check_int "bucket size" 2 (List.length b)
  | None -> Alcotest.fail "index expected");
  ignore (Relation.remove r t1);
  ignore (Relation.remove r t2);
  check_int "emptied key dropped" 1
    (Option.get (Relation.distinct_keys r ~col:0));
  check_bool "lookup sees the empty bucket" true
    (Relation.lookup r ~col:0 ~key:(Term.symc "k") = Some []);
  check_int "survivor intact" 1
    (match Relation.lookup r ~col:0 ~key:(Term.symc "j") with
    | Some b -> List.length b
    | None -> -1)

(* ------------------------------------------------------------------ *)
(* Formulas and constraint compilation                                  *)
(* ------------------------------------------------------------------ *)

let test_nnf_implies () =
  let f = Formula.(Implies (atom "p" [ v "X" ], atom "q" [ v "X" ])) in
  match Formula.nnf (Formula.Not f) with
  | Formula.And [ Formula.Atom _; Formula.Not (Formula.Atom _) ] -> ()
  | g -> Alcotest.failf "unexpected nnf: %a" Formula.pp g

let test_free_vars () =
  let f = Formula.(forall [ "X" ] (atom "p" [ v "X"; v "Y" ])) in
  Alcotest.(check (list string)) "free" [ "Y" ] (Formula.free_vars f)

let test_compile_rejects_open () =
  check_bool "open rejected" true
    (try
       ignore
         (Constraint_compile.compile ~name:"c" Formula.(atom "p" [ v "X" ]));
       false
     with Constraint_compile.Error _ -> true)

(* Uniqueness: p(X1,Y) /\ p(X2,Y) => X1 = X2 *)
let uniq_constraint =
  Formula.(
    forall [ "X1"; "X2"; "Y" ]
      (atom "p" [ v "X1"; v "Y" ]
      &&& atom "p" [ v "X2"; v "Y" ]
      ==> eq (v "X1") (v "X2")))

let test_compile_uniqueness () =
  let c = Constraint_compile.compile ~name:"uniq" uniq_constraint in
  check_string "viol pred" "viol$uniq" c.viol_pred;
  check_int "one rule" 1 (List.length c.rules)

let theory_with ~preds ~rules ~constraints =
  let t = Theory.create () in
  List.iter (fun (name, columns) -> Theory.declare_predicate t ~name ~columns) preds;
  Theory.add_rules t rules;
  List.iter (fun (name, f) -> Theory.add_constraint t ~name f) constraints;
  t

let test_check_uniqueness_violation () =
  let t =
    theory_with
      ~preds:[ "p", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "uniq", uniq_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "p" [ "a"; "k" ]));
  ignore (Database.add db (fact "p" [ "b"; "k" ]));
  let viols = Checker.check t db in
  check_bool "violated" true (viols <> []);
  let w = List.hd viols in
  check_string "constraint name" "uniq" w.Checker.constraint_name;
  (* consistent once duplicate removed *)
  ignore (Database.remove db (fact "p" [ "b"; "k" ]));
  check_bool "consistent" true (Checker.is_consistent t db)

(* Existence: every q must have a supporting r. *)
let exist_constraint =
  Formula.(
    forall [ "X" ]
      (exists [ "Y" ] (atom "q" [ v "X" ] ==> atom "r" [ v "X"; v "Y" ])))

let test_check_existence () =
  let t =
    theory_with
      ~preds:[ "q", [ "x" ]; "r", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "exist", exist_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "q" [ "a" ]));
  check_bool "violated" true (not (Checker.is_consistent t db));
  ignore (Database.add db (fact "r" [ "a"; "w" ]));
  check_bool "repaired" true (Checker.is_consistent t db)

(* Acyclicity via transitive closure: not t(X,X). *)
let acyclic_theory () =
  theory_with
    ~preds:[ "e", [ "x"; "y" ] ]
    ~rules:tc_rules
    ~constraints:
      [ "acyclic", Formula.(forall [ "X" ] (neg (atom "t" [ v "X"; v "X" ]))) ]

let test_check_acyclicity () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "e" [ "a"; "b" ]));
  ignore (Database.add db (fact "e" [ "b"; "c" ]));
  check_bool "dag ok" true (Checker.is_consistent t db);
  ignore (Database.add db (fact "e" [ "c"; "a" ]));
  let viols = Checker.check t db in
  check_int "three cycle witnesses" 3 (List.length viols)

(* Inner universal quantifier: every p-member must have all its q-entries
   covered by r.  forall X,Y: p(X) /\ q(X,Y) => r(X,Y) stated with a nested
   forall to exercise the auxiliary-predicate path. *)
let nested_constraint =
  Formula.(
    forall [ "X" ]
      (atom "p" [ v "X" ]
      ==> forall [ "Y" ] (atom "q" [ v "X"; v "Y" ] ==> atom "r" [ v "X"; v "Y" ])))

let test_compile_nested_forall () =
  (* The inner universal sits under a negation, so NNF turns it into an
     existential: a single flat violation rule, no auxiliaries. *)
  let c = Constraint_compile.compile ~name:"nested" nested_constraint in
  check_int "one flat rule" 1 (List.length c.rules);
  let t =
    theory_with
      ~preds:[ "p", [ "x" ]; "q", [ "x"; "y" ]; "r", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "nested", nested_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "p" [ "a" ]));
  ignore (Database.add db (fact "q" [ "a"; "1" ]));
  check_bool "violated" true (not (Checker.is_consistent t db));
  ignore (Database.add db (fact "r" [ "a"; "1" ]));
  check_bool "fixed" true (Checker.is_consistent t db)

let test_tautology_compiles_to_nothing () =
  let c =
    Constraint_compile.compile ~name:"taut"
      Formula.(forall [ "X" ] (atom "p" [ v "X" ] ==> atom "p" [ v "X" ]))
  in
  (* negation has a contradictory body p /\ not p — still compiles; just
     check it never fires. *)
  let t =
    theory_with ~preds:[ "p", [ "x" ] ] ~rules:[]
      ~constraints:
        [ "taut", Formula.(forall [ "X" ] (atom "p" [ v "X" ] ==> atom "p" [ v "X" ])) ]
  in
  ignore c;
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "p" [ "a" ]));
  check_bool "never fires" true (Checker.is_consistent t db)

(* ------------------------------------------------------------------ *)
(* Theory management                                                    *)
(* ------------------------------------------------------------------ *)

let test_theory_duplicate_constraint () =
  let t = theory_with ~preds:[ "p", [ "x"; "y" ] ] ~rules:[] ~constraints:[] in
  Theory.add_constraint t ~name:"c" uniq_constraint;
  check_bool "dup" true
    (try
       Theory.add_constraint t ~name:"c" uniq_constraint;
       false
     with Theory.Duplicate _ -> true)

let test_theory_remove_constraint () =
  let t =
    theory_with
      ~preds:[ "p", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "uniq", uniq_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "p" [ "a"; "k" ]));
  ignore (Database.add db (fact "p" [ "b"; "k" ]));
  check_bool "violated" true (not (Checker.is_consistent t db));
  check_bool "removed" true (Theory.remove_constraint t "uniq");
  check_bool "now fine" true (Checker.is_consistent t db)

let test_theory_deps () =
  let t = acyclic_theory () in
  let c = Option.get (Theory.find_constraint t "acyclic") in
  Alcotest.(check (list string)) "deps" [ "e" ] (Theory.constraint_base_deps t c)

let test_affected_constraints () =
  let t = acyclic_theory () in
  Theory.declare_predicate t ~name:"q" ~columns:[ "x" ];
  check_int "e affects acyclic" 1
    (List.length (Theory.affected_constraints t ~changed_preds:[ "e" ]));
  check_int "q affects nothing" 0
    (List.length (Theory.affected_constraints t ~changed_preds:[ "q" ]))

(* The affected-constraints filter as it was: every constraint's base
   dependencies searched for every changed predicate. *)
let reference_affected t ~changed_preds =
  List.filter
    (fun c ->
      let deps = Theory.constraint_base_deps t c in
      List.exists (fun p -> List.mem p deps) changed_preds)
    (Theory.constraints t)

(* Property: the predicate index answers what the filter answers, in the
   same order, on random sets of changed predicates (declared, derived,
   unknown, repeated), before and after a definition change. *)
let prop_affected_index_matches_filter =
  let full_theory () =
    let t = Theory.create () in
    Gom.Model.install_core t;
    Gom.Versioning.install t;
    Gom.Fashion.install t;
    Gom.Subschema.install t;
    Gom.Sorts.install t;
    t
  in
  let names =
    let t = full_theory () in
    Array.of_list
      ("Unknown"
      :: List.map (fun (d : Theory.pred_decl) -> d.Theory.name) (Theory.predicates t)
      @ List.map (fun r -> r.Rule.head.Atom.pred) (Theory.rules t))
  in
  let preds_gen =
    QCheck.Gen.(list_size (int_range 0 6) (int_bound (Array.length names - 1)))
  in
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"affected-constraints index = the filter"
    QCheck.(
      make
        ~print:
          Print.(
            pair
              (fun l -> String.concat ", " (List.map (Array.get names) l))
              (fun l -> String.concat ", " (List.map (Array.get names) l)))
        Gen.(pair preds_gen preds_gen))
    (fun (first, second) ->
      let t = full_theory () in
      let agree picks =
        let changed_preds = List.map (Array.get names) picks in
        let names_of = List.map (fun c -> c.Constraint_compile.name) in
        names_of (Theory.affected_constraints t ~changed_preds)
        = names_of (reference_affected t ~changed_preds)
      in
      agree first
      && agree second
      &&
      (* a new constraint over an existing predicate bumps the revision *)
      (Theory.add_constraint t ~name:"extra"
         (Formula.Forall
            ( [ "X"; "Y" ],
              Formula.Implies
                ( Formula.Atom (atom "SubTypRel" [ v "X"; v "Y" ]),
                  Formula.Not (Formula.Atom (atom "SubTypRel" [ v "Y"; v "X" ])) ) ));
       agree first && agree second))

(* ------------------------------------------------------------------ *)
(* Delta                                                                *)
(* ------------------------------------------------------------------ *)

let test_delta_arity_precheck () =
  let db = Database.create () in
  Database.declare db ~name:"p" ~columns:[ "x"; "y" ];
  ignore (Database.add db (fact "p" [ "a"; "b" ]));
  let d =
    Delta.of_lists
      ~additions:[ fact "p" [ "c"; "d" ]; fact "p" [ "oops" ] ]
      ~deletions:[ fact "p" [ "a"; "b" ] ]
  in
  check_bool "raises" true
    (try
       ignore (Delta.apply db d);
       false
     with Database.Arity_mismatch _ -> true);
  (* nothing was mutated: the bad addition was rejected up front *)
  check_bool "deletion not applied" true (Database.mem db (fact "p" [ "a"; "b" ]));
  check_bool "good addition not applied" false
    (Database.mem db (fact "p" [ "c"; "d" ]))

let test_delta_apply_effective () =
  let db = Database.create () in
  ignore (Database.add db (fact "p" [ "a" ]));
  let d =
    Delta.of_lists
      ~additions:[ fact "p" [ "a" ]; fact "p" [ "b" ] ]
      ~deletions:[ fact "p" [ "z" ] ]
  in
  let eff = Delta.apply db d in
  check_int "only one effective add" 1 (List.length eff.Delta.additions);
  check_int "no effective del" 0 (List.length eff.Delta.deletions);
  (* invert rolls back *)
  let _ = Delta.apply db (Delta.invert eff) in
  check_bool "rolled back" true (Database.mem db (fact "p" [ "a" ]));
  check_bool "b gone" false (Database.mem db (fact "p" [ "b" ]))

(* ------------------------------------------------------------------ *)
(* Incremental maintenance                                              *)
(* ------------------------------------------------------------------ *)

let test_incremental_additions () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "e" [ "a"; "b" ]));
  let state = Incremental.init t db in
  check_bool "ok" true (Incremental.violations state = []);
  let _ =
    Incremental.apply state
      (Delta.of_lists ~additions:[ fact "e" [ "b"; "c" ]; fact "e" [ "c"; "a" ] ]
         ~deletions:[])
  in
  check_int "cycle found" 3 (List.length (Incremental.violations state))

let test_incremental_deletions () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  List.iter
    (fun (x, y) -> ignore (Database.add db (fact "e" [ x; y ])))
    [ "a", "b"; "b", "c"; "c", "a" ];
  let state = Incremental.init t db in
  check_bool "cycle" true (Incremental.violations state <> []);
  let _ =
    Incremental.apply state
      (Delta.of_lists ~additions:[] ~deletions:[ fact "e" [ "c"; "a" ] ])
  in
  check_bool "cycle broken" true (Incremental.violations state = []);
  (* materialization must equal a from-scratch run *)
  let scratch = Checker.materialize t (Incremental.edb state) in
  check_int "t matches scratch" (Database.count scratch "t")
    (Database.count (Incremental.materialized state) "t")

let test_check_affected_matches_full () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  List.iter
    (fun (x, y) -> ignore (Database.add db (fact "e" [ x; y ])))
    [ "a", "b"; "b", "c"; "c", "a" ];
  let delta = Delta.of_lists ~additions:[ fact "e" [ "c"; "a" ] ] ~deletions:[] in
  let affected = Incremental.check_affected t db ~delta in
  let full = Checker.check t db in
  check_int "same violation count" (List.length full) (List.length affected)

(* [check_affected] evaluates beside the base without copying it: the
   base's predicates, tuples and relation versions are as they were. *)
let test_check_affected_leaves_base () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  List.iter
    (fun (x, y) -> ignore (Database.add db (fact "e" [ x; y ])))
    [ "a", "b"; "b", "c"; "c", "a" ];
  let state () =
    List.sort compare (Database.predicates db)
    |> List.map (fun p ->
           let r = Option.get (Database.relation_opt db p) in
           (p, Relation.version r, List.sort compare (Database.facts db p)))
  in
  let before = state () in
  let delta = Delta.of_lists ~additions:[ fact "e" [ "c"; "a" ] ] ~deletions:[] in
  check_bool "violations found" true
    (Incremental.check_affected t db ~delta <> []);
  check_bool "base unchanged" true (state () = before)

(* Property: random edge deltas — incremental state matches from-scratch. *)
let prop_incremental_equals_scratch =
  QCheck.Test.make ~count:60 ~name:"incremental DRed = from-scratch"
    QCheck.(
      pair
        (small_list (pair (int_bound 5) (int_bound 5)))
        (pair
           (small_list (pair (int_bound 5) (int_bound 5)))
           (small_list (pair (int_bound 5) (int_bound 5)))))
    (fun (initial, (adds, dels)) ->
      let t = acyclic_theory () in
      let edge (x, y) = fact "e" [ string_of_int x; string_of_int y ] in
      let db = Theory.fresh_database t in
      List.iter (fun e -> ignore (Database.add db (edge e))) initial;
      let state = Incremental.init t db in
      let delta =
        Delta.of_lists ~additions:(List.map edge adds)
          ~deletions:(List.map edge dels)
      in
      let _ = Incremental.apply state delta in
      let scratch = Checker.materialize t (Incremental.edb state) in
      let inc = Incremental.materialized state in
      List.for_all
        (fun pred ->
          Database.count scratch pred = Database.count inc pred
          && List.for_all (Database.mem inc) (Database.facts scratch pred))
        [ "e"; "t"; "viol$acyclic" ])

(* Negation through strata: unreached nodes maintained incrementally. *)
let neg_theory () =
  let t =
    theory_with
      ~preds:[ "e", [ "x"; "y" ]; "node", [ "x" ]; "root", [ "x" ] ]
      ~rules:
        (tc_rules
        @ [
            Rule.make (atom "reach" [ v "X" ])
              [ Rule.Pos (atom "root" [ v "R" ]); Rule.Pos (atom "t" [ v "R"; v "X" ]) ];
            Rule.make (atom "reach" [ v "X" ]) [ Rule.Pos (atom "root" [ v "X" ]) ];
            Rule.make (atom "orphan" [ v "X" ])
              [ Rule.Pos (atom "node" [ v "X" ]); Rule.Neg (atom "reach" [ v "X" ]) ];
          ])
      ~constraints:
        [
          ( "all_reachable",
            Formula.(forall [ "X" ] (neg (atom "orphan" [ v "X" ]))) );
        ]
  in
  t

let prop_incremental_negation =
  QCheck.Test.make ~count:60 ~name:"incremental DRed with negation"
    QCheck.(
      pair
        (small_list (pair (int_bound 4) (int_bound 4)))
        (pair
           (small_list (pair (int_bound 4) (int_bound 4)))
           (small_list (pair (int_bound 4) (int_bound 4)))))
    (fun (initial, (adds, dels)) ->
      let t = neg_theory () in
      let edge (x, y) = fact "e" [ string_of_int x; string_of_int y ] in
      let db = Theory.fresh_database t in
      ignore (Database.add db (fact "root" [ "0" ]));
      List.iter
        (fun i -> ignore (Database.add db (fact "node" [ string_of_int i ])))
        [ 0; 1; 2; 3; 4 ];
      List.iter (fun e -> ignore (Database.add db (edge e))) initial;
      let state = Incremental.init t db in
      let delta =
        Delta.of_lists ~additions:(List.map edge adds)
          ~deletions:(List.map edge dels)
      in
      let _ = Incremental.apply state delta in
      let scratch = Checker.materialize t (Incremental.edb state) in
      let inc = Incremental.materialized state in
      List.for_all
        (fun pred ->
          Database.count scratch pred = Database.count inc pred
          && List.for_all (Database.mem inc) (Database.facts scratch pred))
        [ "t"; "reach"; "orphan"; "viol$all_reachable" ])

(* Mixed deltas over recursive strata: one apply deletes and inserts
   edges, re-inserting some of what it deletes (a fact in both halves of
   the delta: present before and after).  [s], a stratum above the
   recursive [t], joins [t] with base edges, so one deletion can remove two
   facts a derivation joins — the pre-update view must still see both —
   and [u] tests a re-inserted edge under negation. *)
let mixed_theory () =
  theory_with
    ~preds:[ "e", [ "x"; "y" ] ]
    ~rules:
      (tc_rules
      @ [
          Rule.make
            (atom "s" [ v "X"; v "Z" ])
            [
              Rule.Pos (atom "t" [ v "X"; v "Y" ]);
              Rule.Pos (atom "e" [ v "Y"; v "Z" ]);
              Rule.Neg (atom "t" [ v "Z"; v "X" ]);
            ];
          Rule.make
            (atom "u" [ v "X" ])
            [ Rule.Pos (atom "s" [ v "X"; v "Y" ]); Rule.Neg (atom "e" [ v "Y"; v "X" ]) ];
        ])
    ~constraints:
      [ "no_u", Formula.(forall [ "X" ] (neg (atom "u" [ v "X" ]))) ]

let prop_incremental_mixed =
  let edges = QCheck.(small_list (pair (int_bound 4) (int_bound 4))) in
  let picks = QCheck.(small_list small_nat) in
  QCheck.Test.make ~count:200 ~name:"incremental DRed, mixed deltas over strata"
    QCheck.(
      pair edges
        (list_of_size Gen.(int_range 1 3) (triple edges picks (int_bound 3))))
    (fun (initial, deltas) ->
      let t = mixed_theory () in
      let edge (x, y) = fact "e" [ string_of_int x; string_of_int y ] in
      let db = Theory.fresh_database t in
      List.iter (fun e -> ignore (Database.add db (edge e))) initial;
      let state = Incremental.init t db in
      List.for_all
        (fun (adds, picks, readd) ->
          (* deletions pick existing edges, so joined facts go together *)
          let existing =
            Array.of_list
              (List.sort Fact.compare (Database.facts (Incremental.edb state) "e"))
          in
          let dels =
            if existing = [||] then []
            else
              List.map (fun i -> existing.(i mod Array.length existing)) picks
          in
          (* the first [readd] deletions are inserted again *)
          let readd = List.filteri (fun i _ -> i < readd) dels in
          let _ =
            Incremental.apply state
              (Delta.of_lists
                 ~additions:(List.map edge adds @ readd)
                 ~deletions:dels)
          in
          let scratch = Checker.materialize t (Incremental.edb state) in
          let inc = Incremental.materialized state in
          List.for_all
            (fun pred ->
              Database.count scratch pred = Database.count inc pred
              && List.for_all (Database.mem inc) (Database.facts scratch pred))
            [ "e"; "t"; "s"; "u"; "viol$no_u" ])
        deltas)

(* ------------------------------------------------------------------ *)
(* Derivation and repair                                                *)
(* ------------------------------------------------------------------ *)

let test_derivation_tree () =
  let db = chain_db 4 in
  let prepared = Eval.prepare tc_rules in
  Eval.run prepared db;
  let f = fact "t" [ "1"; "4" ] in
  match
    Derivation.derive ~is_idb:(Eval.is_idb prepared) ~rules:(Eval.rules prepared)
      db f
  with
  | None -> Alcotest.fail "no derivation"
  | Some tree ->
      let leaves = Derivation.leaves tree in
      (* the chain 1-2-3-4: three base edges *)
      check_int "three leaves" 3 (List.length leaves);
      List.iter
        (function
          | Derivation.Edb f -> check_string "edge pred" "e" f.Fact.pred
          | _ -> Alcotest.fail "unexpected leaf kind")
        leaves

let test_derivation_absent () =
  let db = chain_db 3 in
  let prepared = Eval.prepare tc_rules in
  Eval.run prepared db;
  check_bool "no proof of false fact" true
    (Derivation.derive ~is_idb:(Eval.is_idb prepared)
       ~rules:(Eval.rules prepared) db (fact "t" [ "3"; "1" ])
    = None)

let test_repair_uniqueness () =
  let t =
    theory_with
      ~preds:[ "p", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "uniq", uniq_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "p" [ "a"; "k" ]));
  ignore (Database.add db (fact "p" [ "b"; "k" ]));
  let materialized = Checker.materialize t db in
  let viol = List.hd (Checker.violations_of t materialized) in
  let repairs = Repair.generate t materialized viol in
  (* delete either of the two conflicting facts *)
  check_bool "has delete a" true
    (List.exists (Repair.equal [ Repair.Del (fact "p" [ "a"; "k" ]) ]) repairs);
  check_bool "has delete b" true
    (List.exists (Repair.equal [ Repair.Del (fact "p" [ "b"; "k" ]) ]) repairs)

let test_repair_existence_add () =
  let t =
    theory_with
      ~preds:[ "q", [ "x" ]; "r", [ "x"; "y" ] ]
      ~rules:[]
      ~constraints:[ "exist", exist_constraint ]
  in
  let db = Theory.fresh_database t in
  ignore (Database.add db (fact "q" [ "a" ]));
  let materialized = Checker.materialize t db in
  let viol = List.hd (Checker.violations_of t materialized) in
  let repairs = Repair.generate t materialized viol in
  check_bool "has delete q" true
    (List.exists (Repair.equal [ Repair.Del (fact "q" [ "a" ]) ]) repairs);
  check_bool "has add r with fresh placeholder" true
    (List.exists
       (fun r ->
         match r with
         | [ Repair.Add f ] ->
             f.Fact.pred = "r"
             && Term.equal_const f.args.(0) (Term.symc "a")
             && (match f.args.(1) with Term.Fresh _ -> true | _ -> false)
         | _ -> false)
       repairs)

(* Repairs actually repair: applying each suggested repair (with fresh
   placeholders instantiated) removes the violation instance. *)
let test_repair_fixes_violation () =
  let t = acyclic_theory () in
  let db = Theory.fresh_database t in
  List.iter
    (fun (x, y) -> ignore (Database.add db (fact "e" [ x; y ])))
    [ "a", "b"; "b", "c"; "c", "a" ];
  let materialized = Checker.materialize t db in
  let viol = List.hd (Checker.violations_of t materialized) in
  let repairs = Repair.generate t materialized viol in
  check_bool "found repairs" true (repairs <> []);
  List.iter
    (fun repair ->
      let db' = Database.copy db in
      List.iter
        (function
          | Repair.Del f -> ignore (Database.remove db' f)
          | Repair.Add f -> if Fact.is_ground f then ignore (Database.add db' f))
        repair;
      check_bool "repair removes cycle" true (Checker.is_consistent t db'))
    repairs

(* ------------------------------------------------------------------ *)
(* Reference semantics: the constraint compiler against a direct       *)
(* model-checking evaluator                                            *)
(* ------------------------------------------------------------------ *)

(* Evaluate a formula directly over a (materialized) database, quantifying
   over the active domain — the obviously-correct but exponential semantics
   the Lloyd-Topor compilation must agree with. *)
let rec eval_formula db domain subst (f : Formula.t) : bool =
  let term_value t =
    match t with
    | Term.Const c -> c
    | Term.Var v -> (
        match List.assoc_opt v subst with
        | Some c -> c
        | None -> failwith ("unbound " ^ v))
  in
  match f with
  | Formula.True -> true
  | Formula.False -> false
  | Formula.Atom a ->
      Database.mem db
        (Fact.make_arr a.Atom.pred
           (Array.map term_value a.Atom.args))
  | Formula.Cmp (op, x, y) -> Rule.eval_cmp op (term_value x) (term_value y)
  | Formula.Not g -> not (eval_formula db domain subst g)
  | Formula.And gs -> List.for_all (eval_formula db domain subst) gs
  | Formula.Or gs -> List.exists (eval_formula db domain subst) gs
  | Formula.Implies (a, b) ->
      (not (eval_formula db domain subst a)) || eval_formula db domain subst b
  | Formula.Iff (a, b) ->
      eval_formula db domain subst a = eval_formula db domain subst b
  | Formula.Forall (vs, g) ->
      let rec go subst = function
        | [] -> eval_formula db domain subst g
        | v :: rest ->
            List.for_all (fun c -> go ((v, c) :: subst) rest) domain
      in
      go subst vs
  | Formula.Exists (vs, g) ->
      let rec go subst = function
        | [] -> eval_formula db domain subst g
        | v :: rest -> List.exists (fun c -> go ((v, c) :: subst) rest) domain
      in
      go subst vs

(* Random range-restricted-looking constraints over p/2, q/1, r/2 and the
   derived t/2 (transitive closure of p). *)
let formula_gen : Formula.t QCheck.Gen.t =
  let open QCheck.Gen in
  let vars = [ "X"; "Y"; "Z" ] in
  let var = oneofl vars in
  let const = oneofl [ "a"; "b"; "c" ] in
  let term =
    frequency [ 3, map Term.var var; 1, map Term.sym const ]
  in
  let atom =
    oneof
      [
        map2 (fun x y -> Formula.atom "p" [ x; y ]) term term;
        map (fun x -> Formula.atom "q" [ x ]) term;
        map2 (fun x y -> Formula.atom "r" [ x; y ]) term term;
        map2 (fun x y -> Formula.atom "t" [ x; y ]) term term;
      ]
  in
  let premise = list_size (int_range 1 2) atom >|= Formula.conj in
  let conclusion =
    oneof
      [
        atom;
        map2 (fun a b -> Formula.disj [ a; b ]) atom atom;
        map2 (fun a b -> Formula.conj [ a; b ]) atom atom;
        map (fun a -> Formula.exists [ "W" ] a) atom;
        map2
          (fun a b -> Formula.(forall [ "V" ] (a ==> b)))
          atom atom;
        map2 (fun x y -> Formula.eq x y) term term;
        map (fun a -> Formula.neg a) atom;
      ]
  in
  map2 (fun p c -> Formula.(forall vars (p ==> c))) premise conclusion

let db_gen : (string * string) list QCheck.Gen.t =
  (* random facts as (pred, "xy") pairs *)
  let open QCheck.Gen in
  list_size (int_range 0 10)
    (pair (oneofl [ "p"; "q"; "r" ]) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (return 2)))

let prop_compiler_matches_reference =
  QCheck.Test.make ~count:300 ~name:"constraint compiler = direct FOL semantics"
    QCheck.(make (Gen.pair formula_gen db_gen))
    (fun (formula, fact_spec) ->
      let t =
        theory_with
          ~preds:[ "p", [ "x"; "y" ]; "q", [ "x" ]; "r", [ "x"; "y" ] ]
          ~rules:
            [
              Rule.make (atom "t" [ v "X"; v "Y" ]) [ Rule.Pos (atom "p" [ v "X"; v "Y" ]) ];
              Rule.make
                (atom "t" [ v "X"; v "Z" ])
                [ Rule.Pos (atom "p" [ v "X"; v "Y" ]);
                  Rule.Pos (atom "t" [ v "Y"; v "Z" ]) ];
            ]
          ~constraints:[]
      in
      match Theory.add_constraint t ~name:"c" formula with
      | exception Constraint_compile.Error _ ->
          (* not range-restricted: rejection is the correct behaviour *)
          true
      | () ->
          let db = Theory.fresh_database t in
          List.iter
            (fun (pred, cs) ->
              let args =
                List.init (String.length cs) (fun i ->
                    Term.symc (String.make 1 cs.[i]))
              in
              let args = if pred = "q" then [ List.hd args ] else args in
              ignore (Database.add db (Fact.make pred args)))
            fact_spec;
          let violated = Checker.check t db <> [] in
          let materialized = Checker.materialize t db in
          let domain = [ Term.symc "a"; Term.symc "b"; Term.symc "c" ] in
          let holds = eval_formula materialized domain [] formula in
          violated = not holds)

(* ------------------------------------------------------------------ *)
(* The textual syntax (Parse)                                           *)
(* ------------------------------------------------------------------ *)

let test_parse_rule () =
  let r = Parse.rule "t(X, Z) :- e(X, Y), t(Y, Z)." in
  Alcotest.(check string) "head" "t" r.Rule.head.Atom.pred;
  check_int "two literals" 2 (List.length r.Rule.body)

let test_parse_fact_rule () =
  let r = Parse.rule "p(a, 3)." in
  check_bool "no body" true (r.Rule.body = []);
  check_bool "args" true
    (r.Rule.head.Atom.args = [| Term.sym "a"; Term.int 3 |])

let test_parse_query () =
  let q = Parse.query "t(a, X), not q(X), X != b?" in
  check_int "three literals" 3 (List.length q);
  match q with
  | [ Rule.Pos _; Rule.Neg _; Rule.Cmp (Rule.Ne, _, _) ] -> ()
  | _ -> Alcotest.fail "unexpected literal shapes"

let test_parse_formula_text () =
  let f =
    Parse.formula
      "forall X, Y. p(X, Y) /\\ q(X) -> exists Z. r(Y, Z) \\/ X = Y"
  in
  match f with
  | Formula.Forall ([ "X"; "Y" ], Formula.Implies (Formula.And _, _)) -> ()
  | _ -> Alcotest.failf "unexpected shape: %a" Formula.pp f

let test_parse_quoted_symbols () =
  let q = Parse.query "Attr(T, 'fuelType', \"tid_string\")" in
  match q with
  | [ Rule.Pos a ] ->
      check_bool "quoted args" true
        (a.Atom.args
        = [| Term.var "T"; Term.sym "fuelType"; Term.sym "tid_string" |])
  | _ -> Alcotest.fail "unexpected"

let test_parse_errors () =
  List.iter
    (fun src ->
      check_bool src true
        (try
           ignore (Parse.formula src);
           false
         with Parse.Error _ -> true))
    [ "p("; "forall . p(X)"; "p(X) ->"; "p(X) q(X)"; "@" ]

(* normalize singleton conjunctions/disjunctions for the round trip *)
let rec normalize_formula (f : Formula.t) : Formula.t =
  match f with
  | Formula.And [ g ] -> normalize_formula g
  | Formula.Or [ g ] -> normalize_formula g
  | Formula.And gs -> Formula.And (List.map normalize_formula gs)
  | Formula.Or gs -> Formula.Or (List.map normalize_formula gs)
  | Formula.Not g -> Formula.Not (normalize_formula g)
  | Formula.Implies (a, b) ->
      Formula.Implies (normalize_formula a, normalize_formula b)
  | Formula.Iff (a, b) -> Formula.Iff (normalize_formula a, normalize_formula b)
  | Formula.Forall (vs, g) -> Formula.Forall (vs, normalize_formula g)
  | Formula.Exists (vs, g) -> Formula.Exists (vs, normalize_formula g)
  | Formula.True | Formula.False | Formula.Atom _ | Formula.Cmp _ -> f

let prop_formula_print_parse =
  QCheck.Test.make ~count:300 ~name:"printed formulas re-parse"
    (QCheck.make ~print:Formula.to_string formula_gen)
    (fun f ->
      let printed = Formula.to_string f in
      match Parse.formula printed with
      | parsed -> normalize_formula parsed = normalize_formula f
      | exception Parse.Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Fast paths against the code they replaced                           *)
(* ------------------------------------------------------------------ *)

(* Strings a constant may spell: empty, quotes, backslashes, control
   characters, NUL, non-ASCII bytes, and runs longer than Format's
   margin. *)
let nasty_string_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        ( 4,
          string_size
            ~gen:
              (oneofl
                 [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; '\'';
                   '%'; '?'; '@'; '\000'; '\x7f'; '\xc3'; '\xa9'; '\xff' ])
            (int_range 0 12) );
        (2, string_size ~gen:printable (int_range 0 40));
        (1, string_size ~gen:char (int_range 80 300));
        ( 1,
          oneofl
            [ "caf\xc3\xa9"; "\xe2\x88\x80x"; "line\nbreak"; "q\"uote";
              "back\\slash"; String.make 200 'x' ] );
      ])

let const_gen =
  QCheck.Gen.(
    oneof
      [
        map Term.symc nasty_string_gen;
        map (fun i -> Term.Int i) int;
        map (fun s -> Term.Fresh s) nasty_string_gen;
      ])

(* The constant printer as it was: every call through a Format buffer. *)
let fmt_pp_const ppf = function
  | Term.Sym s -> Fmt.string ppf s.Term.name
  | Term.Int i -> Fmt.int ppf i
  | Term.Fresh s -> Fmt.pf ppf "?%s" s

let prop_const_to_string_matches_fmt =
  QCheck.Test.make ~count:500 ~long_factor:20
    ~name:"const_to_string = the Format printer"
    QCheck.(
      make
        ~print:(fun (a, b) ->
          Printf.sprintf "%S, %S"
            (Fmt.str "%a" fmt_pp_const a)
            (Fmt.str "%a" fmt_pp_const b))
        (Gen.pair const_gen const_gen))
    (fun (a, b) ->
      let boxed pp = Fmt.str "@[<hov 2>p(%a,@ %a)@]" pp a pp b in
      Term.const_to_string a = Fmt.str "%a" fmt_pp_const a
      && Fmt.str "%a" Term.pp_const a = Fmt.str "%a" fmt_pp_const a
      && boxed Term.pp_const = boxed fmt_pp_const)

(* The tokenizer as it was: a [String.sub] per punctuation character, a
   [String.lowercase_ascii] per word, a buffer per quoted symbol, an
   [int_of_string] per number — except that a number past [max_int] is a
   syntax error, where it used to escape as [Failure "int_of_string"]. *)
let reference_tokenize (src : string) : Parse.token list =
  let open Parse in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_digit c = c >= '0' && c <= '9' in
  let is_ident c = is_alpha c || is_digit c || c = '$' || c = '\'' in
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      let digits = String.sub src start (!i - start) in
      match int_of_string_opt digits with
      | Some v -> push (TInt v)
      | None -> raise (Error ("integer out of range: " ^ digits))
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      match String.lowercase_ascii word with
      | "forall" -> push TForall
      | "exists" -> push TExists
      | "and" when word = "and" -> push TAnd
      | "or" when word = "or" -> push TOr
      | "not" when word = "not" -> push TNot
      | "true" when word = "true" -> push TTrue
      | "false" when word = "false" -> push TFalse
      | _ ->
          if (c >= 'A' && c <= 'Z') || c = '_' then push (TVar word)
          else push (TIdent word)
    end
    else if c = '\'' || c = '"' then begin
      let quote = c in
      incr i;
      let buf = Buffer.create 8 in
      while !i < n && src.[!i] <> quote do
        Buffer.add_char buf src.[!i];
        incr i
      done;
      if !i >= n then raise (Error "unterminated quoted symbol");
      incr i;
      push (TQuoted (Buffer.contents buf))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      let three = if !i + 2 < n then String.sub src !i 3 else "" in
      let op t k =
        push t;
        i := !i + k
      in
      if three = "<->" || three = "<=>" then op TIff 3
      else if two = ":-" then op TTurnstile 2
      else if two = "->" || two = "=>" then op TArrow 2
      else if two = "/\\" then op TAnd 2
      else if two = "\\/" then op TOr 2
      else if two = "!=" || two = "<>" then op (TCmp Rule.Ne) 2
      else if two = "<=" then op (TCmp Rule.Le) 2
      else if two = ">=" then op (TCmp Rule.Ge) 2
      else
        match c with
        | '(' -> op TLparen 1
        | ')' -> op TRparen 1
        | ',' -> op TComma 1
        | '.' -> op TDot 1
        | '?' -> op TQuestion 1
        | '~' -> op TNot 1
        | '=' -> op (TCmp Rule.Eq) 1
        | '<' -> op (TCmp Rule.Lt) 1
        | '>' -> op (TCmp Rule.Gt) 1
        | _ -> raise (Error (Printf.sprintf "unexpected character %C" c))
    end
  done;
  List.rev (TEOF :: !toks)

(* Query-like texts: keywords in mixed case, every operator and its
   prefixes, quoted symbols (closed and not), comments, digits past the
   int range, and stray bytes. *)
let query_text_gen =
  let piece =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            oneofl
              [ "forall"; "FORALL"; "Exists"; "exists"; "and"; "And"; "or";
                "OR"; "not"; "Not"; "true"; "True"; "false"; "FALSE";
                "forallx"; "x"; "tid_1"; "Abc"; "_v"; "a$'b"; "Type";
                "Attr_i"; "0"; "42"; "007"; "99999999999999999999";
                "'quoted sym'"; "\"T12\""; "''"; "'open"; "\"open"; "(";
                ")"; ","; "."; "?"; "~"; "="; "<"; ">"; "<="; ">="; "<>";
                "!="; "<->"; "<=>"; "<-"; "->"; "=>"; ":-"; "/\\"; "\\/";
                "-"; ":"; "!"; "/"; "\\"; " "; "\t"; "\n"; "\r";
                "% a comment\n"; "%"; "@"; "\000"; "\xc3\xa9" ] );
          (1, map (String.make 1) printable);
          (1, map (String.make 1) char);
        ])
  in
  QCheck.Gen.(
    oneof
      [
        map (String.concat "") (list_size (int_range 0 25) piece);
        map (String.concat " ") (list_size (int_range 0 25) piece);
        string_size ~gen:printable (int_range 0 40);
      ])

let prop_tokenize_matches_reference =
  let run f src = try Ok (f src) with e -> Error (Printexc.to_string e) in
  QCheck.Test.make ~count:1000 ~long_factor:20
    ~name:"tokenizer = the reference tokenizer"
    (QCheck.make ~print:(Printf.sprintf "%S") query_text_gen)
    (fun src -> run Parse.tokenize src = run reference_tokenize src)

(* Whatever the bytes, the tokenizer answers tokens or [Parse.Error]. *)
let prop_tokenize_raises_only_error =
  QCheck.Test.make ~count:1000 ~long_factor:20
    ~name:"tokenizer raises nothing but Parse.Error"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(oneof [ string; query_text_gen; string_size ~gen:numeral nat ]))
    (fun src ->
      match Parse.tokenize src with
      | _ -> true
      | exception Parse.Error _ -> true)

(* A shape key ignores layout and constants (each slot's constant comes
   back in text order) and keeps everything else: variable names,
   predicates, operators, and a constant directly before '('. *)
let test_query_shape () =
  let shape src = Parse.query_shape (Parse.tokenize src) in
  let key src = fst (shape src) in
  let consts src = Array.to_list (snd (shape src)) in
  check_bool "layout and constants ignored" true
    (key "Type(T, 'a', S), X = 3" = key "Type( T ,\"b b\",S ),X=tid_1");
  check_bool "constants in text order" true
    (consts "Type(T, 'a', S), X = 3"
    = [ Term.symc "a"; Term.Int 3 ]);
  check_bool "variable names kept" false
    (key "Type(T, 'a', S)" = key "Type(T, 'a', S2)");
  check_bool "predicates kept" false (key "p(X, a)" = key "q(X, a)");
  check_bool "operators kept" false (key "X = 3" = key "X < 3");
  check_bool "negation kept" false (key "not p(X, a)" = key "p(X, a)");
  check_bool "a constant before '(' kept" false (key "'p'(X)" = key "'q'(X)");
  check_bool "terminators kept" false (key "p(X)." = key "p(X)?");
  check_int "no slot before '('" 0 (List.length (consts "p(X), 'q'(Y)"))

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                      *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t =
    Pretty.Table.make ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  let s = Pretty.Table.render t in
  check_bool "has separator" true (String.contains s '-');
  check_bool "aligned" true
    (List.length (String.split_on_char '\n' s) = 4)

let test_extension_table () =
  let db = Database.create () in
  ignore (Database.add db (fact "p" [ "a" ]));
  ignore (Database.add db (fact "p" [ "b" ]));
  ignore (Database.add db (fact "q" [ "c"; "d" ]));
  let s = Pretty.extension_table db [ "p"; "q" ] in
  check_int "three rows" 3 (List.length (String.split_on_char '\n' s))

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "datalog.term",
      [
        Alcotest.test_case "const ordering" `Quick test_const_order;
        Alcotest.test_case "fact equality" `Quick test_fact_equal;
        Alcotest.test_case "fact groundness" `Quick test_fact_ground;
        Alcotest.test_case "atom to fact" `Quick test_atom_to_fact;
        Alcotest.test_case "symbol interning" `Quick test_interning;
        qcheck prop_const_to_string_matches_fmt;
      ] );
    ( "datalog.database",
      [
        Alcotest.test_case "add/remove" `Quick test_db_add_remove;
        Alcotest.test_case "arity check" `Quick test_db_arity_check;
        Alcotest.test_case "copy independence" `Quick test_db_copy_independent;
        qcheck prop_overlay_equals_copy;
      ] );
    ( "datalog.rule",
      [
        Alcotest.test_case "normalize reorders" `Quick test_normalize_reorders;
        Alcotest.test_case "unsafe head" `Quick test_normalize_unsafe_head;
        Alcotest.test_case "unsafe negation" `Quick test_normalize_unsafe_neg;
        Alcotest.test_case "eq binding safe" `Quick test_eq_binding_is_safe;
      ] );
    ( "datalog.stratify",
      [
        Alcotest.test_case "negation layers" `Quick test_stratify_negation_layers;
        Alcotest.test_case "rejects neg cycle" `Quick test_stratify_rejects_neg_cycle;
        Alcotest.test_case "positive cycle ok" `Quick test_stratify_pos_cycle_ok;
      ] );
    ( "datalog.eval",
      [
        Alcotest.test_case "transitive closure" `Quick test_tc_chain;
        Alcotest.test_case "naive = semi-naive" `Quick test_tc_naive_matches_seminaive;
        Alcotest.test_case "negation" `Quick test_negation_eval;
        Alcotest.test_case "query" `Quick test_query;
        Alcotest.test_case "query_once" `Quick test_query_once;
        qcheck prop_indexing_agrees;
      ] );
    ( "datalog.plan",
      [
        Alcotest.test_case "small relation first" `Quick
          test_plan_small_relation_first;
        Alcotest.test_case "negation floats early" `Quick
          test_plan_negation_floats_early;
        Alcotest.test_case "comparison floats early" `Quick
          test_plan_comparison_floats_early;
        Alcotest.test_case "delta pinned first" `Quick
          test_plan_delta_pinned_first;
        Alcotest.test_case "no bound column" `Quick test_plan_no_bound_column;
        Alcotest.test_case "planner on = planner off" `Quick
          test_planner_equivalence;
        Alcotest.test_case "index bucket reclamation" `Quick
          test_index_remove_drops_empty_buckets;
      ] );
    ( "datalog.constraints",
      [
        Alcotest.test_case "nnf implies" `Quick test_nnf_implies;
        Alcotest.test_case "free vars" `Quick test_free_vars;
        Alcotest.test_case "rejects open formula" `Quick test_compile_rejects_open;
        Alcotest.test_case "compile uniqueness" `Quick test_compile_uniqueness;
        Alcotest.test_case "uniqueness violation" `Quick
          test_check_uniqueness_violation;
        Alcotest.test_case "existence" `Quick test_check_existence;
        Alcotest.test_case "acyclicity" `Quick test_check_acyclicity;
        Alcotest.test_case "nested forall" `Quick test_compile_nested_forall;
        Alcotest.test_case "tautology" `Quick test_tautology_compiles_to_nothing;
      ] );
    ( "datalog.theory",
      [
        Alcotest.test_case "duplicate constraint" `Quick
          test_theory_duplicate_constraint;
        Alcotest.test_case "remove constraint" `Quick test_theory_remove_constraint;
        Alcotest.test_case "constraint deps" `Quick test_theory_deps;
        Alcotest.test_case "affected constraints" `Quick test_affected_constraints;
        qcheck prop_affected_index_matches_filter;
      ] );
    ( "datalog.delta",
      [
        Alcotest.test_case "effective apply/invert" `Quick
          test_delta_apply_effective;
        Alcotest.test_case "arity pre-check" `Quick test_delta_arity_precheck;
      ] );
    ( "datalog.incremental",
      [
        Alcotest.test_case "additions" `Quick test_incremental_additions;
        Alcotest.test_case "deletions" `Quick test_incremental_deletions;
        Alcotest.test_case "affected = full" `Quick test_check_affected_matches_full;
        Alcotest.test_case "affected leaves the base" `Quick
          test_check_affected_leaves_base;
        qcheck prop_incremental_equals_scratch;
        qcheck prop_incremental_negation;
        qcheck prop_incremental_mixed;
      ] );
    ( "datalog.semantics",
      [ qcheck prop_compiler_matches_reference ] );
    ( "datalog.parse",
      [
        Alcotest.test_case "rule" `Quick test_parse_rule;
        Alcotest.test_case "fact rule" `Quick test_parse_fact_rule;
        Alcotest.test_case "query" `Quick test_parse_query;
        Alcotest.test_case "formula" `Quick test_parse_formula_text;
        Alcotest.test_case "quoted symbols" `Quick test_parse_quoted_symbols;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        qcheck prop_formula_print_parse;
        qcheck prop_tokenize_matches_reference;
        qcheck prop_tokenize_raises_only_error;
        Alcotest.test_case "query shapes" `Quick test_query_shape;
      ] );
    ( "datalog.repair",
      [
        Alcotest.test_case "derivation tree" `Quick test_derivation_tree;
        Alcotest.test_case "no derivation of absent" `Quick test_derivation_absent;
        Alcotest.test_case "uniqueness repairs" `Quick test_repair_uniqueness;
        Alcotest.test_case "existence add repair" `Quick test_repair_existence_add;
        Alcotest.test_case "repairs fix violation" `Quick test_repair_fixes_violation;
      ] );
    ( "datalog.pretty",
      [
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "extension table" `Quick test_extension_table;
      ] );
  ]

let () = Alcotest.run "datalog" suite
