(* Integration tests for the schema manager: evolution sessions (BES/EES),
   deferred checking, repair generation and execution via the Runtime System
   (conversion), rollback, interpretation of operation code, and fashion
   masking across schema versions — the section 3.5 protocol and the
   section 4.1/4.2 scenarios end to end. *)

open Core
module Value = Runtime.Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* A manager with the CarSchema loaded and committed. *)
let manager_with_cars () =
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "car schema inconsistent: %s"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs)));
  m

let tid_of m name =
  Option.get
    (Gom.Schema_base.find_type_at (Manager.database m) ~type_name:name
       ~schema_name:"CarSchema")

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let test_load_car_schema () =
  let m = manager_with_cars () in
  check_bool "session closed" false (Manager.in_session m)

let test_modify_outside_session_rejected () =
  let m = Manager.create () in
  check_bool "raises" true
    (try
       Manager.propose m Datalog.Delta.empty;
       false
     with Manager.No_session -> true)

let test_double_begin_rejected () =
  let m = Manager.create () in
  Manager.begin_session m;
  check_bool "raises" true
    (try
       Manager.begin_session m;
       false
     with Manager.Session_open -> true)

let test_deferred_checking_allows_intermediate_inconsistency () =
  (* Inside a session the schema may pass through inconsistent states: add
     an attribute with a dangling domain, then fix it, then EES. *)
  let m = manager_with_cars () in
  Manager.begin_session m;
  Manager.run_commands m "add type Fuel2 to CarSchema;";
  Manager.run_commands m "add attribute kind : Fuel2 to Car@CarSchema;";
  (* still open: no check has happened; now EES *)
  match Manager.end_session m with
  | Manager.Inconsistent _ ->
      (* Car has instances?  No objects yet, so only schema constraints
         apply; the schema is actually consistent here. *)
      Alcotest.fail "expected consistent"
  | Manager.Consistent -> ()

let test_session_rollback () =
  let m = manager_with_cars () in
  let before = Datalog.Database.total (Manager.database m) in
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  Manager.run_commands m "delete attribute age from Person@CarSchema;";
  Manager.rollback m;
  check_int "database restored" before
    (Datalog.Database.total (Manager.database m));
  check_bool "session closed" false (Manager.in_session m)

(* ------------------------------------------------------------------ *)
(* Runtime: objects and interpreted operations                         *)
(* ------------------------------------------------------------------ *)

let make_car m =
  let rt = Manager.runtime m in
  let car = Runtime.new_object rt ~tid:(tid_of m "Car") in
  let person = Runtime.new_object rt ~tid:(tid_of m "Person") in
  let city1 = Runtime.new_object rt ~tid:(tid_of m "City") in
  let city2 = Runtime.new_object rt ~tid:(tid_of m "City") in
  Runtime.set rt city1 ~attr:"longi" ~value:(Value.Float 0.0);
  Runtime.set rt city1 ~attr:"lati" ~value:(Value.Float 0.0);
  Runtime.set rt city2 ~attr:"longi" ~value:(Value.Float 3.0);
  Runtime.set rt city2 ~attr:"lati" ~value:(Value.Float 4.0);
  Runtime.set rt car ~attr:"owner" ~value:person;
  Runtime.set rt car ~attr:"location" ~value:city1;
  Runtime.set rt car ~attr:"milage" ~value:(Value.Float 100.0);
  rt, car, person, city1, city2

let test_object_creation_reports_phrep () =
  let m = manager_with_cars () in
  let db = Manager.database m in
  check_bool "no car phrep yet" true
    (Gom.Schema_base.phrep_of_type db ~tid:(tid_of m "Car") = None);
  let _ = make_car m in
  check_bool "car phrep reported" true
    (Gom.Schema_base.phrep_of_type db ~tid:(tid_of m "Car") <> None);
  (* object creation must leave the full model consistent *)
  check_bool "still consistent" true
    (Datalog.Checker.is_consistent (Manager.theory m) db)

let test_change_location_executes () =
  let m = manager_with_cars () in
  let rt, car, person, _city1, city2 = make_car m in
  (* distance (0,0) -> (3,4) in the squared-distance implementation is 25 *)
  let result =
    Runtime.send rt car ~op:"changeLocation" ~args:[ person; city2 ]
  in
  check_bool "milage updated" true (Value.equal result (Value.Float 125.0));
  check_bool "location updated" true
    (Value.equal (Runtime.get rt car ~attr:"location") city2)

let test_change_location_wrong_driver () =
  let m = manager_with_cars () in
  let rt, car, _person, _c1, city2 = make_car m in
  let stranger = Runtime.new_object rt ~tid:(tid_of m "Person") in
  let result =
    Runtime.send rt car ~op:"changeLocation" ~args:[ stranger; city2 ]
  in
  check_bool "refused" true (Value.equal result (Value.Float (-1.0)))

let test_dynamic_binding_refinement () =
  (* distance called on a City value dispatches to the City refinement, even
     through the changeLocation code of Car. *)
  let m = manager_with_cars () in
  let rt, _, _, city1, city2 = make_car m in
  Runtime.set rt city1 ~attr:"name" ~value:(Value.Str "nowhere");
  (* City's refinement returns 0.0 when the receiver is named "nowhere" *)
  let d = Runtime.send rt city1 ~op:"distance" ~args:[ city2 ] in
  check_bool "refined implementation ran" true (Value.equal d (Value.Float 0.0))

let test_delete_last_object_retires_phrep () =
  let m = manager_with_cars () in
  let rt = Manager.runtime m in
  let p = Runtime.new_object rt ~tid:(tid_of m "Person") in
  let db = Manager.database m in
  check_bool "phrep present" true
    (Gom.Schema_base.phrep_of_type db ~tid:(tid_of m "Person") <> None);
  (match p with
  | Value.Obj oid -> ignore (Runtime.delete_object rt ~oid)
  | _ -> Alcotest.fail "expected object");
  check_bool "phrep retired" true
    (Gom.Schema_base.phrep_of_type db ~tid:(tid_of m "Person") = None)

let test_runtime_error_on_unknown_attr () =
  let m = manager_with_cars () in
  let rt, car, _, _, _ = make_car m in
  check_bool "raises" true
    (try
       ignore (Runtime.get rt car ~attr:"wings");
       false
     with Runtime.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* The section 3.5 repair protocol                                     *)
(* ------------------------------------------------------------------ *)

let test_fueltype_protocol_with_conversion () =
  let m = manager_with_cars () in
  let rt, car, _, _, _ = make_car m in
  (* the user proposes the fuelType addition and suggests to end the
     session (protocol steps 1-3) *)
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  (* step 4-5: the check detects the schema/object inconsistency *)
  (match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected inconsistency"
  | Manager.Inconsistent (r :: _) ->
      check_string "star constraint" "star$SlotForEveryAttr"
        r.Manager.violation.Datalog.Checker.constraint_name;
      (* step 6-7: repairs with explanations *)
      let repairs = Manager.repairs_for m r.Manager.violation in
      check_bool "three repairs" true (List.length repairs >= 3);
      let conversion =
        List.find
          (fun (rep, _) ->
            match rep with
            | [ Datalog.Repair.Add f ] -> f.Datalog.Fact.pred = "Slot"
            | _ -> false)
          repairs
      in
      let _, explanations = conversion in
      check_bool "explained as conversion" true
        (List.exists (fun e -> contains e "conversion") explanations);
      (* steps 8-9: the user chooses the conversion *)
      Manager.execute_repair m
        ~fill:(fun _ -> Value.Str "leaded")
        (fst conversion);
      (match Manager.end_session m with
      | Manager.Consistent -> ()
      | Manager.Inconsistent _ -> Alcotest.fail "conversion did not repair")
  | Manager.Inconsistent [] -> Alcotest.fail "impossible");
  (* the conversion actually wrote the slot of the existing car *)
  check_bool "object converted" true
    (Value.equal (Runtime.get rt car ~attr:"fuelType") (Value.Str "leaded"))

let test_fueltype_protocol_rollback () =
  let m = manager_with_cars () in
  let _ = make_car m in
  let before = Datalog.Database.total (Manager.database m) in
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  (match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected inconsistency"
  | Manager.Inconsistent _ -> Manager.rollback m);
  check_int "database restored" before
    (Datalog.Database.total (Manager.database m))

let test_delete_all_instances_repair () =
  let m = manager_with_cars () in
  let rt, _, _, _, _ = make_car m in
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected inconsistency"
  | Manager.Inconsistent (r :: _) ->
      let repairs = Manager.repairs_for m r.Manager.violation in
      let delete_instances =
        List.find
          (fun (rep, _) ->
            match rep with
            | [ Datalog.Repair.Del f ] -> f.Datalog.Fact.pred = "PhRep"
            | _ -> false)
          repairs
      in
      Manager.execute_repair m (fst delete_instances);
      (match Manager.end_session m with
      | Manager.Consistent -> ()
      | Manager.Inconsistent _ -> Alcotest.fail "repair did not work");
      check_int "all cars deleted" 0
        (Runtime.Object_store.count_of_type (Runtime.store rt)
           ~tid:(tid_of m "Car"))
  | Manager.Inconsistent [] -> Alcotest.fail "impossible"

let test_end_session_with_driver () =
  let m = manager_with_cars () in
  let _ = make_car m in
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  let outcome =
    Manager.end_session_with m ~choose:(fun _report repairs ->
        match
          List.find_opt
            (fun (rep, _) ->
              match rep with
              | [ Datalog.Repair.Add f ] -> f.Datalog.Fact.pred = "Slot"
              | _ -> false)
            repairs
        with
        | Some (rep, _) -> Manager.Choose_repair rep
        | None -> Manager.Choose_rollback)
  in
  check_bool "driver converged" true (outcome = Manager.Consistent)

(* ------------------------------------------------------------------ *)
(* Section 4.2: the NewCarSchema scenario with fashion masking         *)
(* ------------------------------------------------------------------ *)

let new_car_fashion =
  {|
bes;
fashion Car@CarSchema as PolluterCar@NewCarSchema where
  owner : Person@NewCarSchema is self.owner;
  maxspeed : float is self.maxspeed;
  milage : float is self.milage;
  location : City@NewCarSchema is self.location;
  fuel is begin return leaded; end;
  changeLocation(driver, newLocation) is
    begin return self.changeLocation(driver, newLocation); end;
end fashion;
ees;
|}

let manager_with_evolved_schema () =
  let m = manager_with_cars () in
  let rt, car, person, city1, city2 = make_car m in
  (match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "4.2 scenario inconsistent: %s"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs)));
  m, rt, car, person, city1, city2

let test_scenario_42_runs () = ignore (manager_with_evolved_schema ())

let test_fashion_masks_old_cars () =
  let m, rt, car, person, _city1, city2 = manager_with_evolved_schema () in
  (match Manager.run_script m new_car_fashion with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "fashion inconsistent: %s"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs)));
  (* the old car answers the NEW interface: fuel is imitated *)
  let fuel = Runtime.send rt car ~op:"fuel" ~args:[] in
  (match fuel with
  | Value.Enum (_, "leaded") -> ()
  | v -> Alcotest.failf "expected leaded, got %s" (Value.to_string v));
  (* and its own behaviour still works through the imitation *)
  let result =
    Runtime.send rt car ~op:"changeLocation" ~args:[ person; city2 ]
  in
  check_bool "milage updated through imitation" true
    (Value.equal result (Value.Float 125.0));
  (* substitutability is recorded *)
  let db = Manager.database m in
  let polluter =
    Option.get
      (Gom.Schema_base.find_type_at db ~type_name:"PolluterCar"
         ~schema_name:"NewCarSchema")
  in
  check_bool "substitutable" true
    (Runtime.Masking.substitutable db
       ~actual:(tid_of m "Car")
       ~expected:polluter)

let test_incomplete_fashion_rejected () =
  let m, _, _, _, _, _ = manager_with_evolved_schema () in
  let incomplete =
    {|
bes;
fashion Car@CarSchema as PolluterCar@NewCarSchema where
  fuel is begin return leaded; end;
end fashion;
ees;
|}
  in
  match Manager.run_script m incomplete with
  | Manager.Consistent -> Alcotest.fail "expected completeness violation"
  | Manager.Inconsistent rs ->
      check_bool "attr completeness" true
        (List.exists
           (fun r ->
             r.Manager.violation.Datalog.Checker.constraint_name
             = "fashion$AttrComplete")
           rs);
      Manager.rollback m

(* ------------------------------------------------------------------ *)
(* Section 4.1: the Person birthday masking                            *)
(* ------------------------------------------------------------------ *)

let test_person_birthday_masking () =
  let m = manager_with_cars () in
  let rt = Manager.runtime m in
  let person = Runtime.new_object rt ~tid:(tid_of m "Person") in
  Runtime.set rt person ~attr:"age" ~value:(Value.Int 30);
  let script =
    {|
bes;
add schema NewCarSchema;
evolve schema CarSchema to NewCarSchema;
add type Person to NewCarSchema;
add attribute name : string to Person@NewCarSchema;
add attribute birthday : date to Person@NewCarSchema;
evolve type Person@CarSchema to Person@NewCarSchema;
fashion Person@CarSchema as Person@NewCarSchema where
  birthday : -> date is begin return 1993 - self.age; end;
  birthday : <- date is begin self.age := 1993 - value; end;
  name : string is self.name;
end fashion;
ees;
|}
  in
  (match Manager.run_script m script with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "birthday fashion inconsistent: %s"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs)));
  (* reading the non-existing birthday attribute is redirected *)
  check_bool "birthday derived from age" true
    (Value.equal (Runtime.get rt person ~attr:"birthday") (Value.Int 1963));
  (* writing it updates age *)
  Runtime.set rt person ~attr:"birthday" ~value:(Value.Int 1953);
  check_bool "age derived from birthday" true
    (Value.equal (Runtime.get rt person ~attr:"age") (Value.Int 40))

(* ------------------------------------------------------------------ *)
(* Changing the definition of consistency (section 2.1 goal)           *)
(* ------------------------------------------------------------------ *)

let test_restrict_to_single_inheritance () =
  (* "some project leader might want to restrain inheritance to single
     inheritance" — add one constraint, no other module changes. *)
  let m = manager_with_cars () in
  Datalog.Theory.add_constraint (Manager.theory m) ~name:"user$SingleInheritance"
    Datalog.Formula.(
      forall [ "T"; "S1"; "S2" ]
        (atom "SubTypRel" [ Datalog.Term.var "T"; Datalog.Term.var "S1" ]
        &&& atom "SubTypRel" [ Datalog.Term.var "T"; Datalog.Term.var "S2" ]
        ==> eq (Datalog.Term.var "S1") (Datalog.Term.var "S2")));
  Manager.begin_session m;
  Manager.run_commands m "add type Amphibian to CarSchema supertype Car@CarSchema, Location@CarSchema;";
  (match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected single-inheritance violation"
  | Manager.Inconsistent rs ->
      check_bool "user constraint fired" true
        (List.exists
           (fun r ->
             r.Manager.violation.Datalog.Checker.constraint_name
             = "user$SingleInheritance")
           rs));
  Manager.rollback m;
  (* removing the constraint restores the old notion of consistency *)
  check_bool "removed" true
    (Datalog.Theory.remove_constraint (Manager.theory m) "user$SingleInheritance")

(* ------------------------------------------------------------------ *)
(* The whole DRed-maintained state, which a read builds, must agree    *)
(* with a fresh materialization                                         *)
(* ------------------------------------------------------------------ *)

(* The car schema with its derived state read once: from then on the
   manager keeps the whole program maintained and checks off it. *)
let manager_with_cars_read () =
  let m = manager_with_cars () in
  ignore (Manager.materialized m);
  m

let test_maintained_protocol () =
  (* the whole fuelType protocol under the maintained materialization *)
  let m = manager_with_cars_read () in
  let rt, car, _, _, _ = make_car m in
  Manager.begin_session m;
  Manager.run_commands m "add attribute fuelType : string to Car@CarSchema;";
  (match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected inconsistency"
  | Manager.Inconsistent (r :: _) ->
      let repairs = Manager.repairs_for m r.Manager.violation in
      let conversion =
        List.find
          (fun (rep, _) ->
            match rep with
            | [ Datalog.Repair.Add f ] -> f.Datalog.Fact.pred = "Slot"
            | _ -> false)
          repairs
      in
      Manager.execute_repair m
        ~fill:(fun _ -> Value.Str "leaded")
        (fst conversion);
      (match Manager.end_session m with
      | Manager.Consistent -> ()
      | Manager.Inconsistent _ -> Alcotest.fail "conversion did not repair")
  | Manager.Inconsistent [] -> Alcotest.fail "impossible");
  check_bool "object converted" true
    (Value.equal (Runtime.get rt car ~attr:"fuelType") (Value.Str "leaded"))

let test_maintained_scenario_42 () =
  let m = manager_with_cars_read () in
  match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "inconsistent off the maintained state: %s"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs))

let test_maintained_survives_theory_change () =
  (* adding a constraint drops the maintained state; the next read
     rebuilds it under the new theory *)
  let m = manager_with_cars_read () in
  Datalog.Theory.add_constraint (Manager.theory m) ~name:"user$NoTrucks"
    Datalog.Formula.(
      forall [ "T"; "S" ]
        (atom "Type"
           [ Datalog.Term.var "T"; Datalog.Term.sym "Truck"; Datalog.Term.var "S" ]
        ==> Datalog.Formula.False));
  check_bool "consistent after the change" true (Manager.check_now m = []);
  Manager.begin_session m;
  Manager.run_commands m "add type Truck to CarSchema;";
  (match Manager.end_session m with
  | Manager.Consistent -> Alcotest.fail "expected user$NoTrucks"
  | Manager.Inconsistent rs ->
      check_bool "fires after rebuild" true
        (List.exists
           (fun r ->
             r.Manager.violation.Datalog.Checker.constraint_name
             = "user$NoTrucks")
           rs));
  Manager.rollback m;
  check_bool "rollback clean" true
    (match Manager.end_session m with
    | exception Manager.No_session -> true
    | _ -> false)

let norm_violations vs =
  List.map
    (fun (v : Datalog.Checker.violation) ->
      (v.Datalog.Checker.constraint_name, v.Datalog.Checker.witness))
    vs
  |> List.sort_uniq compare

(* Every derived fact of a materialization, sorted. *)
let derived_facts db =
  List.concat_map (Datalog.Database.facts db) (Datalog.Database.predicates db)
  |> List.sort_uniq Datalog.Fact.compare

(* The manager, a session open on a read manager, against the fresh
   oracles: its derived state inside the session equals
   [Checker.materialize]'s, its EES verdict (read off the whole maintained
   state) equals [Checker.check]'s, and once the session is over —
   committed, or undone when EES rejected it — so do its derived state and
   a check outside a session. *)
let agrees_with_fresh m =
  let theory = Manager.theory m and db () = Manager.database m in
  let fresh () = derived_facts (Datalog.Checker.materialize theory (db ()))
  and oracle () = norm_violations (Datalog.Checker.check theory (db ()))
  and reports rs =
    norm_violations (List.map (fun r -> r.Manager.violation) rs)
  in
  let in_session = derived_facts (Manager.materialized m) = fresh () in
  let expected = oracle () in
  let verdict =
    match Manager.end_session m with
    | Manager.Consistent -> []
    | Manager.Inconsistent rs -> reports rs
  in
  if Manager.in_session m then Manager.rollback m;
  in_session && verdict = expected
  && reports (Manager.check_now m) = oracle ()
  && derived_facts (Manager.materialized m) = fresh ()

(* Property: random evolution scripts sent through [Manager.run_commands]
   in one session, each command's delta applied by DRed to the whole
   maintained state, leave what a fresh materialization derives. *)
let prop_maintained_equals_full =
  let cmd_gen =
    QCheck.Gen.(
      oneofl
        [
          "add attribute extra : float to Car@CarSchema;";
          "add attribute extra2 : Missing to Person@CarSchema;";
          "delete attribute age from Person@CarSchema;";
          "delete attribute longi from Location@CarSchema;";
          "add type Extra to CarSchema;";
          "add type Extra to CarSchema supertype Car@CarSchema;";
          "delete type City@CarSchema;";
          "rename type Car@CarSchema to Auto;";
          "add supertype Person@CarSchema to Car@CarSchema;";
          "delete operation distance from Location@CarSchema;";
        ])
  in
  QCheck.Test.make ~count:25 ~name:"DRed = fresh, evolution scripts"
    QCheck.(make Gen.(list_size (int_range 1 5) cmd_gen))
    (fun cmds ->
      let m = manager_with_cars_read () in
      Manager.begin_session m;
      List.iter (fun c -> try Manager.run_commands m c with _ -> ()) cmds;
      agrees_with_fresh m)

(* Property: mixed deltas over recursive strata.  Each proposal is one
   delta that deletes existing subtype edges and attributes of the car
   schema — so facts that join are deleted together — and inserts new
   ones in the same apply, re-inserting some of what it deletes: present
   before and after, yet in both halves of the delta, the case the DRed
   pre-update view must see as present.  Sent through [Manager.propose]
   in one session, they leave what a fresh materialization derives. *)
let prop_maintained_mixed_deltas =
  let types = [ "Person"; "Location"; "City"; "Car" ] in
  let add_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun a b -> `Sub (a, b)) (oneofl types) (oneofl types);
          map2 (fun a n -> `Attr (a, n)) (oneofl types) (oneofl [ "z1"; "z2" ]);
        ])
  in
  let delta_gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 3) nat)
        (list_size (int_range 0 3) add_gen)
        (int_bound 3))
  in
  QCheck.Test.make ~count:40 ~name:"DRed = fresh, mixed deltas"
    QCheck.(make Gen.(list_size (int_range 1 4) delta_gen))
    (fun proposals ->
      let m = manager_with_cars_read () in
      let add = function
        | `Sub (a, b) ->
            Gom.Preds.subtyprel_fact ~sub:(tid_of m a) ~super:(tid_of m b)
        | `Attr (a, n) ->
            Gom.Preds.attr_fact ~tid:(tid_of m a) ~name:n ~domain:"tid_int"
      in
      Manager.begin_session m;
      List.iter
        (fun (dels, adds, readd) ->
          let db = Manager.database m in
          let tids = List.map (fun n -> Datalog.Term.symc (tid_of m n)) types in
          let existing =
            Datalog.Database.facts db "SubTypRel"
            @ Datalog.Database.facts db "Attr"
            |> List.filter (fun (f : Datalog.Fact.t) ->
                   List.mem f.Datalog.Fact.args.(0) tids)
            |> List.sort Datalog.Fact.compare |> Array.of_list
          in
          let dels =
            List.map (fun i -> existing.(i mod Array.length existing)) dels
          in
          (* the first [readd] deletions are also re-inserted *)
          let readd = List.filteri (fun i _ -> i < readd) dels in
          Manager.propose m
            (Datalog.Delta.of_lists
               ~additions:(List.map add adds @ readd)
               ~deletions:dels))
        proposals;
      agrees_with_fresh m)

(* Property: one derived state, shaped by reads.  Random session sequences
   with broker reads in and between them; at every EES the check — from
   scratch, building the retained cone, reading a retained one, or reading
   the whole state a read built — must equal [Checker.check] and a
   from-scratch evaluation of the cone, and every read must answer what a
   fresh materialization answers. *)
type cone_step =
  | Toggle of int  (* add attribute [a<k>] to Plain, or delete it *)
  | Chain of int  (* add a chain of types below Plain *)
  | Bad of [ `Rollback | `Fix | `Repair ]
      (* an attribute Car's instances lack: rejected, then undone *)
  | Rolled_back  (* a session undone without EES *)
  | Disconnected  (* a session its client abandons: the broker rolls back *)
  | New_constraint  (* between sessions: bumps the theory revision *)
  | Read of [ `Query | `Check ] * bool
      (* a broker read; inside a session (around a toggle) when [true] *)

let cone_step_to_string = function
  | Toggle k -> Printf.sprintf "toggle %d" k
  | Chain n -> Printf.sprintf "chain %d" n
  | Bad `Rollback -> "bad/rollback"
  | Bad `Fix -> "bad/fix"
  | Bad `Repair -> "bad/repair"
  | Rolled_back -> "rolled back"
  | Disconnected -> "disconnected"
  | New_constraint -> "new constraint"
  | Read (what, inside) ->
      Printf.sprintf "read %s%s"
        (match what with `Query -> "query" | `Check -> "check")
        (if inside then " in a session" else "")

let prop_retained_cone_equals_full =
  let step_gen =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun k -> Toggle k) (int_bound 2));
          (2, map (fun n -> Chain n) (int_range 1 3));
          (2, map (fun o -> Bad o) (oneofl [ `Rollback; `Fix; `Repair ]));
          (1, return Rolled_back);
          (1, return Disconnected);
          (1, return New_constraint);
          (2, map2 (fun w i -> Read (w, i)) (oneofl [ `Query; `Check ]) bool);
        ])
  in
  QCheck.Test.make ~count:30 ~long_factor:10
    ~name:"retained-cone Affected check = Full check = from-scratch cone"
    QCheck.(
      make
        ~print:(fun steps -> String.concat "; " (List.map cone_step_to_string steps))
        Gen.(list_size (int_range 2 14) step_gen))
    (fun steps ->
      let m = manager_with_cars () in
      let _ = make_car m in
      Manager.begin_session m;
      Manager.run_commands m "add type Plain to CarSchema;";
      ignore (Manager.end_session m);
      let broker =
        Server.Broker.create ~metrics:(Server.Metrics.create ()) m
      in
      let attrs = Hashtbl.create 4 in
      let norm = norm_violations in
      (* one EES, checked against both references first *)
      let ees () =
        let theory = Manager.theory m and db = Manager.database m in
        let delta = Manager.session_delta m in
        let affected =
          Datalog.Theory.affected_constraints theory
            ~changed_preds:(Datalog.Delta.changed_preds delta)
          |> List.map (fun c -> c.Datalog.Constraint_compile.name)
        in
        let full = norm (Datalog.Checker.check theory db) in
        let scratch = norm (Datalog.Incremental.check_affected theory db ~delta) in
        let outcome = Manager.end_session m in
        let got =
          match outcome with
          | Manager.Consistent -> []
          | Manager.Inconsistent rs ->
              norm (List.map (fun r -> r.Manager.violation) rs)
        in
        if got <> scratch then QCheck.Test.fail_report "cone <> from-scratch cone";
        if got <> full then
          QCheck.Test.fail_reportf "cone <> Full (affected: %s)"
            (String.concat "," affected);
        outcome
      in
      let toggle k =
        let name = Printf.sprintf "a%d" k in
        if Hashtbl.mem attrs name then begin
          Hashtbl.remove attrs name;
          Printf.sprintf "delete attribute %s from Plain@CarSchema;" name
        end
        else begin
          Hashtbl.replace attrs name ();
          Printf.sprintf "add attribute %s : int to Plain@CarSchema;" name
        end
      in
      List.iteri
        (fun i step ->
          match step with
          | Toggle k ->
              Manager.begin_session m;
              Manager.run_commands m (toggle k);
              if ees () <> Manager.Consistent then
                QCheck.Test.fail_report "toggle rejected"
          | Chain n ->
              Manager.begin_session m;
              for j = 1 to n do
                let super =
                  if j = 1 then "Plain" else Printf.sprintf "X%d_%d" i (j - 1)
                in
                Manager.run_commands m
                  (Printf.sprintf
                     "add type X%d_%d to CarSchema supertype %s@CarSchema;" i
                     j super)
              done;
              if ees () <> Manager.Consistent then
                QCheck.Test.fail_report "chain rejected"
          | Bad outcome -> (
              Manager.begin_session m;
              let attr = Printf.sprintf "fuel%d" i in
              Manager.run_commands m
                (Printf.sprintf "add attribute %s : string to Car@CarSchema;"
                   attr);
              match ees () with
              | Manager.Consistent -> QCheck.Test.fail_report "bad accepted"
              | Manager.Inconsistent (r :: _) -> (
                  match outcome with
                  | `Rollback -> Manager.rollback m
                  | `Fix ->
                      Manager.run_commands m
                        (Printf.sprintf "delete attribute %s from Car@CarSchema;"
                           attr);
                      if ees () <> Manager.Consistent then
                        QCheck.Test.fail_report "fix rejected"
                  | `Repair ->
                      let slot =
                        List.find
                          (fun (rep, _) ->
                            match rep with
                            | [ Datalog.Repair.Add f ] ->
                                f.Datalog.Fact.pred = "Slot"
                            | _ -> false)
                          (Manager.repairs_for m r.Manager.violation)
                      in
                      Manager.execute_repair m (fst slot);
                      if ees () <> Manager.Consistent then
                        QCheck.Test.fail_report "repair rejected")
              | Manager.Inconsistent [] -> assert false)
          | Rolled_back ->
              Manager.begin_session m;
              Manager.run_commands m (toggle 0);
              Manager.rollback m;
              (* the rollback undid the toggle *)
              ignore (toggle 0)
          | Disconnected ->
              let client = 1000 + i in
              let ok req =
                match (Server.Broker.handle broker ~client req).status with
                | Server.Protocol.Ok -> ()
                | Server.Protocol.Err e -> QCheck.Test.fail_report e
              in
              ok Server.Protocol.Bes;
              ok (Server.Protocol.Script_line (toggle 1));
              Server.Broker.disconnect broker ~client;
              ignore (toggle 1)
          | Read (what, inside) ->
              if inside then begin
                Manager.begin_session m;
                Manager.run_commands m (toggle 2)
              end;
              let theory = Manager.theory m and db = Manager.database m in
              let fresh = Datalog.Checker.materialize theory db in
              let const = Datalog.Term.const_to_string in
              let pairs sep bindings =
                String.concat ", "
                  (List.map
                     (fun (v, c) -> Printf.sprintf "%s%s%s" v sep (const c))
                     bindings)
              in
              let expected, request =
                match what with
                | `Query ->
                    let text = "Attr_i(T, A, D), Type(T, N, S)" in
                    let answers = Manager.query_text ~materialized:fresh m text in
                    ( List.map (fun bs -> "  " ^ pairs " = " bs) answers
                      @ [ Printf.sprintf "%d answer(s)." (List.length answers) ],
                      Server.Protocol.Query text )
                | `Check ->
                    ( (match Datalog.Checker.violations_of theory fresh with
                      | [] -> [ "consistent." ]
                      | vs ->
                          List.map
                            (fun v ->
                              Printf.sprintf
                                "violation: constraint %s violated [%s]"
                                v.Datalog.Checker.constraint_name
                                (pairs " = "
                                   (Datalog.Checker.witness_bindings v)))
                            vs),
                      Server.Protocol.Check )
              in
              (* the steps change the manager behind the broker's back: an
                 exclusive section moves its version, as the replica's
                 applier does, so the response cache cannot answer *)
              Server.Broker.exclusively broker ignore;
              let resp = Server.Broker.handle broker ~client:7 request in
              (* as sets: the order of answers follows each database's
                 relation layout *)
              if
                List.sort compare resp.Server.Protocol.body
                <> List.sort compare expected
              then QCheck.Test.fail_report "read <> fresh materialization";
              if inside && ees () <> Manager.Consistent then
                QCheck.Test.fail_report "toggle after a read rejected"
          | New_constraint ->
              Datalog.Theory.add_constraint (Manager.theory m)
                ~name:(Printf.sprintf "user$Unnamed%d" i)
                Datalog.Formula.(
                  forall [ "T"; "S" ]
                    (atom "Type"
                       [
                         Datalog.Term.var "T";
                         Datalog.Term.sym "NoSuchType";
                         Datalog.Term.var "S";
                       ]
                    ==> Datalog.Formula.False)))
        steps;
      true)

(* Property: a session's commands analyzed over one overlay of the
   committed base, each adding its changes to it (as the broker's session
   does), give what analyzing each over a copy of the base with the
   session's earlier deltas re-applied gives — the analysis before the
   overlay, kept here as the oracle: the same delta, diagnostics and code
   ASTs per command, the same identifiers drawn, the same working state
   at the end; and the base is left as it was. *)
let overlay_command_gen =
  let open QCheck.Gen in
  let ty =
    oneofl [ "Car"; "Person"; "City"; "Location"; "X0"; "X1"; "Gone" ]
  in
  let attr = oneofl [ "a0"; "a1"; "age"; "name"; "milage" ] in
  let domain = oneofl [ "int"; "string"; "Person@CarSchema"; "X0@CarSchema" ] in
  oneof
    [
      return "add schema Second;";
      map (Printf.sprintf "add type X%d to CarSchema;") (int_bound 1);
      map2 (Printf.sprintf "add type X%d to CarSchema supertype %s@CarSchema;")
        (int_bound 1) ty;
      map3 (Printf.sprintf "add attribute %s : %s to %s@CarSchema;") attr domain ty;
      map2 (Printf.sprintf "delete attribute %s from %s@CarSchema;") attr ty;
      map2 (Printf.sprintf "add supertype %s@CarSchema to %s@CarSchema;") ty ty;
      map2 (Printf.sprintf "delete supertype %s@CarSchema from %s@CarSchema;") ty ty;
      map2 (Printf.sprintf "rename type %s@CarSchema to %s;") ty ty;
      map (Printf.sprintf "delete type %s@CarSchema;") ty;
      map (Printf.sprintf "copy type %s@CarSchema to Second;") ty;
      map2 (Printf.sprintf "evolve type %s@CarSchema to %s@CarSchema;") ty ty;
      return "delete operation distance from Location@CarSchema;";
      map (Printf.sprintf "add operation fuel : -> int to %s@CarSchema;") ty;
      map
        (Printf.sprintf
           "set code of fuel of %s@CarSchema is begin return 1; end;")
        ty;
    ]

(* The newest binding [results] made for [cid], else the committed one:
   the broker session's code lookup. *)
let session_lookup m results cid =
  match
    List.find_map
      (fun r -> List.assoc_opt cid (List.rev r.Analyzer.code_asts))
      results
  with
  | Some c -> Some c
  | None -> Manager.lookup_code m cid

let prop_overlay_analysis_equals_copy =
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"analysis over the overlay = analysis over a copy"
    QCheck.(
      make
        ~print:(String.concat " ")
        Gen.(list_size (int_range 1 8) overlay_command_gen))
    (fun texts ->
      let m = manager_with_cars () in
      let db = Manager.database m in
      let sorted = List.sort Datalog.Fact.compare in
      let before = sorted (Datalog.Database.all_facts db) in
      let commands = List.concat_map Analyzer.parse_commands texts in
      let ids_over = Gom.Ids.copy (Manager.ids m)
      and ids_copy = Gom.Ids.copy (Manager.ids m) in
      let over = Datalog.Database.overlay db in
      let run analyze =
        List.fold_left
          (fun results cmd -> analyze results cmd :: results)
          [] commands
        |> List.rev
      in
      let by_overlay =
        run (fun results cmd ->
            Analyzer.analyze_in ~lookup_code:(session_lookup m results) over
              ids_over [ cmd ])
      in
      let last_copy = ref db in
      let by_copy =
        run (fun results cmd ->
            let work = Datalog.Database.copy db in
            List.iter
              (fun r -> ignore (Datalog.Delta.apply work r.Analyzer.delta))
              (List.rev results);
            last_copy := work;
            Analyzer.analyze_in ~lookup_code:(session_lookup m results) work
              ids_copy [ cmd ])
      in
      let same (a : Analyzer.result) (b : Analyzer.result) =
        sorted a.delta.Datalog.Delta.additions
        = sorted b.delta.Datalog.Delta.additions
        && sorted a.delta.Datalog.Delta.deletions
           = sorted b.delta.Datalog.Delta.deletions
        && a.diagnostics = b.diagnostics
        && a.code_asts = b.code_asts
      in
      List.for_all2 same by_overlay by_copy
      && ids_over = ids_copy
      && sorted (Datalog.Database.all_facts over)
         = sorted (Datalog.Database.all_facts !last_copy)
      && sorted (Datalog.Database.all_facts db) = before)

(* Property: the change a broker session builds — its overlay's added and
   removed facts, its code and its counters — is what the per-command
   replay it replaced gave: each analyzed result absorbed into a manager
   session, then [session_delta], [session_code_changes] and the
   counters, kept here as the oracle.  Committing the change through
   [Manager.commit] reaches the state that replay's EES reached.  Every
   session renames Car to itself, which deletes and re-adds its base
   [Type] fact within one command. *)
let prop_session_change_equals_replay =
  let same_name = "rename type Car@CarSchema to Car;" in
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"session change = per-command replay"
    QCheck.(
      make
        ~print:(String.concat " ")
        Gen.(
          map2
            (fun pre post -> pre @ (same_name :: post))
            (list_size (int_range 0 4) overlay_command_gen)
            (list_size (int_range 0 4) overlay_command_gen)))
    (fun texts ->
      let render m = Persist.(contents (render m)) in
      (* the replay *)
      let m = manager_with_cars () in
      let ids = Gom.Ids.copy (Manager.ids m) in
      let over = Datalog.Database.overlay (Manager.database m) in
      let results =
        List.fold_left
          (fun results cmd ->
            Analyzer.analyze_in ~lookup_code:(session_lookup m results) over
              ids [ cmd ]
            :: results)
          []
          (List.concat_map Analyzer.parse_commands texts)
      in
      Manager.begin_session m;
      Gom.Ids.assign ~into:(Manager.ids m) ids;
      List.iter (Manager.absorb m) (List.rev results);
      let delta = Manager.session_delta m in
      let code = Manager.session_code_changes m in
      let ids = Gom.Ids.copy (Manager.ids m) in
      let replayed =
        match Manager.end_session ~delta m with
        | Manager.Consistent -> true
        | Manager.Inconsistent _ ->
            Manager.rollback m;
            false
      in
      (* the session, committed as one change *)
      let m' = manager_with_cars () in
      let s = Server.Session.create ~owner:1 m' in
      List.iter
        (fun text ->
          ignore (Server.Session.analyze s m' (Analyzer.parse_commands text)))
        texts;
      let c = Server.Session.change s m' in
      let committed = Manager.commit m' c = Manager.Consistent in
      let facts = List.equal Datalog.Fact.equal in
      facts c.delta.additions delta.additions
      && facts c.delta.deletions delta.deletions
      && c.code = code && c.ids = ids && committed = replayed
      && render m' = render m)

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Deductive queries through the manager                               *)
(* ------------------------------------------------------------------ *)

let test_manager_query_text () =
  let m = manager_with_cars () in
  (* inherited attributes of City, via the derived predicate *)
  let answers =
    Manager.query_text m "Attr_i('tid_3', A, D)"
    |> List.map (fun bs ->
           match List.assoc_opt "A" bs with
           | Some (Datalog.Term.Sym a) -> a.Datalog.Term.name
           | _ -> "?")
    |> List.sort compare
  in
  Alcotest.(check (list string)) "city attrs"
    [ "lati"; "longi"; "name"; "noOfInhabitants" ]
    answers;
  (* joins and comparisons *)
  check_int "implemented decls" 3
    (List.length (Manager.query_text m "Code(C, X, D), Decl(D, T, O, R)"));
  check_int "distance declarations" 2
    (List.length (Manager.query_text m "Decl(D, T, O, R), O = distance"));
  (* negation with bound variables *)
  check_int "subtype edges without refinements" 0
    (List.length
       (Manager.query_text m
          "DeclRefinement(D2, D1), not SubTypRel('tid_3', 'tid_2')"))

let test_manager_query_under_maintained () =
  let m = manager_with_cars_read () in
  check_int "three decls" 3
    (List.length (Manager.query_text m "Decl(D, T, O, R)"))

(* ------------------------------------------------------------------ *)
(* Script dumps: the whole state (incl. versions and fashion) as one   *)
(* evolution script                                                    *)
(* ------------------------------------------------------------------ *)

let test_unparse_script_roundtrip () =
  let m = manager_with_cars () in
  (match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "scenario failed");
  (match Manager.run_script m new_car_fashion with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "fashion failed");
  let script =
    Analyzer.Unparse.unparse_script
      (Analyzer.Unparse.make ~db:(Manager.database m)
         ~lookup_code:(Manager.lookup_code m))
  in
  let m2 = Manager.create () in
  (match Manager.run_script m2 script with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "re-run inconsistent: %s (script:\n%s)"
        (String.concat "; " (List.map (fun r -> r.Manager.description) rs))
        script);
  (* versions, fashion and behaviour survive the textual round trip *)
  let db2 = Manager.database m2 in
  let old_car =
    Option.get
      (Gom.Schema_base.find_type_at db2 ~type_name:"Car"
         ~schema_name:"CarSchema")
  in
  let polluter =
    Option.get
      (Gom.Schema_base.find_type_at db2 ~type_name:"PolluterCar"
         ~schema_name:"NewCarSchema")
  in
  check_bool "version edge" true
    (Gom.Schema_base.evolutions_of_type db2 ~tid:old_car = [ polluter ]);
  check_bool "substitutable" true
    (Runtime.Masking.substitutable db2 ~actual:old_car ~expected:polluter);
  let rt2 = Manager.runtime m2 in
  let car = Runtime.new_object rt2 ~tid:old_car in
  match Runtime.send rt2 car ~op:"fuel" ~args:[] with
  | Value.Enum (_, "leaded") -> ()
  | v -> Alcotest.failf "masked fuel lost in round trip: %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let test_persist_roundtrip () =
  let m = manager_with_cars () in
  let rt, car, person, _c1, city2 = make_car m in
  Runtime.set_global rt "fleetName" (Value.Str "motor pool");
  (* include the full 4.2 state with fashion code *)
  (match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "scenario failed");
  (match Manager.run_script m new_car_fashion with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "fashion failed");
  let text = Persist.(contents (render m)) in
  let m2 = Persist.load_from_string text in
  (* same facts *)
  check_int "same fact count"
    (Datalog.Database.total (Manager.database m))
    (Datalog.Database.total (Manager.database m2));
  (* objects survive with identity and object-valued slots *)
  let rt2 = Manager.runtime m2 in
  (match car with
  | Value.Obj oid ->
      let o = Option.get (Runtime.find_object rt2 oid) in
      check_bool "type kept" true (o.Runtime.Object_store.tid = tid_of m "Car");
      check_bool "object-valued slot kept" true
        (Value.equal (Runtime.get rt2 car ~attr:"owner") person)
  | _ -> Alcotest.fail "expected object");
  check_bool "global restored" true
    (Runtime.get_global rt2 "fleetName" = Some (Value.Str "motor pool"));
  (* interpreted behaviour survives, including fashion imitation *)
  let result =
    Runtime.send rt2 car ~op:"changeLocation" ~args:[ person; city2 ]
  in
  check_bool "changeLocation still runs" true
    (Value.equal result (Value.Float 125.0));
  (match Runtime.send rt2 car ~op:"fuel" ~args:[] with
  | Value.Enum (_, "leaded") -> ()
  | v -> Alcotest.failf "fuel masked read failed: %s" (Value.to_string v));
  (* and the restored manager keeps evolving *)
  Manager.begin_session m2;
  Manager.run_commands m2 "add type Truck to CarSchema supertype Car@CarSchema;";
  match Manager.end_session m2 with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "restored manager cannot evolve"

(* The dump is canonical: saving a reloaded manager reproduces the exact
   bytes.  This pins the disk format (and the journal/replica stream that
   shares its fact encoding) across the symbol-interning change — symbols
   print by name and sort lexicographically, never by intern id. *)
let test_persist_byte_identity () =
  let m = manager_with_cars () in
  let _ = make_car m in
  (match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "scenario failed");
  let text = Persist.(contents (render m)) in
  let m2 = Persist.load_from_string text in
  let text2 = Persist.(contents (render m2)) in
  check_string "save(load(save)) = save" text text2

let test_persist_rejects_corrupt () =
  check_bool "raises" true
    (try
       ignore (Persist.load_from_string "fact Nonsense(\n");
       false
     with Persist.Corrupt _ -> true)

let test_persist_rejects_open_session () =
  let m = manager_with_cars () in
  Manager.begin_session m;
  check_bool "raises" true
    (try
       ignore (Persist.render m);
       false
     with Invalid_argument _ -> true)

(* Property: any consistent state reached by random commands survives the
   save/load round trip with identical extensions. *)
let prop_persist_roundtrip =
  let cmd_gen =
    QCheck.Gen.(
      oneofl
        [
          "add attribute extra : float to Car@CarSchema;";
          "add type Extra to CarSchema;";
          "add type Truck to CarSchema supertype Car@CarSchema;";
          "rename type Person@CarSchema to Human;";
          "add schema Second;";
          "add sort Color is enum (red, green) to CarSchema;";
          "delete attribute maxspeed from Car@CarSchema;";
        ])
  in
  QCheck.Test.make ~count:20 ~name:"persist round trip on random states"
    QCheck.(make Gen.(list_size (int_range 0 4) cmd_gen))
    (fun cmds ->
      let m = manager_with_cars () in
      Manager.begin_session m;
      List.iter (fun c -> try Manager.run_commands m c with _ -> ()) cmds;
      match Manager.end_session m with
      | Manager.Inconsistent _ ->
          Manager.rollback m;
          QCheck.assume_fail ()
      | Manager.Consistent ->
          let text = Persist.(contents (render m)) in
          let m2 = Persist.load_from_string text in
          let db1 = Manager.database m and db2 = Manager.database m2 in
          Datalog.Database.total db1 = Datalog.Database.total db2
          && List.for_all
               (fun f -> Datalog.Database.mem db2 f)
               (Datalog.Database.all_facts db1))

(* Strings a constant or a global may spell: quotes, backslashes, control
   characters, NUL, non-ASCII bytes, and long ones. *)
let spelling =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          string_size
            ~gen:
              (oneofl
                 [ 'a'; 'Z'; ' '; '"'; '\\'; '\n'; '\t'; '\r'; '\000';
                   '\xc3'; '\xa9'; '\xff'; '~'; '?' ])
            (int_range 0 10) );
        (1, string_size ~gen:char (int_range 60 200));
      ])

(* The fact encoding as it was: a buffer per fact, [%S] per constant. *)
let sprintf_encode_fact (f : Datalog.Fact.t) =
  let enc = function
    | Datalog.Term.Sym s -> Printf.sprintf "%S" s.Datalog.Term.name
    | Datalog.Term.Int i -> string_of_int i
    | Datalog.Term.Fresh s -> "?" ^ Printf.sprintf "%S" s
  in
  f.Datalog.Fact.pred ^ "("
  ^ String.concat ", " (List.map enc (Array.to_list f.Datalog.Fact.args))
  ^ ")"

(* Facts over arbitrary spellings. *)
let fact_gen =
  let const =
    QCheck.Gen.(
      oneof
        [
          map Datalog.Term.symc spelling;
          map (fun i -> Datalog.Term.Int i) int;
          map (fun s -> Datalog.Term.Fresh s) spelling;
        ])
  in
  QCheck.make ~print:sprintf_encode_fact
    QCheck.Gen.(
      map2 Datalog.Fact.make
        (oneofl [ "Attr"; "Schema"; "P" ])
        (list_size (int_range 0 4) const))

let prop_fact_encoding_matches_sprintf =
  QCheck.Test.make ~count:500 ~long_factor:20
    ~name:"fact encoding = the sprintf encoding" fact_gen
    (fun f ->
      let buf = Buffer.create 8 in
      Buffer.add_string buf "fact ";
      Persist.add_fact buf f;
      Persist.encode_fact f = sprintf_encode_fact f
      && Buffer.contents buf = "fact " ^ sprintf_encode_fact f)

(* Every byte survives the fact encoding: the reader is the inverse of
   [String.escaped], control characters, NUL and non-ASCII bytes
   included. *)
let prop_fact_decode_inverts_encode =
  QCheck.Test.make ~count:500 ~long_factor:20
    ~name:"decode_fact (encode_fact f) = f" fact_gen
    (fun f -> Persist.decode_fact (Persist.encode_fact f) = f)

(* The dump's fact and global lines against the [Printf] encoding they
   had, for globals named and valued by arbitrary strings; saving the
   reloaded manager gives the same bytes. *)
let prop_dump_lines_match_sprintf =
  QCheck.Test.make ~count:30 ~name:"dump lines = the sprintf encoding"
    QCheck.(
      make
        ~print:Print.(list (pair string string))
        Gen.(list_size (int_range 0 4) (pair spelling spelling)))
    (fun globals ->
      let globals =
        List.mapi (fun i (n, v) -> (n ^ string_of_int i, v)) globals
      in
      let m = manager_with_cars () in
      let rt, _, _, _, _ = make_car m in
      List.iter (fun (n, v) -> Runtime.set_global rt n (Value.Str v)) globals;
      let text = Persist.(contents (render m)) in
      let lines = String.split_on_char '\n' text in
      let fact_line l =
        match String.index_opt l ' ' with
        | Some 4 when String.sub l 0 4 = "fact" ->
            let rest = String.sub l 5 (String.length l - 5) in
            let f = Persist.decode_fact rest in
            l = "fact " ^ sprintf_encode_fact f
        | _ -> true
      in
      List.for_all fact_line lines
      && List.for_all
           (fun (n, v) ->
             List.mem (Printf.sprintf "global %S str %S" n v) lines)
           globals
      && Persist.(contents (render (load_from_string text)))
         = text)

module Fact_set = Set.Make (Datalog.Fact)

let sprintf_encode_value (v : Value.t) =
  match v with
  | Value.Null -> "null"
  | Value.Int i -> Printf.sprintf "int %d" i
  | Value.Float f -> Printf.sprintf "float %h" f
  | Value.Str s -> Printf.sprintf "str %S" s
  | Value.Bool b -> Printf.sprintf "bool %b" b
  | Value.Enum (tid, name) -> Printf.sprintf "enum %S %S" tid name
  | Value.Obj oid -> Printf.sprintf "obj %S" oid

(* The render from scratch, as it was before the cache: the whole base
   sorted by [Fact.compare], the built-ins filtered through one set,
   every code body printed afresh.  The oracle of the reusing render. *)
let scratch_render (m : Manager.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# gomsm database dump v1\n";
  let g = Manager.ids m in
  Printf.bprintf buf "ids %d %d %d %d %d %d\n" g.Gom.Ids.schemas g.Gom.Ids.types
    g.Gom.Ids.decls g.Gom.Ids.codes g.Gom.Ids.phreps g.Gom.Ids.objects;
  let facts =
    List.sort Datalog.Fact.compare
      (Datalog.Database.all_facts (Manager.database m))
  in
  let builtins = Fact_set.of_list (Gom.Builtin.facts ()) in
  List.iter
    (fun f ->
      if not (Fact_set.mem f builtins) then
        Printf.bprintf buf "fact %s\n" (Persist.encode_fact f))
    facts;
  let name (c : Datalog.Term.const) =
    match c with Datalog.Term.Sym s -> [ s.Datalog.Term.name ] | _ -> []
  in
  let cids =
    List.concat_map
      (fun (f : Datalog.Fact.t) ->
        match (f.Datalog.Fact.pred, f.Datalog.Fact.args) with
        | "Code", [| c; _; _ |] | "FashionDecl", [| _; _; c |] -> name c
        | "FashionAttr", [| _; _; _; r; w |] when name r <> [] && name w <> [] ->
            name r @ name w
        | _ -> [])
      facts
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun cid ->
      match Manager.lookup_code m cid with
      | None -> ()
      | Some (params, body) ->
          Printf.bprintf buf "code %s\n" (Persist.encode_code ~cid ~params ~body))
    cids;
  let rt = Manager.runtime m in
  let store = Runtime.store rt in
  Printf.bprintf buf "store_next %d\n" (Runtime.Object_store.counter store);
  let objs = ref [] in
  Runtime.Object_store.iter store (fun o -> objs := o :: !objs);
  List.iter
    (fun (o : Runtime.Object_store.obj) ->
      let oid = o.Runtime.Object_store.oid in
      Printf.bprintf buf "object %S %S\n" oid o.Runtime.Object_store.tid;
      List.iter
        (fun a ->
          match Runtime.Object_store.get_slot o a with
          | Some v -> Printf.bprintf buf "slot %S %S %s\n" oid a (sprintf_encode_value v)
          | None -> ())
        (List.sort compare (Runtime.Object_store.slot_names o)))
    (List.sort
       (fun a b -> compare a.Runtime.Object_store.oid b.Runtime.Object_store.oid)
       !objs);
  Hashtbl.iter
    (fun n v -> Printf.bprintf buf "global %S %s\n" n (sprintf_encode_value v))
    rt.Runtime.globals;
  Buffer.contents buf

(* What a random script does between checkpoints. *)
type render_op =
  | Add_fact of string * int  (* predicate, argument *)
  | Del_fact of int  (* the nth fact of P, if any *)
  | Clear_p
  | Evolve of int  (* an attribute added through a session *)
  | Redefine of int * string  (* the nth code piece returns this string *)
  | Slot of float
  | Global of string * string
  | Burst of string * int * int  (* n facts with adjacent keys: splits *)
  | Drop of string * int * int  (* n facts in sort order from the ith *)
  | Churn of string  (* more changes than a relation's log holds *)
  | Clear of string
  | Checkpoint
  | Checkpoint_other  (* through a second cache over the same manager *)

(* Relations with rows the generated base spreads over several chunks,
   and relations only the script fills. *)
let render_preds = [ "P"; "Q"; "Attr"; "Decl"; "Code" ]

let render_op_gen =
  QCheck.Gen.(
    let pred = oneofl render_preds in
    frequency
      [
        (4, map2 (fun p i -> Add_fact (p, i)) (oneofl [ "P"; "Q"; "Attr" ]) small_nat);
        (2, map (fun i -> Del_fact i) small_nat);
        (1, return Clear_p);
        (1, map (fun i -> Evolve i) small_nat);
        (2, map2 (fun i s -> Redefine (i, s)) small_nat spelling);
        (1, map (fun f -> Slot f) float);
        (1, map2 (fun n v -> Global (n, v)) spelling spelling);
        (2, map3 (fun p i n -> Burst (p, i, n)) pred small_nat (int_range 60 200));
        (2, map3 (fun p i n -> Drop (p, i, n)) pred small_nat (int_range 1 150));
        (1, map (fun p -> Churn p) pred);
        (1, map (fun p -> Clear p) pred);
        (3, return Checkpoint);
        (1, return Checkpoint_other);
      ])

(* The generated base of the benchmarks, [types] types with four
   attributes and one operation each, committed beside the cars. *)
let generated_schema ~types =
  let buf = Buffer.create (types * 200) in
  Buffer.add_string buf "schema Generated is\n";
  for i = 0 to types - 1 do
    Printf.bprintf buf
      "  type T%d is\n\
      \    [ f0 : int; f1 : float; f2 : string; f3 : bool; ]\n\
      \  operations\n\
      \    declare op%d : (float) -> float;\n\
      \  implementation\n\
      \    define op%d(x) is begin return self.f1 + x; end op%d;\n\
      \  end type T%d;\n"
      i i i i i
  done;
  Buffer.add_string buf "end schema Generated;\n";
  Buffer.contents buf

(* Property: rendering through one cache across many checkpoints gives the
   bytes of a render from scratch, and of the cacheless render ([save]),
   whatever changed in between: facts added and deleted, one at a time or
   in bursts that split chunks and runs that empty them, more changes
   than a relation's log holds, relations cleared, sessions, code
   redefined, slots and globals set; over the cars alone or beside a
   48-type generated base; through one cache or two over the same
   manager.  The text's CRC and length are its bytes'. *)
let prop_cached_render_matches_scratch =
  QCheck.Test.make ~count:40 ~name:"reusing render = render from scratch"
    QCheck.(make Gen.(pair bool (list_size (int_range 1 25) render_op_gen)))
    (fun (generated, ops) ->
      let m = manager_with_cars () in
      let rt, _, _, city, _ = make_car m in
      if generated then begin
        Manager.begin_session m;
        Manager.run_commands m (generated_schema ~types:48);
        match Manager.end_session m with
        | Manager.Consistent -> ()
        | Manager.Inconsistent _ -> failwith "generated base inconsistent"
      end;
      let db = Manager.database m in
      let cache = Persist.render_cache () and other = Persist.render_cache () in
      let agree_through cache =
        let text = Persist.render ~cache m in
        let cached = Persist.contents text in
        cached = scratch_render m
        && cached = Persist.(contents (render m))
        && text.Persist.length = String.length cached
        && text.Persist.crc = Fault.Crc32.string cached
      in
      let agree () = agree_through cache in
      let sorted pred =
        List.sort Datalog.Fact.compare (Datalog.Database.facts db pred)
      in
      let row pred k =
        Datalog.Fact.make pred
          (match Datalog.Database.declaration db pred with
          | Some d when d.Datalog.Database.arity = 4 ->
              [ Datalog.Term.symc (Printf.sprintf "k%05d" k); Datalog.Term.Int k;
                Datalog.Term.symc "x"; Datalog.Term.symc "y" ]
          | _ ->
              [ Datalog.Term.symc (Printf.sprintf "k%05d" k); Datalog.Term.Int k;
                Datalog.Term.symc "x" ])
      in
      let cids () =
        List.filter_map
          (fun (f : Datalog.Fact.t) ->
            match f.Datalog.Fact.args.(0) with
            | Datalog.Term.Sym s -> Some s.Datalog.Term.name
            | _ -> None)
          (Datalog.Database.facts db "Code")
        |> List.sort String.compare
      in
      let step ok op =
        ok
        &&
        match op with
        | Add_fact (p, i) ->
            ignore
              (Datalog.Database.add db
                 (Datalog.Fact.make p
                    [ Datalog.Term.symc (string_of_int i); Datalog.Term.Int i; Datalog.Term.symc "x" ]));
            true
        | Del_fact i -> (
            match Datalog.Database.facts db "P" with
            | [] -> true
            | fs ->
                ignore (Datalog.Database.remove db (List.nth fs (i mod List.length fs)));
                true)
        | Clear_p ->
            Datalog.Database.clear_pred db "P";
            true
        | Evolve i ->
            Manager.begin_session m;
            (try
               Manager.run_commands m
                 (Printf.sprintf "add attribute extra%d : int to Car@CarSchema;" i)
             with _ -> ());
            (match Manager.end_session m with
            | Manager.Consistent -> ()
            | Manager.Inconsistent _ -> Manager.rollback m);
            true
        | Redefine (i, text) -> (
            match cids () with
            | [] -> true
            | cs ->
                let cid = List.nth cs (i mod List.length cs) in
                let params =
                  match Manager.lookup_code m cid with Some (p, _) -> p | None -> []
                in
                Manager.begin_session m;
                Manager.register_code m cid params
                  (Analyzer.Ast.Block
                     [ Analyzer.Ast.Return (Some (Analyzer.Ast.String_lit text)) ]);
                (match Manager.end_session m with
                | Manager.Consistent -> ()
                | Manager.Inconsistent _ -> Manager.rollback m);
                true)
        | Slot f ->
            (* a script that dropped City's attribute facts refuses *)
            (try Runtime.set rt city ~attr:"longi" ~value:(Value.Float f)
             with _ -> ());
            true
        | Global (n, v) ->
            Runtime.set_global rt n (Value.Str v);
            true
        | Burst (p, i, n) ->
            for k = i to i + n - 1 do
              ignore (Datalog.Database.add db (row p k))
            done;
            true
        | Drop (p, i, n) ->
            let fs = sorted p in
            let len = List.length fs in
            if len > 0 then
              List.iteri
                (fun j f ->
                  if j >= i mod len && j < (i mod len) + n then
                    ignore (Datalog.Database.remove db f))
                fs;
            true
        | Churn p ->
            (* a cap of 1024 entries; 2 500 changes pass it twice *)
            for k = 1 to 2500 do
              let f = row p (k mod 7) in
              if not (Datalog.Database.remove db f) then
                ignore (Datalog.Database.add db f)
            done;
            true
        | Clear p ->
            Datalog.Database.clear_pred db p;
            true
        | Checkpoint -> agree ()
        | Checkpoint_other -> agree_through other
      in
      agree () && List.fold_left step true ops && agree ()
      && agree_through other)

let test_persist_file_roundtrip () =
  let m = manager_with_cars () in
  let path = Filename.temp_file "gomsm" ".db" in
  Persist.save m ~path;
  let m2 = Persist.load ~path in
  Sys.remove path;
  check_int "same fact count"
    (Datalog.Database.total (Manager.database m))
    (Datalog.Database.total (Manager.database m2))


(* The code log against the whole-table diff it replaced, as the oracle:
   over random sessions that register and redefine code under a few ids
   and then commit or roll back, [session_code_changes] equals the table
   at EES diffed against a copy taken at BES, and a rollback leaves the
   table equal to that copy. *)
let prop_code_log_matches_table_diff =
  let cids = [ "cid_a"; "cid_b"; "cid_c" ] in
  let bodies =
    [|
      ([], Analyzer.Ast.Return None);
      ([ "x" ], Analyzer.Ast.Return (Some (Analyzer.Ast.Var "x")));
      ([], Analyzer.Ast.Return (Some (Analyzer.Ast.Int_lit 2)));
    |]
  in
  let table m = List.map (fun cid -> (cid, Manager.lookup_code m cid)) cids in
  let diff ~before ~after =
    List.filter_map
      (fun ((cid, b), (_, a)) ->
        match a with Some code when a <> b -> Some (cid, code) | _ -> None)
      (List.combine before after)
  in
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"session code log = the whole-table diff"
    QCheck.(
      list_of_size Gen.(int_range 1 6)
        (pair (list_of_size Gen.(int_range 0 6) (pair (int_bound 2) (int_bound 2))) bool))
    (fun sessions ->
      let m = Manager.create () in
      List.for_all
        (fun (ops, commit) ->
          let before = table m in
          Manager.begin_session m;
          List.iter
            (fun (c, k) ->
              let params, body = bodies.(k) in
              Manager.register_code m (List.nth cids c) params body)
            ops;
          let logged = Manager.session_code_changes m in
          let expected = diff ~before ~after:(table m) in
          if commit then
            ignore (Manager.end_session ~delta:Datalog.Delta.empty m)
          else Manager.rollback m;
          logged = expected
          && (commit || table m = before)
          && not (Manager.in_session m))
        sessions)

let suite =
  [
    ( "core.sessions",
      [
        Alcotest.test_case "load car schema" `Quick test_load_car_schema;
        Alcotest.test_case "modify outside session" `Quick
          test_modify_outside_session_rejected;
        Alcotest.test_case "double begin" `Quick test_double_begin_rejected;
        Alcotest.test_case "deferred checking" `Quick
          test_deferred_checking_allows_intermediate_inconsistency;
        Alcotest.test_case "rollback" `Quick test_session_rollback;
        QCheck_alcotest.to_alcotest prop_code_log_matches_table_diff;
      ] );
    ( "core.runtime",
      [
        Alcotest.test_case "phrep reporting" `Quick
          test_object_creation_reports_phrep;
        Alcotest.test_case "changeLocation" `Quick test_change_location_executes;
        Alcotest.test_case "wrong driver" `Quick test_change_location_wrong_driver;
        Alcotest.test_case "dynamic binding" `Quick test_dynamic_binding_refinement;
        Alcotest.test_case "phrep retirement" `Quick
          test_delete_last_object_retires_phrep;
        Alcotest.test_case "unknown attribute" `Quick
          test_runtime_error_on_unknown_attr;
      ] );
    ( "core.protocol",
      [
        Alcotest.test_case "fuelType conversion" `Quick
          test_fueltype_protocol_with_conversion;
        Alcotest.test_case "fuelType rollback" `Quick test_fueltype_protocol_rollback;
        Alcotest.test_case "delete-instances repair" `Quick
          test_delete_all_instances_repair;
        Alcotest.test_case "interactive driver" `Quick test_end_session_with_driver;
      ] );
    ( "core.evolution",
      [
        Alcotest.test_case "section 4.2 scenario" `Quick test_scenario_42_runs;
        Alcotest.test_case "fashion masks old cars" `Quick
          test_fashion_masks_old_cars;
        Alcotest.test_case "incomplete fashion rejected" `Quick
          test_incomplete_fashion_rejected;
        Alcotest.test_case "person birthday masking" `Quick
          test_person_birthday_masking;
      ] );
    ( "core.flexibility",
      [
        Alcotest.test_case "single inheritance restriction" `Quick
          test_restrict_to_single_inheritance;
      ] );
    ( "core.query",
      [
        Alcotest.test_case "textual queries" `Quick test_manager_query_text;
        Alcotest.test_case "queries under maintained mode" `Quick
          test_manager_query_under_maintained;
      ] );
    ( "core.script_dump",
      [
        Alcotest.test_case "script round trip with fashion" `Quick
          test_unparse_script_roundtrip;
      ] );
    ( "core.persist",
      [
        Alcotest.test_case "full round trip" `Quick test_persist_roundtrip;
        Alcotest.test_case "byte identity" `Quick test_persist_byte_identity;
        Alcotest.test_case "rejects corrupt input" `Quick
          test_persist_rejects_corrupt;
        Alcotest.test_case "rejects open session" `Quick
          test_persist_rejects_open_session;
        Alcotest.test_case "file round trip" `Quick test_persist_file_roundtrip;
        qcheck prop_persist_roundtrip;
        qcheck prop_fact_encoding_matches_sprintf;
        qcheck prop_fact_decode_inverts_encode;
        qcheck prop_dump_lines_match_sprintf;
        qcheck prop_cached_render_matches_scratch;
      ] );
    ( "core.maintained",
      [
        Alcotest.test_case "protocol under DRed mode" `Quick
          test_maintained_protocol;
        Alcotest.test_case "section 4.2 under DRed mode" `Quick
          test_maintained_scenario_42;
        Alcotest.test_case "theory change rebuilds state" `Quick
          test_maintained_survives_theory_change;
        qcheck prop_maintained_equals_full;
        qcheck prop_maintained_mixed_deltas;
      ] );
    ( "core.cone",
      [ qcheck prop_retained_cone_equals_full ] );
    ( "core.overlay",
      [ qcheck prop_overlay_analysis_equals_copy ] );
    ( "core.commit",
      [ qcheck prop_session_change_equals_replay ] );
  ]

let () = Alcotest.run "core" suite
