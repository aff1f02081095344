(* Enumeration sorts ("sort Fuel is enum (leaded, unleaded);" in the paper's
   section 4.2 scenario).  An enum sort is an ordinary type whose values are
   recorded in the EnumVal base predicate. *)

open Datalog



let enumval = "EnumVal"

let enumval_fact ~tid ~value =
  Fact.make enumval [ Term.symc tid; Term.symc value ]

let predicates = [ enumval, [ "TypeId"; "ValueName" ] ]

let constraints =
  [
    ( "ri$EnumVal_Type",
      Model.ri_constraint enumval ~arity:2 ~col:0 ~target:Preds.type_
        ~target_arity:3 ~target_col:0 );
  ]

let install (t : Theory.t) =
  List.iter (fun (name, columns) -> Theory.declare_predicate t ~name ~columns)
    predicates;
  List.iter (fun (name, f) -> Theory.add_constraint t ~name f) constraints

let values db ~tid =
  Schema_base.matching db enumval ~col:0 tid (fun tu ->
      Some (Schema_base.sym_of tu.(1)))

(* Resolve an enum literal to its sort; [None] if unknown or ambiguous. *)
let sort_of_value db ~value =
  match
    Schema_base.matching db enumval ~col:1 value (fun tu ->
        Some (Schema_base.sym_of tu.(0)))
  with
  | [ tid ] -> Some tid
  | [] | _ :: _ :: _ -> None

let constraint_names = List.map fst constraints
let definition_counts () = List.length predicates, 0, List.length constraints
