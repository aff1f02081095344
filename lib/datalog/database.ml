(* The extensional database: one relation per predicate, plus declared
   predicate signatures (arity and column names, used for arity checking and
   pretty printing). *)

type decl = { name : string; arity : int; columns : string list }

type t = {
  relations : (string, Relation.t) Hashtbl.t;
  decls : (string, decl) Hashtbl.t;
}

exception Arity_mismatch of string * int * int

let create () = { relations = Hashtbl.create 64; decls = Hashtbl.create 64 }

let declare db ~name ~columns =
  Hashtbl.replace db.decls name { name; arity = List.length columns; columns }

let declaration db name = Hashtbl.find_opt db.decls name
let declarations db = Hashtbl.fold (fun _ d acc -> d :: acc) db.decls []

let relation db pred =
  match Hashtbl.find_opt db.relations pred with
  | Some r -> r
  | None ->
      let r = Relation.create () in
      Hashtbl.replace db.relations pred r;
      r

let relation_opt db pred = Hashtbl.find_opt db.relations pred

let check_arity db (f : Fact.t) =
  match Hashtbl.find_opt db.decls f.pred with
  | None -> ()
  | Some d ->
      let n = Fact.arity f in
      if n <> d.arity then raise (Arity_mismatch (f.pred, d.arity, n))

let add db (f : Fact.t) =
  check_arity db f;
  Relation.add (relation db f.pred) f.args

let remove db (f : Fact.t) =
  match relation_opt db f.pred with
  | None -> false
  | Some r -> Relation.remove r f.args

let mem db (f : Fact.t) =
  match relation_opt db f.pred with
  | None -> false
  | Some r -> Relation.mem r f.args

let count db pred =
  match relation_opt db pred with None -> 0 | Some r -> Relation.cardinal r

let total db =
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db.relations 0

let iter_pred db pred f =
  match relation_opt db pred with
  | None -> ()
  | Some r -> Relation.iter f r

let facts db pred =
  match relation_opt db pred with
  | None -> []
  | Some r ->
      Relation.fold (fun tuple acc -> Fact.make_arr pred tuple :: acc) r []

let all_facts db =
  Hashtbl.fold
    (fun pred r acc ->
      Relation.fold (fun tuple acc -> Fact.make_arr pred tuple :: acc) r acc)
    db.relations []

let predicates db =
  Hashtbl.fold (fun pred _ acc -> pred :: acc) db.relations []

let share ?(copy = fun _ -> false) db =
  let relations = Hashtbl.create (Hashtbl.length db.relations) in
  Hashtbl.iter
    (fun pred r ->
      Hashtbl.replace relations pred (if copy pred then Relation.copy r else r))
    db.relations;
  { relations; decls = Hashtbl.copy db.decls }

let copy db = share ~copy:(fun _ -> true) db

let share_relation db ~from pred =
  if not (Hashtbl.mem db.relations pred) then
    match Hashtbl.find_opt from.relations pred with
    | Some r -> Hashtbl.replace db.relations pred r
    | None -> ()

let clear_pred db pred =
  match relation_opt db pred with None -> () | Some r -> Relation.clear r
