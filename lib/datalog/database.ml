(* The extensional database: one relation per predicate, plus declared
   predicate signatures (arity and column names, used for arity checking and
   pretty printing).

   An overlay is a database over a committed base that it reads through and
   never writes: its own relations hold the facts added over the base, and
   [removed] the base facts it hides.  Between them the two keep
   [added ∩ base = ∅] and [removed ⊆ base], so a fact is in the overlay iff
   it is added, or in the base and not removed; a change costs what it
   changes, not a copy of the base. *)

type decl = { name : string; arity : int; columns : string list }

type t = {
  relations : (string, Relation.t) Hashtbl.t;
      (* an overlay's: the facts added over its base *)
  decls : (string, decl) Hashtbl.t;
  over : overlay option;
}

and overlay = { base : t; removed : (string, Relation.t) Hashtbl.t }

exception Arity_mismatch of string * int * int

let create ?(size = 64) () =
  { relations = Hashtbl.create size; decls = Hashtbl.create size; over = None }

(* The operations that hand out relations, or share or clear them, would
   let a caller write around an overlay's bookkeeping. *)
let refuse fn = invalid_arg ("Database." ^ fn ^ ": an overlay")
let plain db fn = match db.over with None -> () | Some _ -> refuse fn

let overlay base =
  plain base "overlay";
  {
    relations = Hashtbl.create 8;
    decls = Hashtbl.create 1;
    over = Some { base; removed = Hashtbl.create 8 };
  }

let declare db ~name ~columns =
  Hashtbl.replace db.decls name { name; arity = List.length columns; columns }

let declaration db name =
  match (Hashtbl.find_opt db.decls name, db.over) with
  | (Some _ as d), _ | (None as d), None -> d
  | None, Some o -> Hashtbl.find_opt o.base.decls name

let declarations db =
  plain db "declarations";
  Hashtbl.fold (fun _ d acc -> d :: acc) db.decls []

let own_relation tbl pred =
  match Hashtbl.find_opt tbl pred with
  | Some r -> r
  | None ->
      let r = Relation.create () in
      Hashtbl.replace tbl pred r;
      r

(* On the evaluator's hot path: the overlay test is one match. *)
let relation db pred =
  match db.over with
  | None -> own_relation db.relations pred
  | Some _ -> refuse "relation"

let relation_opt db pred =
  match db.over with
  | None -> Hashtbl.find_opt db.relations pred
  | Some _ -> refuse "relation_opt"

let check_arity db (f : Fact.t) =
  match declaration db f.pred with
  | None -> ()
  | Some d ->
      let n = Fact.arity f in
      if n <> d.arity then raise (Arity_mismatch (f.pred, d.arity, n))

let mem_in tbl pred args =
  match Hashtbl.find_opt tbl pred with
  | None -> false
  | Some r -> Relation.mem r args

let mem db (f : Fact.t) =
  mem_in db.relations f.pred f.args
  ||
  match db.over with
  | None -> false
  | Some o ->
      mem_in o.base.relations f.pred f.args
      && not (mem_in o.removed f.pred f.args)

let add db (f : Fact.t) =
  check_arity db f;
  match db.over with
  | None -> Relation.add (own_relation db.relations f.pred) f.args
  | Some o -> (
      match Hashtbl.find_opt o.removed f.pred with
      | Some hidden when Relation.remove hidden f.args -> true
      | Some _ | None ->
          (not (mem_in o.base.relations f.pred f.args))
          && Relation.add (own_relation db.relations f.pred) f.args)

let remove db (f : Fact.t) =
  match Hashtbl.find_opt db.relations f.pred with
  | Some r when Relation.remove r f.args -> true
  | Some _ | None -> (
      match db.over with
      | None -> false
      | Some o ->
          mem_in o.base.relations f.pred f.args
          && Relation.add (own_relation o.removed f.pred) f.args)

let card tbl pred =
  match Hashtbl.find_opt tbl pred with None -> 0 | Some r -> Relation.cardinal r

let count db pred =
  card db.relations pred
  +
  match db.over with
  | None -> 0
  | Some o -> card o.base.relations pred - card o.removed pred

let predicates db =
  let own = Hashtbl.fold (fun pred _ acc -> pred :: acc) db.relations [] in
  match db.over with
  | None -> own
  | Some o ->
      Hashtbl.fold
        (fun pred _ acc -> if Hashtbl.mem db.relations pred then acc else pred :: acc)
        o.base.relations own

(* Both lists descending: the order a delta built by folding
   [Delta.add]/[Delta.del] over ascending facts lists them in. *)
let changes db =
  match db.over with
  | None -> invalid_arg "Database.changes: not an overlay"
  | Some o ->
      let facts tbl =
        Hashtbl.fold
          (fun pred r acc ->
            Relation.fold (fun tuple acc -> Fact.make_arr pred tuple :: acc) r acc)
          tbl []
        |> List.sort (fun a b -> Fact.compare b a)
      in
      (facts db.relations, facts o.removed)

let total db =
  plain db "total";
  Hashtbl.fold (fun _ r acc -> acc + Relation.cardinal r) db.relations 0

(* [f] over the base's tuples of [pred] that the overlay does not hide,
   each taken from [base_tuples]. *)
let through o pred base_tuples f =
  match Hashtbl.find_opt o.removed pred with
  | Some hidden when not (Relation.is_empty hidden) ->
      base_tuples (fun tuple -> if not (Relation.mem hidden tuple) then f tuple)
  | Some _ | None -> base_tuples f

let iter_pred db pred f =
  (match db.over with
  | None -> ()
  | Some o -> (
      match Hashtbl.find_opt o.base.relations pred with
      | None -> ()
      | Some r -> through o pred (fun g -> Relation.iter g r) f));
  match Hashtbl.find_opt db.relations pred with
  | None -> ()
  | Some r -> Relation.iter f r

(* The tuples of [r] whose [col]-th component is [key], from its column
   index, or by a scan when indexing is off. *)
let iter_key r ~col ~key f =
  match Relation.lookup r ~col ~key with
  | Some bucket -> List.iter f bucket
  | None ->
      Relation.iter
        (fun tuple ->
          if col < Array.length tuple && Term.equal_const tuple.(col) key then
            f tuple)
        r

let iter_matching db pred ~col ~key f =
  (match db.over with
  | None -> ()
  | Some o -> (
      match Hashtbl.find_opt o.base.relations pred with
      | None -> ()
      | Some r -> through o pred (iter_key r ~col ~key) f));
  match Hashtbl.find_opt db.relations pred with
  | None -> ()
  | Some r -> iter_key r ~col ~key f

let facts db pred =
  let acc = ref [] in
  iter_pred db pred (fun tuple -> acc := Fact.make_arr pred tuple :: !acc);
  !acc

let all_facts db = List.concat_map (facts db) (predicates db)

let share ?(copy = fun _ -> false) db =
  plain db "share";
  let relations = Hashtbl.create (Hashtbl.length db.relations) in
  Hashtbl.iter
    (fun pred r ->
      Hashtbl.replace relations pred (if copy pred then Relation.copy r else r))
    db.relations;
  { relations; decls = Hashtbl.copy db.decls; over = None }

let copy db = share ~copy:(fun _ -> true) db

let share_relation db ~from pred =
  plain db "share_relation";
  if not (Hashtbl.mem db.relations pred) then
    match Hashtbl.find_opt from.relations pred with
    | Some r -> Hashtbl.replace db.relations pred r
    | None -> ()

let clear_pred db pred =
  plain db "clear_pred";
  match Hashtbl.find_opt db.relations pred with
  | None -> ()
  | Some r -> Relation.clear r
