(* A theory is the "definition feed" of the paper's Consistency Control: the
   declared base predicates (whose extensions form the Schema Base and Object
   Base Model), the rules defining intensional predicates (IDB), and the named
   consistency constraints (CDB).  All three can be extended at run time —
   this is precisely the flexibility mechanism of the paper: adding versioning
   or fashion is "feeding some additional definitions into the consistency
   control component". *)

type pred_decl = { name : string; columns : string list }

type t = {
  mutable pred_decls : pred_decl list;
  mutable idb_rules : Rule.t list;
  mutable constraints : Constraint_compile.compiled list;
  mutable prepared_cache : Eval.prepared option;
  mutable deps_cache : (string, string list) Hashtbl.t option;
  mutable affected_index :
    (string, (int * Constraint_compile.compiled) list) Hashtbl.t option;
      (* base predicate -> its dependent constraints, with their positions
         in theory order; for [affected_constraints] *)
  mutable revision : int;  (* bumped on every definition change *)
}

exception Duplicate of string

let create () =
  {
    pred_decls = [];
    idb_rules = [];
    constraints = [];
    prepared_cache = None;
    deps_cache = None;
    affected_index = None;
    revision = 0;
  }

let invalidate t =
  t.prepared_cache <- None;
  t.deps_cache <- None;
  t.affected_index <- None;
  t.revision <- t.revision + 1

let revision t = t.revision

let declare_predicate t ~name ~columns =
  if List.exists (fun d -> d.name = name) t.pred_decls then
    raise (Duplicate ("predicate " ^ name));
  t.pred_decls <- t.pred_decls @ [ { name; columns } ];
  invalidate t

let predicate_declared t name = List.exists (fun d -> d.name = name) t.pred_decls
let predicates t = t.pred_decls

let add_rule t rule =
  t.idb_rules <- t.idb_rules @ [ rule ];
  invalidate t

let add_rules t rules = List.iter (add_rule t) rules
let rules t = t.idb_rules

let add_constraint t ~name formula =
  if List.exists (fun c -> c.Constraint_compile.name = name) t.constraints then
    raise (Duplicate ("constraint " ^ name));
  let compiled = Constraint_compile.compile ~name formula in
  t.constraints <- t.constraints @ [ compiled ];
  invalidate t

let remove_constraint t name =
  let before = List.length t.constraints in
  t.constraints <-
    List.filter (fun c -> c.Constraint_compile.name <> name) t.constraints;
  let removed = List.length t.constraints < before in
  if removed then invalidate t;
  removed

let replace_constraint t ~name formula =
  ignore (remove_constraint t name);
  add_constraint t ~name formula

let constraints t = t.constraints

let find_constraint t name =
  List.find_opt (fun c -> c.Constraint_compile.name = name) t.constraints

let all_rules t =
  t.idb_rules
  @ List.concat_map (fun c -> c.Constraint_compile.rules) t.constraints

let prepared t =
  match t.prepared_cache with
  | Some p -> p
  | None ->
      let p = Eval.prepare (all_rules t) in
      t.prepared_cache <- Some p;
      p

let fresh_database t =
  let db = Database.create () in
  List.iter
    (fun d -> Database.declare db ~name:d.name ~columns:d.columns)
    t.pred_decls;
  db

(* Map every predicate to the base predicates it transitively reads. *)
let base_deps t : (string, string list) Hashtbl.t =
  match t.deps_cache with
  | Some tbl -> tbl
  | None ->
      let rules = all_rules t in
      let defined = Hashtbl.create 16 in
      List.iter (fun r -> Hashtbl.replace defined r.Rule.head.Atom.pred ())
        rules;
      let memo = Hashtbl.create 16 in
      let rec deps pred visiting =
        match Hashtbl.find_opt memo pred with
        | Some ds -> ds
        | None ->
            if List.mem pred visiting then []
            else if not (Hashtbl.mem defined pred) then [ pred ]
            else begin
              let ds =
                List.filter (fun r -> r.Rule.head.Atom.pred = pred) rules
                |> List.concat_map Rule.body_preds
                |> List.concat_map (fun p -> deps p (pred :: visiting))
                |> List.sort_uniq String.compare
              in
              Hashtbl.replace memo pred ds;
              ds
            end
      in
      let tbl = Hashtbl.create 16 in
      Hashtbl.iter (fun pred () -> Hashtbl.replace tbl pred (deps pred [])) defined;
      List.iter (fun d -> Hashtbl.replace tbl d.name [ d.name ]) t.pred_decls;
      t.deps_cache <- Some tbl;
      tbl

let constraint_base_deps t (c : Constraint_compile.compiled) : string list =
  let tbl = base_deps t in
  Constraint_compile.direct_deps c
  |> List.concat_map (fun p ->
         match Hashtbl.find_opt tbl p with Some ds -> ds | None -> [ p ])
  |> List.sort_uniq String.compare

(* Computed once per revision: every EES asks, the theory rarely moves. *)
let affected_index t =
  match t.affected_index with
  | Some ix -> ix
  | None ->
      let ix = Hashtbl.create 32 in
      List.iteri
        (fun i c ->
          List.iter
            (fun p ->
              Hashtbl.replace ix p
                ((i, c) :: Option.value ~default:[] (Hashtbl.find_opt ix p)))
            (constraint_base_deps t c))
        t.constraints;
      Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) ix;
      t.affected_index <- Some ix;
      ix

let affected_constraints t ~changed_preds =
  let ix = affected_index t in
  let of_pred p = Option.value ~default:[] (Hashtbl.find_opt ix p) in
  List.map snd
    (match changed_preds with
    | [ p ] -> of_pred p
    | preds ->
        List.sort_uniq
          (fun (i, _) (j, _) -> Int.compare i j)
          (List.concat_map of_pred preds))
