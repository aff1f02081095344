(* Typed queries over the Schema Base (the extensional database holding the
   schema facts).  These read the base predicates directly so that they are
   always current — they do not require a materialized intensional state.

   A lookup by a known component probes that column's index
   ({!Database.iter_matching}) instead of scanning the predicate, and
   every answer list comes back sorted: a lookup's result, and so what an
   analysis derives from it (down to the identifiers a copied type's
   declarations draw), does not depend on how the base is stored — plain
   or an overlay, indexed or scanned, built in whatever order. *)

open Datalog

let scan db pred f = Database.iter_pred db pred f

let gather iter f =
  let acc = ref [] in
  iter (fun tuple ->
      match f tuple with None -> () | Some x -> acc := x :: !acc);
  List.sort compare !acc

let collect db pred f = gather (scan db pred) f

(* The tuples of [pred] whose [col]-th component is the symbol spelled
   [name]; a spelling never interned is in no tuple. *)
let probe db pred ~col name f =
  match Term.interned name with
  | None -> ()
  | Some key -> Database.iter_matching db pred ~col ~key f

let matching db pred ~col name f = gather (probe db pred ~col name) f

(* The least answer: the only one, on a consistent base. *)
let first db pred ~col name f =
  match matching db pred ~col name f with x :: _ -> Some x | [] -> None

(* [c] is the symbol spelled [name].  Symbols are interned, so this equals
   [Term.equal_const c (Term.symc name)] without an intern-table lookup per
   scanned tuple. *)
let is_sym name (c : Term.const) =
  match c with
  | Term.Sym s -> String.equal s.Term.name name
  | Term.Int _ | Term.Fresh _ -> false

let sym_of = Term.const_to_string

(* --- Schemas --- *)

let find_schema db ~name =
  first db Preds.schema_ ~col:1 name (fun t -> Some (sym_of t.(0)))

let schema_name db ~sid =
  first db Preds.schema_ ~col:0 sid (fun t -> Some (sym_of t.(1)))

let schemas db = collect db Preds.schema_ (fun t -> Some (sym_of t.(0), sym_of t.(1)))

(* --- Types --- *)

let find_type db ~sid ~name =
  first db Preds.type_ ~col:1 name (fun t ->
      if is_sym sid t.(2) then Some (sym_of t.(0)) else None)

(* Resolve the paper's @-notation: TypeName@SchemaName. *)
let find_type_at db ~type_name ~schema_name =
  match find_schema db ~name:schema_name with
  | None -> None
  | Some sid -> find_type db ~sid ~name:type_name

let type_info db ~tid =
  first db Preds.type_ ~col:0 tid (fun t -> Some (sym_of t.(1), sym_of t.(2)))

let type_name db ~tid = Option.map fst (type_info db ~tid)
let schema_of_type db ~tid = Option.map snd (type_info db ~tid)

let types_of_schema db ~sid =
  matching db Preds.type_ ~col:2 sid (fun t -> Some (sym_of t.(0), sym_of t.(1)))

(* --- Subtyping --- *)

let direct_supertypes db ~tid =
  matching db Preds.subtyprel ~col:0 tid (fun t -> Some (sym_of t.(1)))

let direct_subtypes db ~tid =
  matching db Preds.subtyprel ~col:1 tid (fun t -> Some (sym_of t.(0)))

(* Supertypes in breadth-first order (nearest first), excluding [tid];
   cycle-safe even on inconsistent schemas. *)
let supertypes db ~tid =
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen tid ();
  let rec go acc = function
    | [] -> List.rev acc
    | t :: queue ->
        let supers =
          direct_supertypes db ~tid:t
          |> List.filter (fun s -> not (Hashtbl.mem seen s))
        in
        List.iter (fun s -> Hashtbl.replace seen s ()) supers;
        go (List.rev_append supers acc) (queue @ supers)
  in
  go [] [ tid ]

let is_subtype db ~sub ~super =
  sub = super || List.mem super (supertypes db ~tid:sub)

(* --- Attributes --- *)

let direct_attrs db ~tid =
  matching db Preds.attr ~col:0 tid (fun t -> Some (sym_of t.(1), sym_of t.(2)))

(* All attributes including inherited ones (the extension of Attr_i for this
   type), nearest declaration first. *)
let all_attrs db ~tid =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun t ->
      direct_attrs db ~tid:t
      |> List.filter (fun (a, _) ->
             if Hashtbl.mem seen a then false
             else begin
               Hashtbl.replace seen a ();
               true
             end))
    (tid :: supertypes db ~tid)

let attr_domain db ~tid ~name = List.assoc_opt name (all_attrs db ~tid)

(* --- Operations --- *)

type decl_info = {
  did : string;
  receiver : string;
  op_name : string;
  result : string;
}

let decl_info t =
  {
    did = sym_of t.(0);
    receiver = sym_of t.(1);
    op_name = sym_of t.(2);
    result = sym_of t.(3);
  }

let decl_by_id db ~did =
  first db Preds.decl ~col:0 did (fun t -> Some (decl_info t))

let direct_decls db ~tid =
  matching db Preds.decl ~col:1 tid (fun t -> Some (decl_info t))

(* Dynamic binding: the applicable declaration for operation [name] on
   receiver type [tid] is the nearest declaration up the supertype chain. *)
let resolve_decl db ~tid ~name =
  List.find_map
    (fun t ->
      List.find_opt (fun d -> d.op_name = name) (direct_decls db ~tid:t))
    (tid :: supertypes db ~tid)

let args_of_decl db ~did =
  matching db Preds.argdecl ~col:0 did (fun t ->
      match t.(1) with
      | Term.Int n -> Some (n, sym_of t.(2))
      | Term.Sym _ | Term.Fresh _ -> None)

let code_of_decl db ~did =
  first db Preds.code ~col:2 did (fun t -> Some (sym_of t.(0), sym_of t.(1)))

let refinements_of db ~did =
  matching db Preds.declrefinement ~col:1 did (fun t -> Some (sym_of t.(0)))

(* --- Physical representations --- *)

let phrep_of_type db ~tid =
  first db Preds.phrep ~col:1 tid (fun t -> Some (sym_of t.(0)))

let type_of_phrep db ~clid =
  first db Preds.phrep ~col:0 clid (fun t -> Some (sym_of t.(1)))

let slots_of_phrep db ~clid =
  matching db Preds.slot ~col:0 clid (fun t -> Some (sym_of t.(1), sym_of t.(2)))

(* --- Versioning --- *)

let evolutions_of_type db ~tid =
  matching db Preds.evolves_to_t ~col:0 tid (fun t -> Some (sym_of t.(1)))

let predecessors_of_type db ~tid =
  matching db Preds.evolves_to_t ~col:1 tid (fun t -> Some (sym_of t.(0)))

(* --- Fashion --- *)

(* FashionType(X, Y): instances of X are substitutable for instances of Y. *)
let fashion_targets db ~tid =
  matching db Preds.fashiontype ~col:0 tid (fun t -> Some (sym_of t.(1)))

let fashion_sources db ~tid =
  matching db Preds.fashiontype ~col:1 tid (fun t -> Some (sym_of t.(0)))

let fashion_attr db ~owner_tid ~attr_name ~masked_tid =
  first db Preds.fashionattr ~col:0 owner_tid (fun t ->
      if is_sym attr_name t.(1) && is_sym masked_tid t.(2) then
        Some (sym_of t.(3), sym_of t.(4))
      else None)

let fashion_decl db ~did ~masked_tid =
  first db Preds.fashiondecl ~col:0 did (fun t ->
      if is_sym masked_tid t.(1) then Some (sym_of t.(2)) else None)

(* --- Subschemas (appendix A) --- *)

let parent_schema db ~sid =
  first db Preds.subschemarel ~col:0 sid (fun t -> Some (sym_of t.(1)))

let child_schemas db ~sid =
  matching db Preds.subschemarel ~col:1 sid (fun t -> Some (sym_of t.(0)))

let imports_of db ~sid =
  matching db Preds.imports ~col:0 sid (fun t -> Some (sym_of t.(1)))

(* Renamings in force within a schema: (kind, new name, source sid, old name). *)
let renames_in db ~sid =
  matching db Preds.renamed ~col:0 sid (fun t ->
      Some (sym_of t.(1), sym_of t.(2), sym_of t.(3), sym_of t.(4)))

(* Is component (kind, name) of schema [source_sid] renamed within [sid]? *)
let renamed_away db ~sid ~kind ~source_sid ~old_name =
  List.exists
    (fun (k, _, src, old) -> k = kind && src = source_sid && old = old_name)
    (renames_in db ~sid)

let public_comps db ~sid =
  matching db Preds.public_comp ~col:0 sid (fun t ->
      Some (sym_of t.(1), sym_of t.(2)))
