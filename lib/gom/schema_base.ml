(* Typed queries over the Schema Base (the extensional database holding the
   schema facts).  These walk the base predicates directly so that they are
   always current — they do not require a materialized intensional state. *)

open Datalog


let scan db pred f =
  match Database.relation_opt db pred with
  | None -> ()
  | Some rel -> Relation.iter f rel

let collect db pred f =
  let acc = ref [] in
  scan db pred (fun tuple ->
      match f tuple with None -> () | Some x -> acc := x :: !acc);
  List.rev !acc

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
  let result = ref None in
  scan db Preds.schema_ (fun t ->
      if is_sym name t.(1) then result := Some (sym_of t.(0)));
  !result

let schema_name db ~sid =
  let result = ref None in
  scan db Preds.schema_ (fun t ->
      if is_sym sid t.(0) then result := Some (sym_of t.(1)));
  !result

let schemas db = collect db Preds.schema_ (fun t -> Some (sym_of t.(0), sym_of t.(1)))

(* --- Types --- *)

let find_type db ~sid ~name =
  let result = ref None in
  scan db Preds.type_ (fun t ->
      if is_sym name t.(1) && is_sym sid t.(2) then
        result := Some (sym_of t.(0)));
  !result

(* Resolve the paper's @-notation: TypeName@SchemaName. *)
let find_type_at db ~type_name ~schema_name =
  match find_schema db ~name:schema_name with
  | None -> None
  | Some sid -> find_type db ~sid ~name:type_name

let type_info db ~tid =
  let result = ref None in
  scan db Preds.type_ (fun t ->
      if is_sym tid t.(0) then
        result := Some (sym_of t.(1), sym_of t.(2)));
  !result

let type_name db ~tid = Option.map fst (type_info db ~tid)
let schema_of_type db ~tid = Option.map snd (type_info db ~tid)

let types_of_schema db ~sid =
  collect db Preds.type_ (fun t ->
      if is_sym sid t.(2) then Some (sym_of t.(0), sym_of t.(1))
      else None)

(* --- Subtyping --- *)

let direct_supertypes db ~tid =
  collect db Preds.subtyprel (fun t ->
      if is_sym tid t.(0) then Some (sym_of t.(1)) else None)

let direct_subtypes db ~tid =
  collect db Preds.subtyprel (fun t ->
      if is_sym tid t.(1) then Some (sym_of t.(0)) else None)

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
  collect db Preds.attr (fun t ->
      if is_sym tid t.(0) then Some (sym_of t.(1), sym_of t.(2))
      else None)

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

let decl_by_id db ~did =
  let result = ref None in
  scan db Preds.decl (fun t ->
      if is_sym did t.(0) then
        result :=
          Some
            {
              did;
              receiver = sym_of t.(1);
              op_name = sym_of t.(2);
              result = sym_of t.(3);
            });
  !result

let direct_decls db ~tid =
  collect db Preds.decl (fun t ->
      if is_sym tid t.(1) then
        Some
          {
            did = sym_of t.(0);
            receiver = sym_of t.(1);
            op_name = sym_of t.(2);
            result = sym_of t.(3);
          }
      else None)

(* Dynamic binding: the applicable declaration for operation [name] on
   receiver type [tid] is the nearest declaration up the supertype chain. *)
let resolve_decl db ~tid ~name =
  List.find_map
    (fun t ->
      List.find_opt (fun d -> d.op_name = name) (direct_decls db ~tid:t))
    (tid :: supertypes db ~tid)

let args_of_decl db ~did =
  collect db Preds.argdecl (fun t ->
      if is_sym did t.(0) then
        match t.(1) with
        | Term.Int n -> Some (n, sym_of t.(2))
        | Term.Sym _ | Term.Fresh _ -> None
      else None)
  |> List.sort Stdlib.compare

let code_of_decl db ~did =
  let result = ref None in
  scan db Preds.code (fun t ->
      if is_sym did t.(2) then
        result := Some (sym_of t.(0), sym_of t.(1)));
  !result

let refinements_of db ~did =
  collect db Preds.declrefinement (fun t ->
      if is_sym did t.(1) then Some (sym_of t.(0)) else None)

(* --- Physical representations --- *)

let phrep_of_type db ~tid =
  let result = ref None in
  scan db Preds.phrep (fun t ->
      if is_sym tid t.(1) then result := Some (sym_of t.(0)));
  !result

let type_of_phrep db ~clid =
  let result = ref None in
  scan db Preds.phrep (fun t ->
      if is_sym clid t.(0) then result := Some (sym_of t.(1)));
  !result

let slots_of_phrep db ~clid =
  collect db Preds.slot (fun t ->
      if is_sym clid t.(0) then Some (sym_of t.(1), sym_of t.(2))
      else None)

(* --- Versioning --- *)

let evolutions_of_type db ~tid =
  collect db Preds.evolves_to_t (fun t ->
      if is_sym tid t.(0) then Some (sym_of t.(1)) else None)

let predecessors_of_type db ~tid =
  collect db Preds.evolves_to_t (fun t ->
      if is_sym tid t.(1) then Some (sym_of t.(0)) else None)

(* --- Fashion --- *)

(* FashionType(X, Y): instances of X are substitutable for instances of Y. *)
let fashion_targets db ~tid =
  collect db Preds.fashiontype (fun t ->
      if is_sym tid t.(0) then Some (sym_of t.(1)) else None)

let fashion_sources db ~tid =
  collect db Preds.fashiontype (fun t ->
      if is_sym tid t.(1) then Some (sym_of t.(0)) else None)

let fashion_attr db ~owner_tid ~attr_name ~masked_tid =
  let result = ref None in
  scan db Preds.fashionattr (fun t ->
      if
        is_sym owner_tid t.(0) && is_sym attr_name t.(1)
        && is_sym masked_tid t.(2)
      then result := Some (sym_of t.(3), sym_of t.(4)));
  !result

let fashion_decl db ~did ~masked_tid =
  let result = ref None in
  scan db Preds.fashiondecl (fun t ->
      if is_sym did t.(0) && is_sym masked_tid t.(1) then
        result := Some (sym_of t.(2)));
  !result

(* --- Subschemas (appendix A) --- *)

let parent_schema db ~sid =
  let result = ref None in
  scan db Preds.subschemarel (fun t ->
      if is_sym sid t.(0) then result := Some (sym_of t.(1)));
  !result

let child_schemas db ~sid =
  collect db Preds.subschemarel (fun t ->
      if is_sym sid t.(1) then Some (sym_of t.(0)) else None)

let imports_of db ~sid =
  collect db Preds.imports (fun t ->
      if is_sym sid t.(0) then Some (sym_of t.(1)) else None)

(* Renamings in force within a schema: (kind, new name, source sid, old name). *)
let renames_in db ~sid =
  collect db Preds.renamed (fun t ->
      if is_sym sid t.(0) then
        Some (sym_of t.(1), sym_of t.(2), sym_of t.(3), sym_of t.(4))
      else None)

(* Is component (kind, name) of schema [source_sid] renamed within [sid]? *)
let renamed_away db ~sid ~kind ~source_sid ~old_name =
  List.exists
    (fun (k, _, src, old) -> k = kind && src = source_sid && old = old_name)
    (renames_in db ~sid)

let public_comps db ~sid =
  collect db Preds.public_comp (fun t ->
      if is_sym sid t.(0) then Some (sym_of t.(1), sym_of t.(2))
      else None)
