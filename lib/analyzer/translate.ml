(* Translation of parsed definitions and evolution commands into changes of
   the base-predicate extensions — the Analyzer's job in the paper's
   architecture ("each call of an update operation will be mapped to
   corresponding modifications of the schema base").

   Translation writes its changes into a working database as it goes, so
   that later parts of a unit can see earlier parts; the accumulated delta
   is what the session hands to the Consistency Control.  The working
   database is the caller's: an overlay over the committed base
   ({!Datalog.Database.overlay}) takes the changes without touching the
   base or copying it.  Name resolution implements the appendix-A
   visibility rules: own components, public components of direct
   subschemas and of imported schemas, renamings, and conflict
   detection. *)

open Gom
open Datalog

type env = {
  work : Database.t;  (* the working base: takes every change *)
  ids : Ids.gen;
  mutable additions : Fact.t list;  (* newest first *)
  mutable deletions : Fact.t list;
  mutable diags : string list;
  mutable code_asts : (string * (string list * Ast.stmt)) list;
  lookup_code : string -> (string list * Ast.stmt) option;
      (* previously registered code, for Copy_type *)
}

let create ?(lookup_code = fun _ -> None) (work : Database.t) (ids : Ids.gen)
    =
  {
    work;
    ids;
    additions = [];
    deletions = [];
    diags = [];
    code_asts = [];
    lookup_code;
  }

let delta env =
  Delta.of_lists
    ~additions:(List.rev env.additions)
    ~deletions:(List.rev env.deletions)

let diagnostics env = List.rev env.diags
let code_asts env = List.rev env.code_asts

let diag env msg = env.diags <- msg :: env.diags

let add env f =
  if Database.add env.work f then env.additions <- f :: env.additions

let remove env f =
  if Database.remove env.work f then env.deletions <- f :: env.deletions

let register_code env cid params body =
  env.code_asts <- (cid, (params, body)) :: env.code_asts

let find_code env cid =
  match List.assoc_opt cid env.code_asts with
  | Some c -> Some c
  | None -> env.lookup_code cid

(* ------------------------------------------------------------------ *)
(* Name resolution (appendix A)                                        *)
(* ------------------------------------------------------------------ *)

let ensure_schema env name =
  match Schema_base.find_schema env.work ~name with
  | Some sid -> sid
  | None ->
      let sid = Ids.fresh env.ids Ids.Schema in
      add env (Preds.schema_fact ~sid ~name);
      sid

(* Resolve an unqualified type name within schema [sid]:
   1. built-in sorts; 2. the schema's own types; 3. renamed components;
   4. public types of direct subschemas and imported schemas (excluding the
   ones renamed away).  Ambiguity is a name conflict. *)
let resolve_local_type env ~sid name : string option =
  match Builtin.tid_of_sort name with
  | Some tid -> Some tid
  | None -> (
      match Schema_base.find_type env.work ~sid ~name with
      | Some tid -> Some tid
      | None -> (
          let via_rename =
            Schema_base.renames_in env.work ~sid
            |> List.find_map (fun (kind, new_name, src, old) ->
                   if kind = "type" && new_name = name then
                     Schema_base.find_type env.work ~sid:src ~name:old
                   else None)
          in
          match via_rename with
          | Some tid -> Some tid
          | None -> (
              (* direct subschemas expose only their public components;
                 explicitly imported schemas expose all of theirs
                 (appendix A) *)
              let sources =
                List.map (fun s -> s, `Public_only)
                  (Schema_base.child_schemas env.work ~sid)
                @ List.map (fun s -> s, `All)
                    (Schema_base.imports_of env.work ~sid)
              in
              let candidates =
                List.filter_map
                  (fun (src, visibility) ->
                    let visible =
                      match visibility with
                      | `All -> true
                      | `Public_only ->
                          List.exists
                            (fun (kind, n) -> kind = "type" && n = name)
                            (Schema_base.public_comps env.work ~sid:src)
                    in
                    if
                      visible
                      && not
                           (Schema_base.renamed_away env.work ~sid ~kind:"type"
                              ~source_sid:src ~old_name:name)
                    then Schema_base.find_type env.work ~sid:src ~name
                    else None)
                  sources
                |> List.sort_uniq String.compare
              in
              match candidates with
              | [ tid ] -> Some tid
              | [] -> None
              | _ :: _ :: _ ->
                  diag env
                    (Printf.sprintf
                       "name conflict: type %s is visible from several \
                        schemas within %s; rename on import"
                       name
                       (Option.value ~default:sid
                          (Schema_base.schema_name env.work ~sid)));
                  None)))

(* Like [resolve_type_ref] but without the unknown-name diagnostic (used by
   code analysis, which phrases its own messages). *)
let resolve_quiet env ~sid (r : Ast.type_ref) : string option =
  match r.Ast.ref_schema with
  | Some schema ->
      Schema_base.find_type_at env.work ~type_name:r.Ast.ref_name
        ~schema_name:schema
  | None -> resolve_local_type env ~sid r.Ast.ref_name

let resolve_type_ref env ~sid (r : Ast.type_ref) : string option =
  match r.Ast.ref_schema with
  | Some schema -> (
      match
        Schema_base.find_type_at env.work ~type_name:r.Ast.ref_name
          ~schema_name:schema
      with
      | Some tid -> Some tid
      | None ->
          diag env
            (Printf.sprintf "unknown type %s@%s" r.Ast.ref_name schema);
          None)
  | None -> (
      match resolve_local_type env ~sid r.Ast.ref_name with
      | Some tid -> Some tid
      | None ->
          diag env
            (Printf.sprintf "unknown type %s (in schema %s)" r.Ast.ref_name
               (Option.value ~default:sid (Schema_base.schema_name env.work ~sid)));
          None)

(* Resolve a schema path (absolute, parent-relative or child-relative). *)
let resolve_schema_path env ~from_sid (p : Ast.schema_path) : string option =
  let step_down sid seg =
    Schema_base.child_schemas env.work ~sid
    |> List.find_opt (fun c -> Schema_base.schema_name env.work ~sid:c = Some seg)
  in
  let start =
    if p.Ast.sp_absolute then begin
      match p.Ast.sp_segments with
      | root :: _ -> (
          match Schema_base.find_schema env.work ~name:root with
          | Some sid when Schema_base.parent_schema env.work ~sid = None ->
              Some (sid, List.tl p.Ast.sp_segments)
          | Some _ | None -> None)
      | [] -> None
    end
    else if p.Ast.sp_updots > 0 then begin
      let rec up sid n =
        if n = 0 then Some sid
        else
          match Schema_base.parent_schema env.work ~sid with
          | Some parent -> up parent (n - 1)
          | None -> None
      in
      match up from_sid p.Ast.sp_updots with
      | Some sid -> Some (sid, p.Ast.sp_segments)
      | None -> None
    end
    else
      (* child-relative: first segment names a direct subschema *)
      match p.Ast.sp_segments with
      | seg :: rest -> (
          match step_down from_sid seg with
          | Some sid -> Some (sid, rest)
          | None -> None)
      | [] -> None
  in
  let rec walk sid = function
    | [] -> Some sid
    | seg :: rest -> (
        match step_down sid seg with
        | Some next -> walk next rest
        | None -> None)
  in
  match start with
  | None -> None
  | Some (sid, rest) -> walk sid rest

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                       *)
(* ------------------------------------------------------------------ *)

let add_type_skeleton env ~sid ~name : string =
  (match Schema_base.find_type env.work ~sid ~name with
  | Some _ ->
      diag env
        (Printf.sprintf "type %s already defined in this schema; the \
                         duplicate will be flagged by the consistency check"
           name)
  | None -> ());
  let tid = Ids.fresh env.ids Ids.Type in
  add env (Preds.type_fact ~tid ~name ~sid);
  tid

let add_supertype_edges env ~tid supers_tids =
  match supers_tids with
  | [] -> add env (Preds.subtyprel_fact ~sub:tid ~super:Builtin.any_tid)
  | ts ->
      List.iter (fun s -> add env (Preds.subtyprel_fact ~sub:tid ~super:s)) ts

let add_decl_with_args env ~tid (s : Ast.op_sig) ~sid : string =
  let did = Ids.fresh env.ids Ids.Decl in
  let result =
    match resolve_type_ref env ~sid s.Ast.op_result with
    | Some t -> t
    | None -> s.Ast.op_result.Ast.ref_name
  in
  add env (Preds.decl_fact ~did ~receiver:tid ~name:s.Ast.op_name ~result);
  List.iteri
    (fun i arg ->
      let t =
        match resolve_type_ref env ~sid arg with
        | Some t -> t
        | None -> arg.Ast.ref_name
      in
      add env (Preds.argdecl_fact ~did ~pos:(i + 1) ~tid:t))
    s.Ast.op_args;
  did

(* Canonicalize the type references inside a body so the Runtime can resolve
   them without the schema scope: [new BRepCuboid] (a renamed import) becomes
   [new Cuboid@BoundaryRep]. *)
let canonicalize_code env ~sid (body : Ast.stmt) : Ast.stmt =
  Ast.map_stmt
    (fun e ->
      match e with
      | Ast.New r -> (
          match resolve_quiet env ~sid r with
          | None -> e
          | Some tid -> (
              match Schema_base.type_info env.work ~tid with
              | Some (n, tsid) ->
                  Ast.New
                    {
                      Ast.ref_name = n;
                      ref_schema = Schema_base.schema_name env.work ~sid:tsid;
                    }
              | None -> e))
      | e -> e)
    body

(* Analyze and record a piece of code implementing declaration [did]. *)
let add_code_for env ~self_tid ~did ~params ~body : string =
  let cid = Ids.fresh env.ids Ids.Code in
  let arg_types = List.map snd (Schema_base.args_of_decl env.work ~did) in
  let n_params = List.length params and n_args = List.length arg_types in
  if n_params <> n_args then
    diag env
      (Printf.sprintf
         "implementation of %s has %d parameter(s) but the declaration has %d"
         (match Schema_base.decl_by_id env.work ~did with
         | Some d -> d.Schema_base.op_name
         | None -> did)
         n_params n_args);
  let rec zip ps ts =
    match ps, ts with
    | [], _ -> []
    | p :: ps, [] -> (p, Builtin.any_tid) :: zip ps []
    | p :: ps, t :: ts -> (p, t) :: zip ps ts
  in
  let scope_sid =
    match Schema_base.schema_of_type env.work ~tid:self_tid with
    | Some sid -> sid
    | None -> Builtin.builtin_schema_sid
  in
  let body = canonicalize_code env ~sid:scope_sid body in
  let ctx =
    {
      Code_analysis.db = env.work;
      self_tid;
      params = zip params arg_types;
      resolve = (fun r -> resolve_quiet env ~sid:scope_sid r);
    }
  in
  let result = Code_analysis.analyze ctx body in
  List.iter (fun d -> diag env d) result.Code_analysis.diags;
  add env
    (Preds.code_fact ~cid ~text:(Ast.stmt_to_string body) ~did);
  List.iter
    (fun (tid, attr_name) ->
      add env (Preds.codereqattr_fact ~cid ~tid ~attr_name))
    result.Code_analysis.attrs_used;
  List.iter
    (fun d -> add env (Preds.codereqdecl_fact ~cid ~did:d))
    result.Code_analysis.decls_used;
  register_code env cid params body;
  cid

(* The declaration implemented by an op_impl: the type's own declaration
   with that name (refinements have their own declaration). *)
let own_decl env ~tid ~name =
  List.find_opt
    (fun d -> d.Schema_base.op_name = name)
    (Schema_base.direct_decls env.work ~tid)

(* ------------------------------------------------------------------ *)
(* Type definitions                                                    *)
(* ------------------------------------------------------------------ *)

let translate_type_pass2 env ~sid (td : Ast.type_def) =
  match Schema_base.find_type env.work ~sid ~name:td.Ast.td_name with
  | None -> ()  (* skeleton creation failed; diagnostics already emitted *)
  | Some tid ->
      let supers =
        List.filter_map (resolve_type_ref env ~sid) td.Ast.td_supertypes
      in
      add_supertype_edges env ~tid supers;
      List.iter
        (fun (attr_name, dom_ref) ->
          match resolve_type_ref env ~sid dom_ref with
          | Some domain -> add env (Preds.attr_fact ~tid ~name:attr_name ~domain)
          | None ->
              add env
                (Preds.attr_fact ~tid ~name:attr_name
                   ~domain:dom_ref.Ast.ref_name))
        td.Ast.td_attrs;
      List.iter
        (fun s -> ignore (add_decl_with_args env ~tid s ~sid))
        td.Ast.td_operations;
      List.iter
        (fun (s : Ast.op_sig) ->
          let did = add_decl_with_args env ~tid s ~sid in
          (* the refined declaration is the nearest one up the chain *)
          let refined =
            List.find_map
              (fun t ->
                List.find_opt
                  (fun d -> d.Schema_base.op_name = s.Ast.op_name)
                  (Schema_base.direct_decls env.work ~tid:t))
              (Schema_base.supertypes env.work ~tid)
          in
          match refined with
          | Some d ->
              add env
                (Preds.declrefinement_fact ~refining:did
                   ~refined:d.Schema_base.did)
          | None ->
              diag env
                (Printf.sprintf
                   "refine %s on %s: no supertype declaration found"
                   s.Ast.op_name td.Ast.td_name))
        td.Ast.td_refines

let translate_type_pass3 env ~sid (td : Ast.type_def) =
  ignore sid;
  match Schema_base.find_type env.work ~sid ~name:td.Ast.td_name with
  | None -> ()
  | Some tid ->
      List.iter
        (fun (impl : Ast.op_impl) ->
          match own_decl env ~tid ~name:impl.Ast.impl_name with
          | Some d ->
              ignore
                (add_code_for env ~self_tid:tid ~did:d.Schema_base.did
                   ~params:impl.Ast.impl_params ~body:impl.Ast.impl_body)
          | None ->
              diag env
                (Printf.sprintf
                   "define %s on %s: no declaration on this type (declare or \
                    refine it first)"
                   impl.Ast.impl_name td.Ast.td_name))
        td.Ast.td_implementation

let translate_sort env ~sid (sd : Ast.sort_def) =
  let tid = add_type_skeleton env ~sid ~name:sd.Ast.sd_name in
  add env (Preds.subtyprel_fact ~sub:tid ~super:Builtin.any_tid);
  List.iter
    (fun value -> add env (Sorts.enumval_fact ~tid ~value))
    sd.Ast.sd_values;
  (* enum values are immediate: their representation exists from the start *)
  let clid = Ids.fresh env.ids Ids.Phrep in
  add env (Preds.phrep_fact ~clid ~tid)

(* ------------------------------------------------------------------ *)
(* Schema definition frames                                            *)
(* ------------------------------------------------------------------ *)

let kind_string = function
  | Ast.Ktype -> "type"
  | Ast.Kvar -> "var"
  | Ast.Kop -> "operation"
  | Ast.Kschema -> "schema"

let translate_subschema_clause env ~sid (ss : Ast.subschema_clause) =
  let child = ensure_schema env ss.Ast.ss_name in
  (match Schema_base.parent_schema env.work ~sid:child with
  | Some p when p <> sid ->
      diag env
        (Printf.sprintf "schema %s already has a different parent" ss.Ast.ss_name)
  | Some _ -> ()
  | None -> add env (Preds.subschemarel_fact ~child ~parent:sid));
  List.iter
    (fun (rn : Ast.rename) ->
      add env
        (Preds.renamed_fact ~sid ~kind:(kind_string rn.Ast.rn_kind)
           ~new_name:rn.Ast.rn_new ~source_sid:child ~old_name:rn.Ast.rn_old))
    ss.Ast.ss_renames

let translate_import env ~sid (im : Ast.import_clause) =
  match resolve_schema_path env ~from_sid:sid im.Ast.im_path with
  | None ->
      diag env
        (Printf.sprintf "cannot resolve import path /%s"
           (String.concat "/" im.Ast.im_path.Ast.sp_segments))
  | Some imported ->
      add env (Preds.imports_fact ~importer:sid ~imported);
      List.iter
        (fun (rn : Ast.rename) ->
          add env
            (Preds.renamed_fact ~sid ~kind:(kind_string rn.Ast.rn_kind)
               ~new_name:rn.Ast.rn_new ~source_sid:imported
               ~old_name:rn.Ast.rn_old))
        im.Ast.im_renames

let translate_schema env (sd : Ast.schema_def) =
  let sid = ensure_schema env sd.Ast.sch_name in
  let comps = sd.Ast.sch_interface @ sd.Ast.sch_implementation in
  (* pass 1: create skeletons and structural links so that later references
     resolve regardless of order *)
  List.iter
    (fun (c : Ast.component) ->
      match c with
      | Ast.Ctype td -> ignore (add_type_skeleton env ~sid ~name:td.Ast.td_name)
      | Ast.Csort sd -> translate_sort env ~sid sd
      | Ast.Cvar _ -> ()
      | Ast.Csubschema ss -> translate_subschema_clause env ~sid ss
      | Ast.Cimport im -> translate_import env ~sid im)
    comps;
  (* pass 2: attributes, operations, supertypes, variables *)
  List.iter
    (fun (c : Ast.component) ->
      match c with
      | Ast.Ctype td -> translate_type_pass2 env ~sid td
      | Ast.Cvar (name, ty) -> (
          match resolve_type_ref env ~sid ty with
          | Some tid -> add env (Preds.schemavar_fact ~sid ~name ~tid)
          | None -> ())
      | Ast.Csort _ | Ast.Csubschema _ | Ast.Cimport _ -> ())
    comps;
  (* pass 3: method bodies *)
  List.iter
    (fun (c : Ast.component) ->
      match c with
      | Ast.Ctype td -> translate_type_pass3 env ~sid td
      | Ast.Csort _ | Ast.Cvar _ | Ast.Csubschema _ | Ast.Cimport _ -> ())
    comps;
  (* public clause *)
  List.iter
    (fun name ->
      let kind =
        if Schema_base.find_type env.work ~sid ~name <> None then "type"
        else if
          Schema_base.renames_in env.work ~sid
          |> List.exists (fun (k, n, _, _) -> k = "type" && n = name)
        then "type"
        else "var"
      in
      add env (Preds.public_comp_fact ~sid ~kind ~name))
    sd.Ast.sch_public

(* ------------------------------------------------------------------ *)
(* Fashion clauses                                                     *)
(* ------------------------------------------------------------------ *)

(* A stub body for a masked attribute with only one accessor direction. *)
let stub_body = Ast.Block []

let translate_fashion env (fd : Ast.fashion_def) =
  let resolve r =
    match r.Ast.ref_schema with
    | Some _ -> resolve_type_ref env ~sid:"" r
    | None ->
        diag env
          (Fmt.str "fashion requires @-qualified type versions, got %a"
             Ast.pp_type_ref r);
        None
  in
  match resolve fd.Ast.fd_masked, resolve fd.Ast.fd_target with
  | Some masked, Some target ->
      add env (Preds.fashiontype_fact ~masked ~target);
      (* group attribute entries by name *)
      let reads = Hashtbl.create 8 and writes = Hashtbl.create 8 in
      let attr_names = ref [] in
      let note_attr name =
        if not (List.mem name !attr_names) then attr_names := name :: !attr_names
      in
      let new_code ?(params = []) body =
        let cid = Ids.fresh env.ids Ids.Code in
        let scope_sid =
          match Schema_base.schema_of_type env.work ~tid:masked with
          | Some sid -> sid
          | None -> Builtin.builtin_schema_sid
        in
        let body = canonicalize_code env ~sid:scope_sid body in
        let ctx =
          {
            Code_analysis.db = env.work;
            self_tid = masked;
            params = List.map (fun p -> p, Builtin.any_tid) params;
            resolve = (fun r -> resolve_quiet env ~sid:scope_sid r);
          }
        in
        let result = Code_analysis.analyze ctx body in
        List.iter (fun d -> diag env d) result.Code_analysis.diags;
        register_code env cid params body;
        cid
      in
      List.iter
        (fun (entry : Ast.fashion_entry) ->
          match entry with
          | Ast.Fread (name, _, body) ->
              note_attr name;
              Hashtbl.replace reads name (new_code body)
          | Ast.Fwrite (name, _, body) ->
              note_attr name;
              Hashtbl.replace writes name (new_code ~params:[ "value" ] body)
          | Ast.Fredirect (name, _, e) ->
              note_attr name;
              Hashtbl.replace reads name (new_code (Ast.Return (Some e)));
              (match e with
              | Ast.Attr_access (obj, a) ->
                  Hashtbl.replace writes name
                    (new_code ~params:[ "value" ]
                       (Ast.Assign (Ast.Lattr (obj, a), Ast.Var "value")))
              | _ ->
                  diag env
                    (Printf.sprintf
                       "fashion: %s redirects to a non-assignable expression; \
                        writes will fail at run time"
                       name))
          | Ast.Fop (name, params, body) -> (
              match Schema_base.resolve_decl env.work ~tid:target ~name with
              | Some d ->
                  let cid = new_code ~params body in
                  add env
                    (Preds.fashiondecl_fact ~did:d.Schema_base.did ~tid:masked
                       ~cid)
              | None ->
                  diag env
                    (Printf.sprintf
                       "fashion: target type has no operation %s" name)))
        fd.Ast.fd_entries;
      List.iter
        (fun name ->
          let read =
            match Hashtbl.find_opt reads name with
            | Some cid -> cid
            | None ->
                diag env
                  (Printf.sprintf
                     "fashion: no read accessor for %s; reads will fail at \
                      run time"
                     name);
                new_code stub_body
          in
          let write =
            match Hashtbl.find_opt writes name with
            | Some cid -> cid
            | None ->
                diag env
                  (Printf.sprintf
                     "fashion: no write accessor for %s; writes will fail at \
                      run time"
                     name);
                new_code ~params:[ "value" ] stub_body
          in
          add env
            (Preds.fashionattr_fact ~owner_tid:target ~attr_name:name
               ~masked_tid:masked ~read_cid:read ~write_cid:write))
        (List.rev !attr_names)
  | _, _ -> ()

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let translate_unit env (items : Ast.unit_item list) =
  List.iter
    (fun (item : Ast.unit_item) ->
      match item with
      | Ast.Uschema sd -> translate_schema env sd
      | Ast.Ufashion fd -> translate_fashion env fd)
    items

(* ------------------------------------------------------------------ *)
(* Evolution commands                                                  *)
(* ------------------------------------------------------------------ *)

let require_schema env name k =
  match Schema_base.find_schema env.work ~name with
  | Some sid -> k sid
  | None -> diag env (Printf.sprintf "unknown schema %s" name)

(* Resolve a command's type reference; commands run outside any schema frame,
   so unqualified names are resolved against all schemas and must be
   unambiguous. *)
let require_type env (r : Ast.type_ref) k =
  match r.Ast.ref_schema with
  | Some schema -> (
      match
        Schema_base.find_type_at env.work ~type_name:r.Ast.ref_name
          ~schema_name:schema
      with
      | Some tid -> k tid
      | None -> diag env (Fmt.str "unknown type %a" Ast.pp_type_ref r))
  | None -> (
      match Builtin.tid_of_sort r.Ast.ref_name with
      | Some tid -> k tid
      | None -> (
          let hits =
            Schema_base.schemas env.work
            |> List.filter_map (fun (sid, _) ->
                   Schema_base.find_type env.work ~sid ~name:r.Ast.ref_name)
          in
          match hits with
          | [ tid ] -> k tid
          | [] -> diag env (Fmt.str "unknown type %a" Ast.pp_type_ref r)
          | _ :: _ :: _ ->
              diag env
                (Fmt.str "ambiguous type %a; qualify with @schema"
                   Ast.pp_type_ref r)))

let sid_of_tid env tid =
  match Schema_base.schema_of_type env.work ~tid with
  | Some sid -> sid
  | None -> Builtin.builtin_schema_sid

let delete_code_of_decl env did =
  match Schema_base.code_of_decl env.work ~did with
  | None -> ()
  | Some (cid, text) ->
      remove env (Preds.code_fact ~cid ~text ~did);
      List.iter
        (fun f -> remove env f)
        (Database.facts env.work Preds.codereqdecl
        |> List.filter (fun (f : Fact.t) ->
               Term.equal_const f.args.(0) (Term.symc cid)));
      List.iter
        (fun f -> remove env f)
        (Database.facts env.work Preds.codereqattr
        |> List.filter (fun (f : Fact.t) ->
               Term.equal_const f.args.(0) (Term.symc cid)))

let delete_decl env (d : Schema_base.decl_info) =
  delete_code_of_decl env d.Schema_base.did;
  List.iter
    (fun (pos, tid) ->
      remove env (Preds.argdecl_fact ~did:d.Schema_base.did ~pos ~tid))
    (Schema_base.args_of_decl env.work ~did:d.Schema_base.did);
  remove env
    (Preds.decl_fact ~did:d.Schema_base.did ~receiver:d.Schema_base.receiver
       ~name:d.Schema_base.op_name ~result:d.Schema_base.result)

let rec translate_command env (cmd : Ast.command) =
  match cmd with
  | Ast.Begin_session | Ast.End_session -> ()  (* handled by the session *)
  | Ast.Load items -> translate_unit env items
  | Ast.Fashion_cmd fd -> translate_fashion env fd
  | Ast.Add_schema name -> ignore (ensure_schema env name)
  | Ast.Add_type (name, schema, supers) ->
      require_schema env schema (fun sid ->
          let tid = add_type_skeleton env ~sid ~name in
          let supers = List.filter_map (resolve_type_ref env ~sid) supers in
          add_supertype_edges env ~tid supers)
  | Ast.Add_sort (name, schema, values) ->
      require_schema env schema (fun sid ->
          translate_sort env ~sid { Ast.sd_name = name; sd_values = values })
  | Ast.Add_attribute (ty, name, dom) ->
      require_type env ty (fun tid ->
          let sid = sid_of_tid env tid in
          match resolve_type_ref env ~sid dom with
          | Some domain -> add env (Preds.attr_fact ~tid ~name ~domain)
          | None -> add env (Preds.attr_fact ~tid ~name ~domain:dom.Ast.ref_name))
  | Ast.Delete_attribute (ty, name) ->
      require_type env ty (fun tid ->
          match
            List.assoc_opt name (Schema_base.direct_attrs env.work ~tid)
          with
          | Some domain -> remove env (Preds.attr_fact ~tid ~name ~domain)
          | None ->
              diag env
                (Fmt.str "type %a has no direct attribute %s" Ast.pp_type_ref
                   ty name))
  | Ast.Add_operation (ty, s) ->
      require_type env ty (fun tid ->
          let sid = sid_of_tid env tid in
          ignore (add_decl_with_args env ~tid s ~sid))
  | Ast.Delete_operation (ty, name) ->
      require_type env ty (fun tid ->
          match own_decl env ~tid ~name with
          | Some d ->
              List.iter
                (fun refining ->
                  remove env
                    (Preds.declrefinement_fact ~refining
                       ~refined:d.Schema_base.did))
                (Schema_base.refinements_of env.work ~did:d.Schema_base.did);
              delete_decl env d
          | None ->
              diag env
                (Fmt.str "type %a declares no operation %s" Ast.pp_type_ref ty
                   name))
  | Ast.Refine_operation (receiver, s, refined_ref) ->
      require_type env receiver (fun tid ->
          require_type env refined_ref (fun refined_tid ->
              match own_decl env ~tid:refined_tid ~name:s.Ast.op_name with
              | Some refined ->
                  let sid = sid_of_tid env tid in
                  let did = add_decl_with_args env ~tid s ~sid in
                  add env
                    (Preds.declrefinement_fact ~refining:did
                       ~refined:refined.Schema_base.did)
              | None ->
                  diag env
                    (Fmt.str "type %a declares no operation %s to refine"
                       Ast.pp_type_ref refined_ref s.Ast.op_name)))
  | Ast.Set_code (ty, op, params, body) ->
      require_type env ty (fun tid ->
          match own_decl env ~tid ~name:op with
          | Some d ->
              delete_code_of_decl env d.Schema_base.did;
              ignore
                (add_code_for env ~self_tid:tid ~did:d.Schema_base.did ~params
                   ~body)
          | None ->
              diag env
                (Fmt.str
                   "type %a declares no operation %s (declare or refine it \
                    before defining its code)"
                   Ast.pp_type_ref ty op))
  | Ast.Add_supertype (ty, sup) ->
      require_type env ty (fun tid ->
          require_type env sup (fun sup_tid ->
              remove env
                (Preds.subtyprel_fact ~sub:tid ~super:Builtin.any_tid);
              add env (Preds.subtyprel_fact ~sub:tid ~super:sup_tid)))
  | Ast.Delete_supertype (ty, sup) ->
      require_type env ty (fun tid ->
          require_type env sup (fun sup_tid ->
              remove env (Preds.subtyprel_fact ~sub:tid ~super:sup_tid);
              if Schema_base.direct_supertypes env.work ~tid = [] then
                add env (Preds.subtyprel_fact ~sub:tid ~super:Builtin.any_tid)))
  | Ast.Rename_type (ty, new_name) ->
      require_type env ty (fun tid ->
          match Schema_base.type_info env.work ~tid with
          | Some (old_name, sid) ->
              remove env (Preds.type_fact ~tid ~name:old_name ~sid);
              add env (Preds.type_fact ~tid ~name:new_name ~sid)
          | None -> ())
  | Ast.Delete_type ty ->
      require_type env ty (fun tid ->
          match Schema_base.type_info env.work ~tid with
          | Some (name, sid) ->
              (* the primitive deletion: the type fact and its own subtype
                 edges; everything else is the Consistency Control's business
                 (complex deletion semantics live in the evolution library) *)
              List.iter
                (fun super -> remove env (Preds.subtyprel_fact ~sub:tid ~super))
                (Schema_base.direct_supertypes env.work ~tid);
              remove env (Preds.type_fact ~tid ~name ~sid)
          | None -> ())
  | Ast.Delete_schema name ->
      require_schema env name (fun sid ->
          remove env (Preds.schema_fact ~sid ~name))
  | Ast.Copy_type (ty, schema) ->
      require_type env ty (fun src_tid ->
          require_schema env schema (fun sid ->
              copy_type env ~src_tid ~sid))
  | Ast.Evolve_schema (a, b) ->
      require_schema env a (fun from_sid ->
          require_schema env b (fun to_sid ->
              add env (Preds.evolves_to_s_fact ~from_sid ~to_sid)))
  | Ast.Evolve_type (a, b) ->
      require_type env a (fun from_tid ->
          require_type env b (fun to_tid ->
              add env (Preds.evolves_to_t_fact ~from_tid ~to_tid)))

(* Reuse a type's textual definition in another schema (step 4 of the
   section 4.2 scenario): copy attributes, declarations, argument lists,
   code (re-analyzed against the new self type) and supertype edges. *)
and copy_type env ~src_tid ~sid =
  match Schema_base.type_info env.work ~tid:src_tid with
  | None -> ()
  | Some (name, _) ->
      let tid = add_type_skeleton env ~sid ~name in
      List.iter
        (fun super -> add env (Preds.subtyprel_fact ~sub:tid ~super))
        (Schema_base.direct_supertypes env.work ~tid:src_tid);
      List.iter
        (fun (attr_name, domain) ->
          add env (Preds.attr_fact ~tid ~name:attr_name ~domain))
        (Schema_base.direct_attrs env.work ~tid:src_tid);
      List.iter
        (fun (d : Schema_base.decl_info) ->
          let did = Ids.fresh env.ids Ids.Decl in
          add env
            (Preds.decl_fact ~did ~receiver:tid ~name:d.Schema_base.op_name
               ~result:d.Schema_base.result);
          List.iter
            (fun (pos, t) -> add env (Preds.argdecl_fact ~did ~pos ~tid:t))
            (Schema_base.args_of_decl env.work ~did:d.Schema_base.did);
          match Schema_base.code_of_decl env.work ~did:d.Schema_base.did with
          | None -> ()
          | Some (src_cid, _text) -> (
              match find_code env src_cid with
              | Some (params, body) ->
                  ignore (add_code_for env ~self_tid:tid ~did ~params ~body)
              | None ->
                  diag env
                    (Printf.sprintf
                       "copy type %s: source code %s is not registered; the \
                        declaration is copied without code"
                       name src_cid)))
        (Schema_base.direct_decls env.work ~tid:src_tid)
