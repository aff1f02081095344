(* The schema manager: the paper's Consistency Control wired to the
   Analyzer and the Runtime System (Figure 1).

   All changes to the Database Model go through [modify], enclosed between
   BES (begin of evolution session) and EES (end of evolution session); at
   EES time consistency is checked, and on a detected inconsistency the
   manager generates repairs (decorated with Analyzer/Runtime explanations)
   the user can choose from — undoing the session is always among them. *)

open Datalog
open Gom

module Ast = Analyzer.Ast
module Object_store = Runtime.Object_store
module Value = Runtime.Value

type report = {
  violation : Checker.violation;
  description : string;
}

type outcome = Consistent | Inconsistent of report list

type change = {
  delta : Delta.t;
  code : (string * (string list * Ast.stmt)) list;
  ids : Ids.gen;
}

exception No_session
exception Session_open

type session = {
  mutable log : Delta.t list;  (* effective deltas, newest first *)
  mutable diags : string list;  (* analyzer diagnostics, newest first *)
  code_before : (string, (string list * Ast.stmt) option) Hashtbl.t;
      (* each code id the session bound: its binding before the first *)
  store_snapshot : Object_store.t;
  globals_snapshot : (string * Value.t) list;
  ids_snapshot : Ids.gen;
}

type t = {
  theory : Theory.t;
  edb : Database.t;
  ids : Ids.gen;
  code : (string, string list * Ast.stmt) Hashtbl.t;
  mutable code_version : int;  (* bumped by every change to [code] *)
  mutable runtime : Runtime.t option;  (* backpatched at creation *)
  mutable session : session option;
  mutable derived : derived option;
      (* the one DRed-maintained derived state, shaped by what was read *)
  mutable last_key : cone_key option;
      (* the key the previous session check needed *)
  mutable read : bool;
      (* derived state was read since the previous session check *)
  shapes : (string, Eval.query) Hashtbl.t;
      (* prepared query bodies by shape key, at most [max_query_shapes] *)
}

(* What a session check evaluates: the theory revision and the names of
   the affected constraints, in theory order. *)
and cone_key = int * string list

(* [Cone]: the rules a repeated session check needs.  [Whole]: the whole
   program, built by a read of derived state and kept while reads keep
   coming; the int is the theory revision it was built against. *)
and derived =
  | Cone of cone_key * Incremental.state
  | Whole of int * Incremental.state

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let install_extensions t ~versioning ~fashion ~subschemas ~sorts =
  if versioning then Versioning.install t.theory;
  if fashion then begin
    if not versioning then Versioning.install t.theory;
    Fashion.install t.theory
  end;
  if subschemas then Subschema.install t.theory;
  if sorts then Sorts.install t.theory

let runtime t =
  match t.runtime with
  | Some rt -> rt
  | None -> invalid_arg "Manager: runtime not initialized"

(* The derived state, unless the theory changed since it was built: a
   revision bump drops either shape. *)
let live t =
  let rev = Theory.revision t.theory in
  match t.derived with
  | Some (Cone ((r, _), _) | Whole (r, _)) when r <> rev ->
      t.derived <- None;
      None
  | d -> d

(* The whole program maintained in place over [t.edb]; building it drops
   a retained cone, which it subsumes. *)
let whole t : Incremental.state =
  t.read <- true;
  match live t with
  | Some (Whole (_, state)) -> state
  | Some (Cone _) | None ->
      let state = Incremental.init ~copy:false t.theory t.edb in
      t.derived <- Some (Whole (Theory.revision t.theory, state));
      state

(* Apply a base-fact delta, keeping whichever derived state is live in
   step. *)
let apply_delta t (delta : Delta.t) : Delta.t =
  match live t with
  | Some (Cone (_, state) | Whole (_, state)) -> Incremental.apply state delta
  | None -> Delta.apply t.edb delta

let modify t (delta : Delta.t) : Delta.t =
  match t.session with
  | Some session ->
      let effective = apply_delta t delta in
      if not (Delta.is_empty effective) then
        session.log <- effective :: session.log;
      effective
  | None -> raise No_session

(* Runtime-reported changes outside a session are applied directly: the
   Runtime System is trusted to keep the physical model in step (creating or
   retiring representations), and every schema-changing path runs inside a
   session. *)
let runtime_modify t (delta : Delta.t) : unit =
  match t.session with
  | Some _ -> ignore (modify t delta)
  | None -> ignore (apply_delta t delta)

let create ?(versioning = true) ?(fashion = true) ?(subschemas = true)
    ?(sorts = true) () : t =
  let theory = Theory.create () in
  Model.install_core theory;
  let t =
    {
      theory;
      edb = Database.create ();
      ids = Ids.create ();
      code = Hashtbl.create 64;
      code_version = 0;
      runtime = None;
      session = None;
      derived = None;
      last_key = None;
      read = false;
      shapes = Hashtbl.create 16;
    }
  in
  install_extensions t ~versioning ~fashion ~subschemas ~sorts;
  (* predicate declarations for arity checking *)
  List.iter
    (fun (d : Theory.pred_decl) ->
      Database.declare t.edb ~name:d.Theory.name ~columns:d.Theory.columns)
    (Theory.predicates theory);
  Builtin.seed t.edb;
  let rt =
    Runtime.create
      ~schema:(fun () -> t.edb)
      ~lookup_code:(fun cid -> Hashtbl.find_opt t.code cid)
      ~modify:(runtime_modify t)
      ~ids:t.ids
  in
  t.runtime <- Some rt;
  t

let database t = t.edb
let theory t = t.theory
let ids t = t.ids
let lookup_code t cid = Hashtbl.find_opt t.code cid
let code_version t = t.code_version
let in_session t = t.session <> None

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let begin_session t =
  if t.session <> None then raise Session_open;
  let rt = runtime t in
  t.session <-
    Some
      {
        log = [];
        diags = [];
        code_before = Hashtbl.create 8;
        store_snapshot = Object_store.snapshot (Runtime.store rt);
        globals_snapshot =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) rt.Runtime.globals [];
        ids_snapshot = Ids.copy t.ids;
      }

let current_session t =
  match t.session with Some s -> s | None -> raise No_session

(* The session's net effective delta: per fact, only its overall movement
   relative to the BES state survives (an add later undone by a delete — or
   vice versa — cancels out).  Effective ops on one fact alternate, so the
   first and last op agreeing means the fact moved; disagreeing means it
   ended where it started.  Netting makes the delta order-free: applying it
   to the BES state (deletions first, as {!Delta.apply} does) reproduces the
   EES state exactly, which journal replay relies on. *)
let session_delta t =
  let s = current_session t in
  let first = Hashtbl.create 32 and last = Hashtbl.create 32 in
  let record is_add (f : Fact.t) =
    if not (Hashtbl.mem first f) then Hashtbl.replace first f is_add;
    Hashtbl.replace last f is_add
  in
  List.iter
    (fun (d : Delta.t) ->
      (* within one effective delta, deletions happened first *)
      List.iter (record false) d.Delta.deletions;
      List.iter (record true) d.Delta.additions)
    (List.rev s.log);
  let moved = ref [] in
  Hashtbl.iter
    (fun f first_add ->
      if first_add = Hashtbl.find last f then moved := (f, first_add) :: !moved)
    first;
  List.fold_left
    (fun acc (f, is_add) -> if is_add then Delta.add f acc else Delta.del f acc)
    Delta.empty
    (List.sort (fun (a, _) (b, _) -> Fact.compare a b) !moved)

let session_diagnostics t = List.rev (current_session t).diags

(* Bind code in the open session, logging the binding it replaces on the
   session's first change to [cid]. *)
let bind_code t cid code =
  let s = current_session t in
  if not (Hashtbl.mem s.code_before cid) then
    Hashtbl.add s.code_before cid (Hashtbl.find_opt t.code cid);
  Hashtbl.replace t.code cid code;
  t.code_version <- t.code_version + 1

(* Code registrations made since BES: the logged code ids whose binding
   differs from the one before the session.  (The AST is pure data, so
   structural comparison is exact.) *)
let session_code_changes t =
  let s = current_session t in
  Hashtbl.fold
    (fun cid before acc ->
      let code = Hashtbl.find t.code cid in
      if before = Some code then acc else (cid, code) :: acc)
    s.code_before []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Register analyzer results into the open session. *)
let absorb t (r : Analyzer.result) =
  let s = current_session t in
  List.iter (fun (cid, code) -> bind_code t cid code) r.Analyzer.code_asts;
  s.diags <- List.rev_append r.Analyzer.diagnostics s.diags;
  ignore (modify t r.Analyzer.delta)

(* The Analyzer front end: definition frames and evolution commands. *)
let load_definitions t (src : string) =
  ignore (current_session t);
  let r =
    Analyzer.analyze_definitions ~lookup_code:(lookup_code t) t.edb t.ids src
  in
  absorb t r

let run_command t cmd =
  absorb t
    (Analyzer.analyze_parsed ~lookup_code:(lookup_code t) t.edb t.ids [ cmd ])

let run_commands t (src : string) =
  ignore (current_session t);
  List.iter
    (function
      | Ast.Begin_session | Ast.End_session ->
          invalid_arg
            "Manager.run_commands: bes/ees inside an open session; use \
             run_script"
      | cmd -> run_command t cmd)
    (Analyzer.parse_commands src)

let propose t (delta : Delta.t) = ignore (modify t delta)

(* Register (or replace) interpretable code under a cid; used by complex
   evolution operators that rewrite method bodies. *)
let register_code t cid params body = bind_code t cid (params, body)

(* ------------------------------------------------------------------ *)
(* Checking and repairs                                                *)
(* ------------------------------------------------------------------ *)

let describe_violation (v : Checker.violation) : string =
  let witness =
    Checker.witness_bindings v
    |> List.map (fun (var, c) ->
           Printf.sprintf "%s = %s" var (Term.const_to_string c))
    |> String.concat ", "
  in
  Printf.sprintf "constraint %s violated [%s]" v.Checker.constraint_name witness

(* The derived database the current base facts imply: the whole program's
   maintained state itself, not a copy. *)
let materialized t : Database.t = Incremental.materialized (whole t)

(* The session check reads only the affected constraints.  Off the whole
   state while reads keep it: one that nothing has read since the previous
   session check is dropped here, so a manager that mostly commits stops
   maintaining the whole program.  Otherwise the first time a key is
   needed the cone is evaluated from scratch beside the base, which it
   only reads, and nothing is kept.  When the next check needs the same
   key, the cone is evaluated in place over the base and kept: from then
   on every delta maintains it ({!apply_delta}) and a check with that key
   evaluates nothing.  Needing another key drops it. *)
let cone_violations t delta =
  (match t.derived with
  | Some (Whole _) when not t.read -> t.derived <- None
  | _ -> ());
  t.read <- false;
  match
    Theory.affected_constraints t.theory
      ~changed_preds:(Delta.changed_preds delta)
  with
  | [] -> []
  | affected -> (
      (* the affected list comes in theory order, the same for the same
         set: its names key the cone as they are *)
      let key =
        ( Theory.revision t.theory,
          List.map (fun c -> c.Constraint_compile.name) affected )
      in
      let previous = t.last_key in
      t.last_key <- Some key;
      match live t with
      | Some (Whole (_, state)) -> Incremental.violations ~only:affected state
      | Some (Cone (k, cone)) when k = key ->
          Incremental.violations ~only:affected cone
      | Some (Cone _) | None ->
          t.derived <- None;
          if previous = Some key then begin
            let cone =
              Incremental.init ~copy:false
                ~rules:(Incremental.cone t.theory affected) t.theory t.edb
            in
            t.derived <- Some (Cone (key, cone));
            Incremental.violations ~only:affected cone
          end
          else Incremental.check_affected t.theory t.edb ~delta)

let check_now ?delta t : report list =
  let violations =
    match t.session with
    | Some _ ->
        cone_violations t
          (match delta with Some d -> d | None -> session_delta t)
    | None -> Incremental.violations (whole t)
  in
  List.map
    (fun v -> { violation = v; description = describe_violation v })
    violations

(* Repairs for one violation, each decorated with the Analyzer/Runtime
   explanations of its actions (protocol step 7). *)
let repairs_for t (v : Checker.violation) : (Repair.t * string list) list =
  Repair.generate t.theory (materialized t) v
  |> List.map (fun r -> r, Explain.explain_repair t.edb r)

(* Instantiate Fresh placeholders with newly allocated identifiers. *)
let instantiate_fresh t (repair : Repair.t) : Repair.t =
  let assigned = Hashtbl.create 4 in
  let conv (c : Term.const) =
    match c with
    | Term.Fresh name -> (
        match Hashtbl.find_opt assigned name with
        | Some c -> c
        | None ->
            let fresh =
              (* guess the identifier sort from the variable's use; physical
                 representations are the common case in repairs *)
              if String.length name > 0 && name.[0] = 'C' then
                Ids.fresh t.ids Ids.Phrep
              else Ids.fresh t.ids Ids.Type
            in
            let c = Term.symc fresh in
            Hashtbl.replace assigned name c;
            c)
    | Term.Sym _ | Term.Int _ -> c
  in
  List.map
    (fun (a : Repair.action) ->
      match a with
      | Repair.Add f -> Repair.Add { f with Fact.args = Array.map conv f.Fact.args }
      | Repair.Del f -> Repair.Del { f with Fact.args = Array.map conv f.Fact.args })
    repair

(* Execute a chosen repair (protocol step 9).  Physical-model actions are
   carried out by the Runtime System: adding a slot runs a conversion over
   the affected objects, deleting a representation deletes all instances. *)
let execute_repair t ?fill (repair : Repair.t) : unit =
  ignore (current_session t);
  let rt = runtime t in
  let repair = instantiate_fresh t repair in
  List.iter
    (fun (action : Repair.action) ->
      match action with
      | Repair.Add ({ Fact.pred = "Slot"; args } as f) ->
          (* conversion: add the slot to every object with this
             representation *)
          let clid = Term.const_to_string args.(0) in
          let attr = Term.const_to_string args.(1) in
          (match Schema_base.type_of_phrep t.edb ~clid with
          | Some tid ->
              let domain =
                match Schema_base.type_of_phrep t.edb
                        ~clid:(Term.const_to_string args.(2))
                with
                | Some d -> d
                | None -> "tid_void"
              in
              let fill =
                match fill with
                | Some f -> f
                | None ->
                    fun (_ : Object_store.obj) ->
                      Value.default_for ~domain_tid:domain
              in
              ignore
                (Runtime.Conversion.add_attribute_slots rt ~tid ~attr ~domain
                   ~fill)
          | None -> ignore (modify t (Delta.of_lists ~additions:[ f ] ~deletions:[])))
      | Repair.Del { Fact.pred = "Slot"; args } ->
          let clid = Term.const_to_string args.(0) in
          let attr = Term.const_to_string args.(1) in
          (match Schema_base.type_of_phrep t.edb ~clid with
          | Some tid ->
              ignore (Runtime.Conversion.drop_attribute_slots rt ~tid ~attr)
          | None ->
              ignore
                (modify t
                   (Delta.of_lists ~additions:[]
                      ~deletions:
                        [ Preds.slot_fact ~clid ~attr_name:attr
                            ~value_clid:(Term.const_to_string args.(2)) ])))
      | Repair.Del { Fact.pred = "PhRep"; args } ->
          (* delete all instances of the type *)
          let tid = Term.const_to_string args.(1) in
          ignore (Runtime.delete_all_of_type rt ~tid)
      | Repair.Add f ->
          ignore (modify t (Delta.of_lists ~additions:[ f ] ~deletions:[]))
      | Repair.Del f ->
          ignore (modify t (Delta.of_lists ~additions:[] ~deletions:[ f ])))
    repair

(* Undo the evolution session: invert every logged delta, unregister the
   session's code, and restore the object base. *)
let rollback t =
  let s = current_session t in
  List.iter (fun d -> ignore (apply_delta t (Delta.invert d))) s.log;
  Hashtbl.iter
    (fun cid before ->
      match before with
      | Some code -> Hashtbl.replace t.code cid code
      | None -> Hashtbl.remove t.code cid)
    s.code_before;
  t.code_version <- t.code_version + 1;
  let rt = runtime t in
  Object_store.restore (Runtime.store rt) ~from:s.store_snapshot;
  Hashtbl.reset rt.Runtime.globals;
  List.iter (fun (k, v) -> Hashtbl.replace rt.Runtime.globals k v)
    s.globals_snapshot;
  Ids.assign ~into:t.ids s.ids_snapshot;
  t.session <- None

(* EES: check; on success the session ends, otherwise it stays open and the
   reports are returned (protocol steps 4-6). *)
let end_session ?delta t : outcome =
  ignore (current_session t);
  match check_now ?delta t with
  | [] ->
      t.session <- None;
      Consistent
  | reports -> Inconsistent reports

(* ------------------------------------------------------------------ *)
(* Change sets                                                         *)
(* ------------------------------------------------------------------ *)

(* A session holding [c]: its delta applied once, its code bound, the
   counters raised to its own.  Returns the effective delta; on an
   exception nothing is left open. *)
let open_change t c =
  begin_session t;
  match
    let effective = modify t c.delta in
    List.iter (fun (cid, code) -> bind_code t cid code) c.code;
    let g = c.ids in
    t.ids.schemas <- max t.ids.schemas g.schemas;
    t.ids.types <- max t.ids.types g.types;
    t.ids.decls <- max t.ids.decls g.decls;
    t.ids.codes <- max t.ids.codes g.codes;
    t.ids.phreps <- max t.ids.phreps g.phreps;
    t.ids.objects <- max t.ids.objects g.objects;
    effective
  with
  | effective -> effective
  | exception e ->
      rollback t;
      raise e

(* One apply's effective delta is the net one unless a fact is deleted
   and re-added in it, and then it only names more predicates to check. *)
let commit ?(around_check = fun check -> check ()) t c =
  let delta = open_change t c in
  match around_check (fun () -> end_session ~delta t) with
  | Consistent -> Consistent
  | Inconsistent _ as o ->
      rollback t;
      o
  | exception e ->
      if in_session t then rollback t;
      raise e

let with_change t c f =
  ignore (open_change t c);
  Fun.protect ~finally:(fun () -> if in_session t then rollback t) f

(* ------------------------------------------------------------------ *)
(* The full session protocol (section 3.5, steps 1-9)                  *)
(* ------------------------------------------------------------------ *)

type choice =
  | Choose_repair of Repair.t
  | Choose_rollback
  | Give_up  (* leave the session open for further manual changes *)

(* Drive a session to completion: after EES, as long as inconsistencies are
   detected, [choose] picks a repair (or rollback) for the first violation;
   chosen repairs are executed and checking resumes. *)
let end_session_with t
    ~(choose : report -> (Repair.t * string list) list -> choice) : outcome =
  let rec loop guard =
    if guard <= 0 then
      match check_now t with [] -> Consistent | rs -> Inconsistent rs
    else
      match end_session t with
      | Consistent -> Consistent
      | Inconsistent (report :: _ as reports) -> (
          let repairs = repairs_for t report.violation in
          match choose report repairs with
          | Choose_rollback ->
              rollback t;
              Consistent
          | Give_up -> Inconsistent reports
          | Choose_repair r ->
              execute_repair t r;
              loop (guard - 1))
      | Inconsistent [] -> assert false
  in
  loop 64

(* Answer a deductive query (textual or pre-parsed literals) against the
   given materialization of the current state, or the maintained one;
   each answer is the witness bindings. *)
let answers ?materialized:db t q ?consts () : (string * Term.const) list list =
  let db = match db with Some db -> db | None -> materialized t in
  let out = ref [] in
  Eval.run_query db q ?consts (fun s -> out := Eval.answer q s :: !out);
  List.rev !out

let query ?materialized t (lits : Rule.literal list) =
  answers ?materialized t (Eval.prepare_query lits) ()

(* A text whose shape was prepared before reuses that preparation with its
   own constants; a new shape is parsed, normalized and planned once, then
   kept (the table is flushed wholesale when full, like the broker's
   response cache).  Texts that fail to parse or order are never kept. *)
let max_query_shapes = 256

let query_text ?materialized t (src : string) =
  let toks = Parse.tokenize src in
  let key, consts = Parse.query_shape toks in
  match Hashtbl.find_opt t.shapes key with
  | Some q -> answers ?materialized t q ~consts ()
  | None ->
      let q = Eval.prepare_query (Parse.query_tokens toks) in
      if Hashtbl.length t.shapes >= max_query_shapes then
        Hashtbl.reset t.shapes;
      Hashtbl.replace t.shapes key q;
      answers ?materialized t q ()

(* Run a command script containing bes/ees markers (step 1-5 driver). *)
let run_script t (src : string) : outcome =
  let outcome = ref Consistent in
  List.iter
    (function
      | Ast.Begin_session -> begin_session t
      | Ast.End_session -> outcome := end_session t
      | cmd -> run_command t cmd)
    (Analyzer.parse_commands src);
  !outcome
