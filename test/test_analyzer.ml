(* Tests for the Analyzer: lexer, parser, code-dependency extraction,
   name resolution (appendix A), translation to base-fact deltas, and the
   evolution command language. *)

open Datalog
open Gom
open Analyzer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let full_theory () =
  let t = Theory.create () in
  Model.install_core t;
  Versioning.install t;
  Fashion.install t;
  Subschema.install t;
  Sorts.install t;
  t

let fresh_db () =
  let db = Database.create () in
  Builtin.seed db;
  db

(* Parse and translate definitions onto a fresh database; returns the
   working database (delta applied) and the analyzer result. *)
let load_definitions ?db ?ids src =
  let db = match db with Some db -> db | None -> fresh_db () in
  let ids = match ids with Some g -> g | None -> Ids.create () in
  let result = Analyzer.analyze_definitions db ids src in
  let _ = Delta.apply db result.Analyzer.delta in
  db, result

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "type Person is [ age : int; ] end" in
  check_int "token count incl EOF" 11 (List.length toks)

let test_lexer_comments () =
  let toks = Lexer.tokenize "a !! comment to eol\n b /* block \n comment */ c" in
  let idents =
    List.filter_map
      (fun t -> match t.Token.tok with Token.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "idents" [ "a"; "b"; "c" ] idents

let test_lexer_operators () =
  let toks = Lexer.tokenize ":= == != <= >= -> <- .. @" in
  let kinds = List.map (fun t -> t.Token.tok) toks in
  check_bool "ops" true
    (kinds
    = [
        Token.ASSIGN; Token.EQEQ; Token.NEQ; Token.LE; Token.GE; Token.ARROW;
        Token.LARROW; Token.DOTDOT; Token.AT; Token.EOF;
      ])

let test_lexer_string_escape () =
  let toks = Lexer.tokenize {|"hello\nworld"|} in
  match (List.hd toks).Token.tok with
  | Token.STRING s -> check_string "escaped" "hello\nworld" s
  | _ -> Alcotest.fail "expected string token"

let test_lexer_error_position () =
  match Lexer.tokenize "abc\n  #" with
  | exception Lexer.Error (_, 2, 3) -> ()
  | exception Lexer.Error (_, l, c) -> Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "expected lexer error"

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

let test_parse_car_schema () =
  match Analyzer.parse_unit Sources.car_schema with
  | [ Ast.Uschema sd ] ->
      check_string "name" "CarSchema" sd.Ast.sch_name;
      check_int "four types" 4 (List.length sd.Ast.sch_interface)
  | _ -> Alcotest.fail "expected one schema"

let test_parse_type_structure () =
  match Analyzer.parse_unit Sources.car_schema with
  | [ Ast.Uschema sd ] -> (
      match sd.Ast.sch_interface with
      | [ Ast.Ctype person; Ast.Ctype location; Ast.Ctype city; Ast.Ctype car ]
        ->
          check_int "person attrs" 2 (List.length person.Ast.td_attrs);
          check_int "location ops" 1 (List.length location.Ast.td_operations);
          check_int "city refines" 1 (List.length city.Ast.td_refines);
          check_int "car attrs" 4 (List.length car.Ast.td_attrs);
          check_bool "city supertype" true
            (city.Ast.td_supertypes = [ Ast.local "Location" ])
      | _ -> Alcotest.fail "expected four types")
  | _ -> Alcotest.fail "expected one schema"

let test_parse_error_reports_position () =
  match Analyzer.parse_unit "schema X is type ; end schema X;" with
  | exception Analyzer.Syntax_error msg ->
      check_bool "mentions position" true (String.contains msg ':')
  | _ -> Alcotest.fail "expected syntax error"

let test_parse_company () =
  let items = Analyzer.parse_unit Sources.company_schemas in
  check_int "twelve schemas" 12 (List.length items)

let test_parse_fashion () =
  let src =
    {|fashion Person@CarSchema as Person@NewCarSchema where
        birthday : -> date is begin return self.age; end;
        birthday : <- date is begin self.age := value; end;
        name : string is self.name;
      end fashion;|}
  in
  match Analyzer.parse_unit src with
  | [ Ast.Ufashion fd ] ->
      check_int "three entries" 3 (List.length fd.Ast.fd_entries)
  | _ -> Alcotest.fail "expected fashion def"

let test_parse_commands () =
  let cmds = Analyzer.parse_commands Sources.new_car_schema_commands in
  check_int "command count" 16 (List.length cmds);
  check_bool "starts with bes" true (List.hd cmds = Ast.Begin_session)

let test_parse_expression_precedence () =
  let cmds =
    Analyzer.parse_commands
      "set code of f of T is begin return 1 + 2 * 3 == 7; end;"
  in
  match cmds with
  | [ Ast.Set_code (_, _, _, Ast.Block [ Ast.Return (Some e) ]) ] ->
      check_bool "precedence" true
        (e
        = Ast.Binop
            ( Ast.Eq,
              Ast.Binop
                ( Ast.Add,
                  Ast.Int_lit 1,
                  Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3) ),
              Ast.Int_lit 7 ))
  | _ -> Alcotest.fail "unexpected parse"

(* ------------------------------------------------------------------ *)
(* Translation of the running example                                   *)
(* ------------------------------------------------------------------ *)

let test_translate_car_schema_counts () =
  let db, result = load_definitions Sources.car_schema in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  (* Figure 2 *)
  check_int "schemas" 2 (Database.count db Preds.schema_);  (* incl builtins *)
  check_int "types" (4 + 8) (Database.count db Preds.type_);
  check_int "attrs" 10 (Database.count db Preds.attr);
  check_int "decls" 3 (Database.count db Preds.decl);
  check_int "argdecls" 4 (Database.count db Preds.argdecl);
  check_int "codes" 3 (Database.count db Preds.code)

let test_translate_ids_match_figure2 () =
  let db, _ = load_definitions Sources.car_schema in
  check_bool "sid_1" true (Schema_base.find_schema db ~name:"CarSchema" = Some "sid_1");
  check_bool "tid_1 Person" true
    (Schema_base.find_type_at db ~type_name:"Person" ~schema_name:"CarSchema"
    = Some "tid_1");
  check_bool "tid_4 Car" true
    (Schema_base.find_type_at db ~type_name:"Car" ~schema_name:"CarSchema"
    = Some "tid_4");
  let d =
    Option.get (Schema_base.resolve_decl db ~tid:"tid_2" ~name:"distance")
  in
  check_string "did_1" "did_1" d.Schema_base.did

let test_translate_subtyping_and_refinement () =
  let db, _ = load_definitions Sources.car_schema in
  let city = Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"City") in
  let location =
    Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"Location")
  in
  check_bool "city <= location" true
    (Schema_base.is_subtype db ~sub:city ~super:location);
  let d_city = Option.get (Schema_base.resolve_decl db ~tid:city ~name:"distance") in
  let d_loc =
    Option.get (Schema_base.resolve_decl db ~tid:location ~name:"distance")
  in
  check_bool "refinement recorded" true
    (Schema_base.refinements_of db ~did:d_loc.Schema_base.did
    = [ d_city.Schema_base.did ])

let test_translate_code_dependencies () =
  let db, _ = load_definitions Sources.car_schema in
  (* changeLocation accesses owner, milage, location of Car and calls
     distance *)
  let car = Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"Car") in
  let attrs_of_cid cid =
    Database.facts db Preds.codereqattr
    |> List.filter_map (fun (f : Fact.t) ->
           if Term.equal_const f.args.(0) (Term.symc cid) then
             Some (Schema_base.sym_of f.args.(1), Schema_base.sym_of f.args.(2))
           else None)
    |> List.sort compare
  in
  let d = Option.get (Schema_base.resolve_decl db ~tid:car ~name:"changeLocation") in
  let cid, _ = Option.get (Schema_base.code_of_decl db ~did:d.Schema_base.did) in
  Alcotest.(check (list (pair string string)))
    "attrs used"
    [ car, "location"; car, "milage"; car, "owner" ]
    (attrs_of_cid cid);
  (* the call self.location.distance(...) resolves to City's refinement *)
  let city = Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"City") in
  let d_city = Option.get (Schema_base.resolve_decl db ~tid:city ~name:"distance") in
  let decls_used =
    Database.facts db Preds.codereqdecl
    |> List.filter_map (fun (f : Fact.t) ->
           if Term.equal_const f.args.(0) (Term.symc cid) then
             Some (Schema_base.sym_of f.args.(1))
           else None)
  in
  Alcotest.(check (list string)) "calls" [ d_city.Schema_base.did ] decls_used

let test_translated_schema_is_consistent () =
  let t = full_theory () in
  let db, _ = load_definitions Sources.car_schema in
  let viols = Checker.check t db in
  if viols <> [] then
    Alcotest.failf "violations: %a"
      Fmt.(list ~sep:comma Checker.pp_violation)
      viols

(* ------------------------------------------------------------------ *)
(* Appendix A: name spaces, visibility, imports                         *)
(* ------------------------------------------------------------------ *)

let test_company_hierarchy () =
  let t = full_theory () in
  let db, result = load_definitions Sources.company_schemas in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  let viols = Checker.check t db in
  if viols <> [] then
    Alcotest.failf "violations: %a"
      Fmt.(list ~sep:comma Checker.pp_violation)
      viols;
  let company = Option.get (Schema_base.find_schema db ~name:"Company") in
  let cad = Option.get (Schema_base.find_schema db ~name:"CAD") in
  let geometry = Option.get (Schema_base.find_schema db ~name:"Geometry") in
  check_bool "cad under company" true
    (Schema_base.parent_schema db ~sid:cad = Some company);
  check_bool "geometry under cad" true
    (Schema_base.parent_schema db ~sid:geometry = Some cad)

let test_two_cuboids_no_conflict () =
  let db, _ = load_definitions Sources.company_schemas in
  let csg = Option.get (Schema_base.find_schema db ~name:"CSG") in
  let brep = Option.get (Schema_base.find_schema db ~name:"BoundaryRep") in
  let c1 = Schema_base.find_type db ~sid:csg ~name:"Cuboid" in
  let c2 = Schema_base.find_type db ~sid:brep ~name:"Cuboid" in
  check_bool "both exist" true (c1 <> None && c2 <> None);
  check_bool "distinct" true (c1 <> c2)

let test_import_with_renaming_resolves () =
  let db, result = load_definitions Sources.company_schemas in
  check_bool "no diags" true (result.Analyzer.diagnostics = []);
  (* Converter.convert signature resolved CSGCuboid/BRepCuboid via renamed
     imports *)
  let conv_schema = Option.get (Schema_base.find_schema db ~name:"CSG2BoundRep") in
  let converter =
    Option.get (Schema_base.find_type db ~sid:conv_schema ~name:"Converter")
  in
  let d = Option.get (Schema_base.resolve_decl db ~tid:converter ~name:"convert") in
  let csg = Option.get (Schema_base.find_schema db ~name:"CSG") in
  let csg_cuboid = Option.get (Schema_base.find_type db ~sid:csg ~name:"Cuboid") in
  check_bool "arg type is CSG's cuboid" true
    (Schema_base.args_of_decl db ~did:d.Schema_base.did = [ 1, csg_cuboid ])

let test_name_conflict_detection () =
  (* A schema with two subschemas both exporting T: an unqualified use of T
     is a conflict. *)
  let src =
    {|
schema A is
  public T;
interface
  type T is [ x : int; ] end type T;
end schema A;
schema B is
  public T;
interface
  type T is [ y : int; ] end type T;
end schema B;
schema Top is
  subschema A;
  subschema B;
  type User is [ t : T; ] end type User;
end schema Top;
|}
  in
  let _, result = load_definitions src in
  check_bool "conflict reported" true
    (List.exists
       (fun d ->
         let contains s sub =
           let sl = String.length s and bl = String.length sub in
           let rec go i = i + bl <= sl && (String.sub s i bl = sub || go (i + 1)) in
           go 0
         in
         contains d "name conflict")
       result.Analyzer.diagnostics)

let test_renaming_resolves_conflict () =
  let src =
    {|
schema A is
  public T;
interface
  type T is [ x : int; ] end type T;
end schema A;
schema B is
  public T;
interface
  type T is [ y : int; ] end type T;
end schema B;
schema Top is
  subschema A with type T as AT; end subschema A;
  subschema B with type T as BT; end subschema B;
  type User is [ a : AT; b : BT; ] end type User;
end schema Top;
|}
  in
  let db, result = load_definitions src in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  let top = Option.get (Schema_base.find_schema db ~name:"Top") in
  let user = Option.get (Schema_base.find_type db ~sid:top ~name:"User") in
  let a_sid = Option.get (Schema_base.find_schema db ~name:"A") in
  let at = Option.get (Schema_base.find_type db ~sid:a_sid ~name:"T") in
  check_bool "a : AT resolved" true
    (List.assoc_opt "a" (Schema_base.direct_attrs db ~tid:user) = Some at)

let test_relative_import_paths () =
  let src =
    {|
schema Leaf is
  public T;
interface
  type T is [ x : int; ] end type T;
end schema Leaf;
schema Mid is
  subschema Leaf;
  subschema Sibling;
end schema Mid;
schema Root is
  subschema Mid;
  import Mid/Leaf with type T as LeafT; end import;
  type RootUser is [ t : LeafT; ] end type RootUser;
end schema Root;
schema Sibling is
  import ../Leaf with type T as UpT; end import;
  type SibUser is [ t : UpT; ] end type SibUser;
end schema Sibling;
|}
  in
  let db, result = load_definitions src in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  let leaf = Option.get (Schema_base.find_schema db ~name:"Leaf") in
  let t = Option.get (Schema_base.find_type db ~sid:leaf ~name:"T") in
  let root = Option.get (Schema_base.find_schema db ~name:"Root") in
  let sibling = Option.get (Schema_base.find_schema db ~name:"Sibling") in
  let root_user = Option.get (Schema_base.find_type db ~sid:root ~name:"RootUser") in
  let sib_user = Option.get (Schema_base.find_type db ~sid:sibling ~name:"SibUser") in
  check_bool "child-relative import resolved" true
    (List.assoc_opt "t" (Schema_base.direct_attrs db ~tid:root_user) = Some t);
  check_bool "parent-relative import resolved" true
    (List.assoc_opt "t" (Schema_base.direct_attrs db ~tid:sib_user) = Some t)

let test_import_exposes_all_components () =
  (* subschema visibility is public-only; an explicit import exposes
     everything defined in the imported schema (appendix A) *)
  let src =
    {|
schema Hidden is
  public P;
interface
  type P is [ x : int; ] end type P;
implementation
  type Secret is [ y : int; ] end type Secret;
end schema Hidden;
schema Top is
  subschema Hidden;
  type Fails is [ s : Secret; ] end type Fails;
end schema Top;
schema Importer is
  import /Top/Hidden;
  type Works is [ s : Secret; ] end type Works;
end schema Importer;
|}
  in
  let db, result = load_definitions src in
  (* the subschema path to Secret is diagnosed ... *)
  check_bool "subschema access diagnosed" true
    (List.exists
       (fun d ->
         let contains s sub =
           let sl = String.length s and bl = String.length sub in
           let rec go i = i + bl <= sl && (String.sub s i bl = sub || go (i + 1)) in
           go 0
         in
         contains d "unknown type Secret")
       result.Analyzer.diagnostics);
  (* ... while the import resolves it *)
  let importer = Option.get (Schema_base.find_schema db ~name:"Importer") in
  let works = Option.get (Schema_base.find_type db ~sid:importer ~name:"Works") in
  let hidden = Option.get (Schema_base.find_schema db ~name:"Hidden") in
  let secret = Option.get (Schema_base.find_type db ~sid:hidden ~name:"Secret") in
  check_bool "import exposes implementation type" true
    (List.assoc_opt "s" (Schema_base.direct_attrs db ~tid:works) = Some secret)

let test_parser_torture () =
  (* comments in every position, nested control flow, sorts, empty type *)
  let src =
    {|
!! leading comment
schema /* inline */ Torture is
  sort Mode is enum (fast, slow); !! a sort
  type Empty is end type Empty;
  type Node is
    [ next : Node; /* self-recursive */ value : int; ]
  operations
    declare sum : (int) -> int;
  implementation
    define sum(depth) is
    begin
      if (depth <= 0) return 0;
      if (self.next == self) begin
        return self.value;
      end else begin
        var acc : int := self.value;
        while (acc < 100) begin
          if (acc > 50) acc := acc + 10; else acc := acc + 1;
        end
        return acc + self.next.sum(depth - 1);
      end
    end sum;
  end type Node;
end schema Torture;
|}
  in
  let t = full_theory () in
  let db, result = load_definitions src in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  check_bool "consistent" true (Checker.check t db = [])

let test_self_recursive_domain () =
  let db, result =
    load_definitions
      "schema L is type Cell is [ next : Cell; v : int; ] end type Cell; end schema L;"
  in
  check_bool "no diagnostics" true (result.Analyzer.diagnostics = []);
  let l = Option.get (Schema_base.find_schema db ~name:"L") in
  let cell = Option.get (Schema_base.find_type db ~sid:l ~name:"Cell") in
  check_bool "self domain" true
    (List.assoc_opt "next" (Schema_base.direct_attrs db ~tid:cell) = Some cell)

(* ------------------------------------------------------------------ *)
(* Evolution commands                                                   *)
(* ------------------------------------------------------------------ *)

let load_car_then_commands src =
  let db = fresh_db () in
  let ids = Ids.create () in
  let r1 = Analyzer.analyze_definitions db ids Sources.car_schema in
  let _ = Delta.apply db r1.Analyzer.delta in
  let lookup_code cid = List.assoc_opt cid r1.Analyzer.code_asts in
  let r2 = Analyzer.analyze_commands ~lookup_code db ids src in
  let _ = Delta.apply db r2.Analyzer.delta in
  db, r2

let test_command_add_attribute () =
  let db, r =
    load_car_then_commands "add attribute fuelType : string to Car@CarSchema;"
  in
  check_bool "no diags" true (r.Analyzer.diagnostics = []);
  let car = Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"Car") in
  check_bool "attr present" true
    (List.assoc_opt "fuelType" (Schema_base.direct_attrs db ~tid:car)
    = Some "tid_string")

let test_command_delete_attribute () =
  let db, _ = load_car_then_commands "delete attribute age from Person@CarSchema;" in
  let p = Option.get (Schema_base.find_type db ~sid:"sid_1" ~name:"Person") in
  check_bool "age gone" true
    (List.assoc_opt "age" (Schema_base.direct_attrs db ~tid:p) = None)

let test_command_rename_type () =
  let db, _ = load_car_then_commands "rename type Car@CarSchema to OldCar;" in
  check_bool "renamed" true
    (Schema_base.find_type db ~sid:"sid_1" ~name:"OldCar" = Some "tid_4");
  check_bool "old name gone" true
    (Schema_base.find_type db ~sid:"sid_1" ~name:"Car" = None)

let test_command_delete_operation_cascades_code () =
  let db, _ =
    load_car_then_commands "delete operation changeLocation from Car@CarSchema;"
  in
  check_int "decls" 2 (Database.count db Preds.decl);
  check_int "codes" 2 (Database.count db Preds.code);
  (* CodeReqAttr of the removed code gone too *)
  check_bool "codereqattr cleaned" true
    (Database.facts db Preds.codereqattr
    |> List.for_all (fun (f : Fact.t) ->
           not (Term.equal_const f.args.(0) (Term.symc "cid_3"))))

let test_scenario_42_consistent () =
  let t = full_theory () in
  let db, r = load_car_then_commands Sources.new_car_schema_commands in
  check_bool "no diags" true (r.Analyzer.diagnostics = []);
  let viols = Checker.check t db in
  if viols <> [] then
    Alcotest.failf "violations: %a"
      Fmt.(list ~sep:comma Checker.pp_violation)
      viols;
  (* PolluterCar and CatalystCar exist with fuel operations *)
  let new_sid = Option.get (Schema_base.find_schema db ~name:"NewCarSchema") in
  let polluter =
    Option.get (Schema_base.find_type db ~sid:new_sid ~name:"PolluterCar")
  in
  let catalyst =
    Option.get (Schema_base.find_type db ~sid:new_sid ~name:"CatalystCar")
  in
  check_bool "polluter fuel" true
    (Schema_base.resolve_decl db ~tid:polluter ~name:"fuel" <> None);
  check_bool "catalyst fuel" true
    (Schema_base.resolve_decl db ~tid:catalyst ~name:"fuel" <> None);
  (* both inherit changeLocation from the copied Car *)
  check_bool "inherits changeLocation" true
    (Schema_base.resolve_decl db ~tid:polluter ~name:"changeLocation" <> None);
  (* version edges present *)
  check_bool "type evolution recorded" true
    (Schema_base.evolutions_of_type db ~tid:"tid_4" = [ polluter ])

let test_command_unknown_type_diagnosed () =
  let _, r = load_car_then_commands "add attribute x : int to Robot@CarSchema;" in
  check_bool "diagnosed" true (r.Analyzer.diagnostics <> [])

(* ------------------------------------------------------------------ *)
(* Unparsing: schema -> DDL text -> schema round trip                   *)
(* ------------------------------------------------------------------ *)

let roundtrip src =
  let db1 = fresh_db () in
  let ids1 = Ids.create () in
  let r1 = Analyzer.analyze_definitions db1 ids1 src in
  let _ = Delta.apply db1 r1.Analyzer.delta in
  let lookup cid = List.assoc_opt cid r1.Analyzer.code_asts in
  let text = Unparse.unparse_all (Unparse.make ~db:db1 ~lookup_code:lookup) in
  let db2 = fresh_db () in
  let r2 = Analyzer.analyze_definitions db2 (Ids.create ()) text in
  let _ = Delta.apply db2 r2.Analyzer.delta in
  db1, db2, text, r2

let counts db =
  List.map
    (fun p -> p, Database.count db p)
    [
      Preds.schema_; Preds.type_; Preds.attr; Preds.decl; Preds.argdecl;
      Preds.code; Preds.subtyprel; Preds.declrefinement; Preds.codereqdecl;
      Preds.codereqattr; Preds.subschemarel; Preds.imports; Preds.public_comp;
      Preds.renamed; Preds.schemavar;
    ]

let test_roundtrip_car_schema () =
  let db1, db2, text, r2 = roundtrip Sources.car_schema in
  if r2.Analyzer.diagnostics <> [] then
    Alcotest.failf "re-parse diagnostics: %s (text:\n%s)"
      (String.concat "; " r2.Analyzer.diagnostics)
      text;
  Alcotest.(check (list (pair string int))) "fact counts" (counts db1) (counts db2);
  (* the re-parsed schema is consistent too *)
  let t = full_theory () in
  check_bool "consistent" true (Checker.check t db2 = [])

let test_roundtrip_company () =
  let db1, db2, text, r2 = roundtrip Sources.company_schemas in
  if r2.Analyzer.diagnostics <> [] then
    Alcotest.failf "re-parse diagnostics: %s (text:\n%s)"
      (String.concat "; " r2.Analyzer.diagnostics)
      text;
  Alcotest.(check (list (pair string int))) "fact counts" (counts db1) (counts db2);
  let t = full_theory () in
  check_bool "consistent" true (Checker.check t db2 = [])

let test_roundtrip_preserves_behaviour () =
  (* the unparsed-and-reparsed CarSchema still computes: run changeLocation
     through a full manager built from the dumped text *)
  let db1 = fresh_db () in
  let r1 = Analyzer.analyze_definitions db1 (Ids.create ()) Sources.car_schema in
  let _ = Delta.apply db1 r1.Analyzer.delta in
  let lookup cid = List.assoc_opt cid r1.Analyzer.code_asts in
  let text = Unparse.unparse_all (Unparse.make ~db:db1 ~lookup_code:lookup) in
  let m = Core.Manager.create () in
  Core.Manager.begin_session m;
  Core.Manager.load_definitions m text;
  (match Core.Manager.end_session m with
  | Core.Manager.Consistent -> ()
  | Core.Manager.Inconsistent _ -> Alcotest.fail "re-parsed schema inconsistent");
  let rt = Core.Manager.runtime m in
  let db = Core.Manager.database m in
  let tid name =
    Option.get (Schema_base.find_type_at db ~type_name:name ~schema_name:"CarSchema")
  in
  let module Value = Runtime.Value in
  let car = Runtime.new_object rt ~tid:(tid "Car") in
  let person = Runtime.new_object rt ~tid:(tid "Person") in
  let city = Runtime.new_object rt ~tid:(tid "City") in
  Runtime.set rt city ~attr:"longi" ~value:(Value.Float 3.0);
  Runtime.set rt city ~attr:"lati" ~value:(Value.Float 4.0);
  Runtime.set rt car ~attr:"owner" ~value:person;
  Runtime.set rt car ~attr:"location"
    ~value:(Runtime.new_object rt ~tid:(tid "City"));
  let result = Runtime.send rt car ~op:"changeLocation" ~args:[ person; city ] in
  check_bool "still computes 25" true (Value.equal result (Value.Float 25.0))

(* Property: pretty-printed statements re-parse to the same AST. *)
let stmt_gen =
  let open QCheck.Gen in
  let expr_leaf =
    oneof
      [
        map (fun i -> Ast.Int_lit i) small_int;
        map (fun b -> Ast.Bool_lit b) bool;
        return Ast.Self;
        map (fun s -> Ast.Var ("v" ^ string_of_int s)) (int_bound 5);
        return (Ast.String_lit "s");
      ]
  in
  let expr =
    fix
      (fun self n ->
        if n = 0 then expr_leaf
        else
          oneof
            [
              expr_leaf;
              map2
                (fun a b -> Ast.Binop (Ast.Add, a, b))
                (self (n / 2)) (self (n / 2));
              map2
                (fun a b -> Ast.Binop (Ast.Lt, a, b))
                (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Not a) (self (n - 1));
              map (fun a -> Ast.Attr_access (a, "f")) (self (n - 1));
              map2 (fun a b -> Ast.Call (a, "g", [ b ])) (self (n / 2)) (self (n / 2));
            ])
      3
  in
  let stmt =
    fix
      (fun self n ->
        if n = 0 then map (fun e -> Ast.Return (Some e)) expr
        else
          oneof
            [
              map (fun e -> Ast.Return (Some e)) expr;
              map (fun e -> Ast.Expr e) expr;
              map2 (fun c s -> Ast.If (c, s, None)) expr (self (n - 1));
              map3
                (fun c a b -> Ast.If (c, a, Some b))
                expr (self (n / 2)) (self (n / 2));
              map2 (fun c s -> Ast.While (c, s)) expr (self (n - 1));
              map (fun ss -> Ast.Block ss) (list_size (int_range 0 3) (self (n / 2)));
              map2
                (fun x e -> Ast.Assign (Ast.Lvar ("v" ^ string_of_int x), e))
                (int_bound 5) expr;
            ])
      3
  in
  stmt

(* The printer braces the then-branch of if-with-else (to avoid the dangling
   else); parsing the result yields the normalized tree. *)
let rec normalize_stmt (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Block ss -> Ast.Block (List.map normalize_stmt ss)
  | Ast.If (c, a, None) -> Ast.If (c, normalize_stmt a, None)
  | Ast.If (c, a, Some b) ->
      let a =
        match normalize_stmt a with
        | Ast.Block _ as blk -> blk
        | other -> Ast.Block [ other ]
      in
      Ast.If (c, a, Some (normalize_stmt b))
  | Ast.While (c, a) -> Ast.While (c, normalize_stmt a)
  | Ast.Return _ | Ast.Local _ | Ast.Assign _ | Ast.Expr _ -> s

let prop_stmt_print_parse_roundtrip =
  QCheck.Test.make ~count:200 ~name:"printed statements re-parse"
    (QCheck.make ~print:Ast.stmt_to_string stmt_gen)
    (fun s ->
      (* parse the printed statement back via a set-code command *)
      let body =
        match s with Ast.Block _ -> s | other -> Ast.Block [ other ]
      in
      let src =
        Printf.sprintf "set code of f of T is %s;" (Ast.stmt_to_string body)
      in
      match Analyzer.parse_commands src with
      | [ Ast.Set_code (_, _, _, parsed) ] -> parsed = normalize_stmt body
      | _ -> false)

(* Property: a string literal as the AST printer writes it (OCaml's
   escapes) lexes back to the same bytes, whatever they are — so a method
   body survives the journal and the snapshot, which re-lex it. *)
let prop_string_literal_print_lex =
  QCheck.Test.make ~count:500 ~name:"string literals survive print then lex"
    QCheck.string
    (fun s ->
      match Lexer.tokenize (Fmt.str "%a" Ast.pp_expr (Ast.String_lit s)) with
      | [ { Token.tok = Token.STRING s'; _ }; { Token.tok = Token.EOF; _ } ] ->
          s' = s
      | _ -> false)

let test_lexer_escapes_beyond_newline () =
  let lexed src =
    match Lexer.tokenize src with
    | { Token.tok = Token.STRING s; _ } :: _ -> s
    | _ -> Alcotest.fail "expected string token"
  in
  check_string "tab, return, decimal escapes" "caf\xc3\xa9\t\r"
    (lexed {|"caf\195\169\t\r"|});
  check_string "quote and backslash" "a\"b\\" (lexed {|"a\"b\\"|});
  match Lexer.tokenize {|"\q"|} with
  | exception Lexer.Error (msg, _, _) ->
      check_bool "names the escape" true
        (String.length msg >= 10 && String.sub msg 0 10 = "bad escape")
  | _ -> Alcotest.fail "an unknown escape was accepted"

(* An integer literal past [max_int] is a lexer error, which the command
   grammar reports as a syntax error, not an internal failure. *)
let test_lexer_integer_out_of_range () =
  (match Lexer.tokenize "x := 99999999999999999999;" with
  | exception Lexer.Error (msg, 1, 6) ->
      check_string "message" "integer literal out of range: 99999999999999999999"
        msg
  | exception Lexer.Error (_, l, c) -> Alcotest.failf "wrong position %d:%d" l c
  | _ -> Alcotest.fail "an oversized integer lexed");
  match
    Analyzer.parse_commands
      "set code of f of T is begin return 99999999999999999999; end;"
  with
  | exception Analyzer.Syntax_error _ -> ()
  | _ -> Alcotest.fail "an oversized integer parsed"

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "analyzer.lexer",
      [
        Alcotest.test_case "basic" `Quick test_lexer_basic;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "string escapes" `Quick test_lexer_string_escape;
        Alcotest.test_case "escapes beyond newline" `Quick
          test_lexer_escapes_beyond_newline;
        Alcotest.test_case "integer out of range" `Quick
          test_lexer_integer_out_of_range;
        qcheck prop_string_literal_print_lex;
        Alcotest.test_case "error position" `Quick test_lexer_error_position;
      ] );
    ( "analyzer.parser",
      [
        Alcotest.test_case "car schema" `Quick test_parse_car_schema;
        Alcotest.test_case "type structure" `Quick test_parse_type_structure;
        Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
        Alcotest.test_case "company schemas" `Quick test_parse_company;
        Alcotest.test_case "fashion" `Quick test_parse_fashion;
        Alcotest.test_case "commands" `Quick test_parse_commands;
        Alcotest.test_case "expression precedence" `Quick
          test_parse_expression_precedence;
      ] );
    ( "analyzer.translate",
      [
        Alcotest.test_case "car schema counts" `Quick test_translate_car_schema_counts;
        Alcotest.test_case "figure 2 identifiers" `Quick
          test_translate_ids_match_figure2;
        Alcotest.test_case "subtyping and refinement" `Quick
          test_translate_subtyping_and_refinement;
        Alcotest.test_case "code dependencies" `Quick test_translate_code_dependencies;
        Alcotest.test_case "consistent result" `Quick
          test_translated_schema_is_consistent;
      ] );
    ( "analyzer.subschemas",
      [
        Alcotest.test_case "company hierarchy" `Quick test_company_hierarchy;
        Alcotest.test_case "two cuboids coexist" `Quick test_two_cuboids_no_conflict;
        Alcotest.test_case "import with renaming" `Quick
          test_import_with_renaming_resolves;
        Alcotest.test_case "name conflict detection" `Quick
          test_name_conflict_detection;
        Alcotest.test_case "renaming resolves conflict" `Quick
          test_renaming_resolves_conflict;
        Alcotest.test_case "relative import paths" `Quick
          test_relative_import_paths;
        Alcotest.test_case "import exposes all components" `Quick
          test_import_exposes_all_components;
      ] );
    ( "analyzer.torture",
      [
        Alcotest.test_case "comments and nesting" `Quick test_parser_torture;
        Alcotest.test_case "self-recursive domain" `Quick
          test_self_recursive_domain;
      ] );
    ( "analyzer.commands",
      [
        Alcotest.test_case "add attribute" `Quick test_command_add_attribute;
        Alcotest.test_case "delete attribute" `Quick test_command_delete_attribute;
        Alcotest.test_case "rename type" `Quick test_command_rename_type;
        Alcotest.test_case "delete operation cascades" `Quick
          test_command_delete_operation_cascades_code;
        Alcotest.test_case "section 4.2 scenario" `Quick test_scenario_42_consistent;
        Alcotest.test_case "unknown type diagnosed" `Quick
          test_command_unknown_type_diagnosed;
      ] );
    ( "analyzer.unparse",
      [
        Alcotest.test_case "car schema round trip" `Quick test_roundtrip_car_schema;
        Alcotest.test_case "company round trip" `Quick test_roundtrip_company;
        Alcotest.test_case "behaviour preserved" `Quick
          test_roundtrip_preserves_behaviour;
        qcheck prop_stmt_print_parse_roundtrip;
      ] );
  ]

let () = Alcotest.run "analyzer" suite
