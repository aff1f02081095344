(* Facade of the Analyzer module: parse GOM definition text or evolution
   commands and map them to base-predicate deltas (plus the parsed method
   bodies, which the Runtime System interprets). *)

module Ast = Ast
module Token = Token
module Lexer = Lexer
module Parser = Parser
module Code_analysis = Code_analysis
module Translate = Translate
module Unparse = Unparse
module Sources = Sources

type result = {
  delta : Datalog.Delta.t;
  diagnostics : string list;
  code_asts : (string * (string list * Ast.stmt)) list;
  commands : Ast.command list;  (* for command input: the parsed commands *)
}

exception Syntax_error of string

let wrap_syntax f =
  try f () with
  | Lexer.Error (msg, line, col) ->
      raise (Syntax_error (Printf.sprintf "%d:%d: %s" line col msg))
  | Parser.Error (msg, line, col) ->
      raise (Syntax_error (Printf.sprintf "%d:%d: %s" line col msg))

let parse_unit src = wrap_syntax (fun () -> Parser.parse_unit src)
let parse_commands src = wrap_syntax (fun () -> Parser.parse_commands src)

let result env commands =
  {
    delta = Translate.delta env;
    diagnostics = Translate.diagnostics env;
    code_asts = Translate.code_asts env;
    commands;
  }

(* Each entry point below analyzes over a fresh overlay of [db]: [db] is
   read, never copied or changed. *)

(* Analyze a full definition text (schema and fashion frames). *)
let analyze_definitions ?lookup_code (db : Datalog.Database.t)
    (ids : Gom.Ids.gen) (src : string) : result =
  let items = parse_unit src in
  let env = Translate.create ?lookup_code (Datalog.Database.overlay db) ids in
  Translate.translate_unit env items;
  result env []

(* Analyze already-parsed commands over [work], which takes their changes. *)
let analyze_in ?lookup_code (work : Datalog.Database.t) (ids : Gom.Ids.gen)
    (commands : Ast.command list) : result =
  let env = Translate.create ?lookup_code work ids in
  List.iter (Translate.translate_command env) commands;
  result env commands

let analyze_parsed ?lookup_code db ids commands =
  analyze_in ?lookup_code (Datalog.Database.overlay db) ids commands

(* Analyze evolution-command text.  Begin/End session markers are returned in
   [commands] for the session layer; everything else is translated. *)
let analyze_commands ?lookup_code db ids src =
  analyze_parsed ?lookup_code db ids (parse_commands src)
