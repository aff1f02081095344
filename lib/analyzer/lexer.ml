(* Hand-written lexer for the GOM definition and evolution languages.
   Comments: "!! ..." to end of line (the paper's style) and "/* ... */". *)

exception Error of string * int * int  (* message, line, column *)

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let col st = st.pos - st.bol + 1

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let error st msg = raise (Error (msg, st.line, col st))

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_alpha c || is_digit c || c = '$'

let rec skip_space st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_space st
  | Some '!' when peek2 st = Some '!' ->
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_space st
  | Some '/' when peek2 st = Some '*' ->
      advance st;
      advance st;
      let rec to_close () =
        match peek st, peek2 st with
        | Some '*', Some '/' ->
            advance st;
            advance st
        | None, _ -> error st "unterminated comment"
        | Some _, _ ->
            advance st;
            to_close ()
      in
      to_close ();
      skip_space st
  | Some _ | None -> ()

let lex_ident st =
  let start = st.pos in
  let rec go () =
    match peek st with
    | Some c when is_ident c ->
        advance st;
        go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub st.src start (st.pos - start)

let lex_number st =
  let start = st.pos in
  let rec digits () =
    match peek st with
    | Some c when is_digit c ->
        advance st;
        digits ()
    | Some _ | None -> ()
  in
  digits ();
  match peek st, peek2 st with
  | Some '.', Some c when is_digit c ->
      advance st;
      digits ();
      Token.FLOAT (float_of_string (String.sub st.src start (st.pos - start)))
  | _ -> (
      let text = String.sub st.src start (st.pos - start) in
      match int_of_string_opt text with
      | Some i -> Token.INT i
      | None ->
          let msg = "integer literal out of range: " ^ text in
          raise (Error (msg, st.line, start - st.bol + 1)))

(* A string literal's body is written with OCaml's escapes (the AST
   printer uses [String.escaped]), so [Scanf.unescaped] is its decoder:
   any byte survives print-then-lex. *)
let lex_string st =
  advance st;
  let start = st.pos in
  let rec go escaped =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> escaped
    | Some '\\' ->
        advance st;
        if peek st = None then error st "unterminated string literal";
        advance st;
        go true
    | Some _ ->
        advance st;
        go escaped
  in
  let escaped = go false in
  let raw = String.sub st.src start (st.pos - start) in
  advance st;
  if not escaped then Token.STRING raw
  else
    match Scanf.unescaped raw with
    | s -> Token.STRING s
    | exception Scanf.Scan_failure _ ->
        error st "bad escape sequence in string literal"

(* [Token.keywords] as a set: one hash and a compare or two per
   identifier, not a walk of the list. *)
module Keywords = Hashtbl.Make (String)

let keywords =
  let tbl = Keywords.create 64 in
  List.iter (fun kw -> Keywords.replace tbl kw ()) Token.keywords;
  tbl

let next_token st : Token.located =
  skip_space st;
  let line = st.line and c0 = col st in
  let mk tok = { Token.tok; line; col = c0 } in
  match peek st with
  | None -> mk Token.EOF
  | Some c when is_alpha c ->
      let id = lex_ident st in
      if Keywords.mem keywords id then mk (Token.KW id) else mk (Token.IDENT id)
  | Some c when is_digit c -> mk (lex_number st)
  | Some '"' -> mk (lex_string st)
  | Some c -> (
      let two tok =
        advance st;
        advance st;
        mk tok
      in
      let one tok =
        advance st;
        mk tok
      in
      match c, peek2 st with
      | '-', Some '>' -> two Token.ARROW
      | '<', Some '-' -> two Token.LARROW
      | '<', Some '=' -> two Token.LE
      | '>', Some '=' -> two Token.GE
      | ':', Some '=' -> two Token.ASSIGN
      | '=', Some '=' -> two Token.EQEQ
      | '!', Some '=' -> two Token.NEQ
      | '.', Some '.' -> two Token.DOTDOT
      | '[', _ -> one Token.LBRACKET
      | ']', _ -> one Token.RBRACKET
      | '(', _ -> one Token.LPAREN
      | ')', _ -> one Token.RPAREN
      | ';', _ -> one Token.SEMI
      | ':', _ -> one Token.COLON
      | ',', _ -> one Token.COMMA
      | '.', _ -> one Token.DOT
      | '@', _ -> one Token.AT
      | '/', _ -> one Token.SLASH
      | '<', _ -> one Token.LT
      | '>', _ -> one Token.GT
      | '+', _ -> one Token.PLUS
      | '-', _ -> one Token.MINUS
      | '*', _ -> one Token.STAR
      | _ -> error st (Printf.sprintf "unexpected character %C" c))

let tokenize (src : string) : Token.located list =
  let st = make src in
  let rec go acc =
    let t = next_token st in
    if t.Token.tok = Token.EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []
