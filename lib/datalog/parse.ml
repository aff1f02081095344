(* A small concrete syntax for the deductive layer, so constraints, rules
   and queries can be stated as text (the user-facing side of "schema
   consistency can be stated declaratively"):

     formula  ::=  'forall' vars '.' formula
                |  'exists' vars '.' formula
                |  implies
     implies  ::=  or ( ('->' | '=>') implies )?      right associative
     or       ::=  and ( ('\/' | 'or') and )*
     and      ::=  unary ( ('/\' | 'and') unary )*
     unary    ::=  ('not' | '~') unary | 'true' | 'false' | '(' formula ')'
                |  atom | term cmp term
     atom     ::=  IDENT '(' term, ... ')'
     term     ::=  VARIABLE (capitalized) | 'symbol' | "symbol" | INT
                |  lowercase-ident (a symbol constant)
     cmp      ::=  '=' | '!=' | '<' | '<=' | '>' | '>='

     rule     ::=  atom ':-' literal, ... '.'   |   atom '.'
     literal  ::=  atom | 'not' atom | term cmp term
     query    ::=  literal, ... ('.' | '?')?

   Variables start with an upper-case letter or '_'; everything else is a
   symbol constant.  Quoted symbols allow arbitrary contents. *)

exception Error of string

type token =
  | TIdent of string  (* lower-case: predicate or symbol *)
  | TVar of string  (* upper-case *)
  | TQuoted of string
  | TInt of int
  | TLparen
  | TRparen
  | TComma
  | TDot
  | TTurnstile  (* :- *)
  | TArrow  (* -> or => *)
  | TIff  (* <-> or <=> *)
  | TAnd
  | TOr
  | TNot
  | TForall
  | TExists
  | TTrue
  | TFalse
  | TCmp of Rule.cmp
  | TQuestion
  | TEOF

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident c = is_alpha c || is_digit c || c = '$' || c = '\''

(* [word] (a lower-case keyword) spelled in any case at [src.[start..]] *)
let keyword_ci src start len word =
  len = String.length word
  &&
  let rec go k =
    k >= len || (Char.lowercase_ascii src.[start + k] = word.[k] && go (k + 1))
  in
  go 0

let rec digits_end src j =
  if j < String.length src && is_digit src.[j] then digits_end src (j + 1)
  else j

(* Punctuation and numbers are read in place; a word or quoted symbol
   costs one [String.sub]. *)
let tokenize (src : string) : token list =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  (* no operator contains NUL, so it stands in for "past the end" *)
  let ahead k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '%' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_digit c then begin
      (* accumulated in place: a run past [max_int] is a syntax error *)
      let stop = digits_end src !i in
      let v = ref 0 in
      for j = !i to stop - 1 do
        let d = Char.code src.[j] - Char.code '0' in
        if !v > (max_int - d) / 10 then
          raise
            (Error ("integer out of range: " ^ String.sub src !i (stop - !i)));
        v := (!v * 10) + d
      done;
      push (TInt !v);
      i := stop
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      let len = !i - start in
      (* the quantifiers in any case; the connectives only in lower case *)
      if keyword_ci src start len "forall" then push TForall
      else if keyword_ci src start len "exists" then push TExists
      else
        let word = String.sub src start len in
        match word with
        | "and" -> push TAnd
        | "or" -> push TOr
        | "not" -> push TNot
        | "true" -> push TTrue
        | "false" -> push TFalse
        | _ ->
            if (c >= 'A' && c <= 'Z') || c = '_' then push (TVar word)
            else push (TIdent word)
    end
    else if c = '\'' || c = '"' then begin
      match String.index_from_opt src (!i + 1) c with
      | None -> raise (Error "unterminated quoted symbol")
      | Some j ->
          push (TQuoted (String.sub src (!i + 1) (j - !i - 1)));
          i := j + 1
    end
    else begin
      (* longest operator first: [<=>] before [<=], [<>] and [<] *)
      let tok, len =
        match c, ahead 1, ahead 2 with
        | '<', ('-' | '='), '>' -> (TIff, 3)
        | ':', '-', _ -> (TTurnstile, 2)
        | ('-' | '='), '>', _ -> (TArrow, 2)
        | '/', '\\', _ -> (TAnd, 2)
        | '\\', '/', _ -> (TOr, 2)
        | '!', '=', _ | '<', '>', _ -> (TCmp Rule.Ne, 2)
        | '<', '=', _ -> (TCmp Rule.Le, 2)
        | '>', '=', _ -> (TCmp Rule.Ge, 2)
        | '(', _, _ -> (TLparen, 1)
        | ')', _, _ -> (TRparen, 1)
        | ',', _, _ -> (TComma, 1)
        | '.', _, _ -> (TDot, 1)
        | '?', _, _ -> (TQuestion, 1)
        | '~', _, _ -> (TNot, 1)
        | '=', _, _ -> (TCmp Rule.Eq, 1)
        | '<', _, _ -> (TCmp Rule.Lt, 1)
        | '>', _, _ -> (TCmp Rule.Gt, 1)
        | _ -> raise (Error (Printf.sprintf "unexpected character %C" c))
      in
      push tok;
      i := !i + len
    end
  done;
  List.rev (TEOF :: !toks)

(* ------------------------------------------------------------------ *)

(* [sym] makes a term's symbol constant: interning for rules and
   formulas, {!Term.query_scope} for a client's query. *)
type state = { mutable toks : token list; sym : string -> Term.const }

let peek st = match st.toks with t :: _ -> t | [] -> TEOF

let advance st =
  match st.toks with _ :: rest -> st.toks <- rest | [] -> ()

let expect st t what =
  if peek st = t then advance st
  else raise (Error ("expected " ^ what))

let parse_term st : Term.t =
  match peek st with
  | TVar v ->
      advance st;
      Term.var v
  | TIdent s | TQuoted s ->
      advance st;
      Term.Const (st.sym s)
  | TInt i ->
      advance st;
      Term.int i
  | _ -> raise (Error "expected a term")

let parse_terms st =
  expect st TLparen "'('";
  if peek st = TRparen then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let t = parse_term st in
      if peek st = TComma then begin
        advance st;
        go (t :: acc)
      end
      else begin
        expect st TRparen "')'";
        List.rev (t :: acc)
      end
    in
    go []
  end

let parse_vars st =
  let rec go acc =
    match peek st with
    | TVar v ->
        advance st;
        if peek st = TComma then begin
          advance st;
          go (v :: acc)
        end
        else List.rev (v :: acc)
    | _ -> raise (Error "expected a variable")
  in
  go []

(* An identifier directly followed by '(' is a predicate regardless of its
   case (the GOM predicate names are capitalized); otherwise capitalized
   identifiers are variables.  Capitalized symbol constants must be quoted. *)
let starts_atom st =
  match st.toks with
  | (TIdent _ | TVar _) :: TLparen :: _ -> true
  | _ -> false

(* atom or comparison *)
let parse_atomic st : Formula.t =
  if starts_atom st then begin
    let p =
      match peek st with
      | TIdent p | TVar p ->
          advance st;
          p
      | _ -> assert false
    in
    Formula.Atom (Atom.make p (parse_terms st))
  end
  else
    match peek st with
    | TIdent _ | TVar _ | TInt _ | TQuoted _ -> (
        let x = parse_term st in
        match peek st with
        | TCmp op ->
            advance st;
            Formula.Cmp (op, x, parse_term st)
        | _ -> raise (Error "expected a comparison operator"))
    | _ -> raise (Error "expected an atom or comparison")

let rec parse_formula st : Formula.t =
  match peek st with
  | TForall ->
      advance st;
      let vs = parse_vars st in
      if peek st = TDot then advance st;
      Formula.Forall (vs, parse_formula st)
  | TExists ->
      advance st;
      let vs = parse_vars st in
      if peek st = TDot then advance st;
      Formula.Exists (vs, parse_formula st)
  | _ -> parse_implies st

and parse_implies st : Formula.t =
  let lhs = parse_or st in
  match peek st with
  | TArrow ->
      advance st;
      Formula.Implies (lhs, parse_implies st)
  | TIff ->
      advance st;
      Formula.Iff (lhs, parse_implies st)
  | _ -> lhs

and parse_or st : Formula.t =
  let lhs = parse_and st in
  let rec go acc =
    if peek st = TOr then begin
      advance st;
      go (parse_and st :: acc)
    end
    else
      match acc with [ f ] -> f | fs -> Formula.Or (List.rev fs)
  in
  go [ lhs ]

and parse_and st : Formula.t =
  let lhs = parse_unary st in
  let rec go acc =
    if peek st = TAnd then begin
      advance st;
      go (parse_unary st :: acc)
    end
    else
      match acc with [ f ] -> f | fs -> Formula.And (List.rev fs)
  in
  go [ lhs ]

and parse_unary st : Formula.t =
  match peek st with
  | TNot ->
      advance st;
      Formula.Not (parse_unary st)
  | TTrue ->
      advance st;
      Formula.True
  | TFalse ->
      advance st;
      Formula.False
  | TLparen ->
      advance st;
      let f = parse_formula st in
      expect st TRparen "')'";
      f
  | TForall | TExists -> parse_formula st
  | _ -> parse_atomic st

let formula (src : string) : Formula.t =
  let st = { toks = tokenize src; sym = Term.symc } in
  let f = parse_formula st in
  if peek st = TDot then advance st;
  if peek st <> TEOF then raise (Error "trailing input after formula");
  f

(* ------------------------------------------------------------------ *)

let parse_literal st : Rule.literal =
  match peek st with
  | TNot ->
      advance st;
      (match parse_atomic st with
      | Formula.Atom a -> Rule.Neg a
      | _ -> raise (Error "'not' applies to an atom"))
  | _ -> (
      match parse_atomic st with
      | Formula.Atom a -> Rule.Pos a
      | Formula.Cmp (op, x, y) -> Rule.Cmp (op, x, y)
      | _ -> raise (Error "expected a literal"))

let parse_body st =
  let rec go acc =
    let l = parse_literal st in
    if peek st = TComma then begin
      advance st;
      go (l :: acc)
    end
    else List.rev (l :: acc)
  in
  go []

let rule (src : string) : Rule.t =
  let st = { toks = tokenize src; sym = Term.symc } in
  let head =
    match parse_atomic st with
    | Formula.Atom a -> a
    | _ -> raise (Error "a rule head must be an atom")
  in
  let body =
    if peek st = TTurnstile then begin
      advance st;
      parse_body st
    end
    else []
  in
  if peek st = TDot then advance st;
  if peek st <> TEOF then raise (Error "trailing input after rule");
  Rule.make head body

let parse_query st : Rule.literal list =
  let body = parse_body st in
  (match peek st with
  | TDot | TQuestion -> advance st
  | _ -> ());
  if peek st <> TEOF then raise (Error "trailing input after query");
  body

let query_tokens toks = parse_query { toks; sym = Term.query_scope () }

let query (src : string) : Rule.literal list =
  parse_query { toks = tokenize src; sym = Term.symc }

(* A query's shape: its token stream with every constant that a parse
   makes a term replaced by a slot.  A constant directly before '(' is
   kept (a lower-case word there names a predicate), so texts of one shape
   parse alike and differ only in their terms' constants.  Each token is
   written as a distinct tag byte plus, for a word, its text ended by NUL
   (which no word contains) or, for a kept quoted symbol, its length and
   text: no two token streams share a key. *)
let query_shape (toks : token list) : string * Term.const array =
  let sym = Term.query_scope () in
  let key = Buffer.create 64 in
  let consts = ref [] in
  let add_word tag w =
    Buffer.add_char key tag;
    Buffer.add_string key w;
    Buffer.add_char key '\000'
  in
  let slot c =
    Buffer.add_char key '\001';
    consts := c :: !consts
  in
  let rec go = function
    | [] -> ()
    | t :: rest ->
        let before_paren = match rest with TLparen :: _ -> true | _ -> false in
        (match t with
        | (TIdent w | TQuoted w) when not before_paren -> slot (sym w)
        | TInt i when not before_paren -> slot (Term.Int i)
        | TIdent w -> add_word 'i' w
        | TQuoted q ->
            Buffer.add_char key 'q';
            Buffer.add_string key (string_of_int (String.length q));
            Buffer.add_char key ':';
            Buffer.add_string key q
        | TInt i -> add_word 'n' (string_of_int i)
        | TVar v -> add_word 'v' v
        | TLparen -> Buffer.add_char key '('
        | TRparen -> Buffer.add_char key ')'
        | TComma -> Buffer.add_char key ','
        | TDot -> Buffer.add_char key '.'
        | TTurnstile -> Buffer.add_char key 'T'
        | TArrow -> Buffer.add_char key '>'
        | TIff -> Buffer.add_char key '='
        | TAnd -> Buffer.add_char key '&'
        | TOr -> Buffer.add_char key '|'
        | TNot -> Buffer.add_char key '~'
        | TForall -> Buffer.add_char key 'A'
        | TExists -> Buffer.add_char key 'E'
        | TTrue -> Buffer.add_char key 't'
        | TFalse -> Buffer.add_char key 'f'
        | TCmp op ->
            Buffer.add_char key 'c';
            Buffer.add_char key
              (match op with
              | Rule.Eq -> '0'
              | Rule.Ne -> '1'
              | Rule.Lt -> '2'
              | Rule.Le -> '3'
              | Rule.Gt -> '4'
              | Rule.Ge -> '5')
        | TQuestion -> Buffer.add_char key '?'
        | TEOF -> ());
        go rest
  in
  go toks;
  (Buffer.contents key, Array.of_list (List.rev !consts))
