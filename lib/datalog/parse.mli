(** Concrete syntax for the deductive layer: constraints (first-order
    formulas), rules, and queries as text.

    Variables are capitalized (or start with '_'); lower-case and quoted
    identifiers are symbol constants; integers are integer constants.  An
    identifier directly followed by '(' is a predicate regardless of case
    (GOM predicate names are capitalized), so a capitalized symbol constant
    must be quoted ('CarSchema').
    Formulas: [forall X, Y. p(X) /\ q(X, Y) -> exists Z. r(Y, Z)] with
    [and]/[or]/[not] as word alternatives and [%] line comments.
    Rules: [t(X, Z) :- e(X, Y), t(Y, Z).]  Queries: [t(a, X), not q(X)?] *)

exception Error of string

(** {2 Tokens}

    Exposed so the tokenizer can be tested on its own. *)

type token =
  | TIdent of string  (** lower-case word: predicate or symbol *)
  | TVar of string  (** capitalized or ['_']-initial word *)
  | TQuoted of string  (** contents of ['...'] or ["..."], unescaped *)
  | TInt of int
  | TLparen
  | TRparen
  | TComma
  | TDot
  | TTurnstile  (** [:-] *)
  | TArrow  (** [->] or [=>] *)
  | TIff  (** [<->] or [<=>] *)
  | TAnd  (** [/\] or [and] *)
  | TOr  (** [\/] or [or] *)
  | TNot  (** [~] or [not] *)
  | TForall  (** [forall], any case *)
  | TExists  (** [exists], any case *)
  | TTrue
  | TFalse
  | TCmp of Rule.cmp
  | TQuestion
  | TEOF

val tokenize : string -> token list
(** The token stream, ending in [TEOF].  [%] starts a comment to the end of
    the line.
    @raise Error on an unexpected character, an unterminated quote or an
    integer beyond [max_int]; nothing else. *)

val formula : string -> Formula.t
(** @raise Error on syntax errors. *)

val rule : string -> Rule.t
val query : string -> Rule.literal list
(** Its constants are interned, like a rule's.
    @raise Error on syntax errors. *)

val query_tokens : token list -> Rule.literal list
(** {!query} of an already tokenized text, for a client's query: its
    constants intern nothing ({!Term.query_scope}). *)

val query_shape : token list -> string * Term.const array
(** A query's shape key and its constants: the token stream with every
    constant a parse makes a term (any constant not directly before ['('])
    replaced by a slot, and those constants in text order.  Texts with
    equal keys parse to the same literals up to the constants of their
    slots, so a query prepared for one text serves every text of its
    shape; a text that does not parse gets a key like any other.  The
    constants intern nothing ({!Term.query_scope}). *)
