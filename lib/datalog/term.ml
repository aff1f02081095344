(* Terms of the deductive database: variables and constants.

   Constants cover interned symbols (identifiers such as [tid_1], user names
   such as ["Car"]), machine integers (argument positions), and [Fresh]
   placeholders.  A [Fresh] constant never lives in a database extension: it
   only appears inside generated repairs, standing for a value the repair
   executor must invent (a Skolem constant such as a new slot identifier).

   Symbols are hash-consed: [intern] maps every distinct spelling to one
   shared {!symbol} record carrying a unique integer id.  Equality on the
   evaluator's hot path is therefore an int comparison and tuple hashing
   mixes small ints instead of walking strings.  The intern table is global
   and append-only, guarded by a mutex (the server evaluates under multiple
   systhreads). *)

type symbol = { id : int; name : string }

type const =
  | Sym of symbol
  | Int of int
  | Fresh of string

type t =
  | Var of string
  | Const of const

(* ------------------------------------------------------------------ *)
(* The intern table                                                    *)
(* ------------------------------------------------------------------ *)

let intern_mu = Mutex.create ()
let intern_tbl : (string, symbol) Hashtbl.t = Hashtbl.create 1024
let next_id = ref 0

let intern (name : string) : symbol =
  Mutex.lock intern_mu;
  let s =
    match Hashtbl.find_opt intern_tbl name with
    | Some s -> s
    | None ->
        let s = { id = !next_id; name } in
        incr next_id;
        Hashtbl.add intern_tbl name s;
        s
  in
  Mutex.unlock intern_mu;
  s

let interned_count () =
  Mutex.lock intern_mu;
  let n = Hashtbl.length intern_tbl in
  Mutex.unlock intern_mu;
  n

(* Query constants must not grow the table: a client can name any
   spelling, and most name nothing stored.  A spelling never interned
   cannot occur in a database extension (facts hold interned symbols only),
   so it gets a symbol of its own, with a negative id: it equals no stored
   constant, and compares and prints by its name like any other. *)
let query_scope () =
  let locals = ref [] in
  fun name ->
    match Mutex.protect intern_mu (fun () -> Hashtbl.find_opt intern_tbl name)
    with
    | Some s -> Sym s
    | None -> (
        match List.assoc_opt name !locals with
        | Some c -> c
        | None ->
            let c = Sym { id = -1 - List.length !locals; name } in
            locals := (name, c) :: !locals;
            c)

let interned name =
  Option.map
    (fun s -> Sym s)
    (Mutex.protect intern_mu (fun () -> Hashtbl.find_opt intern_tbl name))

let symc s = Sym (intern s)
let sym s = Const (symc s)
let int i = Const (Int i)
let var v = Var v

let compare_const (a : const) (b : const) =
  match a, b with
  | Sym x, Sym y ->
      (* names order the dump format; ids only short-circuit equality *)
      if x.id = y.id then 0 else String.compare x.name y.name
  | Sym _, (Int _ | Fresh _) -> -1
  | Int _, Sym _ -> 1
  | Int x, Int y -> Int.compare x y
  | Int _, Fresh _ -> -1
  | Fresh x, Fresh y -> String.compare x y
  | Fresh _, (Sym _ | Int _) -> 1

let equal_const a b =
  match a, b with
  | Sym x, Sym y -> x.id = y.id
  | Int x, Int y -> x = y
  | Fresh x, Fresh y -> String.equal x y
  | (Sym _ | Int _ | Fresh _), _ -> false

let hash_const (c : const) =
  match c with
  | Sym s -> s.id * 0x9e3779b1 land max_int
  | Int i -> Hashtbl.hash i
  | Fresh s -> Hashtbl.hash s lxor 0x55555555

let equal_tuple (a : const array) (b : const array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (equal_const a.(i) b.(i) && go (i + 1)) in
  go 0

let hash_tuple (a : const array) =
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := ((!h * 31) + hash_const a.(i)) land max_int
  done;
  !h

let compare (a : t) (b : t) =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1
  | Const x, Const y -> compare_const x y

let equal a b = compare a b = 0

let is_var = function Var _ -> true | Const _ -> false

(* Printed directly, not through a Format buffer: every bound constant of
   every query answer passes through here. *)
let const_to_string = function
  | Sym s -> s.name
  | Int i -> string_of_int i
  | Fresh s -> "?" ^ s

let to_string = function Var v -> v | Const c -> const_to_string c
let pp_const ppf c = Fmt.string ppf (const_to_string c)
let pp ppf t = Fmt.string ppf (to_string t)
