(* Substitutions binding variables to constants during evaluation.

   Represented as an immutable association list: rule bodies bind at most a
   handful of variables, so a cons per binding beats the O(log n) node churn
   of a balanced map in the innermost join loop — extending a substitution
   is the single most frequent allocation in the evaluator.  Lookups compare
   physically first ([==]); repeated occurrences of a variable often share
   their string, and the fallback [String.equal] is cheap on the short
   distinct names. *)

type t = (string * Term.const) list

let empty : t = []

let rec find v (s : t) =
  match s with
  | [] -> None
  | (v', c) :: rest ->
      if v' == v || String.equal v' v then Some c else find v rest

let rec binding v (s : t) =
  match s with
  | [] -> raise Not_found
  | ((v', _) as b) :: rest ->
      if v' == v || String.equal v' v then b else binding v rest

let bind v c (s : t) : t = (v, c) :: s
let mem v (s : t) = find v s <> None

let bindings (s : t) =
  (* first binding wins, as in a map; a variable is never rebound to a
     different constant, so dropping shadowed duplicates is enough *)
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) s

(* Unify a single term against a constant. *)
let unify_term (t : Term.t) (c : Term.const) (s : t) =
  match t with
  | Const c' -> if Term.equal_const c' c then Some s else None
  | Var v -> (
      match find v s with
      | None -> Some (bind v c s)
      | Some c' -> if Term.equal_const c' c then Some s else None)

(* Unify an atom's argument vector against a ground tuple. *)
let unify_args (args : Term.t array) (tuple : Term.const array) (s : t) =
  let n = Array.length args in
  if n <> Array.length tuple then None
  else
    let rec go i s =
      if i >= n then Some s
      else
        match unify_term args.(i) tuple.(i) s with
        | None -> None
        | Some s -> go (i + 1) s
    in
    go 0 s

let apply_term (s : t) (t : Term.t) : Term.t =
  match t with
  | Const _ -> t
  | Var v -> ( match find v s with None -> t | Some c -> Const c)

let apply_atom (s : t) (a : Atom.t) : Atom.t =
  { a with args = Array.map (apply_term s) a.args }

(* Ground an atom into a fact; unbound variables become Fresh placeholders. *)
let ground_atom (s : t) (a : Atom.t) : Fact.t =
  let conv = function
    | Term.Const c -> c
    | Term.Var v -> ( match find v s with None -> Term.Fresh v | Some c -> c)
  in
  { Fact.pred = a.pred; args = Array.map conv a.args }

let pp ppf (s : t) =
  let pp_binding ppf (v, c) = Fmt.pf ppf "%s=%a" v Term.pp_const c in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_binding) (bindings s)
