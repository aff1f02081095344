(* Cost-based join planning for rule bodies.

   [Rule.normalize] guarantees a body order in which every literal is
   evaluable at its position; that order is written by the rule author and is
   often far from the cheapest join order.  [make] greedily reorders a body
   by estimated selectivity with sideways information passing: at each step
   it picks, among the literals evaluable under the variables bound so far,
   the one with the smallest estimated result —

   - negated literals and comparisons cost nothing once their variables are
     ground, so they float to their earliest ground position (maximum
     pruning, and the safety invariant of [Rule.normalize] is preserved by
     construction: only evaluable literals are ever picked);
   - a positive literal with a constant argument is estimated by the actual
     index-bucket size for that key;
   - a positive literal with a bound-variable argument is estimated as
     cardinality / distinct-keys of its most selective bound column;
   - a positive literal with no bound column costs its full cardinality.

   The greedy loop always terminates on a normalized body: positive literals
   are evaluable anywhere, and among pending negations/comparisons the one
   earliest in the (already safe) input order is evaluable once every
   positive literal before it has been picked.

   Plans are orderings only — they carry no pointers into the database — so
   a cached plan is always sound to reuse; staleness costs performance, not
   correctness.  [Eval] caches plans per (rule, bound pattern, size class
   of the relations the body reads); the hit/miss counters here are
   surfaced by the server's [stats] verb. *)

type t = { order : int array }
(** [order.(k)] is the index (in the original body) of the literal evaluated
    at position [k]. *)

let use_planner = ref true

let cache_hits = Atomic.make 0
let cache_misses = Atomic.make 0
let hits () = Atomic.get cache_hits
let misses () = Atomic.get cache_misses
let record_hit () = Atomic.incr cache_hits
let record_miss () = Atomic.incr cache_misses

let identity n = { order = Array.init n (fun i -> i) }

(* Estimated number of substitutions produced by evaluating [a] with the
   variables of [bound] already bound. *)
let atom_cost db ~bound (a : Atom.t) =
  match Database.relation_opt db a.Atom.pred with
  | None -> 0.
  | Some rel ->
      let n = float_of_int (Relation.cardinal rel) in
      let best = ref n in
      Array.iteri
        (fun j arg ->
          let est =
            match arg with
            | Term.Const key -> (
                match Relation.lookup rel ~col:j ~key with
                | Some bucket -> Some (float_of_int (List.length bucket))
                | None -> Some (Float.max 1. (n /. 8.)))
            | Term.Var v when List.mem v bound -> (
                match Relation.distinct_keys rel ~col:j with
                | Some k when k > 0 -> Some (n /. float_of_int k)
                | Some _ | None -> Some (Float.max 1. (n /. 8.)))
            | Term.Var _ -> None
          in
          match est with Some e when e < !best -> best := e | _ -> ())
        a.Atom.args;
      !best

let literal_cost db ~bound (lit : Rule.literal) =
  match lit with
  | Rule.Pos a -> atom_cost db ~bound a
  | Rule.Neg _ | Rule.Cmp _ -> 0.  (* pure filters/binders once evaluable *)

(* Greedy selectivity ordering.  [first] pins one literal (the semi-naive
   delta literal) to the front; [bound] seeds the bound-variable set (head
   variables for a point query). *)
let make ?first ?(bound = []) (db : Database.t) (body : Rule.literal list) : t
    =
  let lits = Array.of_list body in
  let n = Array.length lits in
  let picked = Array.make n false in
  let order = Array.make n 0 in
  let bound = ref bound in
  let filled = ref 0 in
  let take i =
    picked.(i) <- true;
    order.(!filled) <- i;
    incr filled;
    bound := Rule.binds !bound lits.(i)
  in
  (match first with Some i when i >= 0 && i < n -> take i | _ -> ());
  while !filled < n do
    let best = ref (-1) and best_cost = ref infinity in
    for i = 0 to n - 1 do
      if (not picked.(i)) && Rule.evaluable !bound lits.(i) then begin
        let c = literal_cost db ~bound:!bound lits.(i) in
        if c < !best_cost then begin
          best := i;
          best_cost := c
        end
      end
    done;
    match !best with
    | -1 ->
        (* unreachable on a normalized body; keep the remaining literals in
           their (safe) input order rather than fail *)
        for i = 0 to n - 1 do
          if not picked.(i) then take i
        done
    | i -> take i
  done;
  { order }

let pp ppf t =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any " ") int) t.order
