(* A relation: the extension of one predicate, a mutable set of tuples.

   Per-column hash indexes are built lazily on first use and maintained
   incrementally afterwards, so joins can look up matching tuples by a bound
   column instead of scanning the extension.  [use_indexes] switches the
   feature off globally for the evaluation-strategy ablation bench.

   Tuples hash and compare through the interned-symbol operations of [Term]:
   a tuple hash mixes small ints, and tuple equality is a run of int
   comparisons — no string traversal on the hot path. *)

module Tuple_tbl = Hashtbl.Make (struct
  type t = Term.const array

  let equal = Term.equal_tuple
  let hash = Term.hash_tuple
end)

module Const_tbl = Hashtbl.Make (struct
  type t = Term.const

  let equal = Term.equal_const
  let hash = Term.hash_const
end)

let use_indexes = ref true

type index = Term.const array list ref Const_tbl.t

type change = Added of Term.const array | Removed of Term.const array

(* The change log a render cache reads: each [add] and [remove] that
   changed the set since version [log_from], newest first.  Every change
   bumps the version by one, so the log's [k]-th entry from the oldest
   is the change that moved the version to [log_from + k].  Off
   ([log_from < 0]) until {!changes_since} first asks, and restarted by
   each ask, by [clear] and when it would pass [log_cap] entries. *)
let log_cap = 1024

type t = {
  tuples : unit Tuple_tbl.t;
  mutable indexes : (int * index) list;  (* column -> index, built lazily *)
  mutable version : int;  (* bumped by every change to [tuples] *)
  mutable log : change list;
  mutable log_len : int;
  mutable log_from : int;
}

let create ?(size = 16) () =
  {
    tuples = Tuple_tbl.create size;
    indexes = [];
    version = 0;
    log = [];
    log_len = 0;
    log_from = -1;
  }

let version r = r.version

let reset_log r =
  r.log <- [];
  r.log_len <- 0;
  r.log_from <- r.version

(* Call after bumping the version for [c]. *)
let log_change r c =
  if r.log_from >= 0 then
    if r.log_len >= log_cap then reset_log r
    else begin
      r.log <- c :: r.log;
      r.log_len <- r.log_len + 1
    end

(* The net of the log's newest [n] changes.  A row's changes alternate,
   so it moved iff its newest and oldest change agree. *)
let net n log =
  let seen = Tuple_tbl.create 16 in
  let rec go n = function
    | ((Added args | Removed args) as c) :: log when n > 0 ->
        (match Tuple_tbl.find_opt seen args with
        | None -> Tuple_tbl.replace seen args (c, c)
        | Some (newest, _) -> Tuple_tbl.replace seen args (newest, c));
        go (n - 1) log
    | _ -> ()
  in
  go n log;
  Tuple_tbl.fold
    (fun _ (newest, oldest) acc ->
      match (newest, oldest) with
      | Added _, Added _ | Removed _, Removed _ -> newest :: acc
      | _ -> acc)
    seen []

let changes_since r v =
  let changes =
    if r.log_from < 0 || v < r.log_from || v > r.version then None
    else Some (net (r.version - v) r.log)
  in
  reset_log r;
  changes

let mem r tuple = Tuple_tbl.mem r.tuples tuple

let index_add (idx : index) col tuple =
  if col < Array.length tuple then begin
    let key = tuple.(col) in
    match Const_tbl.find_opt idx key with
    | Some bucket -> bucket := tuple :: !bucket
    | None -> Const_tbl.replace idx key (ref [ tuple ])
  end

let index_remove (idx : index) col tuple =
  if col < Array.length tuple then
    let key = tuple.(col) in
    match Const_tbl.find_opt idx key with
    | Some bucket ->
        bucket := List.filter (fun t -> not (Term.equal_tuple t tuple)) !bucket;
        (* drop emptied buckets so long-lived relations under churn do not
           accumulate dead keys in the index table *)
        if !bucket = [] then Const_tbl.remove idx key
    | None -> ()

let add r tuple =
  if Tuple_tbl.mem r.tuples tuple then false
  else begin
    Tuple_tbl.replace r.tuples tuple ();
    List.iter (fun (col, idx) -> index_add idx col tuple) r.indexes;
    r.version <- r.version + 1;
    log_change r (Added tuple);
    true
  end

let remove r tuple =
  if Tuple_tbl.mem r.tuples tuple then begin
    Tuple_tbl.remove r.tuples tuple;
    List.iter (fun (col, idx) -> index_remove idx col tuple) r.indexes;
    r.version <- r.version + 1;
    log_change r (Removed tuple);
    true
  end
  else false

let cardinal r = Tuple_tbl.length r.tuples
let iter f r = Tuple_tbl.iter (fun tuple () -> f tuple) r.tuples
let fold f r init = Tuple_tbl.fold (fun tuple () acc -> f tuple acc) r.tuples init
let to_list r = fold (fun tuple acc -> tuple :: acc) r []
let is_empty r = cardinal r = 0

let clear r =
  Tuple_tbl.clear r.tuples;
  r.indexes <- [];
  r.version <- r.version + 1;
  if r.log_from >= 0 then reset_log r

let copy r =
  {
    tuples = Tuple_tbl.copy r.tuples;
    indexes = [];
    version = 0;
    log = [];
    log_len = 0;
    log_from = -1;
  }

let index_for r col : index =
  match List.assoc_opt col r.indexes with
  | Some idx -> idx
  | None ->
      let idx : index = Const_tbl.create (max 16 (cardinal r)) in
      iter (fun tuple -> index_add idx col tuple) r;
      r.indexes <- (col, idx) :: r.indexes;
      idx

(* Tuples whose [col]-th component equals [key]; builds the column index on
   first use.  Falls back to [None] (meaning: caller should scan) when
   indexing is disabled. *)
let lookup r ~col ~key : Term.const array list option =
  if not !use_indexes then None
  else
    match Const_tbl.find_opt (index_for r col) key with
    | Some bucket -> Some !bucket
    | None -> Some []

let distinct_keys r ~col : int option =
  if not !use_indexes then None else Some (Const_tbl.length (index_for r col))
