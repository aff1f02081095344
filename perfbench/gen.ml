(* The benchmark's inputs, all derived from the seed.  Every query comes with
   the answer count the generated base implies, so answers are checked, not
   only timed.

   The base is the synthetic schema of bench/workload.ml's [schema_text]
   (types T0..T{n-1} in schema Generated, each with attributes f0..f3 and
   one implemented operation), written here on one line so it travels as a
   single [script-line].  It is restated rather than shared so that a change
   to the repository's own benches cannot silently change this benchmark's
   inputs. *)

let ddl ~types =
  let b = Buffer.create (types * 200) in
  Buffer.add_string b "schema Generated is";
  for i = 0 to types - 1 do
    Printf.bprintf b
      " type T%d is [ f0 : int; f1 : float; f2 : string; f3 : bool; ] \
       operations declare op%d : (float) -> float; implementation define \
       op%d(x) is begin return self.f1 + x; end op%d; end type T%d;"
      i i i i i
  done;
  Buffer.add_string b " end schema Generated;";
  Buffer.contents b

type query = { text : string; answers : int }

(* Answer count of each body over one existing type [T]: four own
   attributes, no inherited ones, one operation, one type row. *)
let forms =
  [|
    ("", 1);
    ("Attr(T, A, D), ", 4);
    ("Attr_i(T, A, D), ", 4);
    ("Decl_i(X, T, O, R), ", 1);
  |]

let type_query ~types form i =
  let body, n = forms.(form) in
  {
    text = Printf.sprintf "%sType(T, \"T%d\", S)" body i;
    answers = (if i < types then n else 0);
  }

(* read-hot: 16 fixed texts, drawn from every form over types in [0, 2n),
   so some name no type and answer nothing. *)
let hot_queries ~rng ~types =
  let seen = Hashtbl.create 16 in
  let rec draw acc =
    if List.length acc = 16 then Array.of_list (List.rev acc)
    else
      let form = Random.State.int rng (Array.length forms)
      and i = Random.State.int rng (2 * types) in
      if Hashtbl.mem seen (form, i) then draw acc
      else begin
        Hashtbl.add seen (form, i) ();
        draw (type_query ~types form i :: acc)
      end
  in
  draw []

(* read-miss: key k names a (body, i, j) triple; the second [Type] literal
   multiplies the answer count by 1 when T{j} exists and 0 when it does
   not.  The key space is 2 * n * 2n texts, far beyond the 256-entry
   response cache. *)
let miss_bodies = [| ("Attr_i(T1, A, D)", 4); ("Decl_i(X, T1, O, R)", 1) |]

let miss_keys ~types = Array.length miss_bodies * types * 2 * types

let miss_query ~types k =
  let body, n = miss_bodies.(k mod Array.length miss_bodies) in
  let k = k / Array.length miss_bodies in
  let i = k mod types and j = k / types in
  {
    text =
      Printf.sprintf "%s, Type(T1, \"T%d\", S), Type(T2, \"T%d\", S2)" body i j;
    answers = (if j < types then n else 0);
  }

(* A seeded permutation of the key space: within a run no key repeats, so
   no answer can come from the response cache. *)
let miss_order ~rng ~types =
  let a = Array.init (miss_keys ~types) Fun.id in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* evolve: op 2m adds attribute f{k_m} to T{j_m}, op 2m+1 deletes it
   again, so the schema oscillates between the base and the base plus one
   attribute and no op's cost drifts with run length. *)
type evolve = { pairs : (int * int) array }

let evolve_plan ~rng ~types =
  {
    pairs =
      Array.init 4096 (fun _ ->
          (4 + Random.State.int rng 4, Random.State.int rng types));
  }

let evolve_command plan o =
  let k, j = plan.pairs.(o / 2 mod Array.length plan.pairs) in
  if o mod 2 = 0 then Printf.sprintf "add attribute f%d : int to T%d@Generated;" k j
  else Printf.sprintf "delete attribute f%d from T%d@Generated;" k j

let rng ~seed salt = Random.State.make [| seed; salt |]
