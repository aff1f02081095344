(* Persistence of the Database Model: the paper's appendix states that "a
   schema is always persistent, and with it, all its schema components".
   The manager's whole state — base facts, identifier counters, registered
   code, objects and their slots, schema variables — is serialized to a
   line-oriented textual format and restored into a fresh manager.

   Format (one record per line):
     fact <pred>(<arg>, ...)         constants quoted as needed
     ids <schemas> <types> <decls> <codes> <phreps> <objects>
     code <cid> <params,>|<body text>
     object <oid> <tid>
     slot <oid> <attr> <value>
     global <name> <value>
   Lines starting with '#' are comments. *)

open Datalog
module Crc32 = Fault.Crc32
module Value = Runtime.Value
module Object_store = Runtime.Object_store

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Scalar encodings                                                    *)
(* ------------------------------------------------------------------ *)

(* [Printf.sprintf "%S" s], which is [String.escaped] between quotes;
   [String.escaped] returns a string with nothing to escape uncopied. *)
let add_quoted buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (String.escaped s);
  Buffer.add_char buf '"'

let quote s = "\"" ^ String.escaped s ^ "\""

let add_const buf (c : Term.const) =
  match c with
  | Term.Sym s -> add_quoted buf s.Term.name
  | Term.Int i -> Buffer.add_string buf (string_of_int i)
  | Term.Fresh s ->
      Buffer.add_char buf '?';
      add_quoted buf s

let encode_value (v : Value.t) =
  match v with
  | Value.Null -> "null"
  | Value.Int i -> Printf.sprintf "int %d" i
  | Value.Float f -> Printf.sprintf "float %h" f
  | Value.Str s -> Printf.sprintf "str %s" (quote s)
  | Value.Bool b -> Printf.sprintf "bool %b" b
  | Value.Enum (tid, name) -> Printf.sprintf "enum %s %s" (quote tid) (quote name)
  | Value.Obj oid -> Printf.sprintf "obj %s" (quote oid)

(* A tiny reader over a line. *)
type cursor = { line : string; mutable pos : int }

let skip_ws c =
  while c.pos < String.length c.line && c.line.[c.pos] = ' ' do
    c.pos <- c.pos + 1
  done

let fail_at c msg = raise (Corrupt (Printf.sprintf "%s in %S" msg c.line))

(* The inverse of [add_quoted]: up to the closing unescaped quote, then
   [Scanf.unescaped], the stdlib's inverse of [String.escaped].  A string
   with no backslash is its own decoding. *)
let read_quoted c =
  skip_ws c;
  let n = String.length c.line in
  if c.pos >= n || c.line.[c.pos] <> '"' then
    fail_at c "expected quoted string";
  let start = c.pos + 1 in
  let rec close i escaped =
    if i >= n then fail_at c "unterminated string"
    else
      match c.line.[i] with
      | '"' -> (i, escaped)
      | '\\' -> close (i + 2) true
      | _ -> close (i + 1) escaped
  in
  let stop, escaped = close start false in
  let raw = String.sub c.line start (stop - start) in
  c.pos <- stop + 1;
  if not escaped then raw
  else
    try Scanf.unescaped raw with Scanf.Scan_failure _ -> fail_at c "bad escape"

let read_word c =
  skip_ws c;
  let start = c.pos in
  while
    c.pos < String.length c.line
    && not (List.mem c.line.[c.pos] [ ' '; '('; ')'; ',' ])
  do
    c.pos <- c.pos + 1
  done;
  String.sub c.line start (c.pos - start)

let read_const c : Term.const =
  skip_ws c;
  if c.pos >= String.length c.line then fail_at c "expected constant";
  match c.line.[c.pos] with
  | '"' -> Term.symc (read_quoted c)  (* decode interns *)
  | '?' ->
      c.pos <- c.pos + 1;
      Term.Fresh (read_quoted c)
  | _ -> (
      let w = read_word c in
      match int_of_string_opt w with
      | Some i -> Term.Int i
      | None -> fail_at c ("bad constant " ^ w))

let expect c ch =
  skip_ws c;
  if c.pos < String.length c.line && c.line.[c.pos] = ch then c.pos <- c.pos + 1
  else fail_at c (Printf.sprintf "expected %c" ch)

let peek_is c ch =
  skip_ws c;
  c.pos < String.length c.line && c.line.[c.pos] = ch

let decode_fact_at (c : cursor) : Fact.t =
  let pred = read_word c in
  expect c '(';
  let args = ref [] in
  if not (peek_is c ')') then begin
    args := [ read_const c ];
    while peek_is c ',' do
      expect c ',';
      args := read_const c :: !args
    done
  end;
  expect c ')';
  Fact.make_arr pred (Array.of_list (List.rev !args))

let decode_value (c : cursor) : Value.t =
  match read_word c with
  | "null" -> Value.Null
  | "int" -> Value.Int (int_of_string (read_word c))
  | "float" -> Value.Float (float_of_string (read_word c))
  | "str" -> Value.Str (read_quoted c)
  | "bool" -> Value.Bool (bool_of_string (read_word c))
  | "enum" ->
      let tid = read_quoted c in
      Value.Enum (tid, read_quoted c)
  | "obj" -> Value.Obj (read_quoted c)
  | w -> fail_at c ("bad value kind " ^ w)

(* ------------------------------------------------------------------ *)
(* Record-level encode/decode (shared with the server's journal)       *)
(* ------------------------------------------------------------------ *)

let add_atom buf pred args =
  Buffer.add_string buf pred;
  Buffer.add_char buf '(';
  Array.iteri
    (fun i a ->
      if i > 0 then Buffer.add_string buf ", ";
      add_const buf a)
    args;
  Buffer.add_char buf ')'

let add_fact buf (f : Fact.t) = add_atom buf f.Fact.pred f.Fact.args

let encode_fact (f : Fact.t) : string =
  let buf = Buffer.create 32 in
  add_fact buf f;
  Buffer.contents buf

let decode_fact (s : string) : Fact.t = decode_fact_at { line = s; pos = 0 }

let encode_code ~(cid : string) ~(params : string list)
    ~(body : Analyzer.Ast.stmt) : string =
  Printf.sprintf "%s %s|%s" (quote cid)
    (String.concat "," params)
    (Analyzer.Ast.stmt_to_string
       (match body with
       | Analyzer.Ast.Block _ -> body
       | other -> Analyzer.Ast.Block [ other ]))

let decode_code (s : string) : string * string list * Analyzer.Ast.stmt =
  let c = { line = s; pos = 0 } in
  let cid = read_quoted c in
  skip_ws c;
  let rest = String.sub s c.pos (String.length s - c.pos) in
  match String.index_opt rest '|' with
  | None -> raise (Corrupt ("code record without body: " ^ s))
  | Some i ->
      let params =
        String.sub rest 0 i |> String.split_on_char ','
        |> List.filter (fun p -> p <> "")
      in
      let body_text = String.sub rest (i + 1) (String.length rest - i - 1) in
      (* the body re-enters through the evolution-command grammar *)
      (match
         Analyzer.parse_commands
           (Printf.sprintf "set code of f of T is %s;" body_text)
       with
      | [ Analyzer.Ast.Set_code (_, _, _, body) ] -> (cid, params, body)
      | _ | (exception Analyzer.Syntax_error _) ->
          raise (Corrupt ("unparsable code body for " ^ cid)))

(* ------------------------------------------------------------------ *)
(* Save                                                                *)
(* ------------------------------------------------------------------ *)

(* Built-in facts are reseeded on load, so the render leaves them out.
   Only a few predicates hold any; the rest are emitted unfiltered. *)
let builtins_by_pred : (string, Relation.t) Hashtbl.t =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (f : Fact.t) ->
      let r =
        match Hashtbl.find_opt t f.Fact.pred with
        | Some r -> r
        | None ->
            let r = Relation.create () in
            Hashtbl.replace t f.Fact.pred r;
            r
      in
      ignore (Relation.add r f.Fact.args))
    (Gom.Builtin.facts ());
  t

(* [Fact.compare] for two tuples of one predicate. *)
let compare_tuple (a : Term.const array) (b : Term.const array) =
  let la = Array.length a in
  let c = Int.compare la (Array.length b) in
  if c <> 0 then c
  else
    let rec go i =
      if i >= la then 0
      else
        let c = Term.compare_const a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

(* A piece of the text with its CRC-32 and the shift that appends its
   length: what a render folds the text's CRC from. *)
type piece = { text : string; crc : int32; shift : Crc32.shift }

let piece text =
  { text; crc = Crc32.string text; shift = Crc32.shift (String.length text) }

(* What a render keeps for the next one, per relation: its rows (less
   the built-ins) in [compare_tuple] order, cut into chunks, each with
   its [fact] lines as a piece ([None] from a change to its rows until
   the next render).  Valid for the relation object [rel] at version
   [at]. *)
type chunk = {
  mutable rows : Term.const array array;
  mutable lines : piece option;
}

type rel_text = {
  rel : Relation.t;
  mutable at : int;
  mutable chunks : chunk array;  (* none empty *)
}

(* ... and the code section, valid while the code table's version and
   the relations that name code pieces (objects and versions) stay put. *)
type code_text = { key : int * (Relation.t * int) option list; code : piece }

type cache = {
  rels : (string, rel_text) Hashtbl.t;
  mutable code : code_text option;
  buf : Buffer.t;  (* scratch for one piece's lines *)
}

let render_cache () =
  { rels = Hashtbl.create 64; code = None; buf = Buffer.create 4096 }

(* Chunks are cut at this many rows; one that reaches twice this is
   split in two, and one emptied by removals is dropped. *)
let chunk_rows = 64

let chunk rows = { rows; lines = None }

let chunk_lines buf pred c =
  match c.lines with
  | Some p -> p
  | None ->
      Buffer.clear buf;
      Array.iter
        (fun args ->
          Buffer.add_string buf "fact ";
          add_atom buf pred args;
          Buffer.add_char buf '\n')
        c.rows;
      let p = piece (Buffer.contents buf) in
      c.lines <- Some p;
      p

(* Whether a row of [pred] is one of its built-ins. *)
let builtin pred =
  match Hashtbl.find_opt builtins_by_pred pred with
  | Some b -> Relation.mem b
  | None -> fun _ -> false

let scratch_rel pred r =
  let builtin = builtin pred in
  let rows =
    Relation.fold (fun args acc -> if builtin args then acc else args :: acc) r []
    |> Array.of_list
  in
  Array.stable_sort compare_tuple rows;
  let n = Array.length rows in
  {
    rel = r;
    at = Relation.version r;
    chunks =
      Array.init
        ((n + chunk_rows - 1) / chunk_rows)
        (fun i ->
          let lo = i * chunk_rows in
          chunk (Array.sub rows lo (min chunk_rows (n - lo))));
  }

(* The first index in [rows] whose row is not below [args]. *)
let lower_bound rows args =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_tuple rows.(mid) args < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length rows)

(* The chunk whose range holds [args]: the last whose first row is not
   above it, or the first. *)
let chunk_for chunks args =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_tuple chunks.(mid).rows.(0) args <= 0 then go mid hi
      else go lo mid
  in
  go 0 (Array.length chunks)

let array_insert a i x =
  Array.init (Array.length a + 1) (fun j ->
      if j < i then a.(j) else if j = i then x else a.(j - 1))

let array_remove a i =
  Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* Apply one net change to the chunks.  [false] when they disagree
   with it (a row added twice, or removed unseen); the relation is then
   rendered afresh. *)
let apply e (change : Relation.change) =
  match change with
  | Relation.Added args when Array.length e.chunks = 0 ->
      e.chunks <- [| chunk [| args |] |];
      true
  | Relation.Added args ->
      let i = chunk_for e.chunks args in
      let c = e.chunks.(i) in
      let k = lower_bound c.rows args in
      (k = Array.length c.rows || compare_tuple c.rows.(k) args <> 0)
      && begin
           c.rows <- array_insert c.rows k args;
           c.lines <- None;
           let n = Array.length c.rows in
           if n >= 2 * chunk_rows then begin
             e.chunks <-
               array_insert e.chunks (i + 1)
                 (chunk (Array.sub c.rows chunk_rows (n - chunk_rows)));
             c.rows <- Array.sub c.rows 0 chunk_rows
           end;
           true
         end
  | Relation.Removed args ->
      Array.length e.chunks > 0
      &&
      let i = chunk_for e.chunks args in
      let c = e.chunks.(i) in
      let k = lower_bound c.rows args in
      k < Array.length c.rows
      && compare_tuple c.rows.(k) args = 0
      && begin
           if Array.length c.rows = 1 then e.chunks <- array_remove e.chunks i
           else begin
             c.rows <- array_remove c.rows k;
             c.lines <- None
           end;
           true
         end

(* One relation's chunks, brought up to its version: the net changes its
   log holds since the cached version (a row added and removed again
   touches nothing), each applied to the chunk it falls in; or, when the
   log does not reach back (or [r] is not the cached object), the
   relation sorted and cut afresh.  [watch] turns the relation's log
   on, for a cache that outlives this render. *)
let relation_chunks cache ~watch pred r =
  let v = Relation.version r in
  let afresh () =
    if watch then ignore (Relation.changes_since r v);
    let e = scratch_rel pred r in
    Hashtbl.replace cache.rels pred e;
    e
  in
  match Hashtbl.find_opt cache.rels pred with
  | Some e when e.rel == r && e.at = v -> e
  | Some e when e.rel == r -> (
      let builtin = builtin pred in
      let apply_visible = function
        | Relation.Added args | Relation.Removed args when builtin args -> true
        | change -> apply e change
      in
      match Relation.changes_since r e.at with
      | Some changes when List.for_all apply_visible changes ->
          e.at <- v;
          e
      | Some _ | None -> afresh ())
  | _ -> afresh ()

(* The relations that name code pieces, and the code ids they name,
   sorted: the code pieces a dump carries. *)
let code_preds = [ "Code"; "FashionDecl"; "FashionAttr" ]

let code_ids db =
  let cids = ref [] in
  let add (c : Term.const) =
    match c with Term.Sym s -> cids := s.Term.name :: !cids | _ -> ()
  in
  let each pred f = Database.iter_pred db pred f in
  each "Code" (fun a -> if Array.length a = 3 then add a.(0));
  each "FashionDecl" (fun a -> if Array.length a = 3 then add a.(2));
  each "FashionAttr" (fun a ->
      if Array.length a = 5 then
        match (a.(3), a.(4)) with
        | Term.Sym _, Term.Sym _ ->
            add a.(3);
            add a.(4)
        | _ -> ());
  List.sort_uniq String.compare !cids

let code_pieces m =
  List.filter_map
    (fun cid -> Option.map (fun c -> (cid, c)) (Manager.lookup_code m cid))
    (code_ids (Manager.database m))

let code_section cache m =
  let db = Manager.database m in
  let at pred =
    Option.map (fun r -> (r, Relation.version r)) (Database.relation_opt db pred)
  in
  let key = (Manager.code_version m, List.map at code_preds) in
  let same (v, rels) (v', rels') =
    v = v'
    && List.equal
         (Option.equal (fun (r, n) (r', n') -> r == r' && n = n'))
         rels rels'
  in
  match cache.code with
  | Some c when same c.key key -> c.code
  | _ ->
      let buf = cache.buf in
      Buffer.clear buf;
      List.iter
        (fun (cid, (params, body)) ->
          Printf.bprintf buf "code %s\n" (encode_code ~cid ~params ~body))
        (code_pieces m);
      let code = piece (Buffer.contents buf) in
      cache.code <- Some { key; code };
      code

type text = { pieces : string list; length : int; crc : int32 }

let contents t = String.concat "" t.pieces

(* The one render: [save] and [load]'s inverse, the daemon's snapshot
   heads, a replica's bootstrap text.  Facts come out relation by
   relation in predicate order, each relation sorted — the order
   [Fact.compare] gives the whole base.  The text is a list of pieces,
   and its CRC-32 is folded from theirs.  With [cache] (one per journal),
   the chunks of rows that no change since the previous render touched,
   and the code section if no piece it carries changed, are reused with
   their CRCs; without one, everything is rendered afresh. *)
let render ?cache (m : Manager.t) : text =
  if Manager.in_session m then
    invalid_arg "Persist.save: close the evolution session first";
  let cache, watch =
    match cache with Some c -> (c, true) | None -> (render_cache (), false)
  in
  let pieces = ref [] and crc = ref 0l and length = ref 0 in
  let add p =
    pieces := p.text :: !pieces;
    crc := Crc32.combine_shift !crc p.crc p.shift;
    length := !length + String.length p.text
  in
  (* the pieces rendered every time go through the scratch buffer *)
  let buf = cache.buf in
  Buffer.clear buf;
  Buffer.add_string buf "# gomsm database dump v1\n";
  let g = Manager.ids m in
  Printf.bprintf buf "ids %d %d %d %d %d %d\n" g.Gom.Ids.schemas g.Gom.Ids.types
    g.Gom.Ids.decls g.Gom.Ids.codes g.Gom.Ids.phreps g.Gom.Ids.objects;
  add (piece (Buffer.contents buf));
  let db = Manager.database m in
  List.iter
    (fun pred ->
      Option.iter
        (fun r ->
          Array.iter
            (fun c -> add (chunk_lines buf pred c))
            (relation_chunks cache ~watch pred r).chunks)
        (Database.relation_opt db pred))
    (List.sort String.compare (Database.predicates db));
  add (code_section cache m);
  (* the object base *)
  let rt = Manager.runtime m in
  Buffer.clear buf;
  Printf.bprintf buf "store_next %d\n"
    (Object_store.counter (Runtime.store rt));
  let objs = ref [] in
  Object_store.iter (Runtime.store rt) (fun o -> objs := o :: !objs);
  List.iter
    (fun (o : Object_store.obj) ->
      Printf.bprintf buf "object %s %s\n" (quote o.Object_store.oid)
        (quote o.Object_store.tid);
      List.iter
        (fun a ->
          match Object_store.get_slot o a with
          | Some v ->
              Printf.bprintf buf "slot %s %s %s\n" (quote o.Object_store.oid)
                (quote a) (encode_value v)
          | None -> ())
        (List.sort compare (Object_store.slot_names o)))
    (List.sort (fun a b -> compare a.Object_store.oid b.Object_store.oid) !objs);
  Hashtbl.iter
    (fun name v ->
      Printf.bprintf buf "global %s %s\n" (quote name) (encode_value v))
    rt.Runtime.globals;
  add (piece (Buffer.contents buf));
  { pieces = List.rev !pieces; length = !length; crc = !crc }

let save (m : Manager.t) ~(path : string) : unit =
  let text = render m in
  let oc = open_out_bin path in
  List.iter (output_string oc) text.pieces;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Load                                                                *)
(* ------------------------------------------------------------------ *)

let load_from_string (text : string) : Manager.t =
  let m = Manager.create () in
  let rt = Manager.runtime m in
  let facts = ref [] in
  let codes = ref [] in
  let objects = ref [] in
  let slots = ref [] in
  let globals = ref [] in
  let ids = Gom.Ids.create () in
  let store_next = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then ()
         else begin
           let c = { line; pos = 0 } in
           match read_word c with
           | "fact" -> facts := decode_fact_at c :: !facts
           | "ids" ->
               let n () = int_of_string (read_word c) in
               ids.schemas <- n ();
               ids.types <- n ();
               ids.decls <- n ();
               ids.codes <- n ();
               ids.phreps <- n ();
               ids.objects <- n ()
           | "code" ->
               skip_ws c;
               let cid, params, body =
                 decode_code (String.sub line c.pos (String.length line - c.pos))
               in
               codes := (cid, (params, body)) :: !codes
           | "object" ->
               let oid = read_quoted c in
               let tid = read_quoted c in
               objects := (oid, tid) :: !objects
           | "slot" ->
               let oid = read_quoted c in
               let attr = read_quoted c in
               let v = decode_value c in
               slots := (oid, attr, v) :: !slots
           | "store_next" -> store_next := int_of_string (read_word c)
           | "global" ->
               let name = read_quoted c in
               globals := (name, decode_value c) :: !globals
           | w -> raise (Corrupt ("unknown record kind " ^ w))
         end);
  (* the facts, code and counters go in as one change, so the Consistency
     Control sees them *)
  (match
     Manager.commit m
       {
         delta = Delta.of_lists ~additions:(List.rev !facts) ~deletions:[];
         code = List.rev !codes;
         ids;
       }
   with
  | Manager.Consistent -> ()
  | Manager.Inconsistent reports ->
      raise
        (Corrupt
           (Printf.sprintf "loaded database is inconsistent: %s"
              (String.concat "; "
                 (List.map (fun r -> r.Manager.description) reports)))));
  (* objects are re-inserted under their saved identities *)
  let store = Runtime.store rt in
  let by_oid = Hashtbl.create 16 in
  List.iter
    (fun (oid, tid) ->
      let o = Object_store.insert_keyed store ~oid ~tid in
      Hashtbl.replace by_oid oid o)
    (List.rev !objects);
  Object_store.bump_counter store !store_next;
  List.iter
    (fun (oid, attr, v) ->
      match Hashtbl.find_opt by_oid oid with
      | Some o -> Object_store.set_slot o attr v
      | None -> raise (Corrupt ("slot for unknown object " ^ oid)))
    !slots;
  List.iter (fun (name, v) -> Runtime.set_global rt name v) !globals;
  m

let load ~(path : string) : Manager.t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  load_from_string text
