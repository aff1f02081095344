(* Identifier generation for schema objects, mirroring the paper's naming:
   sid_1 for schemas, tid_1 for types, did_1 for operation declarations,
   cid_1 for code pieces, clid_1 for physical representations, oid_1 for
   runtime objects. *)

type kind = Schema | Type | Decl | Code | Phrep | Object

type gen = {
  mutable schemas : int;
  mutable types : int;
  mutable decls : int;
  mutable codes : int;
  mutable phreps : int;
  mutable objects : int;
}

let create () =
  { schemas = 0; types = 0; decls = 0; codes = 0; phreps = 0; objects = 0 }

let copy g = { g with schemas = g.schemas }

let assign ~into g =
  into.schemas <- g.schemas;
  into.types <- g.types;
  into.decls <- g.decls;
  into.codes <- g.codes;
  into.phreps <- g.phreps;
  into.objects <- g.objects

let prefix = function
  | Schema -> "sid"
  | Type -> "tid"
  | Decl -> "did"
  | Code -> "cid"
  | Phrep -> "clid"
  | Object -> "oid"

let fresh gen kind =
  let n =
    match kind with
    | Schema ->
        gen.schemas <- gen.schemas + 1;
        gen.schemas
    | Type ->
        gen.types <- gen.types + 1;
        gen.types
    | Decl ->
        gen.decls <- gen.decls + 1;
        gen.decls
    | Code ->
        gen.codes <- gen.codes + 1;
        gen.codes
    | Phrep ->
        gen.phreps <- gen.phreps + 1;
        gen.phreps
    | Object ->
        gen.objects <- gen.objects + 1;
        gen.objects
  in
  Printf.sprintf "%s_%d" (prefix kind) n

let kind_of (id : string) : kind option =
  match String.index_opt id '_' with
  | None -> None
  | Some i -> (
      match String.sub id 0 i with
      | "sid" -> Some Schema
      | "tid" -> Some Type
      | "did" -> Some Decl
      | "cid" -> Some Code
      | "clid" -> Some Phrep
      | "oid" -> Some Object
      | _ -> None)
