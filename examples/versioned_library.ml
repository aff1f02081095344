(* Schema versioning in the large: derive whole schema versions (Kim/Chou
   style, section 4.1), let the toolkit generate the identity masking
   automatically, write the missing accessors by hand, and persist the whole
   database across "restarts".

   Run with:  dune exec examples/versioned_library.exe *)

open Core
module Value = Runtime.Value

let section title = Printf.printf "\n=== %s ===\n%!" title

let library_v1 =
  {|
schema Library is
  type Book is
    [ title : string;
      author : string;
      year : int; ]
  operations
    declare describe : -> string;
  implementation
    define describe is
    begin
      return self.title + " (" + self.author + ")";
    end describe;
  end type Book;
  type Member is
    [ name : string;
      borrowed : int; ]
  end type Member;
end schema Library;
|}

let () =
  section "Version 1 of the library schema";
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m library_v1;
  (match Manager.end_session m with
  | Manager.Consistent -> print_endline "Library v1 loaded."
  | Manager.Inconsistent _ -> failwith "unexpected");
  let rt = Manager.runtime m in
  let db = Manager.database m in
  let tid ?(schema = "Library") name =
    Option.get
      (Gom.Schema_base.find_type_at db ~type_name:name ~schema_name:schema)
  in

  (* a few v1 books *)
  let books =
    List.map
      (fun (t, a, y) ->
        let b = Runtime.new_object rt ~tid:(tid "Book") in
        Runtime.set rt b ~attr:"title" ~value:(Value.Str t);
        Runtime.set rt b ~attr:"author" ~value:(Value.Str a);
        Runtime.set rt b ~attr:"year" ~value:(Value.Int y);
        b)
      [
        "On Schemas", "Moerkotte", 1993;
        "On Masking", "Zachmann", 1992;
      ]
  in

  section "Derive version 2 (whole-schema versioning)";
  Manager.begin_session m;
  let mapping =
    Evolution.Versions.derive_schema_version m ~from_name:"Library"
      ~new_name:"LibraryV2"
  in
  Printf.printf "derived LibraryV2; %d types mapped\n" (List.length mapping);
  (* v2 replaces year by a decade attribute *)
  Manager.run_commands m
    {|delete attribute year from Book@LibraryV2;
      add attribute decade : int to Book@LibraryV2;|};
  (match Manager.end_session m with
  | Manager.Consistent -> print_endline "LibraryV2 is consistent."
  | Manager.Inconsistent _ -> failwith "unexpected");

  section "Automatic masking for the unchanged parts";
  let old_book = tid "Book" in
  let new_book = List.assoc old_book mapping in
  Manager.begin_session m;
  let missing_attrs, missing_ops =
    Evolution.Versions.auto_fashion m ~old_tid:old_book ~new_tid:new_book
  in
  Printf.printf "auto-generated identity accessors; still missing: %s\n"
    (String.concat ", " (missing_attrs @ missing_ops));

  section "The age/decade accessors are written by hand";
  Manager.load_definitions m
    {|
fashion Book@Library as Book@LibraryV2 where
  decade : -> int is begin return self.year - (self.year - (self.year / 10) * 10); end;
  decade : <- int is begin self.year := value; end;
end fashion;
|};
  (match Manager.end_session m with
  | Manager.Consistent -> print_endline "masking complete and consistent."
  | Manager.Inconsistent reports ->
      List.iter (fun r -> Printf.printf "violation: %s\n" r.Manager.description)
        reports;
      failwith "masking incomplete");

  section "Old books answer the v2 interface";
  List.iter
    (fun b ->
      let d = Runtime.get rt b ~attr:"decade" in
      let s = Runtime.send rt b ~op:"describe" ~args:[] in
      Printf.printf "%s -> decade %s\n" (Value.to_string s) (Value.to_string d))
    books;

  section "Persist the whole database and restart";
  let path = Filename.temp_file "library" ".db" in
  Persist.save m ~path;
  Printf.printf "saved to %s (%d bytes)\n" path
    (let ic = open_in_bin path in
     let n = in_channel_length ic in
     close_in ic;
     n);
  let m2 = Persist.load ~path in
  Sys.remove path;
  let rt2 = Manager.runtime m2 in
  let restored =
    Runtime.Object_store.objects_of_type (Runtime.store rt2) ~tid:old_book
  in
  Printf.printf "restored %d books; first describes as %s\n"
    (List.length restored)
    (match restored with
    | o :: _ ->
        Value.to_string
          (Runtime.send rt2 (Value.Obj o.Runtime.Object_store.oid)
             ~op:"describe" ~args:[])
    | [] -> "<none>");
  print_endline "\nDone."
