(* Scratch directories for the tests that need a data directory: every
   directory [fresh] names is removed, with everything under it, when the
   test case that named it ends, pass or fail — wrap the cases with
   [test_case] and [qcheck], and anything else with [cleaning]. *)

let mu = Mutex.create ()
let made = ref []
let count = ref 0

let fresh ~prefix () =
  Mutex.protect mu (fun () ->
      incr count;
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !count)
      in
      made := dir :: !made;
      dir)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun entry -> remove_tree (Filename.concat path entry))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let cleaning f x =
  Fun.protect
    ~finally:(fun () ->
      let dirs = Mutex.protect mu (fun () -> List.rev !made) in
      Mutex.protect mu (fun () -> made := []);
      List.iter
        (fun dir ->
          try remove_tree dir
          with Unix.Unix_error _ | Sys_error _ -> ())
        dirs)
    (fun () -> f x)

let test_case name speed f = Alcotest.test_case name speed (cleaning f)

let qcheck t =
  let name, speed, f = QCheck_alcotest.to_alcotest t in
  (name, speed, cleaning f)
