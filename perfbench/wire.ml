(* The client side of the line protocol, and the daemon process itself.

   A response is a status line ([ok] or [err <reason>]), body lines, and a
   lone [.]; body lines starting with a dot arrive dot-stuffed.  Reads are
   buffered per connection so the load generator can multiplex several
   connections from one thread with [Unix.select]: [fill] performs one
   [read] (which a readable descriptor never blocks on) and [take] pops a
   completed response, if any. *)

type response = { ok : bool; status : string; body : string list }

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;  (* the current line, not yet terminated *)
  mutable status : string option;  (* of the response being read *)
  mutable body : string list;  (* reversed *)
  ready : response Queue.t;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  {
    fd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 256;
    status = None;
    body = [];
    ready = Queue.create ();
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let line c l =
  match c.status with
  | None -> c.status <- Some l
  | Some status when l = "." ->
      Queue.push
        {
          ok = status = "ok";
          status;
          body = List.rev c.body;
        }
        c.ready;
      c.status <- None;
      c.body <- []
  | Some _ ->
      let l =
        if String.length l > 1 && l.[0] = '.' then
          String.sub l 1 (String.length l - 1)
        else l
      in
      c.body <- l :: c.body

let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  for i = 0 to n - 1 do
    match Bytes.get c.chunk i with
    | '\n' ->
        line c (Buffer.contents c.partial);
        Buffer.clear c.partial
    | ch -> Buffer.add_char c.partial ch
  done

let take c = Queue.take_opt c.ready

let send c l =
  let s = l ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring c.fd s off (n - off))
  in
  go 0

(* One blocking round trip: set-up, counter scrapes and checks. *)
let request c l =
  send c l;
  let rec wait () =
    match take c with
    | Some r -> r
    | None ->
        fill c;
        wait ()
  in
  wait ()

let expect_ok c l =
  let r = request c l in
  if not r.ok then
    failwith (Printf.sprintf "%S answered %S %s" l r.status
                (String.concat " | " r.body));
  r

(* [counter]/[gauge] lines of a stats body as name -> value. *)
let stats c =
  let r = expect_ok c "stats" in
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ ("counter" | "gauge"); name; v ] -> (
          match int_of_string_opt v with Some v -> Some (name, v) | None -> None)
      | _ -> None)
    r.body

let digest c =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "digest"; d ] -> Some d
      | _ -> None)
    (expect_ok c "health").body

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int; dir : string }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Some (In_channel.input_all ic))

(* Daemons not yet stopped, for the exit path to kill and reap. *)
let live : daemon list ref = ref []

let stop d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.dir

(* Start [gomsm serve] with default flags on a fresh data directory under
   [dir] and wait for its port file.  No replica, no admin port. *)
let spawn ~exe ~dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let port_file = Filename.concat dir "port" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--port"; "0"; "--data"; Filename.concat dir "data";
        "--port-file"; port_file;
      |]
      null null log
  in
  Unix.close null;
  Unix.close log;
  live := { pid; port = 0; dir } :: !live;
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match read_file port_file with
    | Some s when String.trim s <> "" -> int_of_string (String.trim s)
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "gomsm serve exited during start-up");
        if Unix.gettimeofday () -. t0 > 10. then
          failwith "gomsm serve did not write its port file within 10 s";
        Unix.sleepf 0.001;
        wait ()
  in
  { pid; port = wait (); dir }

(* Peak resident set of the daemon, from /proc. *)
let peak_rss_mib d =
  match read_file (Printf.sprintf "/proc/%d/status" d.pid) with
  | None -> failwith "cannot read the daemon's /proc status"
  | Some s ->
      List.find_map
        (fun l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.get
