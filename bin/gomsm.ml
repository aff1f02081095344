(* gomsm — command-line front end for the GOM schema manager.

   - [gomsm check FILE]   load definition frames, report consistency
   - [gomsm script FILE]  run an evolution command script (bes/ees markers)
   - [gomsm repl]         interactive schema evolution sessions
   - [gomsm paper]        regenerate the paper's running example *)

open Core
open Cmdliner
module Value = Runtime.Value

let print_reports reports =
  List.iter
    (fun r -> Printf.printf "violation: %s\n" r.Manager.description)
    reports

let print_diags m =
  if Manager.in_session m then
    List.iter
      (fun d -> Printf.printf "analyzer: %s\n" d)
      (Manager.session_diagnostics m)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let m = Manager.create () in
    Manager.begin_session m;
    (try Manager.load_definitions m (read_file file) with
    | Analyzer.Syntax_error msg ->
        Printf.eprintf "syntax error: %s\n" msg;
        exit 2);
    print_diags m;
    match Manager.end_session m with
    | Manager.Consistent ->
        print_endline "consistent.";
        0
    | Manager.Inconsistent reports ->
        print_reports reports;
        1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Load GOM definition frames and check consistency")
    Term.(const (fun f -> Stdlib.exit (run f)) $ file)

let script_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file =
    let m = Manager.create () in
    (try
       match Manager.run_script m (read_file file) with
       | Manager.Consistent ->
           print_endline "script ended consistently.";
           0
       | Manager.Inconsistent reports ->
           print_reports reports;
           (match reports with
           | r :: _ ->
               print_endline "repairs for the first violation:";
               List.iteri
                 (fun i (rep, explanations) ->
                   Printf.printf "  %d: %s\n" (i + 1)
                     (Fmt.str "%a" Datalog.Repair.pp rep);
                   List.iter (fun e -> Printf.printf "     -> %s\n" e) explanations)
                 (Manager.repairs_for m r.Manager.violation)
           | [] -> ());
           1
     with Analyzer.Syntax_error msg ->
       Printf.eprintf "syntax error: %s\n" msg;
       2)
  in
  Cmd.v
    (Cmd.info "script" ~doc:"Run an evolution command script (bes/ees)")
    Term.(const (fun f -> Stdlib.exit (run f)) $ file)

let dump_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let as_script =
    Arg.(value & flag
         & info [ "script" ]
             ~doc:"Emit a complete evolution script (bes/ees, version edges, \
                   fashion clauses) instead of bare definition frames.")
  in
  let run as_script file =
    let m = Manager.create () in
    Manager.begin_session m;
    (try Manager.load_definitions m (read_file file) with
    | Analyzer.Syntax_error msg ->
        Printf.eprintf "syntax error: %s\n" msg;
        exit 2);
    (match Manager.end_session m with
    | Manager.Consistent -> ()
    | Manager.Inconsistent reports ->
        prerr_endline "warning: input is inconsistent; dumping anyway";
        List.iter
          (fun r -> Printf.eprintf "  %s\n" r.Manager.description)
          reports);
    let ctx =
      Analyzer.Unparse.make ~db:(Manager.database m)
        ~lookup_code:(Manager.lookup_code m)
    in
    print_string
      (if as_script then Analyzer.Unparse.unparse_script ctx
       else Analyzer.Unparse.unparse_all ctx);
    0
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Load definition frames and print them back from the schema base")
    Term.(const (fun s f -> Stdlib.exit (run s f)) $ as_script $ file)

(* ------------------------------------------------------------------ *)

let repl_help =
  {|commands:
  bes;                       begin an evolution session
  ees;                       end the session (consistency check)
  <evolution command>;       e.g. add attribute a : int to T@S;
  schema ... end schema X;   load a definition frame
  .load FILE                 load definition frames from a file
  .dump                      print the whole state as an evolution script
  .save FILE                 persist the whole database (facts, code, objects)
  .query Q                   deductive query, e.g. .query Attr_i(T, A, D)
  .constraint NAME: F        add a consistency constraint (first-order text)
  .unconstraint NAME         remove a constraint
  .open FILE                 replace the database with a saved one
  .show                      list schemas and types
  .repairs                   show repairs for the current violations
  .choose N                  execute repair N and re-check
  .rollback                  undo the session
  .help                      this message
  .quit                      leave
|}

let repl () =
  let m = ref (Manager.create ()) in
  let pending = ref [] in
  print_endline "gomsm repl — .help for help";
  let show () =
    let db = Manager.database !m in
    List.iter
      (fun (sid, name) ->
        if name <> Gom.Builtin.builtin_schema_name then begin
          Printf.printf "schema %s\n" name;
          List.iter
            (fun (_, tname) -> Printf.printf "  type %s\n" tname)
            (Gom.Schema_base.types_of_schema db ~sid)
        end)
      (Gom.Schema_base.schemas db)
  in
  let show_repairs () =
    match !pending with
    | [] -> print_endline "no pending violations."
    | r :: _ ->
        Printf.printf "for: %s\n" r.Manager.description;
        List.iteri
          (fun i (rep, explanations) ->
            Printf.printf "  %d: %s\n" (i + 1)
              (Fmt.str "%a" Datalog.Repair.pp rep);
            List.iter (fun e -> Printf.printf "     -> %s\n" e) explanations)
          (Manager.repairs_for !m r.Manager.violation)
  in
  let choose n =
    match !pending with
    | [] -> print_endline "no pending violations."
    | r :: _ -> (
        let repairs = Manager.repairs_for !m r.Manager.violation in
        match List.nth_opt repairs (n - 1) with
        | None -> print_endline "no such repair."
        | Some (rep, _) -> (
            Manager.execute_repair !m rep;
            match Manager.end_session !m with
            | Manager.Consistent ->
                pending := [];
                print_endline "consistent; session ended."
            | Manager.Inconsistent reports ->
                pending := reports;
                print_reports reports))
  in
  let buffer = Buffer.create 256 in
  let feed chunk =
    Buffer.add_string buffer chunk;
    Buffer.add_char buffer '\n';
    let text = Buffer.contents buffer in
    let trimmed = String.trim text in
    (* input is executed once it ends with ';' and parses; a parse error at
       end of input means "keep reading" (e.g. inside a definition frame) *)
    let parsed =
      if String.length trimmed = 0 || trimmed.[String.length trimmed - 1] <> ';'
      then None
      else
        match Analyzer.parse_commands text with
        | cmds -> Some (Ok cmds)
        | exception Analyzer.Syntax_error msg ->
            let incomplete =
              let needle = "end of input" in
              let hl = String.length msg and nl = String.length needle in
              let rec go i =
                i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
              in
              go 0
            in
            if incomplete then None else Some (Error msg)
    in
    match parsed with
    | None -> ()
    | Some (Error msg) ->
        Buffer.clear buffer;
        Printf.printf "syntax error: %s\n" msg
    | Some (Ok cmds) -> begin
      Buffer.clear buffer;
      try
        List.iter
          (fun (cmd : Analyzer.Ast.command) ->
            match cmd with
            | Analyzer.Ast.Begin_session ->
                Manager.begin_session !m;
                print_endline "session open."
            | Analyzer.Ast.End_session -> (
                match Manager.end_session !m with
                | Manager.Consistent ->
                    pending := [];
                    print_endline "consistent; session ended."
                | Manager.Inconsistent reports ->
                    pending := reports;
                    print_reports reports;
                    print_endline
                      "(session stays open: .repairs / .choose N / .rollback)")
            | cmd ->
                if not (Manager.in_session !m) then
                  print_endline "no session open; start with bes;"
                else begin
                  let r =
                    Analyzer.analyze_parsed
                      ~lookup_code:(Manager.lookup_code !m)
                      (Manager.database !m) (Manager.ids !m) [ cmd ]
                  in
                  Manager.absorb !m r;
                  List.iter
                    (fun d -> Printf.printf "analyzer: %s\n" d)
                    r.Analyzer.diagnostics
                end)
          cmds
      with
      | Manager.Session_open -> print_endline "session already open."
      | Manager.No_session -> print_endline "no session open."
    end
  in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "gomsm> " else "   ...> ");
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match String.trim line with
        | ".quit" -> ()
        | ".help" ->
            print_string repl_help;
            loop ()
        | ".show" ->
            show ();
            loop ()
        | ".repairs" ->
            show_repairs ();
            loop ()
        | ".rollback" ->
            (try
               Manager.rollback !m;
               pending := [];
               print_endline "rolled back."
             with Manager.No_session -> print_endline "no session open.");
            loop ()
        | s when String.length s > 6 && String.sub s 0 6 = ".load " ->
            let path = String.trim (String.sub s 6 (String.length s - 6)) in
            (try
               if not (Manager.in_session !m) then Manager.begin_session !m;
               Manager.load_definitions !m (read_file path);
               print_diags !m;
               print_endline "loaded (session open; ees; to check)."
             with
            | Sys_error e -> Printf.printf "error: %s\n" e
            | Analyzer.Syntax_error e -> Printf.printf "syntax error: %s\n" e);
            loop ()
        | ".dump" ->
            print_string
              (Analyzer.Unparse.unparse_script
                 (Analyzer.Unparse.make ~db:(Manager.database !m)
                    ~lookup_code:(Manager.lookup_code !m)));
            loop ()
        | s when String.length s > 6 && String.sub s 0 6 = ".save " ->
            let path = String.trim (String.sub s 6 (String.length s - 6)) in
            (try
               Persist.save !m ~path;
               Printf.printf "saved to %s\n" path
             with
            | Invalid_argument e -> Printf.printf "error: %s\n" e
            | Sys_error e -> Printf.printf "error: %s\n" e);
            loop ()
        | s when String.length s > 6 && String.sub s 0 6 = ".open " ->
            let path = String.trim (String.sub s 6 (String.length s - 6)) in
            (try
               m := Persist.load ~path;
               pending := [];
               Printf.printf "opened %s\n" path
             with
            | Persist.Corrupt e -> Printf.printf "corrupt database: %s\n" e
            | Sys_error e -> Printf.printf "error: %s\n" e);
            loop ()
        | s when String.length s > 7 && String.sub s 0 7 = ".query " ->
            let text = String.sub s 7 (String.length s - 7) in
            (try
               let answers = Manager.query_text !m text in
               List.iteri
                 (fun i bindings ->
                   if i < 20 then
                     Printf.printf "  %s\n"
                       (String.concat ", "
                          (List.map
                             (fun (v, c) ->
                               Printf.sprintf "%s = %s" v
                                 (Datalog.Term.const_to_string c))
                             bindings)))
                 answers;
               Printf.printf "%d answer(s).\n" (List.length answers)
             with
            | Datalog.Parse.Error e -> Printf.printf "syntax error: %s\n" e
            | Datalog.Rule.Unsafe e -> Printf.printf "unsafe query: %s\n" e);
            loop ()
        | s when String.length s > 12 && String.sub s 0 12 = ".constraint " -> (
            let rest = String.sub s 12 (String.length s - 12) in
            (match String.index_opt rest ':' with
            | None -> print_endline "usage: .constraint NAME: FORMULA"
            | Some i ->
                let name = String.trim (String.sub rest 0 i) in
                let ftext =
                  String.sub rest (i + 1) (String.length rest - i - 1)
                in
                (try
                   Datalog.Theory.add_constraint (Manager.theory !m) ~name
                     (Datalog.Parse.formula ftext);
                   Printf.printf
                     "constraint %s installed; it takes effect at the next \
                      check.\n"
                     name
                 with
                | Datalog.Parse.Error e -> Printf.printf "syntax error: %s\n" e
                | Datalog.Constraint_compile.Error e ->
                    Printf.printf "rejected: %s\n" e
                | Datalog.Theory.Duplicate e ->
                    Printf.printf "duplicate: %s\n" e));
            loop ())
        | s when String.length s > 14 && String.sub s 0 14 = ".unconstraint " ->
            let name = String.trim (String.sub s 14 (String.length s - 14)) in
            if Datalog.Theory.remove_constraint (Manager.theory !m) name then
              print_endline "removed."
            else print_endline "no such constraint.";
            loop ()
        | s when String.length s > 8 && String.sub s 0 8 = ".choose " ->
            (match int_of_string_opt (String.trim (String.sub s 8 (String.length s - 8))) with
            | Some n -> choose n
            | None -> print_endline "usage: .choose N");
            loop ()
        | _ ->
            feed line;
            loop ())
  in
  loop ();
  0

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive schema evolution sessions")
    Term.(const (fun () -> Stdlib.exit (repl ())) $ const ())

let paper_cmd =
  let run () =
    let m = Manager.create () in
    Manager.begin_session m;
    Manager.load_definitions m Analyzer.Sources.car_schema;
    (match Manager.end_session m with
    | Manager.Consistent -> print_endline "CarSchema loaded."
    | Manager.Inconsistent rs -> print_reports rs);
    (match Manager.run_script m Analyzer.Sources.new_car_schema_commands with
    | Manager.Consistent -> print_endline "section 4.2 evolution applied."
    | Manager.Inconsistent rs -> print_reports rs);
    let db = Manager.database m in
    List.iter
      (fun (sid, name) ->
        if name <> Gom.Builtin.builtin_schema_name then
          Printf.printf "schema %s: %s\n" name
            (String.concat ", "
               (List.sort String.compare
                  (List.map snd (Gom.Schema_base.types_of_schema db ~sid)))))
      (List.sort
         (fun (_, a) (_, b) -> String.compare a b)
         (Gom.Schema_base.schemas db));
    0
  in
  Cmd.v
    (Cmd.info "paper" ~doc:"Replay the paper's running example")
    Term.(const (fun () -> Stdlib.exit (run ())) $ const ())

(* ------------------------------------------------------------------ *)
(* The schema service: gomsm serve / gomsm client                      *)
(* ------------------------------------------------------------------ *)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind or connect to.")

let port_file_arg doc =
  Arg.(value & opt (some string) None & info [ "port-file" ] ~docv:"PATH" ~doc)

(* --- journal and admin flags shared by serve/replica ------------------ *)

let caps_doc =
  "  Both checkpoint caps belong to the data directory's journal: they \
   govern it in either role, and a promoted replica keeps them."

let checkpoint_every_arg =
  Arg.(
    value
    & opt int Server.Journal.default_checkpoint_every
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          ("Snapshot the state and start a fresh journal segment every N \
            records." ^ caps_doc))

let checkpoint_bytes_arg =
  Arg.(
    value
    & opt int Server.Journal.default_checkpoint_bytes
    & info [ "checkpoint-bytes" ] ~docv:"BYTES"
        ~doc:
          ("Also snapshot whenever the journal file exceeds this many bytes, \
            so bursts of large sessions cannot grow it unboundedly."
          ^ caps_doc))

let admin_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "admin-port" ] ~docv:"PORT"
        ~doc:
          "Serve GET /metrics (Prometheus text format) and GET /healthz on a \
           second socket at this port; 0 picks an ephemeral one.")

let admin_port_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "admin-port-file" ] ~docv:"PATH"
        ~doc:"Write the bound admin port here, like --port-file.")

(* --- observability flags shared by serve/replica/client --------------- *)

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"SPEC"
        ~doc:
          "Log verbosity: a level (debug|info|warn|error) or comma-separated \
           per-component overrides, e.g. $(i,trace=debug,default=warn).  \
           Overrides the $(b,GOMSM_LOG) environment variable.")

let slow_ms_arg =
  Arg.(
    value & opt float 0.
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Log any traced operation (span) that runs at least MS \
           milliseconds at warn level, with its full ancestry.  0 disables \
           the slow-op log.")

let trace_all_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record spans for every request, not only those arriving with a \
           client-supplied trace id (spans are logged at debug level under \
           the $(i,trace) component).")

let slow_query_ms_arg =
  Arg.(
    value & opt float 0.
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Log any query that runs at least MS milliseconds at warn level \
           (component $(i,slowquery)), with its normalized fingerprint and \
           a per-rule time breakdown.  Works with profiling off.  0 \
           disables the slow-query log.")

(* GOMSM_LOG first, then --log-level on top, then arm tracing.  A bad spec
   is a usage error. *)
let setup_obs ?(slow_ms = 0.) ?(slow_query_ms = 0.) ?(trace = false) log_level =
  (match Obs.Log.load_env () with
  | Ok () -> ()
  | Error e ->
      Printf.eprintf "gomsm: bad %s: %s\n" Obs.Log.env_var e;
      exit 2);
  (match log_level with
  | None -> ()
  | Some spec -> (
      match Obs.Log.configure spec with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "gomsm: bad --log-level: %s\n" e;
          exit 2));
  Obs.Trace.set_slow_ms slow_ms;
  Obs.Profile.set_slow_query_ms slow_query_ms;
  if trace then Obs.Trace.set_enabled true

(* Arm fault-injection sites from GOMSM_FAILPOINTS before the daemon
   starts; a malformed spec is a usage error, not something to ignore. *)
let load_failpoints who =
  match Fault.Failpoint.load_env () with
  | [] -> ()
  | armed ->
      Printf.eprintf "%s: failpoints armed: %s\n%!" who
        (String.concat ", " armed)
  | exception Fault.Failpoint.Bad_spec e ->
      Printf.eprintf "%s: bad %s: %s\n" who Fault.Failpoint.env_var e;
      exit 2

let serve_cmd =
  let port =
    Arg.(
      value & opt int Server.Daemon.default_config.Server.Daemon.port
      & info [ "port" ] ~docv:"PORT" ~doc:"TCP port; 0 picks an ephemeral one.")
  in
  let data =
    Arg.(
      value & opt (some string) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Data directory for the write-ahead journal and snapshot \
             checkpoints.  On boot the snapshot is loaded and the journal \
             replayed (a torn tail is truncated).  Without it the server is \
             in-memory only.")
  in
  let acquire_timeout =
    Arg.(
      value & opt float 5.0
      & info [ "acquire-timeout" ] ~docv:"SECONDS"
          ~doc:
            "How long a bes waits for the single writer slot before failing.")
  in
  let port_file =
    port_file_arg
      "Write the bound port here (atomically) once listening; handy with \
       --port 0."
  in
  let backlog =
    Arg.(
      value
      & opt int Server.Daemon.default_config.Server.Daemon.backlog
      & info [ "backlog" ] ~docv:"N"
          ~doc:"Pending-connection queue length passed to listen(2).")
  in
  let max_open_dbs =
    Arg.(
      value & opt int 64
      & info [ "max-open-dbs" ] ~docv:"N"
          ~doc:
            "How many databases are held open (journal fd + in-memory \
             state) at once; beyond it the least-recently-used idle \
             database is evicted and reopened from disk on its next use.")
  in
  let run host port data checkpoint_every checkpoint_bytes acquire_timeout
      port_file backlog max_open_dbs admin_port admin_port_file log_level
      slow_ms slow_query_ms trace =
    setup_obs ~slow_ms ~slow_query_ms ~trace log_level;
    load_failpoints "gomsm-server";
    (* every serve is registry-backed: [default] is the data root itself,
       so single-database setups see exactly the old layout, and db
       create/use/drop are available from the start *)
    let registry =
      Tenant.Registry.create
        {
          Tenant.Registry.data_dir = data;
          max_open = max_open_dbs;
          checkpoint_every;
          checkpoint_bytes;
          acquire_timeout;
          log = (fun s -> Obs.Log.infof ~comp:"tenant" "%s" s);
        }
    in
    (* open [default] before listening: recovery errors abort the boot
       instead of surfacing on the first request *)
    (match Tenant.Registry.use registry Tenant.Registry.default_db with
    | Ok _ -> ()
    | Error reason ->
        Obs.Log.errorf ~comp:"daemon" "%s" reason;
        Stdlib.exit 2);
    Server.Daemon.serve
      ~router:(Tenant.Registry.router registry)
      {
        Server.Daemon.host;
        port;
        port_file;
        backlog;
        admin_port;
        admin_port_file;
      };
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the schema manager as a durable multi-client daemon (line \
          protocol over TCP), hosting one or many named databases")
    Term.(
      const (fun h p d c cb a pf bl mo ap apf ll sm sq tr ->
          Stdlib.exit (run h p d c cb a pf bl mo ap apf ll sm sq tr))
      $ host_arg $ port $ data $ checkpoint_every_arg $ checkpoint_bytes_arg
      $ acquire_timeout $ port_file $ backlog $ max_open_dbs $ admin_port_arg
      $ admin_port_file_arg $ log_level_arg $ slow_ms_arg $ slow_query_ms_arg
      $ trace_all_arg)

let replica_cmd =
  let primary =
    Arg.(
      required
      & opt (some string) None
      & info [ "primary" ] ~docv:"HOST:PORT"
          ~doc:"The primary gomsm serve to replicate from.")
  in
  let port =
    Arg.(
      value & opt int Replica.default_config.Replica.port
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port the replica listens on; 0 picks an ephemeral one.")
  in
  let data =
    Arg.(
      value & opt (some string) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Local data directory: the replica journals every record it \
             applies, so a restart resumes from its own position instead of \
             re-bootstrapping.  Without it the replica is in-memory and \
             re-syncs from scratch on every start.")
  in
  let port_file =
    port_file_arg
      "Write the bound port here (atomically) once listening; handy with \
       --port 0."
  in
  let db =
    Arg.(
      value & opt string "default"
      & info [ "db" ] ~docv:"NAME"
          ~doc:"Which of the primary's databases to mirror.")
  in
  let run host primary port data checkpoint_every checkpoint_bytes port_file
      db admin_port admin_port_file log_level slow_ms trace =
    setup_obs ~slow_ms ~trace log_level;
    load_failpoints "gomsm-replica";
    let primary_host, primary_port =
      match String.rindex_opt primary ':' with
      | Some i -> (
          let h = String.sub primary 0 i in
          let p = String.sub primary (i + 1) (String.length primary - i - 1) in
          match int_of_string_opt p with
          | Some p -> ((if h = "" then "127.0.0.1" else h), p)
          | None ->
              Printf.eprintf "bad --primary %s (expected HOST:PORT)\n" primary;
              exit 2)
      | None ->
          Printf.eprintf "bad --primary %s (expected HOST:PORT)\n" primary;
          exit 2
    in
    Replica.run
      {
        Replica.primary_host;
        primary_port;
        host;
        port;
        data_dir = data;
        checkpoint_every;
        checkpoint_bytes;
        port_file;
        db;
        admin_port;
        admin_port_file;
      };
    0
  in
  Cmd.v
    (Cmd.info "replica"
       ~doc:
         "Run a read-only replica of one database of a gomsm serve primary: \
          subscribe to its journal stream, apply records incrementally, and \
          serve check/query/dump/stats locally")
    Term.(
      const (fun h pr p d c cb pf db ap apf ll sm tr ->
          Stdlib.exit (run h pr p d c cb pf db ap apf ll sm tr))
      $ host_arg $ primary $ port $ data $ checkpoint_every_arg
      $ checkpoint_bytes_arg $ port_file $ db $ admin_port_arg
      $ admin_port_file_arg $ log_level_arg $ slow_ms_arg $ trace_all_arg)

let client_cmd =
  let port =
    Arg.(
      value & opt int Server.Daemon.default_config.Server.Daemon.port
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let port_file =
    port_file_arg "Read the server port from this file (as written by serve)."
  in
  let requests =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "Requests to send, one per argument (e.g. bes, ees, check, dump, \
             stats, health, quit, 'query ...', 'script-line ...').  With \
             none, request lines are read from stdin.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry failed connects, dropped connections and transient \
             (timeout) errors up to N times per request, with capped \
             jittered backoff.  Only requests that are safe to repeat are \
             re-sent after a dropped connection; ees/script-line/rollback \
             never are.  0 (the default) fails fast.")
  in
  let failover =
    Arg.(
      value
      & opt (list ~sep:',' string) []
      & info [ "failover" ] ~docv:"HOST:PORT,HOST:PORT"
          ~doc:
            "Additional endpoints to fail over to.  A connection failure, a \
             lost connection, or a fenced/degraded/read-only refusal of a \
             safely retriable request rotates to the next endpoint; when \
             every endpoint has been exhausted the client prints one \
             distinct error line and exits 3.")
  in
  let db =
    Arg.(
      value & opt (some string) None
      & info [ "db" ] ~docv:"NAME"
          ~doc:
            "Scope every request to this database: a 'use NAME' is sent on \
             each (re)connection before anything else.")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Mint a trace id, send it with every request (a 'trace <id>' \
             prefix on the wire), and log it to stderr — the server's span \
             log lines for these requests carry the same id.")
  in
  let explain_flag =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Send every 'query ...' request as 'explain ...' instead, \
             printing the server's evaluation profile (stratification, \
             chosen plans, per-rule timings) in place of the answers.  \
             Other verbs pass through untouched, so an existing script can \
             be profiled without editing it.")
  in
  let run host port port_file retries failover explain db trace log_level
      requests =
    setup_obs log_level;
    let port =
      match port_file with
      | None -> port
      | Some path -> (
          match int_of_string_opt (String.trim (read_file path)) with
          | Some p -> p
          | None ->
              Printf.eprintf "bad port file %s\n" path;
              exit 2)
    in
    let failover =
      List.map
        (fun ep ->
          match String.rindex_opt ep ':' with
          | Some i -> (
              let h = String.sub ep 0 i in
              let p = String.sub ep (i + 1) (String.length ep - i - 1) in
              match int_of_string_opt p with
              | Some p -> (h, p)
              | None ->
                  Printf.eprintf "bad failover endpoint %s\n" ep;
                  exit 2)
          | None ->
              Printf.eprintf "bad failover endpoint %s (want HOST:PORT)\n" ep;
              exit 2)
        failover
    in
    let trace = if trace then Some (Obs.Trace.new_id ()) else None in
    match
      Server.Client.run ~retries ~failover ~explain ?db ?trace ~host ~port
        ~requests ()
    with
    | code -> code
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "cannot connect to %s:%d: %s\n" host port
          (Unix.error_message e);
        2
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send requests to a running gomsm serve.  Exit status: 0 on \
          success, 1 on a refused request or lost connection, 2 when the \
          server is unreachable, 3 when the server refused a verb because \
          it is fenced or in degraded read-only mode, or when every \
          failover endpoint was exhausted.")
    Term.(
      const (fun h p pf r fo ex db tr ll rs ->
          Stdlib.exit (run h p pf r fo ex db tr ll rs))
      $ host_arg $ port $ port_file $ retries $ failover $ explain_flag $ db
      $ trace_flag $ log_level_arg $ requests)

let () =
  let doc = "flexible schema management in object bases (ICDE 1993)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "gomsm" ~version:Server.Daemon.version ~doc)
          [ check_cmd; script_cmd; dump_cmd; repl_cmd; paper_cmd; serve_cmd;
            replica_cmd; client_cmd ]))
