(* Tests for the tenant registry: database naming, the create/use/drop
   lifecycle, LRU eviction of idle databases (and that an evict/reopen
   cycle leaves the journal byte-identical to a never-evicted control),
   concurrent writers on separate tenants, drop refusals, the open-cap
   under many tenants, and single-tenant backward compatibility. *)

module Manager = Core.Manager
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Daemon = Server.Daemon
module Registry = Tenant.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let fresh_dir = Tmp_dirs.fresh ~prefix:"gomsm-tenant"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let dump_of m =
  Analyzer.Unparse.unparse_script
    (Analyzer.Unparse.make ~db:(Manager.database m)
       ~lookup_code:(Manager.lookup_code m))

let zoo_frame =
  "schema Zoo is type Animal is [ legs : int; ] end type Animal; end schema \
   Zoo;"

let expect_ok what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok -> ()
  | Protocol.Err reason -> Alcotest.failf "%s failed: %s" what reason

let config ?(max_open = 8) dir =
  {
    Registry.data_dir = Some dir;
    max_open;
    checkpoint_every = 1000;
    checkpoint_bytes = max_int;
    acquire_timeout = 0.05;
    log = ignore;
  }

let reg_ok what = function
  | Ok v -> v
  | Error reason -> Alcotest.failf "%s failed: %s" what reason

let reg_err what = function
  | Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what
  | Error reason -> reason

(* One full BES/script/EES exchange against a named database. *)
let commit reg name ~client lines =
  reg_ok
    (Printf.sprintf "with_db %s" name)
    (Registry.with_db reg name (fun b ->
         expect_ok "bes" (Broker.handle b ~client Protocol.Bes);
         List.iter
           (fun l ->
             expect_ok "script" (Broker.handle b ~client (Protocol.Script_line l)))
           lines;
         expect_ok "ees" (Broker.handle b ~client Protocol.Ees)))

let dump_db reg name =
  reg_ok
    (Printf.sprintf "dump %s" name)
    (Registry.with_db reg name (fun b -> dump_of (Broker.manager b)))

let seq_db reg name =
  reg_ok
    (Printf.sprintf "seq %s" name)
    (Registry.with_db reg name (fun b ->
         Journal.seq (Option.get (Broker.journal b))))

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

let test_name_validation () =
  let ok n = check_bool ("accepts " ^ n) true (Registry.validate n = Ok n) in
  let bad n =
    check_bool
      (Printf.sprintf "rejects %S" n)
      true
      (Result.is_error (Registry.validate n))
  in
  ok "a";
  ok "A-1_b";
  ok "default";
  ok (String.make 64 'x');
  bad "";
  bad (String.make 65 'x');
  bad "-flag";
  bad "a.b";
  bad "a/b";
  bad "a b";
  bad "caf\xc3\xa9"

(* with_db is reached with client-supplied names (subscribe <seq> <name>),
   so it must validate too: "." aliases the data root (a second broker over
   the live default journal) and ".." escapes it. *)
let test_with_db_rejects_traversal () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  List.iter
    (fun n ->
      ignore
        (reg_err
           (Printf.sprintf "with_db %S" n)
           (Registry.with_db reg n (fun _ -> ()))))
    [ "."; ".."; "a/../../x"; "" ];
  check_int "nothing was opened" 0 (Registry.open_count reg);
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  Alcotest.(check (list string))
    "fresh registry lists only default" [ "default closed" ] (Registry.list reg);
  reg_ok "create a" (Registry.create_db reg "a");
  let r = reg_err "create a twice" (Registry.create_db reg "a") in
  check_bool "duplicate explained" true (contains r "already exists");
  let r = reg_err "use missing" (Registry.use reg "nope") in
  check_bool "unknown names the fix" true (contains r "db create");
  check_string "use a" "a" (reg_ok "use a" (Registry.use reg "a"));
  Alcotest.(check (list string))
    "list after open"
    [ "a open"; "default closed" ]
    (Registry.list reg);
  let lines = reg_ok "stat a" (Registry.stat reg "a") in
  check_bool "stat open" true (List.mem "state open" lines);
  check_bool "stat seq" true (List.mem "seq 0" lines);
  check_bool "stat writer" true (List.mem "writer none" lines);
  commit reg "a" ~client:1 [ zoo_frame ];
  check_int "seq advanced" 1 (seq_db reg "a");
  reg_ok "drop a" (Registry.drop_db reg "a");
  ignore (reg_err "drop a twice" (Registry.drop_db reg "a"));
  ignore (reg_err "use after drop" (Registry.use reg "a"));
  let r = reg_err "drop default" (Registry.drop_db reg "default") in
  check_bool "default protected" true (contains r "cannot be dropped");
  check_bool "directory gone" false (Sys.file_exists (Filename.concat dir "a"));
  check_bool "no tombstone left" false
    (Sys.file_exists (Filename.concat dir "a.tomb"));
  (* a fresh database under the dropped name starts empty *)
  reg_ok "recreate a" (Registry.create_db reg "a");
  check_bool "recreated a is empty" false (contains (dump_db reg "a") "Zoo");
  Registry.shutdown reg

(* A plain file squatting on the name is invisible to exists_locked (it
   checks is_directory), so mkdir hits EEXIST — which must come back as an
   err reply, not an exception killing the connection thread. *)
let test_create_over_squatting_file () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  let squatter = Filename.concat dir "taken" in
  let oc = open_out squatter in
  output_string oc "not a database\n";
  close_out oc;
  let r = reg_err "create over file" (Registry.create_db reg "taken") in
  check_bool "failure explained" true (contains r "cannot create database");
  check_bool "squatter untouched" true (Sys.file_exists squatter);
  Registry.shutdown reg

(* A tombstone left by a crashed drop is swept at the next registry open. *)
let test_tombstone_sweep () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  reg_ok "create a" (Registry.create_db reg "a");
  commit reg "a" ~client:1 [ zoo_frame ];
  Registry.shutdown reg;
  (* simulate the crash window: renamed to the tombstone, never deleted *)
  Unix.rename (Filename.concat dir "a") (Filename.concat dir "a.tomb");
  let reg = Registry.create (config dir) in
  check_bool "tombstone swept" false
    (Sys.file_exists (Filename.concat dir "a.tomb"));
  Alcotest.(check (list string))
    "corpse invisible" [ "default closed" ] (Registry.list reg);
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)
(* ------------------------------------------------------------------ *)

(* Alternating commits against two tenants under max_open = 1 force an
   evict/reopen cycle on every switch.  The journal file must come out
   byte-identical to a never-evicted control registry running the same
   commit sequence, and the recovered state must match too. *)
let test_eviction_reopen_byte_identical () =
  let run dir ~max_open =
    let reg = Registry.create (config ~max_open dir) in
    reg_ok "create x" (Registry.create_db reg "x");
    reg_ok "create y" (Registry.create_db reg "y");
    commit reg "x" ~client:1 [ zoo_frame ];
    commit reg "y" ~client:1 [ zoo_frame ];
    commit reg "x" ~client:1 [ "add attribute xa : int to Animal@Zoo;" ];
    commit reg "y" ~client:1 [ "add attribute ya : int to Animal@Zoo;" ];
    commit reg "x" ~client:1 [ "add attribute xb : int to Animal@Zoo;" ];
    let dumps = (dump_db reg "x", dump_db reg "y") in
    Registry.shutdown reg;
    (Metrics.counter (Registry.server_metrics reg) "evictions", dumps)
  in
  let churn_dir = fresh_dir () and calm_dir = fresh_dir () in
  let churn_evictions, churn_dumps = run churn_dir ~max_open:1 in
  let calm_evictions, calm_dumps = run calm_dir ~max_open:8 in
  check_bool "churn registry evicted" true (churn_evictions >= 4);
  check_int "calm registry never evicted" 0 calm_evictions;
  check_bool "states agree" true (churn_dumps = calm_dumps);
  List.iter
    (fun name ->
      let path d = Journal.journal_path ~dir:(Filename.concat d name) in
      check_string
        (Printf.sprintf "journal bytes identical for %s" name)
        (read_file (path calm_dir))
        (read_file (path churn_dir)))
    [ "x"; "y" ]

(* An evicted tenant keeps its counters in the scrape, but its broker's
   gauges leave with the broker; reopening the tenant brings them back. *)
let test_evicted_tenant_scrape () =
  let reg = Registry.create (config ~max_open:1 (fresh_dir ())) in
  reg_ok "create x" (Registry.create_db reg "x");
  reg_ok "create y" (Registry.create_db reg "y");
  commit reg "x" ~client:1 [ zoo_frame ];
  commit reg "y" ~client:1 [ zoo_frame ];
  let scrape () =
    let body = Obs.Export.render (Registry.export_metrics reg) in
    (match Obs.Export.lint body with
    | Ok _ -> ()
    | Error es ->
        Alcotest.failf "scrape fails lint: %s" (String.concat "; " es));
    body
  in
  let body = scrape () in
  check_bool "x evicted" true (List.mem "x closed" (Registry.list reg));
  check_bool "counters kept" true
    (contains body "gomsm_sessions_committed{db=\"x\"} 1\n");
  check_bool "journal gauge gone" false
    (contains body "gomsm_journal_seq{db=\"x\"}");
  check_bool "degraded gauge gone" false
    (contains body "gomsm_degraded{db=\"x\"}");
  check_int "x reopened" 1 (seq_db reg "x");
  let body = scrape () in
  check_bool "journal gauge back" true
    (contains body "gomsm_journal_seq{db=\"x\"} 1\n");
  check_bool "degraded gauge back" true
    (contains body "gomsm_degraded{db=\"x\"} 0\n");
  Registry.shutdown reg

(* An open evolution session pins the writer; the tenant must never be
   evicted mid-session even under cache pressure. *)
let test_writer_blocks_eviction () =
  let dir = fresh_dir () in
  let reg = Registry.create (config ~max_open:1 dir) in
  reg_ok "create x" (Registry.create_db reg "x");
  reg_ok "create y" (Registry.create_db reg "y");
  reg_ok "bes on x"
    (Registry.with_db reg "x" (fun b ->
         expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes)));
  (* touching y wants room, but x holds a writer: the cap overflows
     rather than evicting the session away *)
  commit reg "y" ~client:2 [ zoo_frame ];
  check_int "both stayed open" 2 (Registry.open_count reg);
  reg_ok "x session intact"
    (Registry.with_db reg "x" (fun b ->
         check_bool "writer still 1" true (Broker.writer b = Some 1);
         expect_ok "ees still possible"
           (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
         expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees)));
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Concurrency across tenants                                          *)
(* ------------------------------------------------------------------ *)

let test_concurrent_writers_two_tenants () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  reg_ok "create a" (Registry.create_db reg "a");
  reg_ok "create b" (Registry.create_db reg "b");
  (* while a's writer slot is held, b's is immediately available: the
     single-writer discipline is per database *)
  reg_ok "bes a"
    (Registry.with_db reg "a" (fun ba ->
         expect_ok "bes a" (Broker.handle ba ~client:1 Protocol.Bes)));
  reg_ok "bes b while a busy"
    (Registry.with_db reg "b" (fun bb ->
         expect_ok "bes b" (Broker.handle bb ~client:2 Protocol.Bes);
         check_bool "b writer is 2" true (Broker.writer bb = Some 2)));
  reg_ok "finish a"
    (Registry.with_db reg "a" (fun ba ->
         check_bool "a writer is 1" true (Broker.writer ba = Some 1);
         expect_ok "script a"
           (Broker.handle ba ~client:1 (Protocol.Script_line zoo_frame));
         expect_ok "ees a" (Broker.handle ba ~client:1 Protocol.Ees)));
  reg_ok "finish b"
    (Registry.with_db reg "b" (fun bb ->
         expect_ok "script b"
           (Broker.handle bb ~client:2 (Protocol.Script_line zoo_frame));
         expect_ok "ees b" (Broker.handle bb ~client:2 Protocol.Ees)));
  (* two writer threads on two tenants proceed in parallel: with a 50ms
     acquire timeout, any cross-tenant interference would surface as a
     bes timeout *)
  let failures = Atomic.make 0 in
  let worker name client =
    Thread.create
      (fun () ->
        for i = 1 to 10 do
          match
            Registry.with_db reg name (fun b ->
                let r = Broker.handle b ~client Protocol.Bes in
                (match r.Protocol.status with
                | Protocol.Ok -> ()
                | Protocol.Err _ -> Atomic.incr failures);
                expect_ok "script"
                  (Broker.handle b ~client
                     (Protocol.Script_line
                        (Printf.sprintf
                           "add attribute %s%d : int to Animal@Zoo;" name i)));
                expect_ok "ees" (Broker.handle b ~client Protocol.Ees))
          with
          | Ok () -> ()
          | Error _ -> Atomic.incr failures
        done)
      ()
  in
  let ta = worker "a" 11 and tb = worker "b" 12 in
  Thread.join ta;
  Thread.join tb;
  check_int "no cross-tenant writer contention" 0 (Atomic.get failures);
  check_int "a committed all" 11 (seq_db reg "a");
  check_int "b committed all" 11 (seq_db reg "b");
  check_bool "a has only a's attributes" false (contains (dump_db reg "a") "b1");
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Drop refusals                                                       *)
(* ------------------------------------------------------------------ *)

let test_drop_refusals () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  reg_ok "create a" (Registry.create_db reg "a");
  reg_ok "bes a"
    (Registry.with_db reg "a" (fun b ->
         expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes)));
  let r = reg_err "drop with open session" (Registry.drop_db reg "a") in
  check_bool "session refusal explains" true
    (contains r "open evolution session");
  reg_ok "rollback"
    (Registry.with_db reg "a" (fun b ->
         expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback)));
  (* a pinned tenant (request in flight) is busy, not droppable *)
  let r =
    reg_ok "with_db a"
      (Registry.with_db reg "a" (fun _ ->
           reg_err "drop while pinned" (Registry.drop_db reg "a")))
  in
  check_bool "busy refusal explains" true (contains r "busy");
  reg_ok "drop after unpin" (Registry.drop_db reg "a");
  Registry.shutdown reg

(* Switching databases while holding the writer slot is refused at the
   router: the disconnect rollback only covers the current database. *)
let test_use_refused_mid_session () =
  let dir = fresh_dir () in
  let reg = Registry.create (config dir) in
  reg_ok "create a" (Registry.create_db reg "a");
  reg_ok "create b" (Registry.create_db reg "b");
  let router = Registry.router reg in
  reg_ok "bes a"
    (Registry.with_db reg "a" (fun b ->
         expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes)));
  (match router.Daemon.use_db ~current:"a" ~client:1 "b" with
  | Error reason ->
      check_bool "refusal names the way out" true (contains reason "ees")
  | Ok _ -> Alcotest.fail "use accepted mid-session");
  (* a different client on the same connection-current database may switch *)
  check_string "other client switches" "b"
    (reg_ok "use b" (router.Daemon.use_db ~current:"a" ~client:2 "b"));
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Many tenants under a small cap                                      *)
(* ------------------------------------------------------------------ *)

let test_sixteen_tenants_cap_four () =
  let dir = fresh_dir () in
  let reg = Registry.create (config ~max_open:4 dir) in
  let tenants = List.init 16 (fun i -> Printf.sprintf "t%02d" i) in
  List.iter (fun n -> reg_ok ("create " ^ n) (Registry.create_db reg n)) tenants;
  (* two round-robin passes: every tenant is opened, evicted by its
     successors, and reopened for the second commit *)
  List.iteri
    (fun i n -> commit reg n ~client:1 [ Printf.sprintf
        "schema S%02d is type T%02d is [ x : int; ] end type T%02d; end \
         schema S%02d;" i i i i ])
    tenants;
  List.iteri
    (fun i n ->
      commit reg n ~client:1
        [ Printf.sprintf "add attribute extra : int to T%02d@S%02d;" i i ])
    tenants;
  check_bool "cap respected" true (Registry.open_count reg <= 4);
  check_bool "evictions happened" true
    (Metrics.counter (Registry.server_metrics reg) "evictions" > 0);
  (* the journal-seq oracle: both commits of every tenant are durable and
     visible after all the churn *)
  List.iteri
    (fun i n ->
      check_int (Printf.sprintf "%s seq" n) 2 (seq_db reg n);
      let d = dump_db reg n in
      check_bool (Printf.sprintf "%s schema visible" n) true
        (contains d (Printf.sprintf "schema S%02d" i));
      check_bool (Printf.sprintf "%s attribute visible" n) true
        (contains d "extra"))
    tenants;
  check_bool "cap still respected" true (Registry.open_count reg <= 4);
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)
(* Single-tenant backward compatibility                                *)
(* ------------------------------------------------------------------ *)

let test_single_tenant_dir_opens_as_default () =
  let dir = fresh_dir () in
  (* a journal written by the pre-registry single-tenant server *)
  let r = Journal.recover ~checkpoint_every:1000 ~dir () in
  let b0 =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  expect_ok "bes" (Broker.handle b0 ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b0 ~client:1 (Protocol.Script_line zoo_frame));
  expect_ok "ees" (Broker.handle b0 ~client:1 Protocol.Ees);
  let legacy_dump = dump_of (Broker.manager b0) in
  Broker.close b0;
  let legacy_bytes = read_file (Journal.journal_path ~dir) in
  (* the registry serves the same directory as [default], bytes untouched *)
  let reg = Registry.create (config dir) in
  check_string "default dump matches" legacy_dump (dump_db reg "default");
  check_string "journal bytes untouched" legacy_bytes
    (read_file (Journal.journal_path ~dir));
  commit reg "default" ~client:1
    [ "add attribute name : string to Animal@Zoo;" ];
  Registry.shutdown reg;
  (* and the single-tenant recovery path still reads what the registry
     wrote: same file, same format, one seamless history *)
  let r = Journal.recover ~dir () in
  check_int "all records replay" 2 r.Journal.replayed;
  check_bool "registry commit visible" true
    (contains (dump_of r.Journal.manager) "name");
  Journal.close r.Journal.journal

(* ------------------------------------------------------------------ *)
(* In-memory registries                                                *)
(* ------------------------------------------------------------------ *)

let test_in_memory_registry_never_evicts () =
  let reg =
    Registry.create
      { (config "") with Registry.data_dir = None; max_open = 2 }
  in
  (* default exists before its broker is ever materialized, and list must
     agree with use — both on disk and in memory *)
  Alcotest.(check (list string))
    "fresh in-memory registry lists default" [ "default closed" ]
    (Registry.list reg);
  List.iter
    (fun n -> reg_ok ("create " ^ n) (Registry.create_db reg n))
    [ "a"; "b"; "c"; "d" ];
  List.iter (fun n -> commit reg n ~client:1 [ zoo_frame ]) [ "a"; "b"; "c"; "d" ];
  (* no disk to reopen from, so the cap must not evict anyone *)
  check_int "all stay open" 4 (Registry.open_count reg);
  check_int "no evictions" 0
    (Metrics.counter (Registry.server_metrics reg) "evictions");
  List.iter
    (fun n ->
      check_bool (n ^ " intact") true (contains (dump_db reg n) "Zoo"))
    [ "a"; "b"; "c"; "d" ];
  reg_ok "drop works in memory" (Registry.drop_db reg "d");
  ignore (reg_err "dropped gone" (Registry.use reg "d"));
  Registry.shutdown reg

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "tenant.names",
      [
        Tmp_dirs.test_case "validation" `Quick test_name_validation;
        Tmp_dirs.test_case "with_db rejects traversal" `Quick
          test_with_db_rejects_traversal;
      ] );
    ( "tenant.lifecycle",
      [
        Tmp_dirs.test_case "create/use/drop" `Quick test_lifecycle;
        Tmp_dirs.test_case "create over squatting file" `Quick
          test_create_over_squatting_file;
        Tmp_dirs.test_case "tombstone swept at open" `Quick
          test_tombstone_sweep;
      ] );
    ( "tenant.eviction",
      [
        Tmp_dirs.test_case "evict/reopen journal byte-identical" `Quick
          test_eviction_reopen_byte_identical;
        Tmp_dirs.test_case "open session blocks eviction" `Quick
          test_writer_blocks_eviction;
        Tmp_dirs.test_case "evicted tenant's gauges leave the scrape" `Quick
          test_evicted_tenant_scrape;
      ] );
    ( "tenant.concurrency",
      [
        Tmp_dirs.test_case "two tenants write in parallel" `Quick
          test_concurrent_writers_two_tenants;
      ] );
    ( "tenant.drop",
      [
        Tmp_dirs.test_case "refusals" `Quick test_drop_refusals;
        Tmp_dirs.test_case "use refused mid-session" `Quick
          test_use_refused_mid_session;
      ] );
    ( "tenant.scale",
      [
        Tmp_dirs.test_case "16 tenants, 4 open" `Quick
          test_sixteen_tenants_cap_four;
      ] );
    ( "tenant.compat",
      [
        Tmp_dirs.test_case "single-tenant dir is default" `Quick
          test_single_tenant_dir_opens_as_default;
        Tmp_dirs.test_case "in-memory registry never evicts" `Quick
          test_in_memory_registry_never_evicts;
      ] );
  ]

let () = Alcotest.run "tenant" suite
