(* The reproduction harness: regenerates every evaluation artifact of the
   paper (figures, tables, worked examples) and then runs the quantitative
   benches backing its performance claims — one Bechamel test per measured
   series.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Datalog
open Gom
module Manager = Core.Manager
module Value = Runtime.Value

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)
(* ------------------------------------------------------------------ *)

let ns_per_run results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> est
      | Some _ | None -> nan)

(* Every measured series (test name -> ns/run) is also collected here and
   emitted as machine-readable BENCH_results.json, so the perf trajectory
   accumulates across PRs. *)
let recorded : (string * float) list ref = ref []
let record name ns = recorded := (name, ns) :: !recorded

(* --smoke: one tiny iteration of everything, no JSON — a CI liveness check
   for the harness itself, not a measurement. *)
let smoke = ref false
let sizes full tiny = if !smoke then tiny else full
let duration d = if !smoke then 0.05 else d

let emit_json path =
  let entries = List.sort compare !recorded in
  let oc = open_out path in
  output_string oc "{\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
        (if i = n - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s (%d series, ns/run)\n" path n

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Run a group of tests and return a lookup: test name -> ns/run. *)
let run_group ~name tests : string -> float =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    if !smoke then
      Benchmark.cfg ~limit:1 ~quota:(Time.second 0.02) ~kde:None
        ~stabilize:false ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None
        ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter (fun full_name _ -> record full_name (ns_per_run results full_name)) results;
  fun test_name -> ns_per_run results (name ^ "/" ^ test_name)

let banner id title =
  Printf.printf "\n%s\n[%s] %s\n%s\n%!" (String.make 72 '=') id title
    (String.make 72 '=')

let table header rows =
  print_endline (Pretty.Table.render (Pretty.Table.make ~header rows))

(* ------------------------------------------------------------------ *)
(* B1: consistency checking — full vs affected cone vs DRed vs retained cone *)
(* ------------------------------------------------------------------ *)

let bench_incremental () =
  banner "B1"
    "Efficient consistency checking (refs [18, 20]): full re-check vs \
     affected-constraint cone vs maintained DRed state vs retained cone";
  let sizes = sizes [ 40; 80; 160 ] [ 10 ] in
  let rows = ref [] in
  List.iter
    (fun size ->
      let theory = Workload.full_theory () in
      let db, ids, tids = Workload.database theory ~types:size in
      let target = List.hd tids in
      let fact =
        Preds.attr_fact ~tid:target ~name:"bench_attr" ~domain:"tid_string"
      in
      let add = Delta.of_lists ~additions:[ fact ] ~deletions:[] in
      let del = Delta.of_lists ~additions:[] ~deletions:[ fact ] in
      ignore ids;
      (* the delta is pre-applied for the two stateless strategies *)
      let _ = Delta.apply db add in
      let state = Incremental.init theory db in
      let affected =
        Theory.affected_constraints theory
          ~changed_preds:(Delta.changed_preds add)
      in
      let cone =
        Incremental.init ~rules:(Incremental.cone theory affected) theory db
      in
      let lookup =
        run_group
          ~name:(Printf.sprintf "check-%d" size)
          [
            Test.make ~name:"full"
              (Staged.stage (fun () -> Checker.check theory db));
            Test.make ~name:"affected"
              (Staged.stage (fun () ->
                   Incremental.check_affected theory db ~delta:add));
            Test.make ~name:"dred"
              (Staged.stage (fun () ->
                   (* one deletion + one re-insertion on the maintained
                      state: two incremental updates *)
                   ignore (Incremental.apply state del);
                   ignore (Incremental.apply state add)));
            Test.make ~name:"cone"
              (Staged.stage (fun () ->
                   (* the retained cone of a repeated session check: the same
                      two updates, each followed by its check *)
                   ignore (Incremental.apply cone del);
                   ignore (Incremental.violations ~only:affected cone);
                   ignore (Incremental.apply cone add);
                   ignore (Incremental.violations ~only:affected cone)));
          ]
      in
      let full = lookup "full"
      and affected = lookup "affected"
      and dred = lookup "dred" /. 2.0
      and cone = lookup "cone" /. 2.0 in
      rows :=
        [
          string_of_int size;
          pretty_ns full;
          pretty_ns affected;
          pretty_ns dred;
          pretty_ns cone;
          Printf.sprintf "%.0fx" (full /. dred);
        ]
        :: !rows)
    sizes;
  table
    [
      "types"; "full check"; "affected cone"; "DRed update"; "retained cone";
      "full/DRed";
    ]
    (List.rev !rows);
  print_endline
    "expected shape: the full check and the from-scratch affected cone grow\n\
     with schema size; the maintained DRed update and the retained cone\n\
     (an update plus its check) stay roughly flat, since an update costs\n\
     what it changes, not the size of the base — the paper's case for\n\
     efficient consistency checking [18, 20]."

(* B1b: the evaluation-strategy ablations. *)
let bench_seminaive () =
  banner "B1b"
    "Ablations: naive vs semi-naive fixpoint; column indexes vs scans";
  let rows = ref [] in
  List.iter
    (fun size ->
      let theory = Workload.full_theory () in
      let db, _, _ = Workload.database theory ~types:size in
      let lookup =
        run_group
          ~name:(Printf.sprintf "eval-%d" size)
          [
            Test.make ~name:"seminaive"
              (Staged.stage (fun () -> Checker.check theory db));
            Test.make ~name:"naive"
              (Staged.stage (fun () -> Checker.check ~naive:true theory db));
            Test.make ~name:"noindex"
              (Staged.stage (fun () ->
                   Relation.use_indexes := false;
                   Fun.protect
                     ~finally:(fun () -> Relation.use_indexes := true)
                     (fun () -> Checker.check theory db)));
          ]
      in
      let s = lookup "seminaive"
      and n = lookup "naive"
      and u = lookup "noindex" in
      rows :=
        [
          string_of_int size; pretty_ns s; pretty_ns n;
          Printf.sprintf "%.1fx" (n /. s); pretty_ns u;
          Printf.sprintf "%.1fx" (u /. s);
        ]
        :: !rows)
    (sizes [ 40; 80 ] [ 10 ]);
  table
    [
      "types"; "semi-naive+idx"; "naive"; "naive/s"; "unindexed";
      "unindexed/s";
    ]
    (List.rev !rows)

(* B8: cost-based join planning, ablated: each setting builds its own
   workload and plan cache. *)
let bench_planner () =
  banner "B8" "Ablation: cost-based join planning off vs on";
  let with_planner planner f =
    let old = !Plan.use_planner in
    Plan.use_planner := planner;
    Fun.protect ~finally:(fun () -> Plan.use_planner := old) f
  in
  let rows = ref [] in
  List.iter
    (fun size ->
      let measure (label, planner) =
        with_planner planner (fun () ->
            let theory = Workload.full_theory () in
            let db, _, _ = Workload.database theory ~types:size in
            let lookup =
              run_group
                ~name:(Printf.sprintf "eval-%d" size)
                [
                  Test.make ~name:label
                    (Staged.stage (fun () -> Checker.check theory db));
                ]
            in
            lookup label)
      in
      let base = measure ("baseline", false) in
      let planned = measure ("planned", true) in
      rows :=
        [
          string_of_int size; pretty_ns base; pretty_ns planned;
          Printf.sprintf "%.1fx" (base /. planned);
        ]
        :: !rows)
    (sizes [ 40; 80 ] [ 10 ]);
  table [ "types"; "baseline"; "planned"; "speedup" ] (List.rev !rows);
  print_endline
    "expected shape: the planner cuts the number of tuples considered per\n\
     join, so the gap widens with the schema."

(* ------------------------------------------------------------------ *)
(* B2: conversion (O2) vs masking (ENCORE)                             *)
(* ------------------------------------------------------------------ *)

let bench_cures () =
  banner "B2"
    "Inconsistency cures: eager conversion (O2 [25]) vs lazy masking \
     (ENCORE [22])";
  let rows = ref [] in
  List.iter
    (fun n ->
      let encore = Baselines.Encore.create ~attrs:[ "age" ] in
      let o2 = Baselines.O2_conversion.create ~attrs:[ "age" ] in
      for _ = 1 to n do
        let e = Baselines.Encore.new_object encore in
        Baselines.Encore.write encore e ~attr:"age" (Value.Int 30);
        let o = Baselines.O2_conversion.new_object o2 in
        Baselines.O2_conversion.write o2 o ~attr:"age" (Value.Int 30)
      done;
      let handler o =
        match Baselines.Encore.read encore o ~attr:"age" with
        | Value.Int age -> Value.Int (1993 - age)
        | _ -> Value.Null
      in
      let fill o =
        match Baselines.O2_conversion.read o2 o ~attr:"age" with
        | Value.Int age -> Value.Int (1993 - age)
        | _ -> Value.Null
      in
      (* set the stage once so reads have a target attribute *)
      Baselines.Encore.add_attribute encore ~attr:"birthday" ~handler;
      Baselines.O2_conversion.add_attribute o2 ~attr:"birthday" ~fill;
      let old_obj = List.nth (Baselines.Encore.objects encore) (n - 1) in
      let o2_obj = List.nth (Baselines.O2_conversion.objects o2) (n - 1) in
      let lookup =
        run_group
          ~name:(Printf.sprintf "cures-%d" n)
          [
            Test.make ~name:"encore-change"
              (Staged.stage (fun () ->
                   (* change + undo so the version set stays bounded *)
                   Baselines.Encore.add_attribute encore ~attr:"birthday2"
                     ~handler;
                   Baselines.Encore.pop_version encore));
            Test.make ~name:"o2-change"
              (Staged.stage (fun () ->
                   Baselines.O2_conversion.add_attribute o2 ~attr:"birthday"
                     ~fill));
            Test.make ~name:"encore-read"
              (Staged.stage (fun () ->
                   Baselines.Encore.read encore old_obj ~attr:"birthday"));
            Test.make ~name:"o2-read"
              (Staged.stage (fun () ->
                   Baselines.O2_conversion.read o2 o2_obj ~attr:"birthday"));
          ]
      in
      let ec = lookup "encore-change"
      and oc = lookup "o2-change"
      and er = lookup "encore-read"
      and orr = lookup "o2-read" in
      let crossover =
        if er > orr then (oc -. ec) /. (er -. orr) else infinity
      in
      rows :=
        [
          string_of_int n; pretty_ns ec; pretty_ns oc; pretty_ns er;
          pretty_ns orr;
          (if Float.is_finite crossover then Printf.sprintf "%.0f" crossover
           else "-");
        ]
        :: !rows)
    (sizes [ 100; 1000; 10000 ] [ 50 ]);
  table
    [
      "objects"; "masking change"; "conversion change"; "masked read";
      "direct read"; "reads to amortize";
    ]
    (List.rev !rows);
  print_endline
    "expected shape: the masking change is O(1) while conversion is\n\
     O(objects); masked reads pay an indirection, so conversion amortizes\n\
     after roughly (conversion cost) / (read penalty) accesses — both of the\n\
     positions the paper quotes (ENCORE vs O2) are right in their regime,\n\
     which is why both cures are built in."

(* ------------------------------------------------------------------ *)
(* B3: repair generation                                               *)
(* ------------------------------------------------------------------ *)

let bench_repairs () =
  banner "B3" "Automatic repair generation (ref [19])";
  let rows = ref [] in
  List.iter
    (fun size ->
      let theory = Workload.full_theory () in
      let db, ids, tids = Workload.database theory ~types:size in
      Workload.seed_violations db ids tids ~k:3;
      let materialized = Checker.materialize theory db in
      let violations = Checker.violations_of theory materialized in
      let star =
        List.filter
          (fun v -> v.Checker.constraint_name = "star$SlotForEveryAttr")
          violations
      in
      let v = List.hd star in
      let lookup =
        run_group
          ~name:(Printf.sprintf "repair-%d" size)
          [
            Test.make ~name:"generate-one"
              (Staged.stage (fun () -> Repair.generate theory materialized v));
            Test.make ~name:"materialize"
              (Staged.stage (fun () -> Checker.materialize theory db));
          ]
      in
      rows :=
        [
          string_of_int size;
          string_of_int (List.length violations);
          string_of_int (List.length (Repair.generate theory materialized v));
          pretty_ns (lookup "generate-one");
          pretty_ns (lookup "materialize");
        ]
        :: !rows)
    (sizes [ 40; 80 ] [ 10 ]);
  table
    [
      "types"; "violations"; "repairs for first"; "generate (one violation)";
      "materialize (shared)";
    ]
    (List.rev !rows);
  print_endline
    "expected shape: repair generation per violation is small next to the\n\
     shared materialization — acceptable interactive cost, as the protocol\n\
     assumes."

(* ------------------------------------------------------------------ *)
(* B4: deferred session checking vs eager per-operation checking       *)
(* ------------------------------------------------------------------ *)

let bench_sessions () =
  banner "B4"
    "Deferred (session) checking vs eager per-operation checking (ORION \
     style)";
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "unexpected");
  let car =
    Option.get
      (Schema_base.find_type_at (Manager.database m) ~type_name:"Car"
         ~schema_name:"CarSchema")
  in
  let facts k =
    List.init k (fun i ->
        Preds.attr_fact ~tid:car
          ~name:(Printf.sprintf "extra%d" i)
          ~domain:"tid_float")
  in
  let rows = ref [] in
  List.iter
    (fun k ->
      let fs = facts k in
      let deferred () =
        Manager.begin_session m;
        List.iter
          (fun f ->
            Manager.propose m (Delta.of_lists ~additions:[ f ] ~deletions:[]))
          fs;
        (match Manager.end_session m with
        | Manager.Consistent -> ()
        | Manager.Inconsistent _ -> failwith "unexpected");
        (* undo, also as one session *)
        Manager.begin_session m;
        List.iter
          (fun f ->
            Manager.propose m (Delta.of_lists ~additions:[] ~deletions:[ f ]))
          fs;
        match Manager.end_session m with
        | Manager.Consistent -> ()
        | Manager.Inconsistent _ -> failwith "unexpected"
      in
      let eager () =
        List.iter
          (fun f ->
            Manager.begin_session m;
            Manager.propose m (Delta.of_lists ~additions:[ f ] ~deletions:[]);
            match Manager.end_session m with
            | Manager.Consistent -> ()
            | Manager.Inconsistent _ -> failwith "unexpected")
          fs;
        List.iter
          (fun f ->
            Manager.begin_session m;
            Manager.propose m (Delta.of_lists ~additions:[] ~deletions:[ f ]);
            match Manager.end_session m with
            | Manager.Consistent -> ()
            | Manager.Inconsistent _ -> failwith "unexpected")
          fs
      in
      let lookup =
        run_group
          ~name:(Printf.sprintf "session-%d" k)
          [
            Test.make ~name:"deferred" (Staged.stage deferred);
            Test.make ~name:"eager" (Staged.stage eager);
          ]
      in
      let d = lookup "deferred" and e = lookup "eager" in
      rows :=
        [
          string_of_int k; pretty_ns d; pretty_ns e;
          Printf.sprintf "%.1fx" (e /. d);
        ]
        :: !rows)
    (sizes [ 2; 8; 32 ] [ 2 ]);
  table
    [
      "ops per batch"; "one session (2 checks)"; "eager (2k checks)";
      "eager/deferred";
    ]
    (List.rev !rows);
  print_endline
    "expected shape: deferred sessions amortize the consistency check over\n\
     the batch; eager per-operation checking pays it k times.  (And some\n\
     compositions — add-argument-to-used-operation — are ONLY expressible\n\
     with deferral, see the evolution test suite.)"

(* ------------------------------------------------------------------ *)
(* B5: analyzer throughput                                             *)
(* ------------------------------------------------------------------ *)

let bench_analyzer () =
  banner "B5" "Analyzer (front end) throughput";
  let rows = ref [] in
  List.iter
    (fun types ->
      let text = Workload.schema_text ~types in
      let theory = Workload.full_theory () in
      let db = Database.create () in
      List.iter
        (fun (d : Theory.pred_decl) ->
          Database.declare db ~name:d.Theory.name ~columns:d.Theory.columns)
        (Theory.predicates theory);
      Builtin.seed db;
      let lookup =
        run_group
          ~name:(Printf.sprintf "analyzer-%d" types)
          [
            Test.make ~name:"parse"
              (Staged.stage (fun () -> Analyzer.parse_unit text));
            Test.make ~name:"parse+translate"
              (Staged.stage (fun () ->
                   Analyzer.analyze_definitions db (Ids.create ()) text));
          ]
      in
      let p = lookup "parse" and t = lookup "parse+translate" in
      rows :=
        [
          string_of_int types;
          string_of_int (String.length text);
          pretty_ns p;
          pretty_ns t;
          Printf.sprintf "%.0f" (float_of_int types /. (t /. 1e9));
        ]
        :: !rows)
    (sizes [ 20; 80 ] [ 10 ]);
  table
    [ "types"; "bytes"; "parse"; "parse+translate"; "types/second" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* B6: schema-service throughput over a local socket                   *)
(* ------------------------------------------------------------------ *)

(* Requests/sec against an in-process gomsm daemon (no journal), measured
   by wall clock over concurrent client connections — the server-side
   counterpart of B5's front-end throughput. *)
let bench_server () =
  banner "B6"
    "Schema service (gomsm serve) throughput over a local socket: \
     requests/sec, 1 and 8 concurrent clients";
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "car schema inconsistent");
  let broker =
    Server.Broker.create ~metrics:(Server.Metrics.create ()) m
  in
  let port = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Server.Daemon.serve
           ~on_listen:(fun p ->
             Mutex.lock mu;
             port := p;
             Condition.signal cond;
             Mutex.unlock mu)
           ~broker
           { Server.Daemon.default_config with Server.Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !port = 0 do Condition.wait cond mu done;
  Mutex.unlock mu;
  let port = !port in
  let throughput ~clients ~request ~duration =
    let stop = Atomic.make false in
    let counts = Array.make clients 0 in
    let worker i () =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      while not (Atomic.get stop) do
        output_string oc request;
        output_char oc '\n';
        flush oc;
        ignore (Server.Protocol.read_response ic);
        counts.(i) <- counts.(i) + 1
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    Thread.delay duration;
    Atomic.set stop true;
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Array.fold_left ( + ) 0 counts) /. dt
  in
  let rows = ref [] in
  List.iter
    (fun (label, request) ->
      let cells =
        List.map
          (fun clients ->
            let rps = throughput ~clients ~request ~duration:(duration 0.4) in
            record
              (Printf.sprintf "server/%s-%dclients" label clients)
              (1e9 /. rps);
            Printf.sprintf "%.0f req/s" rps)
          [ 1; 8 ]
      in
      rows := (label :: cells) :: !rows)
    [
      ("stats", "stats");  (* protocol + dispatch floor *)
      ("check", "check");  (* full consistency check *)
    ];
  table [ "request"; "1 client"; "8 clients" ] (List.rev !rows);
  print_endline
    "expected shape: stats bounds the wire protocol overhead; check is\n\
     answered out of the per-version response cache under the shared\n\
     read lock, so it sits near that floor.  (Query scaling with client\n\
     count moved to B12, where the clients are real processes.)"

(* ------------------------------------------------------------------ *)
(* B7: read scaling with replicas                                      *)
(* ------------------------------------------------------------------ *)

let expect_ok what (resp : Server.Protocol.response) =
  match resp.Server.Protocol.status with
  | Server.Protocol.Ok -> ()
  | Server.Protocol.Err e -> failwith (what ^ ": " ^ e)

(* One evolve session on [b]: bes, one script line, ees. *)
let commit_on b line =
  expect_ok "bes" (Server.Broker.handle b ~client:1 Server.Protocol.Bes);
  expect_ok "script"
    (Server.Broker.handle b ~client:1 (Server.Protocol.Script_line line));
  expect_ok "ees" (Server.Broker.handle b ~client:1 Server.Protocol.Ees)

(* The [o]th evolve command on the [types]-type base: adds an attribute,
   and the next command deletes it again. *)
let evolve_line ~types o =
  let k = 4 + (o / 2 mod 4) and ty = o / 2 * 7 mod types in
  if o mod 2 = 0 then
    Printf.sprintf "add attribute f%d : int to T%d@Generated;" k ty
  else Printf.sprintf "delete attribute f%d from T%d@Generated;" k ty

(* A cache-miss query naming type [T<i>]. *)
let type_query ~types i =
  Server.Protocol.Query
    (Printf.sprintf "Attr_i(T1, A, D), Type(T1, \"T%d\", S)" (i mod types))

(* What one replica does per shipped record, on the 48-type base: the
   applier's BES..EES session alone, and the same followed by one
   cache-miss query (the apply moved the version, so the response cache
   cannot answer it).  The records are a primary's journal of evolve
   sessions, each adding or deleting one attribute; replaying them all is
   what recovery costs a node. *)
let bench_replica_traffic () =
  let types = 48 and records = sizes 800 8 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gomsm-bench-feed-%d" (Unix.getpid ()))
  in
  let r =
    Server.Journal.recover ~checkpoint_every:max_int ~checkpoint_bytes:max_int
      ~dir ()
  in
  let j = r.Server.Journal.journal in
  let primary =
    Server.Broker.create ~journal:j ~metrics:(Server.Metrics.create ())
      r.Server.Journal.manager
  in
  commit_on primary (Workload.schema_text ~types);
  for o = 0 to records - 1 do
    commit_on primary (evolve_line ~types o)
  done;
  let feed = Server.Journal.records_from j ~from:0 in
  Server.Journal.close j;
  (* a fresh read-only node fed the base record, then timed over the rest *)
  let per_record ~read =
    let replica =
      Server.Broker.create ~read_only:"primary:0"
        ~metrics:(Server.Metrics.create ()) (Manager.create ())
    in
    let applier = Replica.Applier.create replica in
    let apply (seq, text) =
      Replica.Applier.apply_record applier ~seq ~text;
      if read then
        expect_ok "query"
          (Server.Broker.handle replica ~client:2 (type_query ~types seq))
    in
    apply (List.hd feed);
    let t0 = Unix.gettimeofday () in
    List.iter apply (List.tl feed);
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int records
  in
  let apply_ns = per_record ~read:false in
  let read_ns = per_record ~read:true in
  let t0 = Unix.gettimeofday () in
  let recovered = Server.Journal.recover ~dir () in
  let replay_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  Server.Journal.close recovered.Server.Journal.journal;
  record "replica/apply-record" apply_ns;
  record "replica/apply-then-query" read_ns;
  record "replica/replay" replay_ns;
  table
    [ Printf.sprintf "replica, %d-type base, %d records" types records; "cost" ]
    [
      [ "apply one record"; Printf.sprintf "%.1f us/record" (apply_ns /. 1e3) ];
      [
        "apply one record, then one cache-miss query";
        Printf.sprintf "%.1f us/record" (read_ns /. 1e3);
      ];
      [
        Printf.sprintf "replay all %d records (recovery)" (records + 1);
        Printf.sprintf "%.1f ms" (replay_ns /. 1e6);
      ];
    ];
  print_endline
    "expected shape: an apply runs one session check over the affected\n\
     constraints; once the first query has built the whole maintained\n\
     program, each apply keeps it in step by DRed and the cache-miss query\n\
     reads it, so a read after every record costs a query plan, not a\n\
     re-derivation of the base."

(* What a primary pays per evolve commit on the 48-type base, journal-less
   so only the in-memory session counts: with nothing read, and with one
   cache-miss query after the base commit (a client reading at connect,
   then only evolving).  Also the words the node holds after the run. *)
let bench_primary_traffic () =
  let types = 48 and commits = sizes 800 8 in
  let per_commit ~read =
    let b =
      Server.Broker.create ~metrics:(Server.Metrics.create ())
        (Manager.create ())
    in
    commit_on b (Workload.schema_text ~types);
    if read then
      expect_ok "query" (Server.Broker.handle b ~client:2 (type_query ~types 0));
    let t0 = Unix.gettimeofday () in
    for o = 0 to commits - 1 do
      commit_on b (evolve_line ~types o)
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int commits in
    (ns, Obj.reachable_words (Obj.repr b))
  in
  let evolve_ns, evolve_words = per_commit ~read:false in
  let mixed_ns, mixed_words = per_commit ~read:true in
  record "primary/evolve" evolve_ns;
  record "primary/read-then-evolve" mixed_ns;
  table
    [
      Printf.sprintf "primary, %d-type base, %d commits" types commits;
      "cost";
      "words held after";
    ]
    [
      [
        "evolve, nothing read";
        Printf.sprintf "%.1f us/commit" (evolve_ns /. 1e3);
        string_of_int evolve_words;
      ];
      [
        "one cache-miss query, then evolve";
        Printf.sprintf "%.1f us/commit" (mixed_ns /. 1e3);
        string_of_int mixed_words;
      ];
    ];
  print_endline
    "expected shape: the setup query builds the whole maintained program;\n\
     the first commit checks off it and the second, finding it unread since,\n\
     drops it, so the rest run on the constraint cones and the two rows\n\
     match in cost and in the words held."

(* Queries/sec with every client aimed at the primary versus the same
   clients spread across the primary and two read replicas fed by its
   journal stream.  Reads on the primary contend with each other on the
   broker lock; replicas multiply the read capacity without touching the
   single-writer discipline. *)
let bench_replication () =
  banner "B7"
    "Read scaling (gomsm replica): queries/sec, 8 clients on 1 primary vs \
     spread over primary + 2 replicas";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gomsm-bench-repl-%d" (Unix.getpid ()))
  in
  let r = Server.Journal.recover ~dir () in
  let broker =
    Server.Broker.create ~journal:r.Server.Journal.journal
      ~metrics:(Server.Metrics.create ()) r.Server.Journal.manager
  in
  let started = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  let ports = Array.make 3 0 in
  let note i p =
    Mutex.lock mu;
    ports.(i) <- p;
    incr started;
    Condition.signal cond;
    Mutex.unlock mu
  in
  ignore
    (Thread.create
       (fun () ->
         Server.Daemon.serve ~on_listen:(note 0) ~broker
           { Server.Daemon.default_config with Server.Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !started < 1 do Condition.wait cond mu done;
  Mutex.unlock mu;
  (* one committed session so the replicas have something to replicate *)
  let ok what (resp : Server.Protocol.response) =
    match resp.Server.Protocol.status with
    | Server.Protocol.Ok -> ()
    | Server.Protocol.Err e -> failwith (what ^ ": " ^ e)
  in
  ok "bes" (Server.Broker.handle broker ~client:0 Server.Protocol.Bes);
  ok "script"
    (Server.Broker.handle broker ~client:0
       (Server.Protocol.Script_line Analyzer.Sources.car_schema));
  ok "ees" (Server.Broker.handle broker ~client:0 Server.Protocol.Ees);
  let primary_seq = Server.Journal.seq r.Server.Journal.journal in
  let replicas =
    List.map
      (fun i ->
        Replica.start ~on_listen:(note i)
          {
            Replica.default_config with
            Replica.primary_port = ports.(0);
            port = 0;
            data_dir = None;
          })
      [ 1; 2 ]
  in
  Mutex.lock mu;
  while !started < 3 do Condition.wait cond mu done;
  Mutex.unlock mu;
  let deadline = Unix.gettimeofday () +. 30.0 in
  List.iter
    (fun rep ->
      while
        Replica.Applier.position (Replica.applier rep) < primary_seq
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done)
    replicas;
  let throughput ~endpoints ~clients ~request ~duration =
    let stop = Atomic.make false in
    let counts = Array.make clients 0 in
    let worker i () =
      let port = endpoints.(i mod Array.length endpoints) in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      while not (Atomic.get stop) do
        output_string oc request;
        output_char oc '\n';
        flush oc;
        ignore (Server.Protocol.read_response ic);
        counts.(i) <- counts.(i) + 1
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    Thread.delay duration;
    Atomic.set stop true;
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Array.fold_left ( + ) 0 counts) /. dt
  in
  let request = "query Attr_i(T, A, D)" in
  let rows = ref [] in
  List.iter
    (fun (label, endpoints) ->
      let rps = throughput ~endpoints ~clients:8 ~request ~duration:(duration 0.4) in
      record (Printf.sprintf "server/read-scaling-%s" label) (1e9 /. rps);
      rows := [ label; Printf.sprintf "%.0f query/s" rps ] :: !rows)
    [
      ("1primary", [| ports.(0) |]);
      ("1primary-2replicas", [| ports.(0); ports.(1); ports.(2) |]);
    ];
  table [ "topology"; "8 clients" ] (List.rev !rows);
  print_endline
    "expected shape: three nodes answer from three independent brokers, so\n\
     the lock stops serializing every read; every node answers a cached\n\
     text without evaluating, so the gain tracks the topology.";
  bench_replica_traffic ();
  bench_primary_traffic ()

(* ------------------------------------------------------------------ *)
(* B9: hardening overhead on the commit path                           *)
(* ------------------------------------------------------------------ *)

(* The fault-injection work put two things on the hot write path: a CRC-32
   line in every journal record and a failpoint check at each I/O site.
   This series prices the checksummed fsync-per-commit append against the
   bare cost of consulting an inactive failpoint. *)
let bench_hardening () =
  banner "B9"
    "Hardening overhead: journal append (fsync per commit, with per-record \
     CRCs); inactive failpoint check";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gomsm-bench-crc-%d" (Unix.getpid ()))
  in
  let j = (Server.Journal.recover ~dir ()).Server.Journal.journal in
  let ids =
    {
      Gom.Ids.schemas = 1;
      types = 2;
      decls = 4;
      codes = 0;
      phreps = 0;
      objects = 0;
    }
  in
  (* a representative small-commit delta: one type, two attributes *)
  let delta =
    List.fold_left
      (fun d s -> Delta.add (Core.Persist.decode_fact s) d)
      Delta.empty
      [
        "Type(\"tid_9\", \"Bench\", \"sid_1\")";
        "SubTypRel(\"tid_9\", \"tid_ANY\")";
        "Attr(\"tid_9\", \"mileage\", \"tid_int\")";
        "Attr(\"tid_9\", \"plate\", \"tid_string\")";
      ]
  in
  let fp = Fault.Failpoint.define "bench.inactive" in
  let lookup =
    run_group ~name:"hardening"
      [
        Test.make ~name:"append-crc"
          (Staged.stage (fun () ->
               ignore (Server.Journal.append j ~ids ~code:[] delta)));
        Test.make ~name:"failpoint-inactive"
          (Staged.stage (fun () -> Fault.Failpoint.hit fp));
      ]
  in
  Server.Journal.close j;
  table
    [ "series"; "ns/run" ]
    [
      [ "append, crc"; pretty_ns (lookup "append-crc") ];
      [ "failpoint (inactive)"; pretty_ns (lookup "failpoint-inactive") ];
    ];
  print_endline
    "expected shape: the fsync dominates the commit, and an inactive\n\
     failpoint is a couple of nanoseconds — cheap enough to leave\n\
     compiled into production builds."

(* ------------------------------------------------------------------ *)
(* B10: multi-tenant writer throughput                                 *)
(* ------------------------------------------------------------------ *)

(* Commits/sec with T writer threads spread over T databases of one
   tenant registry, versus the same T writers all contending for the
   single writer slot of one shared database.  The single-writer BES/EES
   discipline is per database, so the multi-tenant side commits in
   parallel (independent broker locks, independent journal fsyncs) while
   the shared side serializes and pays the writer-slot acquisition wait
   on top. *)
let bench_tenants () =
  banner "B10"
    "Multi-tenant writer throughput (tenant registry): T writers on T \
     databases vs T writers contending for one";
  let per_writer = if !smoke then 2 else 24 in
  let run ~tenants ~shared =
    let root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gomsm-bench-tenant-%d-%b-%d" tenants shared
           (Unix.getpid ()))
    in
    let reg =
      Tenant.Registry.create
        {
          Tenant.Registry.data_dir = Some root;
          max_open = tenants + 1;
          checkpoint_every = 100000;
          checkpoint_bytes = max_int;
          acquire_timeout = 60.0;
          log = ignore;
        }
    in
    let db_of i = if shared then "shared" else Printf.sprintf "t%02d" i in
    List.iter
      (fun name ->
        match Tenant.Registry.create_db reg name with
        | Ok () -> ()
        | Error e -> failwith ("create_db " ^ name ^ ": " ^ e))
      (List.sort_uniq compare (List.init tenants db_of));
    (* open every database up front: the timed region measures commits,
       not journal recovery *)
    List.iter
      (fun name -> ignore (Tenant.Registry.use reg name))
      (List.sort_uniq compare (List.init tenants db_of));
    let commit name ~client frame =
      match
        Tenant.Registry.with_db reg name (fun b ->
            let ok what (r : Server.Protocol.response) =
              match r.Server.Protocol.status with
              | Server.Protocol.Ok -> ()
              | Server.Protocol.Err e -> failwith (what ^ ": " ^ e)
            in
            ok "bes" (Server.Broker.handle b ~client Server.Protocol.Bes);
            ok "script"
              (Server.Broker.handle b ~client
                 (Server.Protocol.Script_line frame));
            ok "ees" (Server.Broker.handle b ~client Server.Protocol.Ees))
      with
      | Ok () -> ()
      | Error e -> failwith ("with_db " ^ name ^ ": " ^ e)
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init tenants (fun i ->
          Thread.create
            (fun () ->
              for k = 1 to per_writer do
                commit (db_of i) ~client:(i + 1)
                  (Printf.sprintf
                     "schema W%02dK%02d is type T%02dK%02d is [ x : int; ] \
                      end type T%02dK%02d; end schema W%02dK%02d;"
                     i k i k i k i k)
              done)
            ())
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Tenant.Registry.shutdown reg;
    float_of_int (tenants * per_writer) /. dt
  in
  let rows = ref [] in
  List.iter
    (fun tenants ->
      let conc = run ~tenants ~shared:false in
      let shared = run ~tenants ~shared:true in
      record
        (Printf.sprintf "tenant/B10-%dtenants-concurrent" tenants)
        (1e9 /. conc);
      record
        (Printf.sprintf "tenant/B10-%dtenants-shared" tenants)
        (1e9 /. shared);
      rows :=
        [
          string_of_int tenants;
          Printf.sprintf "%.0f commits/s" conc;
          Printf.sprintf "%.0f commits/s" shared;
          Printf.sprintf "%.1fx" (conc /. shared);
        ]
        :: !rows)
    (sizes [ 1; 4; 16 ] [ 2 ]);
  table
    [ "writers"; "T databases"; "1 shared database"; "speedup" ]
    (List.rev !rows);
  print_endline
    "expected shape: at T=1 the two sides are the same code path; beyond\n\
     that the shared database serializes every commit behind one writer\n\
     slot (polled at 20ms granularity) while per-tenant writers overlap\n\
     their checks and fsyncs — the gap widens with T."

(* ------------------------------------------------------------------ *)
(* B11: observability overhead                                         *)
(* ------------------------------------------------------------------ *)

(* The tracing instrumentation is compiled into every hot path (verb
   dispatch, broker acquire, session check, journal fsync), so its
   disabled cost must be negligible: (a) the inactive [with_span] wrapper
   in ns/op, and (b) B6-style server throughput with tracing off versus
   every request carrying a [trace <id>] prefix — the budget for (b) is
   2%. *)
let bench_obs () =
  banner "B11"
    "Observability overhead: inactive span wrapper (ns/op) and traced vs \
     untraced server throughput (2% budget)";
  (* (a) the disabled fast path: two atomic loads *)
  let n = if !smoke then 100_000 else 5_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    Obs.Trace.with_span "bench.noop" (fun () -> sink := !sink + i)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if !sink = 0 then print_string "";
  let ns = dt *. 1e9 /. float_of_int n in
  record "obs/B11-span-disabled" ns;
  Printf.printf "inactive with_span wrapper: %.1f ns/op\n\n" ns;
  (* (b) end-to-end: the same daemon and workload as B6, with and without
     a tracing prefix on every request line *)
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "car schema inconsistent");
  let broker = Server.Broker.create ~metrics:(Server.Metrics.create ()) m in
  let port = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Server.Daemon.serve
           ~on_listen:(fun p ->
             Mutex.lock mu;
             port := p;
             Condition.signal cond;
             Mutex.unlock mu)
           ~broker
           { Server.Daemon.default_config with Server.Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !port = 0 do Condition.wait cond mu done;
  Mutex.unlock mu;
  let port = !port in
  let throughput ~clients ~request ~duration =
    let stop = Atomic.make false in
    let counts = Array.make clients 0 in
    let worker i () =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      while not (Atomic.get stop) do
        output_string oc request;
        output_char oc '\n';
        flush oc;
        ignore (Server.Protocol.read_response ic);
        counts.(i) <- counts.(i) + 1
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    Thread.delay duration;
    Atomic.set stop true;
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Array.fold_left ( + ) 0 counts) /. dt
  in
  (* interleave off/on pairs so machine drift hits both sides equally *)
  let d = duration 0.4 in
  let rounds = if !smoke then 1 else 3 in
  let off_total = ref 0. and on_total = ref 0. in
  let traced = Server.Protocol.add_trace "b11deadbeef0cafe" "stats" in
  for _ = 1 to rounds do
    off_total := !off_total +. throughput ~clients:4 ~request:"stats" ~duration:d;
    on_total := !on_total +. throughput ~clients:4 ~request:traced ~duration:d
  done;
  let off = !off_total /. float_of_int rounds
  and on_ = !on_total /. float_of_int rounds in
  record "obs/B11-untraced" (1e9 /. off);
  record "obs/B11-traced" (1e9 /. on_);
  let traced_overhead = (off -. on_) /. off *. 100. in
  (* the 2% budget is on the *disabled* instrumentation: even if every one
     of the ~8 span sites on the deepest path (verb > acquire > check >
     strata > append > fsync) fired its inactive wrapper on every request,
     what fraction of an untraced request would that be? *)
  let request_ns = 1e9 /. off in
  let disabled_pct = 8. *. ns /. request_ns *. 100. in
  record "obs/B11-disabled-overhead-pct" disabled_pct;
  table
    [ "workload"; "untraced"; "traced"; "traced overhead" ]
    [
      [
        "stats x4 clients";
        Printf.sprintf "%.0f req/s" off;
        Printf.sprintf "%.0f req/s" on_;
        Printf.sprintf "%.1f%%" traced_overhead;
      ];
    ];
  Printf.printf
    "disabled instrumentation: 8 sites x %.1f ns = %.3f%% of a request vs \
     2%% budget: %s\n"
    ns disabled_pct
    (if disabled_pct <= 2.0 then "within budget" else "OVER BUDGET");
  print_endline
    "expected shape: the disabled wrapper is a handful of ns, far below\n\
     the 2% budget against a ~13us request; actively tracing every\n\
     request pays span bookkeeping (ids under a mutex) but no log I/O\n\
     while debug is filtered, a single-digit percentage at worst."

(* ------------------------------------------------------------------ *)
(* B13: query profiler overhead                                        *)
(* ------------------------------------------------------------------ *)

(* The profiler rides in every build, so it is priced like the span
   wrapper (B11): (a) [observe_rule] on a thread with no context, in
   ns/op — one atomic load on top of the thunk when no thread has a
   context, plus a lock-free table lookup while another thread does (the
   B7 replicas' feed threads keep theirs for the life of this process);
   (b)
   end-to-end query throughput with profiling off versus [profile on]
   (scope install, fingerprint and table update per request) — the
   budget for (b) is 5%. *)
let bench_profile () =
  banner "B13"
    "Query profiler overhead: observe_rule without a context (ns/op) and \
     profiled vs unprofiled query throughput (5% budget)";
  (* (a) the disabled path: no context on this thread *)
  let n = if !smoke then 100_000 else 5_000_000 in
  let sink = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to n do
    ignore
      (Obs.Profile.observe_rule ~stratum:0 ~label:"bench" ~plan:"-"
         ~cache:Obs.Profile.Unplanned (fun () ->
           sink := !sink + i;
           0))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if !sink = 0 then print_string "";
  let ns = dt *. 1e9 /. float_of_int n in
  record "obs/B13-observe-disabled" ns;
  Printf.printf "observe_rule, no context on this thread: %.1f ns/op\n\n" ns;
  (* (b) end-to-end: the B11 daemon and closed-loop clients, driving the
     query verb with profiling off and on *)
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "car schema inconsistent");
  let broker = Server.Broker.create ~metrics:(Server.Metrics.create ()) m in
  let port = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Server.Daemon.serve
           ~on_listen:(fun p ->
             Mutex.lock mu;
             port := p;
             Condition.signal cond;
             Mutex.unlock mu)
           ~broker
           { Server.Daemon.default_config with Server.Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !port = 0 do Condition.wait cond mu done;
  Mutex.unlock mu;
  let port = !port in
  let throughput ~clients ~request ~duration =
    let stop = Atomic.make false in
    let counts = Array.make clients 0 in
    let worker i () =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      while not (Atomic.get stop) do
        output_string oc request;
        output_char oc '\n';
        flush oc;
        ignore (Server.Protocol.read_response ic);
        counts.(i) <- counts.(i) + 1
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (worker i) ()) in
    Thread.delay duration;
    Atomic.set stop true;
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Array.fold_left ( + ) 0 counts) /. dt
  in
  (* interleave off/on pairs so machine drift hits both sides equally *)
  let d = duration 0.4 in
  let rounds = if !smoke then 1 else 3 in
  let off_total = ref 0. and on_total = ref 0. in
  let request = "query Attr_i(T, A, D)" in
  for _ = 1 to rounds do
    Server.Broker.set_profiling false;
    off_total :=
      !off_total +. throughput ~clients:4 ~request ~duration:d;
    Server.Broker.set_profiling true;
    on_total := !on_total +. throughput ~clients:4 ~request ~duration:d
  done;
  Server.Broker.set_profiling false;
  let off = !off_total /. float_of_int rounds
  and on_ = !on_total /. float_of_int rounds in
  record "obs/B13-query-unprofiled" (1e9 /. off);
  record "obs/B13-query-profiled" (1e9 /. on_);
  let enabled_pct = (off -. on_) /. off *. 100. in
  record "obs/B13-enabled-overhead-pct" enabled_pct;
  table
    [ "workload"; "profiling off"; "profiling on"; "enabled overhead" ]
    [
      [
        "query x4 clients";
        Printf.sprintf "%.0f req/s" off;
        Printf.sprintf "%.0f req/s" on_;
        Printf.sprintf "%.1f%%" enabled_pct;
      ];
    ];
  Printf.printf "enabled profiling vs 5%% budget: %s\n"
    (if enabled_pct <= 5.0 then "within budget" else "OVER BUDGET");
  print_endline
    "expected shape: the hook without a context is tens of ns at most\n\
     (a lock-free lookup on top of the thunk); profiling a cached read\n\
     pays two clock reads, a memoized fingerprint lookup and one table\n\
     update — low single digits — while the scope install is deferred\n\
     to queries that actually evaluate, where the work amortizes it."

(* ------------------------------------------------------------------ *)
(* B12: scaling with client count                                      *)
(* ------------------------------------------------------------------ *)

(* The two halves of the concurrency PR, each measured end to end.

   Reads: a closed-loop client model — every client sends a query, reads
   the response, then spends a fixed think time (200 us) off the server
   before the next request, the classic TPC-style closed loop.  One such
   client leaves the daemon idle most of its cycle, so its throughput is
   think-time-bound; N clients multiply offered load until the server's
   per-read service time saturates it.  The scaling ceiling is therefore
   (think + service) / service — direct leverage on the read path's
   service time, which this PR cut from a per-read serialized evaluation
   to a shared-lock probe of the per-version response cache.  (An open
   loop — clients hammering back-to-back — measures nothing here: on
   this container's single core, client and server work always add up to
   one saturated CPU and every client count yields the same number.)

   Commits: W writer threads commit small attribute-add sessions through
   one journaled broker.  A commit releases the writer slot before its
   fsync wait, so the next session overlaps it, and the journal's batch
   writer puts every commit that arrives during an fsync into the next
   one. *)
let bench_scaling () =
  banner "B12"
    "Scaling with client count: queries/sec for N closed-loop clients \
     (200 us think time), repeated and distinct texts; commits/sec for N \
     writers sharing the journal's fsyncs";
  (* --- reads: an in-process daemon, closed-loop socket clients --- *)
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m Analyzer.Sources.car_schema;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "car schema inconsistent");
  let broker = Server.Broker.create ~metrics:(Server.Metrics.create ()) m in
  let port = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Server.Daemon.serve
           ~on_listen:(fun p ->
             Mutex.lock mu;
             port := p;
             Condition.signal cond;
             Mutex.unlock mu)
           ~broker
           { Server.Daemon.default_config with Server.Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !port = 0 do Condition.wait cond mu done;
  Mutex.unlock mu;
  let port = !port in
  let think = 2e-4 in
  let run_clients ~text n =
    let stop = Atomic.make false in
    let counts = Array.make n 0 in
    let worker i () =
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr sock in
      let oc = Unix.out_channel_of_descr sock in
      while not (Atomic.get stop) do
        output_string oc ("query " ^ text () ^ "\n");
        flush oc;
        ignore (Server.Protocol.read_response ic);
        counts.(i) <- counts.(i) + 1;
        Thread.delay think
      done;
      (try Unix.close sock with Unix.Unix_error _ -> ())
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init n (fun i -> Thread.create (worker i) ()) in
    Thread.delay (duration 0.4);
    Atomic.set stop true;
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Array.fold_left ( + ) 0 counts) /. dt
  in
  let read_rows =
    List.map
      (fun n ->
        let rps = run_clients ~text:(fun () -> "Attr_i(T, A, D)") n in
        record (Printf.sprintf "server/query-%dclients" n) (1e9 /. rps);
        [ Printf.sprintf "%d" n; Printf.sprintf "%.0f query/s" rps ])
      [ 1; 2; 4; 8; 16 ]
  in
  table [ "closed-loop clients"; "throughput" ] read_rows;
  (* cache misses: every text is new, so none is answered from the
     response cache; all of them read the manager's one maintained
     derived state, built by the first *)
  let next_tid = Atomic.make 0 in
  let distinct () =
    Printf.sprintf "Attr_i(T, A, tid_%d)" (Atomic.fetch_and_add next_tid 1)
  in
  let miss_rows =
    List.map
      (fun n ->
        let rps = run_clients ~text:distinct n in
        record (Printf.sprintf "server/query-miss-%dclients" n) (1e9 /. rps);
        [ Printf.sprintf "%d" n; Printf.sprintf "%.0f query/s" rps ])
      [ 1; 2; 4 ]
  in
  table [ "closed-loop clients, distinct texts"; "throughput" ] miss_rows;
  (* --- commits: N writers on one journaled broker --- *)
  let ok what (resp : Server.Protocol.response) =
    match resp.Server.Protocol.status with
    | Server.Protocol.Ok -> ()
    | Server.Protocol.Err e -> failwith (what ^ ": " ^ e)
  in
  let per_writer = sizes 40 2 in
  let leg = ref 0 in
  let commits_per_sec writers =
    incr leg;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gomsm-bench-b12-%d-%d" (Unix.getpid ()) !leg)
    in
    let r =
      Server.Journal.recover ~checkpoint_every:max_int
        ~checkpoint_bytes:max_int ~dir ()
    in
    let b =
      Server.Broker.create ~journal:r.Server.Journal.journal
        ~acquire_timeout:60.0 ~metrics:(Server.Metrics.create ())
        r.Server.Journal.manager
    in
    (* per-writer base schema, committed before the clock starts: the
       timed sessions are then one attribute-add each, small enough that
       the fsync discipline — not the session work — dominates *)
    for w = 1 to writers do
      ok "bes" (Server.Broker.handle b ~client:w Server.Protocol.Bes);
      ok "script"
        (Server.Broker.handle b ~client:w
           (Server.Protocol.Script_line
              (Printf.sprintf
                 "schema W%d is type T%d is [ x : int; ] end type T%d; end \
                  schema W%d;"
                 w w w w)));
      ok "ees" (Server.Broker.handle b ~client:w Server.Protocol.Ees)
    done;
    let worker w () =
      for k = 1 to per_writer do
        let client = w in
        ok "bes" (Server.Broker.handle b ~client Server.Protocol.Bes);
        ok "script"
          (Server.Broker.handle b ~client
             (Server.Protocol.Script_line
                (Printf.sprintf "add attribute f%d : int to T%d@W%d;" k w w)));
        ok "ees" (Server.Broker.handle b ~client Server.Protocol.Ees)
      done
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init writers (fun w -> Thread.create (worker (w + 1)) ())
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Server.Broker.close b;
    float_of_int (writers * per_writer) /. dt
  in
  let commit_rows =
    List.map
      (fun writers ->
        let cps = commits_per_sec writers in
        record
          (Printf.sprintf "server/commit-%dwriters/percommit" writers)
          (1e9 /. cps);
        [ Printf.sprintf "%d" writers; Printf.sprintf "%.0f commit/s" cps ])
      [ 1; 4; 16 ]
  in
  table [ "writers"; "throughput" ] commit_rows;
  print_endline
    "expected shape: one closed-loop client is think-time-bound, so read\n\
     throughput climbs nearly linearly with client count and flattens\n\
     when the cached-read service time saturates the daemon — the\n\
     pre-PR serialized read path saturated an order of magnitude\n\
     earlier; distinct texts miss the response cache but read the\n\
     manager's one maintained derived state, so they track the cached rows\n\
     where re-deriving the base for every miss flattened them by 4\n\
     clients; commits that arrive during an fsync share the next one,\n\
     so commit throughput holds up as writers are added instead of\n\
     dividing one fsync rate among them."

(* ------------------------------------------------------------------ *)
(* B14: checkpoint cost follows the base                               *)
(* ------------------------------------------------------------------ *)

(* A manager holding the [types]-type Generated base, committed. *)
let generated_base ~types =
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.run_commands m (Workload.schema_text ~types);
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "generated base inconsistent");
  m

(* Snapshot serialization and load at 48 and 480 types; a render through
   a journal's cache after one relation changed, through the render the
   journal's checkpoint calls; and the time a due [maybe_checkpoint]
   holds its caller (the broker's exclusive section), whole: render,
   head write, switch. *)
let bench_checkpoint () =
  banner "B14"
    "Checkpoint cost vs base size: snapshot save and load, a render that \
     re-renders only the changed chunks, and a whole checkpoint";
  let small = generated_base ~types:48 in
  let large = generated_base ~types:(sizes 480 48) in
  let large_text = Core.Persist.(contents (render large)) in
  let save m () = ignore (Core.Persist.render m) in
  let save48 =
    run_group ~name:"persist-48"
      [ Test.make ~name:"save" (Staged.stage (save small)) ]
  in
  let l480 =
    run_group ~name:"persist-480"
      [
        Test.make ~name:"save" (Staged.stage (save large));
        Test.make ~name:"load"
          (Staged.stage (fun () ->
               ignore (Core.Persist.load_from_string large_text)));
      ]
  in
  (* one relation changes between renders: an attribute fact comes and
     goes, as the evolve sessions' do.  [toggle] returns the change it
     made, as the delta a commit journals. *)
  let toggled = Gom.Preds.attr_fact ~tid:"tid_bench" ~name:"toggle" ~domain:"tid_int" in
  let toggle m =
    let db = Manager.database m in
    if Datalog.Database.remove db toggled then
      Datalog.Delta.of_lists ~additions:[] ~deletions:[ toggled ]
    else begin
      ignore (Datalog.Database.add db toggled);
      Datalog.Delta.of_lists ~additions:[ toggled ] ~deletions:[]
    end
  in
  let rounds = sizes 200 2 in
  (* the mean over [rounds], leaving the base as it was found *)
  let mean_ns m f =
    let total = ref 0 in
    for _ = 1 to rounds do
      total := !total + f ()
    done;
    if rounds mod 2 = 1 then ignore (toggle m);
    float_of_int !total /. float_of_int rounds
  in
  let timed f =
    let t0 = Obs.Mtime.now_ns () in
    f ();
    Obs.Mtime.elapsed_ns t0
  in
  let render_one_changed m =
    let cache = Core.Persist.render_cache () in
    ignore (Core.Persist.render ~cache m);
    mean_ns m (fun () ->
        ignore (toggle m);
        timed (fun () -> ignore (Core.Persist.render ~cache m)))
  in
  let r48 = render_one_changed small in
  let r480 = render_one_changed large in
  record "render-48/one-changed" r48;
  record "render-480/one-changed" r480;
  (* a zero record cap: every call is due.  Each round first commits the
     toggle's record (untimed), whose flush makes the previous head
     durable, as the commit that triggers a checkpoint does.  One untimed
     checkpoint first fills the journal's render cache. *)
  let locked ~types m =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "gomsm-bench-ckpt-%d-%d" (Unix.getpid ()) types)
    in
    let j =
      (Server.Journal.recover ~checkpoint_every:0 ~dir ()).Server.Journal.journal
    in
    Server.Journal.checkpoint j m;
    let ns =
      mean_ns m (fun () ->
          ignore
            (Server.Journal.append j ~ids:(Manager.ids m) ~code:[] (toggle m));
          timed (fun () -> ignore (Server.Journal.maybe_checkpoint j m)))
    in
    Server.Journal.close j;
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ Server.Journal.journal_path ~dir; Server.Journal.alt_path ~dir ];
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    ns
  in
  let locked48 = locked ~types:48 small in
  let locked480 = locked ~types:480 large in
  record "checkpoint-48/locked" locked48;
  record "checkpoint-480/locked" locked480;
  table
    [ "series"; "48 types"; "480 types" ]
    [
      [ "snapshot save"; pretty_ns (save48 "save"); pretty_ns (l480 "save") ];
      [ "snapshot load"; "-"; pretty_ns (l480 "load") ];
      [ "render, one relation changed"; pretty_ns r48; pretty_ns r480 ];
      [ "checkpoint, caller held"; pretty_ns locked48; pretty_ns locked480 ];
    ];
  print_endline
    "expected shape: save and load grow linearly with the base; a render\n\
     through a journal's cache re-renders only the chunks of rows the\n\
     change touched and folds the head's CRC from the cached ones, so it\n\
     grows far slower; a whole checkpoint is that render plus one head\n\
     write into the page cache, with no fsync, rename or unlink."

(* ------------------------------------------------------------------ *)
(* B15: the CPU of one cache-miss read and of one command's analysis    *)
(* ------------------------------------------------------------------ *)

(* Minor and promoted words per call of [f], over [n] calls that start
   from an empty minor heap and end with one collection: what the calls
   allocate, and what of it outlives them.  Allocation is deterministic,
   so the minor count repeats exactly from run to run, and the promoted
   count to within a fraction of a word. *)
let words_per ~n f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  ( (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int n,
    (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int n )

(* [Broker.handle] on a query the response cache cannot answer, at 48
   types: texts of two shapes whose constants cycle through far more keys
   than the response cache's doorkeeper remembers, so each run tokenizes,
   evaluates its prepared shape over the maintained state, renders the
   answers, and stores nothing.  [new-shape] is the prepared-shape table's worst case:
   every text has a variable named afresh, so each is parsed, normalized
   and planned.  And [Analyzer.analyze_parsed] on one [add attribute] at
   48 and 480 types: the schema-base lookups a command's translation
   makes; and [script-line]s through the broker, in an open session. *)
let bench_request_cpu () =
  banner "B15"
    "Per-request CPU: a cache-miss query through the broker, and one \
     command's analysis vs base size";
  let types = 48 in
  let m = generated_base ~types in
  let broker = Server.Broker.create ~metrics:(Server.Metrics.create ()) m in
  (* 4 * types^2 distinct texts, far beyond the doorkeeper's 1024 *)
  let keys = 4 * types * types and k = ref 0 in
  let miss_query () =
    incr k;
    let i = !k mod keys in
    Server.Protocol.Query
      (Printf.sprintf "%s, Type(T1, \"T%d\", S), Type(T2, \"T%d\", S2)"
         (if i mod 2 = 0 then "Attr_i(T1, A, D)" else "Decl_i(X, T1, O, R)")
         (i / 2 mod types)
         (i / 2 / types))
  in
  let shapes = ref 0 in
  let new_shape_query () =
    incr shapes;
    Server.Protocol.Query
      (Printf.sprintf "Attr_i(T1, A, D), Type(T1, \"T%d\", S%d)"
         (!shapes mod types) !shapes)
  in
  let handle q () = ignore (Server.Broker.handle broker ~client:1 (q ())) in
  expect_ok "query" (Server.Broker.handle broker ~client:1 (miss_query ()));
  expect_ok "new shape"
    (Server.Broker.handle broker ~client:1 (new_shape_query ()));
  let n = sizes 2000 50 in
  let miss_minor, miss_promoted = words_per ~n (handle miss_query) in
  let shape_minor, shape_promoted = words_per ~n (handle new_shape_query) in
  let miss =
    run_group ~name:"query-miss"
      [
        Test.make ~name:"handle" (Staged.stage (handle miss_query));
        Test.make ~name:"new-shape" (Staged.stage (handle new_shape_query));
      ]
  in
  Server.Broker.close broker;
  let command =
    Analyzer.parse_commands "add attribute f9 : int to T7@Generated;"
  in
  let analyze m () =
    let r =
      Analyzer.analyze_parsed (Manager.database m) (Manager.ids m) command
    in
    if r.Analyzer.diagnostics <> [] then failwith "add attribute diagnosed"
  in
  let large = generated_base ~types:(sizes 480 48) in
  let a48 =
    run_group ~name:"analyze-48"
      [ Test.make ~name:"add-attribute" (Staged.stage (analyze m)) ]
  in
  let a480 =
    run_group ~name:"analyze-480"
      [ Test.make ~name:"add-attribute" (Staged.stage (analyze large)) ]
  in
  (* [script-line] through [Broker.handle] with a session open: one run
     adds an attribute and deletes it again, two lines analyzed over the
     session's overlay.  Every 256 runs the session is rolled back and
     reopened, so it stays small; that costs each run a 256th of a
     rollback and a bes. *)
  let script_lines m =
    let b = Server.Broker.create ~metrics:(Server.Metrics.create ()) m in
    let ask req = expect_ok "script-line" (Server.Broker.handle b ~client:1 req) in
    ask Server.Protocol.Bes;
    let runs = ref 0 in
    let run () =
      ask (Server.Protocol.Script_line "add attribute f9 : int to T7@Generated;");
      ask (Server.Protocol.Script_line "delete attribute f9 from T7@Generated;");
      incr runs;
      if !runs mod 256 = 0 then begin
        ask Server.Protocol.Rollback;
        ask Server.Protocol.Bes
      end
    in
    (b, run)
  in
  let b48, lines48 = script_lines m and b480, lines480 = script_lines large in
  let s48 =
    run_group ~name:"script-line-48"
      [ Test.make ~name:"add-delete" (Staged.stage lines48) ]
  in
  let s480 =
    run_group ~name:"script-line-480"
      [ Test.make ~name:"add-delete" (Staged.stage lines480) ]
  in
  Server.Broker.close b48;
  Server.Broker.close b480;
  table
    [ "query miss, Broker.handle"; "48 types"; "minor words"; "promoted words" ]
    [
      [
        "two shapes";
        pretty_ns (miss "handle");
        Printf.sprintf "%.0f" miss_minor;
        Printf.sprintf "%.1f" miss_promoted;
      ];
      [
        "a new shape each";
        pretty_ns (miss "new-shape");
        Printf.sprintf "%.0f" shape_minor;
        Printf.sprintf "%.1f" shape_promoted;
      ];
    ];
  table
    [ "series"; "48 types"; "480 types" ]
    [
      [
        "add attribute, analyze_parsed";
        pretty_ns (a48 "add-attribute");
        pretty_ns (a480 "add-attribute");
      ];
      [
        "script-line in a session, per line";
        pretty_ns (s48 "add-delete" /. 2.0);
        pretty_ns (s480 "add-delete" /. 2.0);
      ];
    ];
  print_endline
    "expected shape: a miss of a known shape costs its tokens, evaluation\n\
     and answer rendering, and promotes next to nothing (no response is\n\
     stored for a key seen once); a new shape adds its parse, normalize\n\
     and plan, and a table entry.  Analysis runs over an overlay of the\n\
     base and its lookups probe column indexes, so a command's analysis,\n\
     and a script-line with it, costs about the same at 480 types as at 48."

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let skip_benches = List.mem "--artifacts-only" args in
  smoke := List.mem "--smoke" args;
  print_endline
    "Reproduction harness for \"Towards More Flexible Schema Management in\n\
     Object Bases\" (Moerkotte/Zachmann, ICDE 1993).";
  Artifacts.run_all ();
  if not skip_benches then begin
    bench_incremental ();
    bench_seminaive ();
    bench_planner ();
    bench_cures ();
    bench_repairs ();
    bench_sessions ();
    bench_analyzer ();
    bench_server ();
    bench_replication ();
    bench_hardening ();
    bench_tenants ();
    bench_obs ();
    bench_profile ();
    bench_scaling ();
    bench_checkpoint ();
    bench_request_cpu ();
    if not !smoke then emit_json "BENCH_results.json"
  end;
  Printf.printf "\n%s\nAll artifacts regenerated.\n" (String.make 72 '=')
