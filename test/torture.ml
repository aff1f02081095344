(* The crash/corruption torture suite.

   Runs a write workload against the schema service while failpoints
   inject storage failures, connection drops and replica faults, then
   crash-recovers and checks the recovery and isolation invariants:

     1. no acknowledged commit is ever lost,
     2. no unacknowledged commit becomes visible after recovery
        (oracle: a commit must be visible iff the journal sequence number
        advanced while it ran — an [err] reply with an advanced sequence
        number is the unavoidable "outcome unknown, but durable" case),
     3. a replica converges to the primary's state digest,
     4. no reader sees a session that never committed, nor a session
        before its EES began (scenario I).

   Deterministic by construction: probabilistic failpoints derive from
   [--seed], everything else is hit-count triggered.  Exits non-zero on
   the first violated invariant. *)

module Manager = Core.Manager
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Daemon = Server.Daemon
module Client = Server.Client
module Registry = Tenant.Registry
module Failpoint = Fault.Failpoint

let fail fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "torture: FAIL: %s\n%!" s;
      exit 1)
    fmt

let check cond fmt =
  Printf.ksprintf (fun s -> if not cond then fail "%s" s) fmt

let note fmt = Printf.ksprintf (fun s -> Printf.printf "torture: %s\n%!" s) fmt

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

(* Each scenario's directories are removed when it ends: the scenario loop
   at the bottom runs each under [Tmp_dirs.cleaning]. *)
let fresh_dir = Tmp_dirs.fresh ~prefix:"gomsm-torture"

let dump_of m =
  Analyzer.Unparse.unparse_script
    (Analyzer.Unparse.make ~db:(Manager.database m)
       ~lookup_code:(Manager.lookup_code m))

let wait_until ?(timeout = 20.0) what f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      fail "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let zoo_frame =
  "schema Zoo is type Animal is [ legs : int; ] end type Animal; end schema \
   Zoo;"

(* One full BES/script/EES exchange against a broker. *)
let commit b ~client lines =
  match (Broker.handle b ~client Protocol.Bes).Protocol.status with
  | Protocol.Err reason -> `Refused reason
  | Protocol.Ok -> (
      List.iter
        (fun l ->
          match
            (Broker.handle b ~client (Protocol.Script_line l)).Protocol.status
          with
          | Protocol.Ok -> ()
          | Protocol.Err reason -> fail "script-line refused: %s" reason)
        lines;
      match (Broker.handle b ~client Protocol.Ees).Protocol.status with
      | Protocol.Ok -> `Acked
      | Protocol.Err reason -> `Failed reason)

let fired_of site = Failpoint.fired (Failpoint.define site)

(* The head write fails after the checkpoint drained the triggering
   commit's record: that commit is durable and must be acked; the
   poisoned journal refuses the next one. *)
let started_failing_checkpoint ~site ~metrics checkpoints_before =
  site = "journal.checkpoint.snapshot"
  && Metrics.counter metrics "checkpoints" > checkpoints_before

(* An in-process crash: the abandoned journal is left as it stands, its
   files as a killed process leaves them (a checkpoint runs whole inside
   the commit, so nothing of it outlives the call). *)
let crash (_ : Journal.t) = ()

(* ------------------------------------------------------------------ *)
(* Scenario A: storage failpoints x workload x crash-and-recover       *)
(* ------------------------------------------------------------------ *)

(* Each spec is armed, the workload runs until it either completes or the
   broker goes degraded, and then the data directory is recovered from
   scratch.  The durability oracle is the journal sequence number. *)
let scenario_a () =
  let specs =
    [
      "journal.append.write=eio@nth:2";
      "journal.append.write=partial:5@nth:3";
      "journal.append.fsync=eio@nth:4";
      "journal.append.fsync=enospc@nth:2";
      "broker.commit=eio@nth:3";
      "journal.checkpoint.snapshot=eio@nth:1";
    ]
  in
  List.iter
    (fun spec ->
      Failpoint.clear ();
      Failpoint.configure spec;
      let site = match Failpoint.parse_config spec with
        | [ (s, _, _) ] -> s
        | _ -> fail "spec %S is not a single item" spec
      in
      let dir = fresh_dir () in
      let r = Journal.recover ~checkpoint_every:3 ~dir () in
      let j = r.Journal.journal in
      let metrics = Metrics.create () in
      let b =
        Broker.create ~journal:j ~acquire_timeout:0.1 ~metrics
          r.Journal.manager
      in
      let expected = ref [] in
      for i = 0 to 7 do
        let line, needle =
          if i = 0 then (zoo_frame, "type Animal")
          else
            ( Printf.sprintf "add attribute fld%d : int to Animal@Zoo;" i,
              Printf.sprintf "fld%d" i )
        in
        let before = Journal.seq j in
        let checkpoints = Metrics.counter metrics "checkpoints" in
        let outcome = commit b ~client:(i + 1) [ line ] in
        let durable = Journal.seq j > before in
        (match outcome with
        | `Acked ->
            check durable "[%s] commit %d acked without a journal record" spec
              i
        | `Failed _ | `Refused _ -> ());
        check
          (not
             (started_failing_checkpoint ~site ~metrics checkpoints
             && outcome <> `Acked))
          "[%s] commit %d started the checkpoint with its record durable, \
           but was not acked"
          spec i;
        expected := (i, needle, durable, outcome) :: !expected
      done;
      check (fired_of site > 0) "[%s] the failpoint never fired" spec;
      (* the injected storage failure must have tripped degraded mode *)
      (match Broker.degraded b with
      | None -> fail "[%s] broker not degraded after a storage failure" spec
      | Some _ ->
          let h = Broker.handle b ~client:99 Protocol.Health in
          check
            (h.Protocol.status = Protocol.Ok
            && List.mem "status degraded" h.Protocol.body)
            "[%s] health does not report degraded" spec;
          let s = Broker.handle b ~client:99 Protocol.Stats in
          check
            (List.mem "gauge degraded 1" s.Protocol.body)
            "[%s] stats missing the degraded gauge" spec;
          (match Broker.handle b ~client:99 Protocol.Bes with
          | { Protocol.status = Protocol.Err reason; _ } ->
              check
                (contains reason "degraded")
                "[%s] bes refusal does not mention degraded mode" spec
          | _ -> fail "[%s] bes accepted while degraded" spec);
          (match
             (Broker.handle b ~client:99 Protocol.Check).Protocol.status
           with
          | Protocol.Ok -> ()
          | Protocol.Err reason ->
              fail "[%s] reads refused while degraded: %s" spec reason));
      Failpoint.clear ();
      (* crash: recover the directory into a fresh manager *)
      crash j;
      let r2 = Journal.recover ~dir () in
      let d = dump_of r2.Journal.manager in
      List.iter
        (fun (i, needle, durable, outcome) ->
          let visible = contains d needle in
          let describe = function
            | `Acked -> "acked"
            | `Failed reason -> "failed: " ^ reason
            | `Refused reason -> "refused: " ^ reason
          in
          if durable && not visible then
            fail "[%s] commit %d (%s) lost after recovery" spec i
              (describe outcome)
          else if (not durable) && visible then
            fail "[%s] commit %d (%s) visible after recovery without a \
                  journal record"
              spec i (describe outcome))
        !expected;
      Journal.close r2.Journal.journal;
      note "A [%s]: %d/8 durable, invariants held" spec
        (List.length (List.filter (fun (_, _, d, _) -> d) !expected)))
    specs

(* ------------------------------------------------------------------ *)
(* Scenario B: connection drops vs. a retrying client                  *)
(* ------------------------------------------------------------------ *)

let start_daemon ?data () =
  let metrics = Metrics.create () in
  let broker =
    match data with
    | None ->
        Broker.create ~acquire_timeout:0.5 ~metrics (Manager.create ())
    | Some dir ->
        let r = Journal.recover ~checkpoint_every:4 ~dir () in
        Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.5 ~metrics
          r.Journal.manager
  in
  let port = ref 0 in
  let mu = Mutex.create () and cond = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Daemon.serve
           ~on_listen:(fun p ->
             Mutex.lock mu;
             port := p;
             Condition.signal cond;
             Mutex.unlock mu)
           ~broker
           { Daemon.default_config with Daemon.port = 0 })
       ());
  Mutex.lock mu;
  while !port = 0 do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  (!port, broker)

(* The client prints response bodies on stdout; keep the torture log
   readable by sending them to /dev/null. *)
let quiet f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let scenario_b ~seed () =
  Failpoint.clear ();
  let port, _broker = start_daemon () in
  (* the second accepted connection is closed unserved, and ~1/3 of
     requests get the connection cut before a response is written *)
  Failpoint.configure
    (Printf.sprintf "daemon.accept=drop@nth:2;daemon.handler=drop@prob:0.35:%d"
       seed);
  let requests =
    List.concat (List.init 6 (fun _ -> [ "health"; "check"; "stats" ]))
    @ [ "quit" ]
  in
  let code =
    quiet (fun () ->
        Client.run ~retries:12 ~host:"127.0.0.1" ~port ~requests ())
  in
  let dropped = fired_of "daemon.accept" + fired_of "daemon.handler" in
  Failpoint.clear ();
  check (code = 0) "retrying client failed (exit %d) under connection drops"
    code;
  check (dropped > 0) "no connection drops were injected (seed %d)" seed;
  note "B: client survived %d injected connection drop(s)" dropped

(* ------------------------------------------------------------------ *)
(* Scenario C: replica faults and digest convergence                   *)
(* ------------------------------------------------------------------ *)

let scenario_c () =
  Failpoint.clear ();
  let pdir = fresh_dir () and rdir = fresh_dir () in
  let pport, pbroker = start_daemon ~data:pdir () in
  let pj = Option.get (Broker.journal pbroker) in
  (* six commits before the replica exists: with checkpoint_every = 4 the
     replica must bootstrap from a snapshot, then stream the tail *)
  check (commit pbroker ~client:1 [ zoo_frame ] = `Acked) "C: commit 0";
  for i = 1 to 5 do
    check
      (commit pbroker ~client:1
         [ Printf.sprintf "add attribute fld%d : int to Animal@Zoo;" i ]
      = `Acked)
      "C: commit %d" i
  done;
  (* replica-side faults: the feed is cut after 5 frames, and the second
     record application fails once *)
  Failpoint.configure "replica.stream.read=drop@nth:5;replica.apply=eio@nth:2";
  let rep =
    Replica.start
      {
        Replica.default_config with
        Replica.primary_host = "127.0.0.1";
        primary_port = pport;
        port = 0;
        data_dir = Some rdir;
        checkpoint_every = 4;
      }
  in
  let applier = Replica.applier rep in
  let rbroker = Replica.broker rep in
  let rmetrics = Broker.metrics rbroker in
  wait_until "replica catch-up (bootstrap)" (fun () ->
      Replica.Applier.position applier = Journal.seq pj);
  (* more commits while the replica is live and still faulty *)
  for i = 6 to 9 do
    check
      (commit pbroker ~client:1
         [ Printf.sprintf "add attribute fld%d : int to Animal@Zoo;" i ]
      = `Acked)
      "C: commit %d" i
  done;
  wait_until "replica catch-up (live)" (fun () ->
      Replica.Applier.position applier = Journal.seq pj);
  check
    (fired_of "replica.stream.read" > 0 && fired_of "replica.apply" > 0)
    "C: replica failpoints never fired";
  Failpoint.clear ();
  (* invariant 3: both sides fingerprint the same state *)
  let pd = Broker.state_digest pbroker in
  let rd = Broker.state_digest rbroker in
  check (pd <> None) "C: primary has no digest";
  check (pd = rd) "C: digests diverge (primary %s, replica %s)"
    (Option.value pd ~default:"-")
    (Option.value rd ~default:"-");
  (* let an idle ping carry the digest across; it must not trip a false
     divergence alarm *)
  Thread.delay 2.5;
  check
    (Metrics.counter rmetrics "replica_divergences" = 0)
    "C: false divergence alarm";
  check
    (Replica.Applier.position applier = Journal.seq pj)
    "C: replica moved without new records";
  check
    (Metrics.counter rmetrics "replica_reconnects" >= 1)
    "C: reconnects not counted";
  note "C: replica converged (digest %s) after %d reconnect(s)"
    (Option.value pd ~default:"-")
    (Metrics.counter rmetrics "replica_reconnects")

(* ------------------------------------------------------------------ *)
(* Scenario D: ENOSPC over a live socket                               *)
(* ------------------------------------------------------------------ *)

let open_conn port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock, sock)

let rpc (ic, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  Protocol.read_response ic

let expect_ok what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok -> resp.Protocol.body
  | Protocol.Err reason -> fail "D: %s failed: %s" what reason

let scenario_d () =
  Failpoint.clear ();
  let dir = fresh_dir () in
  let port, _broker = start_daemon ~data:dir () in
  Failpoint.configure "journal.append.fsync=enospc@nth:2";
  let c = open_conn port in
  ignore (expect_ok "bes" (rpc c "bes"));
  ignore (expect_ok "script" (rpc c ("script-line " ^ zoo_frame)));
  ignore (expect_ok "ees" (rpc c "ees"));
  ignore (expect_ok "bes 2" (rpc c "bes"));
  ignore
    (expect_ok "script 2"
       (rpc c "script-line add attribute name : string to Animal@Zoo;"));
  (match rpc c "ees" with
  | { Protocol.status = Protocol.Err reason; _ } ->
      check (contains reason "degraded")
        "D: ees error does not announce degraded mode: %s" reason
  | _ -> fail "D: ees succeeded despite injected ENOSPC");
  let h = expect_ok "health" (rpc c "health") in
  check (List.mem "status degraded" h) "D: health not degraded";
  check
    (List.exists (fun l -> contains l "reason ") h)
    "D: health has no reason line";
  let s = expect_ok "stats" (rpc c "stats") in
  check (List.mem "gauge degraded 1" s) "D: stats gauge not set";
  (match rpc c "bes" with
  | { Protocol.status = Protocol.Err reason; _ } ->
      check (contains reason "degraded") "D: bes refusal wrong: %s" reason
  | _ -> fail "D: bes accepted while degraded");
  ignore (expect_ok "check" (rpc c "check"));
  ignore (expect_ok "quit" (rpc c "quit"));
  (let _, _, s = c in
   try Unix.close s with Unix.Unix_error _ -> ());
  Failpoint.clear ();
  (* restart: only the acked commit survives *)
  let r = Journal.recover ~dir () in
  let d = dump_of r.Journal.manager in
  check (contains d "type Animal") "D: acked commit lost";
  check (not (contains d "name")) "D: failed commit visible";
  note "D: ENOSPC over a socket: degraded, reported, recovered clean"

(* ------------------------------------------------------------------ *)
(* Scenario E: the failpoint matrix against three tenants              *)
(* ------------------------------------------------------------------ *)

(* Like a broker-level [commit], but refusals at the script stage roll
   the session back and count as a failed commit instead of aborting the
   run: after an evict/reopen "healed" a degraded tenant whose schema
   commit was lost, later script lines referring to it are legitimately
   refused. *)
let try_commit b ~client lines =
  match (Broker.handle b ~client Protocol.Bes).Protocol.status with
  | Protocol.Err reason -> `Refused reason
  | Protocol.Ok ->
      let rec run = function
        | [] -> (
            match (Broker.handle b ~client Protocol.Ees).Protocol.status with
            | Protocol.Ok -> `Acked
            | Protocol.Err reason -> `Failed reason)
        | l :: rest -> (
            match
              (Broker.handle b ~client (Protocol.Script_line l)).Protocol.status
            with
            | Protocol.Ok -> run rest
            | Protocol.Err reason ->
                ignore (Broker.handle b ~client Protocol.Rollback);
                `Failed ("script: " ^ reason))
      in
      run lines

(* One self-contained commit per (tenant, round): its own schema, so no
   commit depends on an earlier one having survived. *)
let e_frame tenant round =
  let s = Printf.sprintf "%s%d" (String.capitalize_ascii tenant) round in
  ( Printf.sprintf
      "schema %s is type T%s is [ x : int; ] end type T%s; end schema %s;" s s
      s s,
    Printf.sprintf "schema %s" s )

let e_registry root ~max_open =
  let reg =
    Registry.create
      {
        Registry.data_dir = Some root;
        max_open;
        checkpoint_every = 1000;
        checkpoint_bytes = max_int;
        acquire_timeout = 0.1;
        log = ignore;
      }
  in
  List.iter
    (fun n ->
      match Registry.create_db reg n with
      | Ok () -> ()
      | Error reason -> fail "E: create %s: %s" n reason)
    [ "a"; "b"; "c" ];
  reg

(* Run [rounds] round-robin commits over the three tenants, capturing the
   per-commit durability oracle (did *that tenant's* journal sequence
   advance while the commit ran?) inside the pin, because the broker
   instance behind a name changes across evictions. *)
let e_workload reg ~rounds =
  let expected = ref [] in
  for round = 1 to rounds do
    List.iteri
      (fun i tenant ->
        let line, needle = e_frame tenant round in
        let r =
          Registry.with_db reg tenant (fun b ->
              let j = Option.get (Broker.journal b) in
              let before = Journal.seq j in
              let outcome = try_commit b ~client:(i + 1) [ line ] in
              (outcome, Journal.seq j > before))
        in
        match r with
        | Ok (outcome, durable) ->
            (match outcome with
            | `Acked ->
                check durable
                  "E: [%s] round %d acked without a journal record" tenant
                  round
            | `Failed _ | `Refused _ -> ());
            expected := (tenant, needle, durable, outcome) :: !expected
        | Error reason -> fail "E: with_db %s: %s" tenant reason)
      [ "a"; "b"; "c" ]
  done;
  !expected

(* Crash-recover every tenant directory independently and hold invariants
   1 and 2 per tenant. *)
let e_check_recovery root expected =
  List.iter
    (fun tenant ->
      let dir = Filename.concat root tenant in
      let r = Journal.recover ~dir () in
      let d = dump_of r.Journal.manager in
      Journal.close r.Journal.journal;
      List.iter
        (fun (t, needle, durable, outcome) ->
          if t = tenant then begin
            let visible = contains d needle in
            let describe = function
              | `Acked -> "acked"
              | `Failed reason -> "failed: " ^ reason
              | `Refused reason -> "refused: " ^ reason
            in
            if durable && not visible then
              fail "E: db %s lost durable commit %s (%s)" tenant needle
                (describe outcome)
            else if (not durable) && visible then
              fail "E: db %s shows non-durable commit %s (%s)" tenant needle
                (describe outcome)
          end)
        expected)
    [ "a"; "b"; "c" ]

let scenario_e () =
  (* Leg 1: the scenario-A storage matrix, but spread over three tenants
     hosted by one registry with max_open = 2, so the workload interleaves
     evict/reopen churn with the injected failures.  Global failpoint
     sites hit whichever tenant reaches them; durability stays per
     tenant. *)
  let specs =
    [
      "journal.append.write=eio@nth:4";
      "journal.append.write=partial:5@nth:5";
      "journal.append.fsync=eio@nth:5";
      "journal.append.fsync=enospc@nth:3";
      "broker.commit=eio@nth:4";
    ]
  in
  List.iter
    (fun spec ->
      Failpoint.clear ();
      Failpoint.configure spec;
      let site =
        match Failpoint.parse_config spec with
        | [ (s, _, _) ] -> s
        | _ -> fail "E: spec %S is not a single item" spec
      in
      let root = fresh_dir () in
      let reg = e_registry root ~max_open:2 in
      let expected = e_workload reg ~rounds:3 in
      check (fired_of site > 0) "E: [%s] the failpoint never fired" spec;
      check
        (Metrics.counter (Registry.server_metrics reg) "evictions" > 0)
        "E: [%s] no evict/reopen churn under max_open=2" spec;
      let acked =
        List.length (List.filter (fun (_, _, _, o) -> o = `Acked) expected)
      in
      check
        (acked < 9 && acked >= 4)
        "E: [%s] implausible ack count %d/9 (failpoint armed)" spec acked;
      Registry.shutdown reg;
      Failpoint.clear ();
      e_check_recovery root expected;
      note "E [%s]: %d/9 acked across 3 tenants, invariants held" spec acked)
    specs;
  (* Leg 2: a *labeled* failpoint scoped to tenant b.  Only b may degrade;
     a and c keep committing at full ack rate throughout. *)
  Failpoint.clear ();
  Failpoint.configure "journal.append.fsync#b=eio@nth:1";
  let root = fresh_dir () in
  let reg = e_registry root ~max_open:3 in
  let expected = e_workload reg ~rounds:3 in
  check
    (fired_of "journal.append.fsync#b" > 0)
    "E: labeled failpoint never fired";
  List.iter
    (fun (tenant, want_degraded) ->
      match
        Registry.with_db reg tenant (fun b -> Broker.degraded b <> None)
      with
      | Ok got ->
          check (got = want_degraded) "E: db %s degraded=%b, expected %b"
            tenant got want_degraded
      | Error reason -> fail "E: with_db %s: %s" tenant reason)
    [ ("a", false); ("b", true); ("c", false) ];
  List.iter
    (fun tenant ->
      let acked =
        List.length
          (List.filter
             (fun (t, _, _, o) -> t = tenant && o = `Acked)
             expected)
      in
      if tenant = "b" then
        check (acked < 3) "E: db b unaffected by its own failpoint"
      else
        check (acked = 3) "E: db %s collateral damage from b's failpoint"
          tenant)
    [ "a"; "b"; "c" ];
  Registry.shutdown reg;
  Failpoint.clear ();
  e_check_recovery root expected;
  note "E: labeled fault degraded only db b; a and c unaffected"

(* ------------------------------------------------------------------ *)
(* Scenario F: the storage matrix and concurrent committers with       *)
(* group commit on                                                     *)
(* ------------------------------------------------------------------ *)

(* One self-contained commit: its own schema, so no commit depends on an
   earlier one having survived. *)
let f_frame i =
  let s = Printf.sprintf "F%d" i in
  ( Printf.sprintf
      "schema %s is type T%s is [ x : int; ] end type %s; end schema %s;" s s
      s s,
    Printf.sprintf "schema %s" s )

let scenario_f () =
  (* Leg 1: the scenario-A storage matrix through the batch writer.
     Commits are sequential, so every batch carries one record and the
     per-commit durability oracle (did the sequence number advance while
     the commit ran?) stays exact; what is exercised is the code path —
     enqueue, leader flush, truncate-on-failure — and that the append
     failpoints fire once per batch. *)
  let specs =
    [
      "journal.append.write=eio@nth:2";
      "journal.append.write=partial:5@nth:3";
      "journal.append.fsync=eio@nth:4";
      "journal.append.fsync=enospc@nth:2";
      "broker.commit=eio@nth:3";
      "journal.checkpoint.snapshot=eio@nth:1";
    ]
  in
  List.iter
    (fun spec ->
      Failpoint.clear ();
      Failpoint.configure spec;
      let site =
        match Failpoint.parse_config spec with
        | [ (s, _, _) ] -> s
        | _ -> fail "F: spec %S is not a single item" spec
      in
      let dir = fresh_dir () in
      let r = Journal.recover ~checkpoint_every:3 ~dir () in
      let j = r.Journal.journal in
      let metrics = Metrics.create () in
      let b =
        Broker.create ~journal:j ~acquire_timeout:0.1 ~metrics
          r.Journal.manager
      in
      let expected = ref [] in
      for i = 0 to 7 do
        let line, needle = f_frame i in
        let before = Journal.seq j in
        let checkpoints = Metrics.counter metrics "checkpoints" in
        let outcome = try_commit b ~client:(i + 1) [ line ] in
        let durable = Journal.seq j > before in
        (match outcome with
        | `Acked ->
            check durable "F: [%s] commit %d acked without a durable record"
              spec i
        | `Failed _ | `Refused _ -> ());
        check
          (not
             (started_failing_checkpoint ~site ~metrics checkpoints
             && outcome <> `Acked))
          "F: [%s] commit %d started the checkpoint with its record \
           durable, but was not acked"
          spec i;
        expected := (i, needle, durable, outcome) :: !expected
      done;
      check (fired_of site > 0) "F: [%s] the failpoint never fired" spec;
      check
        (Broker.degraded b <> None)
        "F: [%s] broker not degraded after a storage failure" spec;
      Failpoint.clear ();
      (* crash: recover the directory into a fresh manager *)
      crash j;
      let r2 = Journal.recover ~dir () in
      let d = dump_of r2.Journal.manager in
      List.iter
        (fun (i, needle, durable, outcome) ->
          let visible = contains d needle in
          let describe = function
            | `Acked -> "acked"
            | `Failed reason -> "failed: " ^ reason
            | `Refused reason -> "refused: " ^ reason
          in
          if durable && not visible then
            fail "F: [%s] commit %d (%s) lost after recovery" spec i
              (describe outcome)
          else if (not durable) && visible then
            fail
              "F: [%s] commit %d (%s) visible after recovery without a \
               journal record"
              spec i (describe outcome))
        !expected;
      Journal.close r2.Journal.journal;
      note "F [%s]: %d/8 durable under group commit, invariants held" spec
        (List.length (List.filter (fun (_, _, d, _) -> d) !expected)))
    specs;
  (* Leg 2: concurrent committers, no fault.  All must be acked, the
     fsyncs must actually batch, and a kill -9 (the broker and its open
     journal fd are simply abandoned) followed by recovery must replay
     every record.  The first fsync stalls 50 ms, so the commits that
     arrive meanwhile share the next one. *)
  Failpoint.clear ();
  Failpoint.configure "journal.append.fsync=delay:0.05@nth:1";
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let metrics = Metrics.create () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:10.0 ~metrics
      r.Journal.manager
  in
  let n = 8 in
  let outcomes = Array.make n (`Refused "never ran") in
  let workers =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let line, _ = f_frame (10 + i) in
            outcomes.(i) <- try_commit b ~client:(i + 1) [ line ])
          ())
  in
  List.iter Thread.join workers;
  Array.iteri
    (fun i -> function
      | `Acked -> ()
      | `Failed reason | `Refused reason ->
          fail "F: fault-free concurrent commit %d not acked: %s" i reason)
    outcomes;
  check
    (Metrics.counter metrics "journal_records" = n)
    "F: %d commits, %d journal records" n
    (Metrics.counter metrics "journal_records");
  let batches = Metrics.counter metrics "group_commits" in
  check
    (batches >= 1 && batches < n)
    "F: fsyncs not batched (%d batches for %d commits)" batches n;
  Failpoint.clear ();
  let r2 = Journal.recover ~dir () in
  check
    (r2.Journal.replayed = n)
    "F: %d/%d records survive the kill" r2.Journal.replayed n;
  let d = dump_of r2.Journal.manager in
  for i = 0 to n - 1 do
    let _, needle = f_frame (10 + i) in
    check (contains d needle) "F: acked concurrent commit %d lost" i
  done;
  Journal.close r2.Journal.journal;
  note "F: %d concurrent commits in %d fsync batches, all durable" n batches;
  (* Leg 3: concurrent committers racing a mid-run batch fsync failure.
     A failed batch is truncated back out of the file and every waiter it
     covered gets the error, so after recovery: acked => visible,
     anything else => invisible — with no per-commit oracle needed even
     under concurrency, because the frames are self-contained.  The first
     concurrent batch's write stalls 50 ms, so the other commits pile up
     behind it and the failing fsync covers all of them. *)
  Failpoint.clear ();
  Failpoint.configure
    "journal.append.write=delay:0.05@nth:2;journal.append.fsync=eio@nth:3";
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let metrics = Metrics.create () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:5.0 ~metrics
      r.Journal.manager
  in
  (* warm-up: a lone sequential commit consumes write and fsync #1, so
     the stall and the fault land on the concurrent batches below *)
  let warm_line, warm_needle = f_frame 99 in
  (match try_commit b ~client:99 [ warm_line ] with
  | `Acked -> ()
  | `Failed reason | `Refused reason -> fail "F: warm-up commit: %s" reason);
  let n = 6 in
  let outcomes = Array.make n (`Refused "never ran") in
  let workers =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let line, _ = f_frame (100 + i) in
            outcomes.(i) <- try_commit b ~client:(i + 1) [ line ])
          ())
  in
  List.iter Thread.join workers;
  check (fired_of "journal.append.fsync" > 0) "F: fsync failpoint never fired";
  check
    (Broker.degraded b <> None)
    "F: broker not degraded after a batch fsync failure";
  Failpoint.clear ();
  let r2 = Journal.recover ~dir () in
  let d = dump_of r2.Journal.manager in
  check (contains d warm_needle) "F: warm-up commit lost";
  Array.iteri
    (fun i outcome ->
      let _, needle = f_frame (100 + i) in
      let visible = contains d needle in
      match outcome with
      | `Acked ->
          check visible "F: acked commit %d lost after the batch failure" i
      | `Failed _ | `Refused _ ->
          check (not visible)
            "F: unacked commit %d visible after the batch failure" i)
    outcomes;
  Journal.close r2.Journal.journal;
  let acked =
    Array.fold_left (fun a o -> if o = `Acked then a + 1 else a) 0 outcomes
  in
  (* every record enqueued but not acked (the warm-up aside) was taken
     down by the one failed fsync; the stall piles the concurrent commits
     into its batch, so there must be more than one *)
  let lost = Metrics.counter metrics "journal_records" - 1 - acked in
  check (lost > 1) "F: the failed fsync took down %d enqueued record(s)" lost;
  note "F: batch fsync fault: %d/%d acked, a %d-record batch failed, no \
        acked loss, no unacked visibility"
    acked n lost

(* ------------------------------------------------------------------ *)
(* Scenario G: epoch-fenced failover.  kill -9 the primary mid-commit
   while a failpoint stalls the journal write or fsync, promote the
   replica, restart the old primary as a replica of the promoted node,
   and check the failover invariants: no write acked by the surviving
   lineage is lost, the unacked write never becomes visible, a durable-
   but-unacked suffix lands in journal.orphaned (never silently dropped),
   and both nodes converge to the same digest and epoch.

   Runs against real gomsm subprocesses — kill -9 must take the whole
   process, not a thread. *)
(* ------------------------------------------------------------------ *)

let g_binary () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "gomsm.exe"))

let g_read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let g_spawn ?(failpoints = "") ~log args =
  let binary = g_binary () in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let base =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 16 && String.sub kv 0 16 = "GOMSM_FAILPOINTS"))
  in
  let env =
    if failpoints = "" then base
    else ("GOMSM_FAILPOINTS=" ^ failpoints) :: base
  in
  let pid =
    Unix.create_process_env binary
      (Array.of_list (binary :: args))
      (Array.of_list env) Unix.stdin logfd logfd
  in
  Unix.close logfd;
  pid

let g_wait_port file =
  wait_until (file ^ " written") (fun () ->
      Sys.file_exists file
      && String.trim (try g_read_file file with Sys_error _ -> "") <> "");
  int_of_string (String.trim (g_read_file file))

(* [health] as an assoc list: role, status, epoch, seq, digest *)
let g_health port =
  let c = open_conn port in
  Fun.protect
    ~finally:(fun () -> Unix.close (let _, _, s = c in s))
    (fun () ->
      let body =
        match rpc c "health" with
        | { Protocol.status = Protocol.Ok; body } -> body
        | { Protocol.status = Protocol.Err reason; _ } ->
            fail "G: health failed: %s" reason
      in
      ignore (rpc c "quit");
      List.filter_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i ->
              Some
                ( String.sub line 0 i,
                  String.sub line (i + 1) (String.length line - i - 1) )
          | None -> None)
        body)

let g_health_int port key =
  match int_of_string_opt (try List.assoc key (g_health port) with Not_found -> "") with
  | Some n -> n
  | None -> -1

let g_dump port =
  let c = open_conn port in
  Fun.protect
    ~finally:(fun () -> Unix.close (let _, _, s = c in s))
    (fun () ->
      match rpc c "dump" with
      | { Protocol.status = Protocol.Ok; body } ->
          ignore (rpc c "quit");
          String.concat "\n" body
      | { Protocol.status = Protocol.Err reason; _ } ->
          fail "G: dump failed: %s" reason)

let g_commit port lines =
  let c = open_conn port in
  Fun.protect
    ~finally:(fun () -> Unix.close (let _, _, s = c in s))
    (fun () ->
      ignore (expect_ok "bes" (rpc c "bes"));
      List.iter
        (fun l -> ignore (expect_ok l (rpc c ("script-line " ^ l))))
        lines;
      ignore (expect_ok "ees" (rpc c "ees")))

(* One failover leg under one failpoint.  [durable] says whether the
   injected stall leaves the doomed record's bytes on the old primary's
   disk (fsync stall: written, not yet synced) or not (write stall:
   nothing written when the kill lands). *)
let g_leg ~variant ~failpoints ~durable () =
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  let path f = Filename.concat root f in
  let addr port = Printf.sprintf "127.0.0.1:%d" port in
  note "G/%s: primary under %s" variant failpoints;
  let ppid =
    g_spawn ~failpoints ~log:(path "p1.log")
      [
        "serve"; "--port"; "0"; "--data"; path "pdata"; "--port-file";
        path "pport";
      ]
  in
  let pport = g_wait_port (path "pport") in
  g_commit pport
    [ "schema Zoo is type Animal is [ legs : int; ] end type Animal; end \
       schema Zoo;" ];
  let rpid =
    g_spawn ~log:(path "r1.log")
      [
        "replica"; "--primary"; addr pport; "--port"; "0"; "--data";
        path "rdata"; "--port-file"; path "rport";
      ]
  in
  let rport = g_wait_port (path "rport") in
  wait_until "G: replica caught up" (fun () -> g_health_int rport "seq" = 1);
  (* the doomed commit: stalled inside the journal by the failpoint,
     killed before the acknowledgment can be written *)
  let needle = "add type Orphan to Zoo;" in
  let outcome = ref `Pending in
  let doomed =
    Thread.create
      (fun () ->
        try
          g_commit pport [ needle ];
          outcome := `Acked
        with _ -> outcome := `Unknown)
      ()
  in
  Thread.delay 1.0;
  Unix.kill ppid Sys.sigkill;
  ignore (Unix.waitpid [] ppid);
  Thread.join doomed;
  check (!outcome <> `Acked)
    "G/%s: the stalled commit must not have been acknowledged" variant;
  check (!outcome <> `Pending) "G/%s: the stalled commit must have returned"
    variant;
  (* promote the replica: epoch 1, sealed at the last applied seq *)
  let c = open_conn rport in
  (match rpc c "promote" with
  | { Protocol.status = Protocol.Ok; body } ->
      check
        (List.exists (fun l -> contains l "epoch 1") body)
        "G/%s: promotion must answer with epoch 1" variant
  | { Protocol.status = Protocol.Err reason; _ } ->
      fail "G/%s: promote refused: %s" variant reason);
  ignore (rpc c "quit");
  Unix.close (let _, _, s = c in s);
  check (g_health_int rport "epoch" = 1) "G/%s: promoted node at epoch 1"
    variant;
  (* the old primary comes back as a replica of the promoted node and
     must resync: its journal may hold a divergent suffix *)
  let p2pid =
    g_spawn ~log:(path "p2.log")
      [
        "replica"; "--primary"; addr rport; "--port"; "0"; "--data";
        path "pdata"; "--port-file"; path "p2port";
      ]
  in
  let p2port = g_wait_port (path "p2port") in
  wait_until "G: demoted node resynced" (fun () ->
      g_health_int p2port "seq" = 1 && g_health_int p2port "epoch" = 1);
  (* a post-promotion write — the surviving lineage's acked history *)
  g_commit rport [ "add type Keeper to Zoo;" ];
  wait_until "G: demoted node converged" (fun () ->
      g_health_int p2port "seq" = 2);
  let d_promoted = g_dump rport and d_demoted = g_dump p2port in
  check (d_promoted = d_demoted) "G/%s: dumps must converge" variant;
  check
    (contains d_promoted "Keeper")
    "G/%s: the promoted lineage's acked write must survive" variant;
  check
    (not (contains d_promoted "Orphan"))
    "G/%s: the unacked write must not be visible" variant;
  let orphan_file = Filename.concat (path "pdata") "journal.orphaned" in
  if durable then begin
    (* written-but-unsynced bytes survived the kill on the old primary:
       the resync must have moved them aside, not silently dropped them *)
    check (Sys.file_exists orphan_file)
      "G/%s: the divergent suffix must be preserved in journal.orphaned"
      variant;
    check
      (contains (g_read_file orphan_file) "Orphan")
      "G/%s: journal.orphaned must hold the unacked record" variant
  end
  else
    check
      (not (Sys.file_exists orphan_file))
      "G/%s: nothing reached the disk, so nothing must be orphaned" variant;
  (* same digest, same epoch, correct roles on both nodes *)
  let hp = g_health rport and hd = g_health p2port in
  check
    (List.assoc "digest" hp = List.assoc "digest" hd)
    "G/%s: state digests must agree" variant;
  check
    (List.assoc "epoch" hp = "1" && List.assoc "epoch" hd = "1")
    "G/%s: both nodes must report epoch 1" variant;
  check (List.assoc "role" hp = "primary") "G/%s: promoted node is primary"
    variant;
  check (List.assoc "role" hd = "replica") "G/%s: demoted node is a replica"
    variant;
  Unix.kill rpid Sys.sigkill;
  Unix.kill p2pid Sys.sigkill;
  ignore (Unix.waitpid [] rpid);
  ignore (Unix.waitpid [] p2pid);
  note "G/%s: promoted epoch 1, %s, converged at seq 2" variant
    (if durable then "divergent suffix orphaned" else "no divergent bytes")

let scenario_g () =
  (* the matrix: stall the doomed commit's fsync (record bytes durable on
     the old primary — the orphaning case) and its write (nothing on disk
     — resync without divergence) *)
  g_leg ~variant:"fsync" ~failpoints:"journal.append.fsync=delay:8@from:2"
    ~durable:true ();
  g_leg ~variant:"write" ~failpoints:"journal.append.write=delay:8@from:2"
    ~durable:false ()

(* ------------------------------------------------------------------ *)
(* Scenario H: checkpoints that switch segments inside the commit.  A
   checkpoint is crashed at each point of its switch — before its head is
   written, partway through the head, with the head written but the
   switch refused, and after the switch but before the next flush — and
   then a daemon is killed -9 while concurrent committers run across
   checkpoints slowed at the switch.  After each crash: no acked loss, no
   unacked visibility, [seq] never regresses, and a replica that
   resubscribes converges on the primary's digest. *)
(* ------------------------------------------------------------------ *)

(* In process: the failpoint stops the checkpoint (or the flush after
   it) where a crash would, so the files are left as the crash leaves
   them.  [switched] says whether the crash came after the switch. *)
let h_crash_leg ~switched spec =
  Failpoint.clear ();
  Failpoint.configure spec;
  let site =
    match Failpoint.parse_config spec with
    | [ (s, _, _) ] -> s
    | _ -> fail "H: spec %S is not a single item" spec
  in
  let dir = fresh_dir () in
  let r = Journal.recover ~checkpoint_every:3 ~dir () in
  let j = r.Journal.journal in
  let b =
    Broker.create ~journal:j ~acquire_timeout:0.1 ~metrics:(Metrics.create ())
      r.Journal.manager
  in
  let outcomes =
    List.init 6 (fun i ->
        let line, needle = f_frame (200 + i) in
        let before = Journal.seq j in
        let outcome = try_commit b ~client:(i + 1) [ line ] in
        let durable = Journal.seq j > before in
        if outcome = `Acked then
          check durable "H: [%s] commit %d acked without a durable record"
            spec i;
        (i, needle, durable))
  in
  let position = Journal.seq j in
  crash j;
  check (fired_of site > 0) "H: [%s] the failpoint never fired" spec;
  check
    ((Journal.live_path j = Journal.alt_path ~dir) = switched)
    "H: [%s] the crash did not come %s the switch" spec
    (if switched then "after" else "before");
  Failpoint.clear ();
  let r2 = Journal.recover ~dir () in
  let j2 = r2.Journal.journal in
  check
    (Journal.seq j2 = position)
    "H: [%s] recovered seq %d, the crashed journal was at %d" spec
    (Journal.seq j2) position;
  let d = dump_of r2.Journal.manager in
  List.iter
    (fun (i, needle, durable) ->
      if durable && not (contains d needle) then
        fail "H: [%s] durable commit %d lost after recovery" spec i
      else if (not durable) && contains d needle then
        fail "H: [%s] commit %d visible without a durable record" spec i)
    outcomes;
  (* numbering continues where it stopped, across one more restart *)
  let b2 =
    Broker.create ~journal:j2 ~acquire_timeout:0.1 ~metrics:(Metrics.create ())
      r2.Journal.manager
  in
  let line, needle = f_frame 299 in
  check
    (try_commit b2 ~client:1 [ line ] = `Acked)
    "H: [%s] commit after recovery" spec;
  check
    (Journal.seq j2 = position + 1)
    "H: [%s] next commit numbered %d, not %d" spec (Journal.seq j2)
    (position + 1);
  Journal.close j2;
  let r3 = Journal.recover ~dir () in
  check
    (Journal.seq r3.Journal.journal = position + 1
    && contains (dump_of r3.Journal.manager) needle)
    "H: [%s] second restart lost the post-recovery commit" spec;
  Journal.close r3.Journal.journal;
  note "H [%s]: crashed at seq %d, %d/6 durable, recovered and renumbered \
        nothing"
    spec position
    (List.length (List.filter (fun (_, _, d) -> d) outcomes))

(* One commit over its own connection; a connection the kill cut is an
   unknown outcome. *)
let h_commit port line =
  match open_conn port with
  | exception Unix.Unix_error _ -> `Unknown
  | c ->
      Fun.protect
        ~finally:(fun () -> try Unix.close (let _, _, s = c in s) with _ -> ())
        (fun () ->
          try
            match (rpc c "bes").Protocol.status with
            | Protocol.Err reason -> `Refused reason
            | Protocol.Ok -> (
                match (rpc c ("script-line " ^ line)).Protocol.status with
                | Protocol.Err reason -> `Refused reason
                | Protocol.Ok -> (
                    match (rpc c "ees").Protocol.status with
                    | Protocol.Ok -> `Acked
                    | Protocol.Err reason -> `Failed reason))
          with _ -> `Unknown)

(* Against real processes: kill -9 lands while checkpoints, slowed
   between their head write and their switch, hold the commit path. *)
let h_kill_leg () =
  let root = fresh_dir () in
  Unix.mkdir root 0o755;
  let path f = Filename.concat root f in
  let pdata = path "pdata" in
  let serve ~log extra =
    g_spawn ~failpoints:"journal.checkpoint.switch=delay:0.05" ~log
      ([
         "serve"; "--data"; pdata; "--port-file"; path "pport";
         "--checkpoint-every"; "4"; "--acquire-timeout"; "10";
       ]
      @ extra)
  in
  let ppid = serve ~log:(path "p1.log") [ "--port"; "0" ] in
  let pport = g_wait_port (path "pport") in
  let rpid =
    g_spawn ~log:(path "r.log")
      [
        "replica"; "--primary"; Printf.sprintf "127.0.0.1:%d" pport; "--port";
        "0"; "--data"; path "rdata"; "--port-file"; path "rport";
      ]
  in
  let rport = g_wait_port (path "rport") in
  let committers = 3 and per = 12 in
  let outcomes = Array.make (committers * per) `Unknown in
  let acked = Atomic.make 0 in
  let workers =
    List.init committers (fun w ->
        Thread.create
          (fun () ->
            for k = 0 to per - 1 do
              let i = (w * per) + k in
              let line, _ = f_frame (300 + i) in
              let o = h_commit pport line in
              outcomes.(i) <- o;
              if o = `Acked then Atomic.incr acked
            done)
          ())
  in
  (* kill once checkpoints have switched segments: both files hold heads
     or records *)
  let alt = Journal.alt_path ~dir:pdata in
  wait_until "H: a checkpoint's head written after 12 acks" (fun () ->
      Atomic.get acked >= 12
      && match Unix.stat alt with s -> s.Unix.st_size > 0 | exception _ -> false);
  Unix.kill ppid Sys.sigkill;
  ignore (Unix.waitpid [] ppid);
  List.iter Thread.join workers;
  let replica_seq = g_health_int rport "seq" in
  let r = Journal.recover ~dir:pdata () in
  let position = Journal.seq r.Journal.journal in
  let base = Journal.base r.Journal.journal in
  let n_acked = Atomic.get acked in
  check (position >= n_acked) "H: recovered seq %d below %d acked commits"
    position n_acked;
  check (position >= replica_seq)
    "H: recovered seq %d regressed below the replica's %d" position
    replica_seq;
  let d = dump_of r.Journal.manager in
  Array.iteri
    (fun i o ->
      let _, needle = f_frame (300 + i) in
      match o with
      | `Acked -> check (contains d needle) "H: acked commit %d lost" i
      | `Failed reason | `Refused reason ->
          check (not (contains d needle))
            "H: commit %d visible after an error reply (%s)" i reason
      | `Unknown -> ())
    outcomes;
  Journal.close r.Journal.journal;
  (* the primary comes back on its port; the replica resubscribes *)
  let ppid2 =
    serve ~log:(path "p2.log") [ "--port"; string_of_int pport ]
  in
  wait_until "H: primary back" (fun () ->
      match g_health pport with _ -> true | exception _ -> false);
  let line, needle = f_frame 399 in
  check (h_commit pport line = `Acked) "H: commit after the restart";
  let converged () =
    let hp = g_health pport and hr = g_health rport in
    List.assoc_opt "seq" hp = List.assoc_opt "seq" hr
    && List.assoc_opt "digest" hp <> None
    && List.assoc_opt "digest" hp = List.assoc_opt "digest" hr
  in
  wait_until "H: replica converged on the restarted primary" converged;
  check
    (g_health_int pport "seq" = position + 1)
    "H: the restarted primary numbered its first commit %d, not %d"
    (g_health_int pport "seq") (position + 1);
  check (contains (g_dump rport) needle) "H: replica missing the new commit";
  Unix.kill ppid2 Sys.sigkill;
  Unix.kill rpid Sys.sigkill;
  ignore (Unix.waitpid [] ppid2);
  ignore (Unix.waitpid [] rpid);
  note "H: kill -9 at seq %d (%d acked, base %d), recovered, replica \
        converged at seq %d"
    position n_acked base (position + 1)

let scenario_h () =
  h_crash_leg ~switched:false "journal.checkpoint.snapshot=eio@nth:1";
  (* the second checkpoint's head lands over the first segment's records *)
  h_crash_leg ~switched:true "journal.checkpoint.snapshot=partial:60@nth:2";
  h_crash_leg ~switched:false "journal.checkpoint.switch=eio@nth:1";
  (* commit 3 triggers the checkpoint; commit 4's write is the flush
     that would have made the new head durable *)
  h_crash_leg ~switched:true "journal.append.write=eio@nth:4";
  h_kill_leg ()

(* ------------------------------------------------------------------ *)
(* Scenario I: reader isolation                                        *)
(* ------------------------------------------------------------------ *)

(* The numbers [n] of every [Mark<n>] a text names. *)
let markers text =
  let n = String.length text in
  let rec scan i acc =
    if i + 4 > n then acc
    else if String.sub text i 4 = "Mark" then begin
      let j = ref (i + 4) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j > i + 4 then
        scan !j (int_of_string (String.sub text (i + 4) (!j - i - 4)) :: acc)
      else scan (i + 4) acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* Reader threads run query/check/dump throughout a workload of sessions
   that each add a type [Mark<k>] and then commit, roll back, disconnect,
   or are rejected at EES and rolled back; the last session's commit hits
   a failing journal append.  A reader notes, after each answer returns,
   how many EES have begun.  No answer may name a session that was rolled
   back, abandoned or rejected, nor a session whose EES had not begun when
   the answer returned.  The failed append's session committed in memory
   before its record was lost, so readers may see it until the error
   reply — the broker rebuilds the manager from the journal before
   replying — and no answer asked for after that reply may name it.
   After recovery the acked sessions are visible, the undone ones are
   not, and the failed append's only if its record became durable. *)
let scenario_i () =
  let kinds = [| `Commit; `Rollback; `Commit; `Disconnect; `Commit; `Reject |] in
  List.iter
    (fun spec ->
      Failpoint.clear ();
      let dir = fresh_dir () in
      let r = Journal.recover ~checkpoint_every:1000 ~dir () in
      let j = r.Journal.journal in
      let b =
        Broker.create ~journal:j ~acquire_timeout:1.0 ~metrics:(Metrics.create ())
          r.Journal.manager
      in
      (match commit b ~client:1 [ zoo_frame ] with
      | `Acked -> ()
      | _ -> fail "I: [%s] the zoo commit failed" spec);
      let ees_begun = Atomic.make 0 and stop = Atomic.make false in
      (* the session whose ees got its error reply, once it has *)
      let failed_replied = Atomic.make 0 in
      let mu = Mutex.create () in
      let seen = Hashtbl.create 64 and sightings = ref 0 in
      let seen_after_reply = ref [] in
      let reader i =
        while not (Atomic.get stop) do
          let replied = Atomic.get failed_replied in
          let texts =
            List.concat_map
              (fun req ->
                (Broker.handle b ~client:(100 + i) req).Protocol.body)
              [ Protocol.Query "Type(T, N, S)"; Protocol.Check; Protocol.Dump ]
          in
          let begun = Atomic.get ees_begun in
          let ks = List.concat_map markers texts in
          Mutex.lock mu;
          List.iter
            (fun k ->
              incr sightings;
              Hashtbl.replace seen (k, begun) ();
              if k = replied then seen_after_reply := k :: !seen_after_reply)
            ks;
          Mutex.unlock mu
        done
      in
      let readers = List.init 4 (fun i -> Thread.create reader i) in
      let a req = Broker.handle b ~client:1 req in
      let ok what (resp : Protocol.response) =
        match resp.Protocol.status with
        | Protocol.Ok -> ()
        | Protocol.Err e -> fail "I: [%s] %s: %s" spec what e
      in
      let last = 13 in
      let outcomes = Hashtbl.create 16 in
      for k = 1 to last do
        let kind = if k = last then `Commit else kinds.((k - 1) mod 6) in
        if k = last then begin
          (* counted from here: the next hit of the site is the first *)
          Failpoint.clear ();
          Failpoint.configure spec
        end;
        ok "bes" (a Protocol.Bes);
        ok "script"
          (a (Protocol.Script_line (Printf.sprintf "add type Mark%d to Zoo;" k)));
        Thread.delay 0.003;
        let before = Journal.seq j in
        let outcome =
          match kind with
          | `Commit ->
              Atomic.set ees_begun k;
              (match (a Protocol.Ees).Protocol.status with
              | Protocol.Ok -> `Acked
              | Protocol.Err e ->
                  Atomic.set failed_replied k;
                  let now =
                    (Broker.handle b ~client:99 Protocol.Dump).Protocol.body
                  in
                  check
                    (not (List.mem k (List.concat_map markers now)))
                    "I: [%s] failed session %d visible after its error reply"
                    spec k;
                  `Failed e)
          | `Rollback ->
              ok "rollback" (a Protocol.Rollback);
              `Undone
          | `Disconnect ->
              Broker.disconnect b ~client:1;
              `Undone
          | `Reject ->
              ok "bad script"
                (a
                   (Protocol.Script_line
                      "schema Bad is type T is [ x : Missing; ] end type T; \
                       end schema Bad;"));
              Atomic.set ees_begun k;
              (match (a Protocol.Ees).Protocol.status with
              | Protocol.Err _ -> ()
              | Protocol.Ok -> fail "I: [%s] session %d was not rejected" spec k);
              Thread.delay 0.003;
              ok "rollback" (a Protocol.Rollback);
              `Undone
        in
        Hashtbl.replace outcomes k (outcome, Journal.seq j > before)
      done;
      Thread.delay 0.02;
      Atomic.set stop true;
      List.iter Thread.join readers;
      check (fired_of (List.hd (String.split_on_char '=' spec)) > 0)
        "I: [%s] the failpoint never fired" spec;
      (match Hashtbl.find outcomes last with
      | `Failed _, _ -> ()
      | _ -> fail "I: [%s] the last commit did not fail" spec);
      check (!sightings > 0) "I: [%s] the readers saw no session" spec;
      check (!seen_after_reply = [])
        "I: [%s] a reader asking after the error reply saw session %d" spec
        last;
      Hashtbl.iter
        (fun (k, begun) () ->
          (match Hashtbl.find_opt outcomes k with
          | Some ((`Acked | `Failed _), _) -> ()
          | Some (`Undone, _) | None ->
              fail "I: [%s] a reader saw session %d, which never committed"
                spec k);
          check (begun >= k)
            "I: [%s] a reader saw session %d before its ees began" spec k)
        seen;
      Failpoint.clear ();
      crash j;
      let r2 = Journal.recover ~dir () in
      let visible = markers (dump_of r2.Journal.manager) in
      Hashtbl.iter
        (fun k (outcome, durable) ->
          let shown = List.mem k visible in
          match outcome with
          | `Acked -> check shown "I: [%s] acked session %d lost" spec k
          | `Undone -> check (not shown) "I: [%s] undone session %d recovered" spec k
          | `Failed _ ->
              check (shown = durable)
                "I: [%s] failed session %d: visible %b, durable %b" spec k shown
                durable)
        outcomes;
      Journal.close r2.Journal.journal;
      note "I [%s]: %d reader sightings, none of an undone session" spec
        !sightings)
    [
      "journal.append.write=eio@nth:1";
      "journal.append.fsync=eio@nth:1";
      "broker.commit=eio@nth:1";
    ]

(* ------------------------------------------------------------------ *)

let () =
  let seed = ref 1234 in
  let scenario = ref "all" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  seed for probabilistic failpoints");
      ( "--scenario",
        Arg.Set_string scenario,
        "S  run one scenario (a|b|c|d|e|f|g|h|i) instead of all" );
    ]
    (fun a -> fail "unexpected argument %S" a)
    "torture [--seed N] [--scenario a|b|c|d|e|f|g|h|i]";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  note "seed %d" !seed;
  let scenarios =
    [
      ("a", scenario_a);
      ("b", scenario_b ~seed:!seed);
      ("c", scenario_c);
      ("d", scenario_d);
      ("e", scenario_e);
      ("f", scenario_f);
      ("g", scenario_g);
      ("h", scenario_h);
      ("i", scenario_i);
    ]
  in
  if not (!scenario = "all" || List.mem_assoc !scenario scenarios) then
    fail "unknown scenario %S" !scenario;
  List.iter
    (fun (name, run) ->
      if !scenario = "all" || !scenario = name then Tmp_dirs.cleaning run ())
    scenarios;
  note "all invariants held";
  exit 0
