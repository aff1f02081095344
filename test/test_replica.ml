(* Tests for the replication subsystem: the journal as a shipping log
   (global sequence numbers, raw record round trips, snapshot install),
   the read-only replica broker, a live primary+replica pair over a
   localhost socket, and the equivalence of the three evaluation
   strategies the replica's maintained materialization relies on. *)

module Manager = Core.Manager
module Persist = Core.Persist
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Daemon = Server.Daemon
module Applier = Replica.Applier

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let fresh_dir = Tmp_dirs.fresh ~prefix:"gomsm-replica-test"

let dump_of m =
  Analyzer.Unparse.unparse_script
    (Analyzer.Unparse.make ~db:(Manager.database m)
       ~lookup_code:(Manager.lookup_code m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let expect_ok what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok -> ()
  | Protocol.Err reason -> Alcotest.failf "%s failed: %s" what reason

let expect_err what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Err reason -> reason
  | Protocol.Ok -> Alcotest.failf "%s unexpectedly succeeded" what

let zoo_frame =
  "schema Zoo is type Animal is [ legs : int; ] end type Animal; end schema \
   Zoo;"

let commit b client script =
  expect_ok "bes" (Broker.handle b ~client Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client (Protocol.Script_line script));
  expect_ok "ees" (Broker.handle b ~client Protocol.Ees)

let journaled_broker ?(checkpoint_every = 1000) ?checkpoint_bytes dir =
  let r = Journal.recover ~checkpoint_every ?checkpoint_bytes ~dir () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  (b, r.Journal.journal)

let scripts =
  [
    zoo_frame;
    "add attribute name : string to Animal@Zoo;";
    "add type Keeper to Zoo;";
    "add attribute badge : int to Keeper@Zoo;";
  ]

(* ------------------------------------------------------------------ *)
(* Global sequence numbers                                             *)
(* ------------------------------------------------------------------ *)

let test_global_seq_across_checkpoints () =
  let dir = fresh_dir () in
  let b, j = journaled_broker ~checkpoint_every:1 dir in
  List.iteri (fun i s -> commit b (i + 1) s) scripts;
  (* every commit checkpointed: seq keeps counting, base tracks it *)
  check_int "seq is global" 4 (Journal.seq j);
  check_int "base caught up" 4 (Journal.base j);
  Journal.close j;
  let r = Journal.recover ~dir () in
  check_int "seq survives recovery" 4 (Journal.seq r.Journal.journal);
  check_int "base survives recovery" 4 (Journal.base r.Journal.journal);
  check_bool "snapshot used" true r.Journal.from_snapshot;
  check_int "nothing replayed" 0 r.Journal.replayed;
  (* the next commit continues the global numbering *)
  let b2 =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  commit b2 9 "add attribute wing : int to Animal@Zoo;";
  check_int "numbering continues" 5 (Journal.seq r.Journal.journal);
  Journal.close r.Journal.journal

let test_records_from_exact_bytes () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  commit b 1 zoo_frame;
  commit b 1 "add attribute name : string to Animal@Zoo;";
  let rs = Journal.records_from j ~from:0 in
  check_int "two records" 2 (List.length rs);
  Alcotest.(check (list int)) "sequence numbers" [ 1; 2 ] (List.map fst rs);
  (* the records concatenated are the journal file minus its header line *)
  let text = read_file (Journal.journal_path ~dir) in
  let header_end = String.index text '\n' + 1 in
  check_string "verbatim bytes"
    (String.sub text header_end (String.length text - header_end))
    (String.concat "" (List.map snd rs));
  check_int "caught-up subscriber" 0 (List.length (Journal.records_from j ~from:2));
  check_int "partial" 1 (List.length (Journal.records_from j ~from:1));
  Journal.close j

let test_parse_and_apply_record () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  List.iteri (fun i s -> commit b (i + 1) s) scripts;
  let m = Manager.create () in
  List.iter
    (fun (seq, text) ->
      let r = Journal.parse_record text in
      check_int "header seq matches" seq r.Journal.r_seq;
      check_bool "applies cleanly" true (Journal.apply_record m r))
    (Journal.records_from j ~from:0);
  check_string "replayed state matches primary" (dump_of (Broker.manager b))
    (dump_of m);
  Journal.close j

let test_append_raw_resume () =
  let dir1 = fresh_dir () and dir2 = fresh_dir () in
  let b, j1 = journaled_broker dir1 in
  commit b 1 zoo_frame;
  commit b 1 "add attribute name : string to Animal@Zoo;";
  let r2 = Journal.recover ~dir:dir2 () in
  let j2 = r2.Journal.journal in
  List.iter
    (fun (seq, text) ->
      let r = Journal.parse_record text in
      check_bool "applies" true (Journal.apply_record r2.Journal.manager r);
      Journal.append_raw j2 ~seq ~text ())
    (Journal.records_from j1 ~from:0);
  check_int "replica seq" 2 (Journal.seq j2);
  check_string "byte-identical journals"
    (read_file (Journal.journal_path ~dir:dir1))
    (read_file (Journal.journal_path ~dir:dir2));
  (* gaps and duplicates are refused *)
  (match Journal.append_raw j2 ~seq:5 ~text:"begin 5\ncommit 5\n" () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "sequence gap accepted");
  Journal.close j1;
  Journal.close j2;
  (* a replica restart resumes from its own journal *)
  let r3 = Journal.recover ~dir:dir2 () in
  check_int "resumes at 2" 2 (Journal.seq r3.Journal.journal);
  check_string "replayed replica state" (dump_of (Broker.manager b))
    (dump_of r3.Journal.manager);
  Journal.close r3.Journal.journal

(* A shipped record must pass the same checks recovery applies: a line
   the CRC does not cover — between [crc] and [commit], or after
   [commit] — is refused by the parser and by the replica's applier, and
   the replica's position, state and journal bytes stay where they were.
   A replica that applied such a record would append it verbatim and cut
   it off again at its own next restart. *)
let test_uncovered_lines_refused () =
  let pdir = fresh_dir () and rdir = fresh_dir () in
  let b, j = journaled_broker pdir in
  commit b 1 zoo_frame;
  commit b 1 "add attribute name : string to Animal@Zoo;";
  let records = Journal.records_from j ~from:0 in
  let r = Journal.recover ~dir:rdir () in
  check_int "a fresh journal truncates nothing" 0 r.Journal.truncated_bytes;
  let replica =
    Broker.create ~journal:r.Journal.journal ~read_only:"primary:0"
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let applier = Applier.create replica in
  Applier.apply_record applier ~seq:1 ~text:(List.assoc 1 records);
  let good = List.assoc 2 records in
  let smuggled = "add Type(\"tid_999\", \"Smuggled\", \"sid_1\")\n" in
  let commit_at = String.length good - String.length "commit 2\n" in
  let bad =
    [
      ( "line between crc and commit",
        String.sub good 0 commit_at ^ smuggled ^ "commit 2\n" );
      ("line after commit", good ^ smuggled);
    ]
  in
  let rpath = Journal.journal_path ~dir:rdir in
  let bytes0 = read_file rpath and digest0 = Broker.state_digest replica in
  check_bool "replica has a digest" true (digest0 <> None);
  List.iter
    (fun (what, text) ->
      (match Journal.parse_record text with
      | exception Journal.Corrupt _ -> ()
      | _ -> Alcotest.failf "parse_record accepted a %s" what);
      (match Applier.apply_record applier ~seq:2 ~text with
      | exception _ -> ()
      | () -> Alcotest.failf "the applier accepted a %s" what);
      check_int (what ^ ": position") 1 (Applier.position applier);
      check_bool (what ^ ": state") true
        (Broker.state_digest replica = digest0);
      check_string (what ^ ": journal bytes") bytes0 (read_file rpath))
    bad;
  (* the genuine record still applies *)
  Applier.apply_record applier ~seq:2 ~text:good;
  check_int "genuine record applied" 2 (Applier.position applier);
  check_bool "converged" true
    (Broker.state_digest replica = Broker.state_digest b);
  Journal.close j;
  Journal.close r.Journal.journal

(* A method whose string literal holds non-ASCII bytes, a tab and a
   carriage return keeps its body through a replica's apply of the
   [code] record, a checkpoint's head, a recovery from that head, and a
   replica's bootstrap from it: each re-lexes the printed body. *)
let test_literals_survive_the_journal () =
  let pdir = fresh_dir () and rdir = fresh_dir () in
  let b, j = journaled_broker pdir in
  let literal = {|"caf\195\169\t\r"|} in
  commit b 1 zoo_frame;
  commit b 1
    ("schema Shop is type Item is [ label : string; ] operations declare \
      greet : () -> string; implementation define greet() is begin return \
      \"caf\xc3\xa9\\t\\r\"; end greet; end type Item; end schema Shop;");
  let primary = dump_of (Broker.manager b) in
  check_bool "the body holds the literal" true (contains primary literal);
  (* a replica applies the code record *)
  let r = Journal.recover ~dir:rdir () in
  let replica =
    Broker.create ~journal:r.Journal.journal ~read_only:"primary:0"
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let applier = Applier.create replica in
  List.iter
    (fun (seq, text) -> Applier.apply_record applier ~seq ~text)
    (Journal.records_from j ~from:0);
  check_string "replica applied the same body" primary
    (dump_of (Broker.manager replica));
  (* a checkpoint renders it into the head; recovery re-lexes it *)
  Journal.checkpoint j (Broker.manager b);
  let snapshot = Option.get (Journal.read_snapshot j) in
  Journal.close j;
  let r2 = Journal.recover ~dir:pdir () in
  check_bool "recovered from the head" true r2.Journal.from_snapshot;
  check_string "recovered the same body" primary (dump_of r2.Journal.manager);
  Journal.close r2.Journal.journal;
  (* a replica bootstrapping from that head *)
  Applier.install_snapshot applier ~seq:2 ~text:snapshot;
  check_string "bootstrapped the same body" primary
    (dump_of (Broker.manager replica));
  Journal.close r.Journal.journal

(* The digest covers the code a dump carries, and only that: a replica
   caught up through the journal, and one bootstrapped from a snapshot,
   match a primary that defined a method. *)
let test_digest_with_a_method () =
  let pdir = fresh_dir () and rdir = fresh_dir () in
  let b, j = journaled_broker pdir in
  commit b 1 zoo_frame;
  commit b 1
    "schema Shop is type Item is [ label : string; ] operations declare \
     greet : () -> string; implementation define greet() is begin return \
     \"hi\"; end greet; end type Item; end schema Shop;";
  (* the redefinition leaves the first body in the code table, named by
     no fact: a snapshot does not carry it *)
  commit b 1 "set code of greet of Item@Shop is begin return \"bye\"; end;";
  let r = Journal.recover ~dir:rdir () in
  let replica =
    Broker.create ~journal:r.Journal.journal ~read_only:"primary:0"
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let applier = Applier.create replica in
  List.iter
    (fun (seq, text) -> Applier.apply_record applier ~seq ~text)
    (Journal.records_from j ~from:0);
  let primary = Broker.state_digest b in
  check_bool "the primary has a digest" true (primary <> None);
  check_bool "caught up through the journal" true
    (Broker.state_digest replica = primary);
  Journal.checkpoint j (Broker.manager b);
  Applier.install_snapshot applier ~seq:(Journal.seq j)
    ~text:(Option.get (Journal.read_snapshot j));
  check_bool "bootstrapped from a snapshot" true
    (Broker.state_digest replica = primary);
  Journal.close j;
  Journal.close r.Journal.journal

let test_install_snapshot () =
  let dir1 = fresh_dir () and dir2 = fresh_dir () in
  let b, j1 = journaled_broker ~checkpoint_every:1 dir1 in
  commit b 1 zoo_frame;
  commit b 1 "add attribute name : string to Animal@Zoo;";
  let snapshot =
    match Journal.read_snapshot j1 with
    | Some s -> s
    | None -> Alcotest.fail "checkpointed journal has no snapshot"
  in
  let r2 = Journal.recover ~dir:dir2 () in
  Journal.install_snapshot r2.Journal.journal ~seq:(Journal.seq j1)
    ~text:snapshot;
  check_int "seq adopted" 2 (Journal.seq r2.Journal.journal);
  check_int "base adopted" 2 (Journal.base r2.Journal.journal);
  Journal.close r2.Journal.journal;
  let r3 = Journal.recover ~dir:dir2 () in
  check_bool "recovers from installed snapshot" true r3.Journal.from_snapshot;
  check_int "position kept" 2 (Journal.seq r3.Journal.journal);
  check_string "state matches primary" (dump_of (Broker.manager b))
    (dump_of r3.Journal.manager);
  Journal.close j1;
  Journal.close r3.Journal.journal

(* ------------------------------------------------------------------ *)
(* Broker: bytes-cap checkpointing, read-only mode, rollback metrics   *)
(* ------------------------------------------------------------------ *)

(* A replica's read-after-apply: records arrive through the applier and a
   cache-miss query follows each (the apply moved the version).  The first
   query builds the whole maintained program; every later one reads it,
   evaluating no rule, and answers what a fresh materialization of the
   replica's state answers. *)
let test_reads_after_applies_evaluate_nothing () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  List.iter (commit b 1)
    (scripts
    @ [
        "delete attribute name from Animal@Zoo;";
        "add attribute name : string to Animal@Zoo;";
        "add type Visitor to Zoo supertype Keeper@Zoo;";
      ]);
  let replica =
    Broker.create ~read_only:"primary:0" ~metrics:(Metrics.create ())
      (Manager.create ())
  in
  let applier = Applier.create replica in
  let text = "Attr_i(T, A, D), Type(T, N, S)" in
  let fresh_body () =
    let m = Broker.manager replica in
    let answers =
      Manager.query_text
        ~materialized:
          (Datalog.Checker.materialize (Manager.theory m) (Manager.database m))
        m text
    in
    List.map
      (fun bindings ->
        "  "
        ^ String.concat ", "
            (List.map
               (fun (v, c) ->
                 Printf.sprintf "%s = %s" v (Datalog.Term.const_to_string c))
               bindings))
      answers
    @ [ Printf.sprintf "%d answer(s)." (List.length answers) ]
  in
  List.iter
    (fun (seq, record) ->
      Applier.apply_record applier ~seq ~text:record;
      let events = ref [] in
      let resp =
        Obs.Profile.with_scope ~collect:events (fun () ->
            Broker.handle replica ~client:2 (Protocol.Query text))
      in
      let what = Printf.sprintf "record %d" seq in
      expect_ok what resp;
      let rule_rows =
        List.filter (fun e -> e.Obs.Profile.ev_stratum >= 0) !events
      in
      if seq = 1 then check_bool "first read builds" true (rule_rows <> [])
      else check_int (what ^ ": no rule evaluated") 0 (List.length rule_rows);
      Alcotest.(check (list string)) (what ^ ": fresh answer") (fresh_body ())
        resp.Protocol.body)
    (Journal.records_from j ~from:0);
  check_int "every record applied" (Journal.seq j) (Applier.position applier);
  Journal.close j

let test_bytes_cap_checkpoints () =
  let dir = fresh_dir () in
  (* the count trigger can never fire; the one-byte size cap always does *)
  let b, j = journaled_broker ~checkpoint_every:1000 ~checkpoint_bytes:1 dir in
  commit b 1 zoo_frame;
  check_int "checkpointed by size" 1
    (Metrics.counter (Broker.metrics b) "checkpoints");
  (* the snapshot heads the other segment, written inside the commit *)
  check_string "switched segments" (Journal.alt_path ~dir) (Journal.live_path j);
  check_bool "snapshot written" true (Journal.read_snapshot j <> None);
  check_int "journal reset" 0 (Journal.since_checkpoint j);
  check_int "no record bytes after the head" 0 (Journal.bytes j);
  Journal.close j

(* The byte cap counts the records after a head, not the head: a base
   larger than the cap checkpoints when its records reach the cap, not on
   every commit. *)
let test_bytes_cap_counts_records () =
  let dir = fresh_dir () in
  let cap = 1500 in
  let b, j = journaled_broker ~checkpoint_every:1000 ~checkpoint_bytes:cap dir in
  commit b 1
    (Printf.sprintf
       "schema Zoo is type Animal is [ %s ] end type Animal; end schema Zoo;"
       (String.concat " "
          (List.init 40 (Printf.sprintf "attribute_number_%d : int;"))));
  let checkpoints () = Metrics.counter (Broker.metrics b) "checkpoints" in
  check_int "the large first record checkpoints" 1 (checkpoints ());
  let head = String.length (Option.get (Journal.read_snapshot j)) in
  check_bool (Printf.sprintf "the head (%d bytes) exceeds the cap" head) true
    (head > cap);
  let small = ref 0 in
  while Journal.bytes j + 400 < cap && !small < 10 do
    incr small;
    commit b 1 (Printf.sprintf "add attribute extra%d : int to Animal@Zoo;" !small)
  done;
  check_bool "several small commits" true (!small >= 2);
  check_int "none of them checkpointed" 1 (checkpoints ());
  check_int "their records count" !small (Journal.since_checkpoint j);
  while checkpoints () = 1 && !small < 40 do
    incr small;
    commit b 1 (Printf.sprintf "add attribute extra%d : int to Animal@Zoo;" !small)
  done;
  check_int "the cap reached by records checkpoints" 0 (Journal.bytes j);
  Journal.close j

let test_read_only_refuses_writers () =
  let b =
    Broker.create ~read_only:"10.0.0.1:7643" ~acquire_timeout:0.05
      ~metrics:(Metrics.create ())
      (Manager.create ())
  in
  List.iter
    (fun (what, req) ->
      let reason = expect_err what (Broker.handle b ~client:1 req) in
      check_bool (what ^ " redirects") true (contains reason "10.0.0.1:7643"))
    [
      ("bes", Protocol.Bes);
      ("ees", Protocol.Ees);
      ("rollback", Protocol.Rollback);
      ("script-line", Protocol.Script_line zoo_frame);
    ];
  check_int "refusals counted" 4
    (Metrics.counter (Broker.metrics b) "read_only_refusals");
  (* reads still work *)
  expect_ok "check" (Broker.handle b ~client:1 Protocol.Check);
  expect_ok "dump" (Broker.handle b ~client:1 Protocol.Dump);
  expect_ok "stats" (Broker.handle b ~client:1 Protocol.Stats)

let test_disconnect_rollback_metric () =
  let b =
    Broker.create ~acquire_timeout:0.05 ~metrics:(Metrics.create ())
      (Manager.create ())
  in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  Broker.disconnect b ~client:1;
  check_int "disconnect rollback counted" 1
    (Metrics.counter (Broker.metrics b) "disconnect_rollbacks");
  Broker.disconnect b ~client:2;
  check_int "idle disconnect not counted" 1
    (Metrics.counter (Broker.metrics b) "disconnect_rollbacks")

(* ------------------------------------------------------------------ *)
(* Epochs, fencing, promotion, orphaned suffixes                       *)
(* ------------------------------------------------------------------ *)

let test_epoch_persists () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  commit b 1 zoo_frame;
  check_int "starts at epoch 0" 0 (Journal.epoch j);
  (* adopt a higher epoch the way a replica's feed thread would *)
  Broker.note_feed_epoch b ~epoch:3;
  check_int "advanced" 3 (Journal.epoch j);
  (* the next commit is stamped with the new epoch *)
  commit b 1 "add attribute name : string to Animal@Zoo;";
  let r2 = Journal.parse_record (List.assoc 2 (Journal.records_from j ~from:1)) in
  check_int "record carries the epoch" 3 r2.Journal.r_epoch;
  Journal.close j;
  let r = Journal.recover ~dir () in
  check_int "epoch survives restart" 3 (Journal.epoch r.Journal.journal);
  check_bool "not fenced" false (Journal.fenced r.Journal.journal);
  check_int "records survive too" 2 (Journal.seq r.Journal.journal);
  (* a checkpoint folds the epoch into the fresh journal header *)
  Journal.checkpoint r.Journal.journal r.Journal.manager;
  Journal.close r.Journal.journal;
  let r2 = Journal.recover ~dir () in
  check_int "epoch survives checkpoint" 3 (Journal.epoch r2.Journal.journal);
  check_int "seq survives checkpoint" 2 (Journal.seq r2.Journal.journal);
  Journal.close r2.Journal.journal

let test_append_side_fencing () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  commit b 1 zoo_frame;
  (match Broker.fence b ~epoch:5 ~source:"test" with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "fence refused: %s" reason);
  check_string "role" "fenced" (Broker.role b);
  let reason = expect_err "bes on fenced node" (Broker.handle b ~client:2 Protocol.Bes) in
  check_bool "reason says fenced" true (contains reason "fenced");
  (* a stale fence (same epoch again) is refused *)
  (match Broker.fence b ~epoch:5 ~source:"test" with
  | Ok () -> Alcotest.fail "stale fence accepted"
  | Error _ -> ());
  (* the append-side gate holds even below the broker: a commit stamped
     with an older epoch must not produce bytes *)
  (match
     Journal.append j ~epoch:4 ~ids:(Gom.Ids.create ()) ~code:[]
       Datalog.Delta.empty
   with
  | exception Journal.Fenced { record_epoch = 4; journal_epoch = 5 } -> ()
  | exception e -> raise e
  | _ -> Alcotest.fail "stale-epoch append accepted");
  Journal.close j;
  (* the fence survives a restart *)
  let b2, j2 = journaled_broker dir in
  check_string "role after restart" "fenced" (Broker.role b2);
  check_int "epoch after restart" 5 (Broker.epoch b2);
  let reason = expect_err "bes after restart" (Broker.handle b2 ~client:1 Protocol.Bes) in
  check_bool "still fenced" true (contains reason "fenced");
  Journal.close j2

let test_promote_flips_writer () =
  let dir = fresh_dir () in
  (* build a primary, commit, reopen the same data dir as a replica *)
  let b0, j0 = journaled_broker dir in
  commit b0 1 zoo_frame;
  Journal.close j0;
  let r = Journal.recover ~dir () in
  let b =
    Broker.create ~journal:r.Journal.journal ~read_only:"old:1" ~metrics:(Metrics.create ())
      r.Journal.manager
  in
  let _ = expect_err "writers refused pre-promotion" (Broker.handle b ~client:1 Protocol.Bes) in
  (match Broker.promote b with
  | Ok (epoch, seq) ->
      check_int "promoted epoch" 1 epoch;
      check_int "seal seq" 1 seq
  | Error reason -> Alcotest.failf "promote refused: %s" reason);
  check_string "role" "primary" (Broker.role b);
  (* writes flow, stamped with the new epoch *)
  commit b 1 "add attribute name : string to Animal@Zoo;";
  check_int "journal epoch" 1 (Journal.epoch r.Journal.journal);
  (match Broker.promote b with
  | Ok _ -> Alcotest.fail "second promote accepted"
  | Error _ -> ());
  Journal.close r.Journal.journal;
  (* the promotion is durable *)
  let r2 = Journal.recover ~dir () in
  check_int "epoch survives restart" 1 (Journal.epoch r2.Journal.journal);
  check_int "both records there" 2 (Journal.seq r2.Journal.journal);
  Journal.close r2.Journal.journal

(* recover the directory afresh and dump what replays: the reference
   state an orphaned journal must still reproduce *)
let fresh_manager_dump dir =
  let r = Journal.recover ~dir () in
  let s = dump_of r.Journal.manager in
  Journal.close r.Journal.journal;
  s

let test_orphan_suffix () =
  let dir = fresh_dir () in
  let b, j = journaled_broker dir in
  List.iter (commit b 1) scripts;
  check_int "4 records" 4 (Journal.seq j);
  let cut = Journal.orphan_suffix j ~seal:2 in
  check_int "2 records orphaned" 2 cut;
  check_int "seq rewound" 2 (Journal.seq j);
  let orphaned = read_file (Journal.orphaned_path ~dir) in
  check_bool "orphan file holds record 3" true (contains orphaned "begin 3");
  check_bool "orphan file holds record 4" true (contains orphaned "begin 4");
  check_bool "orphan file says why" true (contains orphaned "# orphaned 2 record(s) past seal 2");
  check_bool "journal no longer holds record 3" false
    (contains (read_file (Journal.journal_path ~dir)) "begin 3");
  (* the reloaded manager matches an independent replay to the seal *)
  let m = Journal.reload j in
  let expect = fresh_manager_dump dir in
  check_string "reloaded state = sealed state" expect (dump_of m);
  (* appends continue from the seal *)
  Broker.replace_manager b m;
  commit b 1 "add type Keeper to Zoo;";
  check_int "next seq after seal" 3 (Journal.seq j);
  Journal.close j

(* ------------------------------------------------------------------ *)
(* A live primary + replica pair                                       *)
(* ------------------------------------------------------------------ *)

(* Run [spawn ~on_listen] and wait for the listener it starts to report
   its port. *)
let await_port spawn =
  let port = ref 0 in
  let ready = Mutex.create () and cond = Condition.create () in
  spawn ~on_listen:(fun p ->
      Mutex.lock ready;
      port := p;
      Condition.signal cond;
      Mutex.unlock ready);
  Mutex.lock ready;
  while !port = 0 do
    Condition.wait cond ready
  done;
  Mutex.unlock ready;
  !port

let serve_router router =
  await_port (fun ~on_listen ->
      ignore
        (Thread.create
           (fun () ->
             Daemon.serve ~on_listen ~router
               { Daemon.default_config with Daemon.port = 0 })
           ()))

(* A journaled primary broker behind a daemon: the broker and its port. *)
let start_primary dir =
  let r = Journal.recover ~dir () in
  let broker =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.5
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  (broker, serve_router (Daemon.broker_router broker))

let open_conn port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock, sock)

let rpc conn line =
  let _, oc, _ = conn in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let ic, _, _ = conn in
  Protocol.read_response ic

let commit_over port script =
  let c = open_conn port in
  expect_ok "bes" (rpc c "bes");
  expect_ok "script" (rpc c ("script-line " ^ script));
  expect_ok "ees" (rpc c "ees");
  expect_ok "quit" (rpc c "quit");
  Unix.close (let _, _, s = c in s)

let wait_until ?(timeout = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_live_replication () =
  let pdir = fresh_dir () in
  let _, port = start_primary pdir in
  (* two commits before the replica exists: it must catch up from the log *)
  commit_over port zoo_frame;
  commit_over port "add attribute name : string to Animal@Zoo;";
  let r =
    Replica.start
      {
        Replica.default_config with
        Replica.primary_port = port;
        port = 0;
        data_dir = None;
      }
  in
  let a = Replica.applier r in
  wait_until "catch-up" (fun () -> Applier.position a = 2);
  (* a commit while the replica is attached streams straight through *)
  commit_over port "add type Keeper to Zoo;";
  wait_until "live tail" (fun () -> Applier.position a = 3);
  check_int "no lag" 0 (Applier.lag a);
  let rb = Replica.broker r in
  let primary_dump =
    let c = open_conn port in
    let d = rpc c "dump" in
    expect_ok "primary dump" d;
    expect_ok "quit" (rpc c "quit");
    Unix.close (let _, _, s = c in s);
    String.concat "\n" d.Protocol.body
  in
  let replica_dump =
    let d = Broker.handle rb ~client:99 Protocol.Dump in
    expect_ok "replica dump" d;
    String.concat "\n" d.Protocol.body
  in
  check_string "replica dump matches primary" primary_dump replica_dump;
  (* the replica's stats expose the replication position *)
  let stats = Broker.handle rb ~client:99 Protocol.Stats in
  expect_ok "replica stats" stats;
  check_bool "lag gauge exported" true
    (List.exists
       (fun l -> contains l "gauge replica_lag_records 0")
       stats.Protocol.body);
  (* writer verbs are refused with a redirect to the primary *)
  let reason = expect_err "bes" (Broker.handle rb ~client:99 Protocol.Bes) in
  check_bool "redirect names primary" true
    (contains reason (Printf.sprintf "127.0.0.1:%d" port))

(* The checkpoint caps belong to the data directory's journal, not to the
   node's role: a replica started with [checkpoint_every = 2] keeps
   checkpointing every two records once it is promoted to the writer. *)
let test_promoted_replica_keeps_caps () =
  let _, port = start_primary (fresh_dir ()) in
  commit_over port zoo_frame;
  let r =
    Replica.start
      {
        Replica.default_config with
        Replica.primary_port = port;
        port = 0;
        data_dir = Some (fresh_dir ());
        checkpoint_every = 2;
      }
  in
  wait_until "catch-up" (fun () -> Applier.position (Replica.applier r) = 1);
  (match Replica.promote r with
  | Ok _ -> ()
  | Error reason -> Alcotest.failf "promote refused: %s" reason);
  let rb = Replica.broker r in
  commit rb 1 "add attribute name : string to Animal@Zoo;";
  commit rb 1 "add type Keeper to Zoo;";
  let j = Option.get (Broker.journal rb) in
  check_int "both commits journaled" 3 (Journal.seq j);
  check_bool
    (Printf.sprintf "promoted writer checkpoints at the replica's cap (base %d)"
       (Journal.base j))
    true
    (Journal.base j >= 2)

let replica_of ?on_listen ?data_dir port =
  Replica.start ?on_listen
    {
      Replica.default_config with
      Replica.primary_port = port;
      port = 0;
      data_dir;
    }

(* The primary's scrape reads the subscriber table live: the replication
   gauges are there with no [stats] request, and a feed that went away is
   gone from the next scrape. *)
let test_scrape_reads_live_gauges () =
  let broker, port = start_primary (fresh_dir ()) in
  commit_over port zoo_frame;
  let r = replica_of port in
  wait_until "catch-up" (fun () -> Applier.position (Replica.applier r) = 1);
  let scraped series =
    contains
      (Obs.Export.render (Broker.export ~labels:[ ("db", "default") ] broker))
      (series ^ "\n")
  in
  wait_until "subscriber and lag scraped" (fun () ->
      scraped "gomsm_feed_subscribers{db=\"default\"} 1"
      && scraped "gomsm_replication_lag_records{db=\"default\"} 0");
  (* promotion stops the replica's feed *)
  (match Replica.promote r with
  | Ok _ -> ()
  | Error reason -> Alcotest.failf "promote refused: %s" reason);
  wait_until "subscriber gone from the scrape" (fun () ->
      scraped "gomsm_feed_subscribers{db=\"default\"} 0")

(* [db stat] has one body: a replica lists the same keys as the registry
   primary it mirrors, which only adds its data directory's [path]. *)
let test_db_stat_same_keys () =
  let reg =
    Tenant.Registry.create
      { Tenant.Registry.default_config with data_dir = Some (fresh_dir ()) }
  in
  let port = serve_router (Tenant.Registry.router reg) in
  commit_over port zoo_frame;
  let r = ref None in
  let rport =
    await_port (fun ~on_listen ->
        r := Some (replica_of ~on_listen ~data_dir:(fresh_dir ()) port))
  in
  wait_until "catch-up" (fun () ->
      Applier.position (Replica.applier (Option.get !r)) = 1);
  let keys port =
    let c = open_conn port in
    let resp = rpc c "db stat default" in
    expect_ok "db stat" resp;
    expect_ok "quit" (rpc c "quit");
    Unix.close (let _, _, s = c in s);
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | "path" :: _ -> None
        | k :: _ -> Some k
        | [] -> None)
      resp.Protocol.body
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "replica db stat keys = primary's" (keys port) (keys rport)

(* ------------------------------------------------------------------ *)
(* Evaluation-strategy equivalence (the replica's correctness bedrock) *)
(* ------------------------------------------------------------------ *)

(* The replica maintains its materialization with Incremental.apply; the
   primary's checker settles the same state semi-naively.  All strategies —
   semi-naive (with and without the join planner), naive, and DRed
   maintenance over a replayed delta sequence — must agree fact-for-fact. *)

let v = Datalog.Term.var
let atom = Datalog.Atom.make
let fact p args =
  Datalog.Fact.make p (List.map Datalog.Term.symc args)

let tc_rules =
  [
    Datalog.Rule.make (atom "t" [ v "X"; v "Y" ])
      [ Datalog.Rule.Pos (atom "e" [ v "X"; v "Y" ]) ];
    Datalog.Rule.make
      (atom "t" [ v "X"; v "Z" ])
      [
        Datalog.Rule.Pos (atom "e" [ v "X"; v "Y" ]);
        Datalog.Rule.Pos (atom "t" [ v "Y"; v "Z" ]);
      ];
    Datalog.Rule.make (atom "looped" [ v "X" ])
      [ Datalog.Rule.Pos (atom "t" [ v "X"; v "X" ]) ];
    Datalog.Rule.make (atom "leaf" [ v "X" ])
      [
        Datalog.Rule.Pos (atom "e" [ v "Y"; v "X" ]);
        Datalog.Rule.Neg (atom "src" [ v "X" ]);
      ];
    Datalog.Rule.make (atom "src" [ v "X" ])
      [ Datalog.Rule.Pos (atom "e" [ v "X"; v "Y" ]) ];
  ]

let eval_theory () =
  let t = Datalog.Theory.create () in
  Datalog.Theory.declare_predicate t ~name:"e" ~columns:[ "x"; "y" ];
  Datalog.Theory.add_rules t tc_rules;
  t

let derived = [ "t"; "looped"; "leaf"; "src" ]

let sorted_facts db pred =
  List.sort compare
    (List.map Datalog.Fact.to_string (Datalog.Database.facts db pred))

let same_materialization a b =
  List.for_all (fun p -> sorted_facts a p = sorted_facts b p) derived

let edge (x, y) = fact "e" [ string_of_int x; string_of_int y ]

let db_with edges =
  let db = Datalog.Database.create () in
  List.iter (fun e -> ignore (Datalog.Database.add db (edge e))) edges;
  db

(* Interpret a step list as the session deltas a replica would replay. *)
let prop_three_strategies_agree =
  QCheck.Test.make ~count:60
    ~name:"semi-naive = naive = incremental replay = planner off"
    QCheck.(
      pair
        (small_list (pair (int_bound 5) (int_bound 5)))
        (small_list (small_list (pair (pair bool (int_bound 5)) (int_bound 5)))))
    (fun (initial, sessions) ->
      (* replica path: init on the initial edges, then apply each session's
         delta through DRed maintenance *)
      let t = eval_theory () in
      let inc_db = db_with initial in
      let state = Datalog.Incremental.init t inc_db in
      let final_edges =
        List.fold_left
          (fun edges session ->
            let adds =
              List.filter_map
                (fun ((add, x), y) -> if add then Some (x, y) else None)
                session
            and dels =
              List.filter_map
                (fun ((add, x), y) -> if add then None else Some (x, y))
                session
            in
            let delta =
              Datalog.Delta.of_lists
                ~additions:(List.map edge adds)
                ~deletions:(List.map edge dels)
            in
            ignore (Datalog.Incremental.apply state delta);
            (* deletions land before additions, as in Delta.apply *)
            let kept = List.filter (fun e -> not (List.mem e dels)) edges in
            kept @ List.filter (fun e -> not (List.mem e kept)) adds)
          initial sessions
      in
      let maintained = Datalog.Incremental.materialized state in
      (* from-scratch paths over the same final extensional state *)
      let prepared = Datalog.Eval.prepare tc_rules in
      let semi = db_with final_edges in
      Datalog.Eval.run prepared semi;
      let naive = db_with final_edges in
      Datalog.Eval.run_naive prepared naive;
      (* and once more with the cost-based planner disabled: the plan must
         never change what is derived, only how fast *)
      let unplanned = db_with final_edges in
      let saved = !Datalog.Plan.use_planner in
      Datalog.Plan.use_planner := false;
      Fun.protect
        ~finally:(fun () -> Datalog.Plan.use_planner := saved)
        (fun () ->
          Datalog.Eval.run (Datalog.Eval.prepare tc_rules) unplanned);
      same_materialization semi naive
      && same_materialization semi maintained
      && same_materialization semi unplanned)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "replica.journal",
      [
        Tmp_dirs.test_case "global seq across checkpoints" `Quick
          test_global_seq_across_checkpoints;
        Tmp_dirs.test_case "records_from ships exact bytes" `Quick
          test_records_from_exact_bytes;
        Tmp_dirs.test_case "parse+apply replays a record stream" `Quick
          test_parse_and_apply_record;
        Tmp_dirs.test_case "append_raw mirrors and resumes" `Quick
          test_append_raw_resume;
        Tmp_dirs.test_case "uncovered record lines refused" `Quick
          test_uncovered_lines_refused;
        Tmp_dirs.test_case "install_snapshot bootstraps" `Quick
          test_install_snapshot;
        Tmp_dirs.test_case "string literals survive the journal" `Quick
          test_literals_survive_the_journal;
        Tmp_dirs.test_case "digest covers a method" `Quick
          test_digest_with_a_method;
      ] );
    ( "replica.broker",
      [
        Tmp_dirs.test_case "bytes cap forces checkpoint" `Quick
          test_bytes_cap_checkpoints;
        Tmp_dirs.test_case "bytes cap counts records, not the head" `Quick
          test_bytes_cap_counts_records;
        Tmp_dirs.test_case "read-only broker refuses writers" `Quick
          test_read_only_refuses_writers;
        Tmp_dirs.test_case "disconnect rollback counted" `Quick
          test_disconnect_rollback_metric;
        Tmp_dirs.test_case "reads after applies evaluate nothing" `Quick
          test_reads_after_applies_evaluate_nothing;
      ] );
    ( "replica.failover",
      [
        Tmp_dirs.test_case "epoch persists across restarts" `Quick
          test_epoch_persists;
        Tmp_dirs.test_case "fencing refuses appends and survives restart"
          `Quick test_append_side_fencing;
        Tmp_dirs.test_case "promote flips a replica into the writer" `Quick
          test_promote_flips_writer;
        Tmp_dirs.test_case "orphan_suffix preserves the divergent tail"
          `Quick test_orphan_suffix;
      ] );
    ( "replica.live",
      [
        Tmp_dirs.test_case "primary feeds a replica" `Quick
          test_live_replication;
        Tmp_dirs.test_case "promoted replica keeps its data dir's caps"
          `Quick test_promoted_replica_keeps_caps;
        Tmp_dirs.test_case "scrape reads live replication gauges" `Quick
          test_scrape_reads_live_gauges;
        Tmp_dirs.test_case "replica db stat keys match the primary's" `Quick
          test_db_stat_same_keys;
      ] );
    ( "replica.eval",
      [ Tmp_dirs.qcheck prop_three_strategies_agree ] );
  ]

let () = Alcotest.run "replica" suite
