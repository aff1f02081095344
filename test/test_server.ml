(* Tests for the schema-service subsystem: wire protocol framing, the
   session broker's single-writer discipline, the write-ahead journal's
   crash recovery (truncate-at-every-byte of the last record), snapshot
   checkpointing, and a live daemon over a localhost socket. *)

module Manager = Core.Manager
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Daemon = Server.Daemon
module Failpoint = Fault.Failpoint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let fresh_dir = Tmp_dirs.fresh ~prefix:"gomsm-test"

let dump_of m =
  Analyzer.Unparse.unparse_script
    (Analyzer.Unparse.make ~db:(Manager.database m)
       ~lookup_code:(Manager.lookup_code m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Bes; Protocol.Ees; Protocol.Rollback; Protocol.Check;
      Protocol.Query "Attr_i(T, A, D)";
      Protocol.Script_line "add attribute a : int to T@S;";
      Protocol.Dump; Protocol.Stats; Protocol.Quit;
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Protocol.request_line r) with
      | Ok r' -> check_bool "roundtrip" true (r = r')
      | Error e -> Alcotest.failf "parse failed: %s" e)
    reqs;
  (match Protocol.parse_request "frobnicate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb accepted");
  (match Protocol.parse_request "bes now" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bes with argument accepted");
  match Protocol.parse_request "  check \r" with
  | Ok Protocol.Check -> ()
  | _ -> Alcotest.fail "whitespace/CR not tolerated"

let response_via_file resp =
  let path = Filename.temp_file "gomsm-proto" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_response oc resp;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Protocol.read_response ic))

let test_response_roundtrip () =
  let resp =
    Protocol.ok [ "plain"; ""; "  indented line"; ". leading dot"; "..two" ]
  in
  let got = response_via_file resp in
  check_bool "ok status" true (got.Protocol.status = Protocol.Ok);
  Alcotest.(check (list string))
    "body with dot-stuffing" resp.Protocol.body got.Protocol.body;
  let e = Protocol.err ~body:[ "detail" ] "multi\nline reason" in
  let got = response_via_file e in
  (match got.Protocol.status with
  | Protocol.Err reason -> check_string "reason" "multi line reason" reason
  | Protocol.Ok -> Alcotest.fail "err status lost");
  Alcotest.(check (list string)) "err body" [ "detail" ] got.Protocol.body

(* ------------------------------------------------------------------ *)
(* Broker                                                              *)
(* ------------------------------------------------------------------ *)

let zoo_frame =
  "schema Zoo is type Animal is [ legs : int; ] end type Animal; end schema \
   Zoo;"

let expect_ok what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok -> ()
  | Protocol.Err reason -> Alcotest.failf "%s failed: %s" what reason

let expect_err what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Err reason -> reason
  | Protocol.Ok -> Alcotest.failf "%s unexpectedly succeeded" what

let mem_broker () =
  Broker.create ~acquire_timeout:0.05 ~metrics:(Metrics.create ())
    (Manager.create ())

(* What another client reads: its [query Type(T, N, S)], [check] and
   [dump] responses. *)
let reads_of b ~client =
  List.map
    (Broker.handle b ~client)
    [ Protocol.Query "Type(T, N, S)"; Protocol.Check; Protocol.Dump ]

let test_single_writer () =
  let b = mem_broker () in
  expect_ok "bes 1" (Broker.handle b ~client:1 Protocol.Bes);
  let reason = expect_err "bes 2" (Broker.handle b ~client:2 Protocol.Bes) in
  check_bool "timeout mentions holder" true (contains reason "client 1");
  check_int "metric" 1 (Metrics.counter (Broker.metrics b) "sessions_timed_out");
  (* the writer finishes; now the slot is free *)
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  expect_ok "bes 2 retry" (Broker.handle b ~client:2 Protocol.Bes);
  check_bool "writer is 2" true (Broker.writer b = Some 2)

let test_reader_while_writer () =
  let b = mem_broker () in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "check from reader" (Broker.handle b ~client:2 Protocol.Check);
  expect_ok "dump from reader" (Broker.handle b ~client:2 Protocol.Dump);
  let r = expect_err "script from reader"
      (Broker.handle b ~client:2 (Protocol.Script_line zoo_frame))
  in
  check_bool "told to bes" true (contains r "bes")

let test_disconnect_rolls_back () =
  let b = mem_broker () in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  Broker.disconnect b ~client:1;
  check_bool "writer freed" true (Broker.writer b = None);
  check_bool "session closed" false (Manager.in_session (Broker.manager b));
  check_bool "zoo rolled back" false (contains (dump_of (Broker.manager b)) "Zoo");
  check_int "metric" 1
    (Metrics.counter (Broker.metrics b) "sessions_rolled_back")

let test_inconsistent_ees_stays_open () =
  let b = mem_broker () in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  (* an attribute on an undefined type violates referential integrity *)
  expect_ok "script"
    (Broker.handle b ~client:1
       (Protocol.Script_line
          "schema Bad is type T is [ x : Missing; ] end type T; end schema \
           Bad;"));
  let resp = Broker.handle b ~client:1 Protocol.Ees in
  let _reason = expect_err "ees" resp in
  check_bool "violations reported" true
    (List.exists (fun l -> contains l "violation:") resp.Protocol.body);
  check_bool "session still open" true (Broker.writer b = Some 1);
  check_bool "the manager holds only committed state" false
    (Manager.in_session (Broker.manager b));
  expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback);
  check_bool "writer freed" true (Broker.writer b = None)

let test_script_line_rejects_markers () =
  let b = mem_broker () in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  let r =
    expect_err "bes-in-script"
      (Broker.handle b ~client:1 (Protocol.Script_line "bes;"))
  in
  check_bool "explains" true (contains r "bes/ees")

(* ------------------------------------------------------------------ *)
(* Reads: one maintained derived state, built by the first read        *)
(* ------------------------------------------------------------------ *)

(* The response body the broker gives for [text], computed from a fresh
   materialization of [m]'s base: the independent reference every broker
   answer must equal. *)
let fresh_query_body m text =
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

(* The [check] response body, from a from-scratch [Checker.check]. *)
let fresh_check_body m =
  match Datalog.Checker.check (Manager.theory m) (Manager.database m) with
  | [] -> [ "consistent." ]
  | violations ->
      List.map
        (fun v ->
          Printf.sprintf "violation: constraint %s violated [%s]"
            v.Datalog.Checker.constraint_name
            (String.concat ", "
               (List.map
                  (fun (var, c) ->
                    Printf.sprintf "%s = %s" var (Datalog.Term.const_to_string c))
                  (Datalog.Checker.witness_bindings v))))
        violations

let query_body b ~client text =
  let resp = Broker.handle b ~client (Protocol.Query text) in
  expect_ok ("query " ^ text) resp;
  resp.Protocol.body

(* A broker request under a collector scope: its response and how many
   rule evaluations (stratum >= 0 rows) it recorded. *)
let with_rule_rows f =
  let events = ref [] in
  let resp = Obs.Profile.with_scope ~collect:events f in
  let rules = List.filter (fun e -> e.Obs.Profile.ev_stratum >= 0) !events in
  (resp, List.length rules, !events)

let zoo_broker () =
  let b =
    Broker.create ~acquire_timeout:0.05 ~metrics:(Metrics.create ())
      (Manager.create ())
  in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  b

let test_snapshot_shared_by_reads () =
  let b = zoo_broker () in
  let body1, rows1, _ =
    with_rule_rows (fun () -> query_body b ~client:2 "Attr_i(T, A, D)")
  in
  check_bool "the first query builds the derived state" true (rows1 > 0);
  let body2, rows2, ev2 =
    with_rule_rows (fun () -> query_body b ~client:2 "Type(T, N, S)")
  in
  check_bool "second query records its body" true (ev2 <> []);
  check_int "second query evaluates no rule" 0 rows2;
  let m = Broker.manager b in
  Alcotest.(check (list string))
    "first answer" (fresh_query_body m "Attr_i(T, A, D)") body1;
  Alcotest.(check (list string))
    "second answer" (fresh_query_body m "Type(T, N, S)") body2;
  let resp, rows, _ =
    with_rule_rows (fun () -> Broker.handle b ~client:2 Protocol.Check)
  in
  expect_ok "check" resp;
  check_int "check reads the same state" 0 rows;
  Alcotest.(check (list string)) "check answer" (fresh_check_body m)
    resp.Protocol.body

(* With nothing read, a constraint cone is retained once two consecutive
   EES need the same one: the first and second such EES evaluate rules
   (from scratch, then in place), the third reads the maintained cone and
   evaluates none.  An EES needing another cone evaluates again.  After a
   read, EES reads the whole maintained state until an EES finds it
   unread since the previous one: that EES drops it and the cones take
   over again. *)
let test_retained_cone_evaluates_nothing () =
  let b = zoo_broker () in
  let ees_rows line =
    expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
    expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line line));
    let _, rows, _ =
      with_rule_rows (fun () ->
          expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees))
    in
    rows
  in
  let add = "add attribute tail : int to Animal@Zoo;"
  and del = "delete attribute tail from Animal@Zoo;" in
  check_bool "first: from scratch" true (ees_rows add > 0);
  check_bool "second: built in place" true (ees_rows del > 0);
  check_int "third: read off the retained cone" 0 (ees_rows add);
  check_int "fourth: still retained" 0 (ees_rows del);
  check_bool "another cone evaluates" true
    (ees_rows "add type Keeper to Zoo;" > 0);
  let m = Broker.manager b in
  Alcotest.(check (list string))
    "verdicts still match a fresh check" (fresh_check_body m)
    (Broker.handle b ~client:2 Protocol.Check).Protocol.body;
  check_int "after a read, EES reads the whole state" 0 (ees_rows add);
  check_bool "unread since the previous EES: the whole state is dropped" true
    (ees_rows del > 0);
  check_int "the cone is retained again" 0 (ees_rows add);
  let _, rows, _ =
    with_rule_rows (fun () -> query_body b ~client:2 "Attr_i(T, A, D)")
  in
  check_bool "a later read builds the whole state again" true (rows > 0);
  Alcotest.(check (list string))
    "verdicts still match a fresh check" (fresh_check_body m)
    (Broker.handle b ~client:2 Protocol.Check).Protocol.body

(* Once read, the derived state is maintained across every kind of
   manager mutation: the next read evaluates no rule and answers what a
   fresh materialization answers.  A replaced manager builds its own. *)
let test_maintained_across_every_mutation () =
  let b = zoo_broker () in
  let text = "Attr_i(T, A, D)" in
  let expect_maintained what =
    let body, rows, _ = with_rule_rows (fun () -> query_body b ~client:9 text) in
    check_int (what ^ ": no rule evaluated") 0 rows;
    Alcotest.(check (list string))
      (what ^ ": fresh answer")
      (fresh_query_body (Broker.manager b) text)
      body
  in
  let script client line =
    expect_ok line (Broker.handle b ~client (Protocol.Script_line line))
  in
  ignore (query_body b ~client:9 text);
  expect_maintained "committed base";
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_maintained "bes";
  script 1 "add attribute name : string to Animal@Zoo;";
  expect_maintained "script-line in a session";
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  expect_maintained "ees";
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  script 1 "add attribute age : int to Animal@Zoo;";
  expect_maintained "second script-line";
  expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback);
  expect_maintained "rollback";
  expect_ok "bes" (Broker.handle b ~client:2 Protocol.Bes);
  script 2 "add attribute weight : int to Animal@Zoo;";
  expect_maintained "third script-line";
  Broker.disconnect b ~client:2;
  expect_maintained "disconnect rollback";
  let other = Manager.create () in
  ignore
    (Manager.run_script other
       "bes; schema Farm is type Cow is [ horns : int; ] end type Cow; end \
        schema Farm; ees;");
  Broker.exclusively b (fun () -> Broker.replace_manager b other);
  let body, rows, _ = with_rule_rows (fun () -> query_body b ~client:9 text) in
  check_bool "replace_manager: the new manager builds its own" true (rows > 0);
  check_bool "answers come from the new manager" true
    (List.exists (fun l -> contains l "horns") body);
  expect_maintained "replace_manager"

(* Seeded random sessions, rollbacks, checks and queries: each broker
   answer equals the fresh-materialization answer, whether the session
   checks before the first read ran off cones or, after it, off the whole
   maintained state. *)
let test_snapshot_answers_match_fresh () =
  let texts =
    [ "Attr_i(T, A, D)"; "Type(T, N, S)"; "Decl_i(X, T, O, R)";
      "Attr_i(T, A, D), Type(T, N, S)" ]
  in
  let rng = Random.State.make [| 2 |] in
  let b = zoo_broker () in
  let m () = Broker.manager b in
  (* which attributes f0..f2 exist now, and at the last commit; slot 3
     is [bad], whose undefined domain makes the state inconsistent *)
  let present = Array.make 4 false and committed = Array.make 4 false in
  let session = ref false in
  let step_label i what = Printf.sprintf "step %d %s" i what in
  let ensure_session () =
    if not !session then begin
      expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
      session := true
    end
  in
  for i = 1 to 360 do
    (* reads start a third of the way in: the first EES run off cones *)
    match Random.State.int rng 8 with
    | 0 | 1 ->
        (* toggle one attribute inside the (possibly new) session *)
        ensure_session ();
        let k = Random.State.int rng (Array.length present) in
        let name, domain =
          if k = 3 then ("bad", "Missing") else (Printf.sprintf "f%d" k, "int")
        in
        let line =
          if present.(k) then Printf.sprintf "delete attribute %s from Animal@Zoo;" name
          else Printf.sprintf "add attribute %s : %s to Animal@Zoo;" name domain
        in
        expect_ok (step_label i line)
          (Broker.handle b ~client:1 (Protocol.Script_line line));
        present.(k) <- not present.(k)
    | 2 when !session ->
        let resp = Broker.handle b ~client:1 Protocol.Ees in
        if present.(3) then
          (* rejected: the session stays open *)
          ignore (expect_err (step_label i "inconsistent ees") resp)
        else begin
          expect_ok (step_label i "ees") resp;
          session := false;
          Array.blit present 0 committed 0 (Array.length present)
        end
    | 3 when !session ->
        expect_ok (step_label i "rollback")
          (Broker.handle b ~client:1 Protocol.Rollback);
        session := false;
        Array.blit committed 0 present 0 (Array.length present)
    | (4 | 5) when i > 120 ->
        let resp = Broker.handle b ~client:2 Protocol.Check in
        expect_ok (step_label i "check") resp;
        Alcotest.(check (list string))
          (step_label i "check") (fresh_check_body (m ())) resp.Protocol.body
    | _ when i > 120 ->
        let text = List.nth texts (Random.State.int rng (List.length texts)) in
        Alcotest.(check (list string))
          (step_label i text) (fresh_query_body (m ()) text)
          (query_body b ~client:2 text)
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Journal: commit, crash, replay                                      *)
(* ------------------------------------------------------------------ *)

(* Run the canonical two-session scenario against a journaled broker and
   return (dump after session 1, dump after session 2, journal dir).
   The journal is deliberately not closed or checkpointed: from the file's
   point of view this *is* the kill -9 between EES-ack and checkpoint. *)
let run_scenario ?(checkpoint_every = 1000) dir =
  let r = Journal.recover ~checkpoint_every ~dir () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  let dump1 = dump_of (Broker.manager b) in
  expect_ok "bes 2" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script 2"
    (Broker.handle b ~client:1
       (Protocol.Script_line "add attribute name : string to Animal@Zoo;"));
  expect_ok "ees 2" (Broker.handle b ~client:1 Protocol.Ees);
  let dump2 = dump_of (Broker.manager b) in
  check_bool "dumps differ" true (dump1 <> dump2);
  (b, dump1, dump2)

let test_recovery_replays_acknowledged_sessions () =
  let dir = fresh_dir () in
  let _, _, dump2 = run_scenario dir in
  (* "restart": recover from the same directory into a fresh manager *)
  let r = Journal.recover ~dir () in
  check_bool "no snapshot involved" false r.Journal.from_snapshot;
  check_int "both records replayed" 2 r.Journal.replayed;
  check_int "nothing truncated" 0 r.Journal.truncated_bytes;
  check_string "exact pre-kill state" dump2 (dump_of r.Journal.manager)

(* A committed fact spelled with a carriage return, a tab and non-ASCII
   bytes replays as it was written. *)
let test_recovery_replays_any_bytes () =
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let b =
    Broker.create ~journal:r.Journal.journal ~metrics:(Metrics.create ())
      r.Journal.manager
  in
  let fact =
    Datalog.Fact.make "Schema"
      [ Datalog.Term.symc "sid_bytes"; Datalog.Term.symc "a\rb\tcaf\xc3\xa9\001" ]
  in
  (* no GOM text spells this fact, so the session goes straight through
     the manager and the journal, as a broker's [ees] does *)
  let m = Broker.manager b in
  Manager.begin_session m;
  Manager.propose m (Datalog.Delta.of_lists ~deletions:[] ~additions:[ fact ]);
  let delta = Manager.session_delta m in
  check_bool "consistent" true (Manager.end_session ~delta m = Manager.Consistent);
  ignore (Journal.append r.Journal.journal ~ids:(Manager.ids m) ~code:[] delta);
  let before = dump_of (Broker.manager b) in
  Broker.close b;
  let r = Journal.recover ~dir () in
  check_int "the record replayed" 1 r.Journal.replayed;
  check_bool "the fact is back, byte for byte" true
    (Datalog.Database.mem (Manager.database r.Journal.manager) fact);
  check_string "same state" before (dump_of r.Journal.manager);
  Journal.close r.Journal.journal

let test_recovery_truncates_torn_tail_every_byte () =
  let dir = fresh_dir () in
  let _, dump1, dump2 = run_scenario dir in
  let text = read_file (Journal.journal_path ~dir) in
  let len = String.length text in
  (* the byte just past record 1's "commit 1\n" *)
  let end1 =
    let rec find i =
      if i + 9 > len then Alcotest.fail "commit 1 not found"
      else if String.sub text i 9 = "commit 1\n" then i + 9
      else find (i + 1)
    in
    find 0
  in
  check_bool "record 2 spans bytes" true (end1 < len);
  (* kill the journal at every byte boundary of the last record: any cut
     before its commit line's newline must replay exactly record 1 *)
  for cut = end1 to len do
    let dir' = fresh_dir () in
    let r0 = Journal.recover ~dir:dir' () in
    Journal.close r0.Journal.journal;
    write_file (Journal.journal_path ~dir:dir') (String.sub text 0 cut);
    let r = Journal.recover ~dir:dir' () in
    let expected_replayed = if cut = len then 2 else 1 in
    let expected_dump = if cut = len then dump2 else dump1 in
    check_int (Printf.sprintf "replayed at cut %d" cut) expected_replayed
      r.Journal.replayed;
    check_string (Printf.sprintf "state at cut %d" cut) expected_dump
      (dump_of r.Journal.manager);
    check_int
      (Printf.sprintf "truncated at cut %d" cut)
      (cut - if cut = len then len else end1)
      r.Journal.truncated_bytes;
    (* recovery repaired the file: a second recovery is clean *)
    Journal.close r.Journal.journal;
    let r2 = Journal.recover ~dir:dir' () in
    check_int (Printf.sprintf "idempotent at cut %d" cut) 0
      r2.Journal.truncated_bytes;
    Journal.close r2.Journal.journal
  done

let test_recovery_survives_garbage_tail () =
  let dir = fresh_dir () in
  let _, _, dump2 = run_scenario dir in
  let path = Journal.journal_path ~dir in
  write_file path (read_file path ^ "begin 3\nthis is not a journal line\n");
  let r = Journal.recover ~dir () in
  check_int "both real records replayed" 2 r.Journal.replayed;
  check_bool "garbage dropped" true (r.Journal.truncated_bytes > 0);
  check_string "state intact" dump2 (dump_of r.Journal.manager)

(* Flip every bit of every byte of the journal body in turn.  The
   per-record CRC covers begin + payload lines, and after a verified crc
   line only the matching commit line may follow, so any single-bit flip
   must stop recovery at the last record before the damage — never
   replay a corrupted record, never lose an intact earlier one. *)
let test_bit_flip_detected_at_every_byte () =
  let dir = fresh_dir () in
  let _, dump1, dump2 = run_scenario dir in
  check_bool "second session differs" true (dump1 <> dump2);
  let text = read_file (Journal.journal_path ~dir) in
  let len = String.length text in
  let header_end = String.index text '\n' + 1 in
  let end1 =
    let rec find i =
      if i + 9 > len then Alcotest.fail "commit 1 not found"
      else if String.sub text i 9 = "commit 1\n" then i + 9
      else find (i + 1)
    in
    find 0
  in
  let fresh_dump =
    let d = fresh_dir () in
    let r = Journal.recover ~dir:d () in
    let s = dump_of r.Journal.manager in
    Journal.close r.Journal.journal;
    s
  in
  for off = header_end to len - 1 do
    for bit = 0 to 7 do
      let flipped = Bytes.of_string text in
      Bytes.set flipped off (Char.chr (Char.code text.[off] lxor (1 lsl bit)));
      let dir' = fresh_dir () in
      let r0 = Journal.recover ~dir:dir' () in
      Journal.close r0.Journal.journal;
      write_file (Journal.journal_path ~dir:dir') (Bytes.to_string flipped);
      let r = Journal.recover ~dir:dir' () in
      let where = Printf.sprintf "byte %d bit %d" off bit in
      let expected_replayed, expected_dump =
        if off < end1 then (0, fresh_dump) else (1, dump1)
      in
      check_int ("replayed after flip at " ^ where) expected_replayed
        r.Journal.replayed;
      check_string ("state after flip at " ^ where) expected_dump
        (dump_of r.Journal.manager);
      check_bool ("flip detected at " ^ where) true
        (r.Journal.truncated_bytes > 0);
      (* the flipped record, as a feed would ship it, gets the same verdict *)
      let first, stop =
        if off < end1 then (header_end, end1) else (end1, len)
      in
      (match
         Journal.parse_record (Bytes.sub_string flipped first (stop - first))
       with
      | exception Journal.Corrupt _ -> ()
      | _ -> Alcotest.failf "parse_record accepted the flip at %s" where);
      Journal.close r.Journal.journal
    done
  done

(* A header whose base is not an integer must refuse recovery loudly:
   silently restarting the global sequence at 0 would let a replica
   resume from the wrong offset. *)
let test_corrupt_header_base_raises () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  write_file (Journal.journal_path ~dir) "# gomsm journal v1 base xyz\n";
  match Journal.recover ~dir () with
  | exception Journal.Corrupt reason ->
      check_bool "names the bad base" true (contains reason "xyz")
  | _ -> Alcotest.fail "recover accepted a non-integer header base"

(* Journals written before per-record CRCs (no [crc] lines) must still
   replay in full. *)
let test_legacy_crc_less_journal_replays () =
  let dir = fresh_dir () in
  let _, _, dump2 = run_scenario dir in
  let path = Journal.journal_path ~dir in
  let stripped =
    read_file path |> String.split_on_char '\n'
    |> List.filter (fun l ->
           String.length l < 4 || String.sub l 0 4 <> "crc ")
    |> String.concat "\n"
  in
  write_file path stripped;
  let r = Journal.recover ~dir () in
  check_int "both records replayed" 2 r.Journal.replayed;
  check_int "nothing truncated" 0 r.Journal.truncated_bytes;
  check_string "exact pre-kill state" dump2 (dump_of r.Journal.manager)

let test_checkpoint_snapshots_and_resets () =
  let dir = fresh_dir () in
  (* checkpoint_every = 1: every commit checkpoints *)
  let b, _, dump2 = run_scenario ~checkpoint_every:1 dir in
  let j = Option.get (Broker.journal b) in
  (* the second checkpoint's head went back into journal.log, over the
     first segment's bytes, with no record after it and no other file *)
  check_string "segments used in turn" (Journal.journal_path ~dir)
    (Journal.live_path j);
  check_bool "the head covers seq 2" true
    (String.starts_with ~prefix:"# gomsm journal v1 base 2 epoch 0 gen 2 head "
       (read_file (Journal.live_path j)));
  check_int "journal reset to its head" 0 (Journal.bytes j);
  check_bool "no snapshot file" false
    (Sys.file_exists (Filename.concat dir "snapshot.gomdb"));
  check_int "checkpoints counted" 2
    (Metrics.counter (Broker.metrics b) "checkpoints");
  let r = Journal.recover ~dir () in
  check_bool "from snapshot" true r.Journal.from_snapshot;
  check_int "nothing to replay" 0 r.Journal.replayed;
  check_int "nothing truncated" 0 r.Journal.truncated_bytes;
  check_string "exact state" dump2 (dump_of r.Journal.manager)

(* The older segment, holding records 1-4, stays beside the head that
   covers them (staged here by writing it back by hand).  Recovery must
   take the head, not replay record 2 over the later state (where it no
   longer applies, so the rest would be cut as a torn tail and sequence
   numbers 2-4 reused). *)
let test_recovery_skips_what_the_snapshot_covers () =
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let j = r.Journal.journal in
  let b =
    Broker.create ~journal:j ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let commit line =
    expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
    expect_ok line (Broker.handle b ~client:1 (Protocol.Script_line line));
    expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees)
  in
  List.iter commit
    [
      "schema S is type Z is [ b : int; ] end type Z; end schema S;";
      "add attribute a : int to Z@S;";
      "delete attribute a from Z@S;";
      "add attribute a : float to Z@S;";
    ];
  let dump = dump_of (Broker.manager b) in
  let path = Journal.journal_path ~dir in
  let old_log = read_file path in
  Journal.checkpoint j (Broker.manager b);
  Journal.close j;
  write_file path old_log;
  let r = Journal.recover ~dir () in
  check_int "no sequence number reused" 4 (Journal.seq r.Journal.journal);
  check_string "exact state" dump (dump_of r.Journal.manager);
  Journal.close r.Journal.journal

let commit_line b line =
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok line (Broker.handle b ~client:1 (Protocol.Script_line line));
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees)

(* A rejected session, a rollback and the writer's own [check] each move
   relation versions — a replay into the manager and its undo — without
   a journal record.  The checkpoint render after them, through the cache
   the previous checkpoint filled, follows the relations' own change logs,
   not the records: the recovered head is a fresh render's bytes. *)
let test_checkpoint_after_unjournaled_changes () =
  let dir = fresh_dir () in
  let r = Journal.recover ~checkpoint_every:2 ~dir () in
  let j = r.Journal.journal in
  let b =
    Broker.create ~journal:j ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let a req = Broker.handle b ~client:1 req in
  List.iter (commit_line b)
    [ zoo_frame; "add attribute name : string to Animal@Zoo;" ];
  check_int "the first checkpoint" 2 (Journal.base j);
  let versions () =
    let db = Manager.database (Broker.manager b) in
    List.map
      (fun p ->
        Option.map Datalog.Relation.version (Datalog.Database.relation_opt db p))
      (Datalog.Database.predicates db)
  in
  let before = versions () in
  expect_ok "bes" (a Protocol.Bes);
  expect_ok "bad"
    (a
       (Protocol.Script_line
          "schema Bad is type T is [ x : Missing; ] end type T; end schema Bad;"));
  ignore (expect_err "rejected ees" (a Protocol.Ees));
  expect_ok "rollback" (a Protocol.Rollback);
  expect_ok "bes" (a Protocol.Bes);
  expect_ok "keeper" (a (Protocol.Script_line "add type Keeper to Zoo;"));
  expect_ok "own check" (a Protocol.Check);
  expect_ok "rollback" (a Protocol.Rollback);
  check_int "no record written" 2 (Journal.seq j);
  check_bool "versions moved" true (versions () <> before);
  List.iter (commit_line b)
    [ "add type Keeper to Zoo;"; "add attribute badge : int to Keeper@Zoo;" ];
  check_int "the second checkpoint" 4 (Journal.base j);
  let fresh = Core.Persist.(contents (render (Broker.manager b))) in
  Broker.close b;
  let r = Journal.recover ~dir () in
  check_bool "head = fresh render" true
    (Journal.read_snapshot r.Journal.journal = Some fresh);
  Journal.close r.Journal.journal

(* One flipped bit in a head that acknowledged records follow fails its
   CRC: recovery refuses rather than fall back to the older segment,
   which lacks those records. *)
let test_snapshot_bit_flip_raises () =
  let dir = fresh_dir () in
  let b, _, _ = run_scenario dir in
  let j = Option.get (Broker.journal b) in
  Journal.checkpoint j (Broker.manager b);
  commit_line b "add type Keeper to Zoo;";
  Journal.close j;
  let path = Journal.live_path j in
  let text = Bytes.of_string (read_file path) in
  (* a byte inside the snapshot text, past the header and snapshot lines *)
  let second = String.index_from (Bytes.to_string text) 0 '\n' + 1 in
  let off = String.index_from (Bytes.to_string text) second '\n' + 20 in
  Bytes.set text off (Char.chr (Char.code (Bytes.get text off) lxor 1));
  write_file path (Bytes.to_string text);
  match Journal.recover ~dir () with
  | exception Journal.Corrupt reason ->
      check_bool "names the crc" true (contains reason "crc");
      check_bool "names the record" true (contains reason "record 3")
  | _ -> Alcotest.fail "recover accepted a head with a flipped bit"

(* The other side of that rule: a head that did not land whole, with no
   record after it, loses nothing acknowledged, so recovery takes the
   older segment, which holds the same state. *)
let test_torn_head_falls_back () =
  let dir = fresh_dir () in
  let b, _, dump2 = run_scenario dir in
  let j = Option.get (Broker.journal b) in
  Journal.checkpoint j (Broker.manager b);
  Journal.close j;
  let path = Journal.live_path j in
  let text = read_file path in
  let len = String.length text in
  let flipped =
    let t = Bytes.of_string text in
    Bytes.set t (len - 5) (Char.chr (Char.code text.[len - 5] lxor 4));
    Bytes.to_string t
  in
  List.iter
    (fun (what, damaged) ->
      write_file path damaged;
      let r = Journal.recover ~dir () in
      check_bool (what ^ ": from the older segment") false
        r.Journal.from_snapshot;
      check_int (what ^ ": seq") 2 (Journal.seq r.Journal.journal);
      check_string (what ^ ": same state") dump2 (dump_of r.Journal.manager);
      Journal.close r.Journal.journal)
    ([ ("bit flip", flipped) ]
    @ List.map
        (fun cut -> (Printf.sprintf "cut at %d" cut, String.sub text 0 cut))
        [ 0; 10; 40; 90; len / 2; len - 1 ]);
  (* the segment it fell back to goes on: a commit and a checkpoint *)
  write_file path (String.sub text 0 (len / 2));
  let r = Journal.recover ~dir () in
  let j = r.Journal.journal in
  let b =
    Broker.create ~journal:j ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  commit_line b "add type Keeper to Zoo;";
  Journal.checkpoint j (Broker.manager b);
  let dump3 = dump_of (Broker.manager b) in
  Journal.close j;
  let r = Journal.recover ~dir () in
  check_int "numbering continued" 3 (Journal.seq r.Journal.journal);
  check_string "state continued" dump3 (dump_of r.Journal.manager);
  Journal.close r.Journal.journal

(* A head written over an older, longer segment leaves NULs, not the old
   records and markers, between its end and the old end of the file: no
   stale line can be replayed after the records that follow the head. *)
let test_switch_overwrites_stale_bytes () =
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let j = r.Journal.journal in
  let b =
    Broker.create ~journal:j ~acquire_timeout:0.05
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  commit_line b zoo_frame;
  for i = 1 to 12 do
    commit_line b (Printf.sprintf "add attribute stale%d : int to Animal@Zoo;" i);
    commit_line b (Printf.sprintf "delete attribute stale%d from Animal@Zoo;" i)
  done;
  Journal.checkpoint j (Broker.manager b);
  let old = read_file (Journal.journal_path ~dir) in
  commit_line b "add type Keeper to Zoo;";
  Journal.checkpoint j (Broker.manager b);
  check_string "back in journal.log" (Journal.journal_path ~dir) (Journal.live_path j);
  let text = read_file (Journal.journal_path ~dir) in
  let head_end =
    let line = String.sub text 0 (String.index text '\n') in
    let n = List.hd (List.rev (String.split_on_char ' ' line)) in
    String.index text '\n' + 1 + int_of_string n
  in
  check_bool "the old segment outran the head" true (String.length old > head_end);
  check_int "the file keeps its size" (String.length old) (String.length text);
  check_bool "NULs past the head" true
    (String.for_all (( = ) '\000')
       (String.sub text head_end (String.length text - head_end)));
  commit_line b "add attribute badge : int to Keeper@Zoo;";
  let dump = dump_of (Broker.manager b) in
  Journal.close j;
  let r = Journal.recover ~dir () in
  check_int "the record past the head replayed" 1 r.Journal.replayed;
  check_int "the NUL run is no torn tail" 0 r.Journal.truncated_bytes;
  check_string "state" dump (dump_of r.Journal.manager);
  Journal.close r.Journal.journal

(* One whole session; [true] iff it was acknowledged.  A failed [ees]
   leaves nothing open behind it. *)
let try_commit b line =
  let ok (r : Protocol.response) = r.Protocol.status = Protocol.Ok in
  ok (Broker.handle b ~client:1 Protocol.Bes)
  &&
  (ignore (Broker.handle b ~client:1 (Protocol.Script_line line));
   let acked = ok (Broker.handle b ~client:1 Protocol.Ees) in
   if not acked then ignore (Broker.handle b ~client:1 Protocol.Rollback);
   acked)

(* A checkpoint crashed at each point of its switch: before the head is
   written, partway through it, with the head written but the switch
   refused, after the switch but before the next flush (the head in the
   page cache, lost, or torn on the way to the disk), and after that
   flush.  The second checkpoint is the one crashed, so its head lands
   over an older segment's records.  After each crash: no acknowledged
   commit lost, no unacknowledged one visible, and [seq] where the last
   durable record left it; numbering then continues across a restart. *)
let test_checkpoint_crash_matrix () =
  let line i = Printf.sprintf "add attribute crash%d : int to Animal@Zoo;" i in
  let leg what ?(arm = "") ?(fail_next = false) ?(on_disk = fun ~old:_ cur -> cur) () =
    Failpoint.clear ();
    let dir = fresh_dir () in
    let r = Journal.recover ~checkpoint_every:2 ~dir () in
    let j = r.Journal.journal in
    let b =
      Broker.create ~journal:j ~acquire_timeout:0.05
        ~metrics:(Metrics.create ()) r.Journal.manager
    in
    let outcomes = ref [] in
    let attempt i text =
      let before = Journal.seq j in
      let acked = try_commit b text in
      let durable = Journal.seq j > before in
      if acked && not durable then
        Alcotest.failf "%s: commit %d acked without a durable record" what i;
      outcomes := (i, durable) :: !outcomes
    in
    attempt 0 zoo_frame;
    attempt 1 (line 1);
    attempt 2 (line 2);
    (* the first checkpoint made journal.alt live; the next one writes
       journal.log, as it stands before that checkpoint *)
    let old = read_file (Journal.journal_path ~dir) in
    if arm <> "" then Failpoint.configure arm;
    attempt 3 (line 3);
    if arm <> "" then
      check_bool (what ^ ": the failpoint fired") true
        (List.exists (fun s -> Failpoint.fired (Failpoint.define s) > 0)
           [ "journal.checkpoint.snapshot"; "journal.checkpoint.switch" ]);
    if fail_next then Failpoint.configure "journal.append.write=eio@from:1";
    attempt 4 (line 4);
    Failpoint.clear ();
    let position = Journal.seq j in
    if fail_next then
      check_int (what ^ ": nothing durable after the head") 4 position;
    (* the crash: the journal is abandoned, the files left as the disk
       holds them *)
    let path = Journal.journal_path ~dir in
    write_file path (on_disk ~old (read_file path));
    let r = Journal.recover ~dir () in
    let j2 = r.Journal.journal in
    check_int (what ^ ": recovered seq") position (Journal.seq j2);
    let d = dump_of r.Journal.manager in
    List.iter
      (fun (i, durable) ->
        let visible = i = 0 || contains d (Printf.sprintf "crash%d" i) in
        if durable && not visible then
          Alcotest.failf "%s: durable commit %d lost" what i
        else if (not durable) && visible then
          Alcotest.failf "%s: commit %d visible without a durable record" what i)
      !outcomes;
    let b2 =
      Broker.create ~journal:j2 ~acquire_timeout:0.05
        ~metrics:(Metrics.create ()) r.Journal.manager
    in
    check_bool (what ^ ": commit after recovery") true (try_commit b2 (line 9));
    check_int (what ^ ": numbered next") (position + 1) (Journal.seq j2);
    let d2 = dump_of r.Journal.manager in
    Journal.close j2;
    let r3 = Journal.recover ~dir () in
    check_int (what ^ ": seq after restart") (position + 1)
      (Journal.seq r3.Journal.journal);
    check_string (what ^ ": state after restart") d2 (dump_of r3.Journal.manager);
    Journal.close r3.Journal.journal
  in
  leg "before the head" ~arm:"journal.checkpoint.snapshot=eio@nth:2" ();
  List.iter
    (fun k ->
      leg
        (Printf.sprintf "partial head, %d bytes" k)
        ~arm:(Printf.sprintf "journal.checkpoint.snapshot=partial:%d@nth:2" k)
        ())
    [ 0; 5; 18; 19; 30; 70; 150; 600 ];
  leg "switch refused" ~arm:"journal.checkpoint.switch=eio@nth:2" ();
  leg "before the next flush" ~fail_next:true ();
  leg "before the next flush, head lost" ~fail_next:true
    ~on_disk:(fun ~old _ -> old)
    ();
  List.iter
    (fun k ->
      leg
        (Printf.sprintf "before the next flush, head torn at %d" k)
        ~fail_next:true
        ~on_disk:(fun ~old cur ->
          let k = min k (String.length cur) in
          String.sub cur 0 k
          ^
          if String.length old > k then
            String.sub old k (String.length old - k)
          else "")
        ())
    [ 10; 60; 200; 1000 ];
  leg "after the next flush" ()

(* A directory in the layout before segment heads — a snapshot.gomdb, a
   journal.retiring, or a head-less journal.log whose header names a base
   — is refused with a message naming the files and the last build that
   converts them, and no byte in it changes. *)
let test_pre_head_directories_refused () =
  let src = fresh_dir () in
  let b, _, _ = run_scenario src in
  let records = Journal.records_from (Option.get (Broker.journal b)) ~from:0 in
  let body = Core.Persist.(contents (render (Broker.manager b))) in
  Broker.close b;
  let recs lo =
    String.concat ""
      (List.filter_map
         (fun (n, text) -> if n > lo then Some text else None)
         records)
  in
  let listing dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  List.iter
    (fun (what, files, named) ->
      let dir = fresh_dir () in
      Unix.mkdir dir 0o755;
      List.iter (fun (f, text) -> write_file (Filename.concat dir f) text) files;
      let before = listing dir in
      (match Journal.recover ~dir () with
      | exception Journal.Corrupt reason ->
          List.iter
            (fun f -> check_bool (what ^ ": names " ^ f) true (contains reason f))
            named;
          check_bool (what ^ ": names the converting build") true
            (contains reason "4c77f62")
      | r ->
          Journal.close r.Journal.journal;
          Alcotest.failf "%s: recovered a directory from before heads" what);
      Alcotest.(check (list (pair string string)))
        (what ^ ": no byte changed") before (listing dir))
    [
      ( "snapshot and journal.log",
        [
          ("snapshot.gomdb", body);
          ("journal.log", "# gomsm journal v1 base 2\n");
        ],
        [ "snapshot.gomdb"; "journal.log" ] );
      ( "checkpoint in flight",
        [
          ("snapshot.gomdb", body);
          ("journal.retiring", "# gomsm journal v1 base 1\n" ^ recs 1);
          ("journal.log", "# gomsm journal v1 base 2\n");
        ],
        [ "snapshot.gomdb"; "journal.retiring"; "journal.log" ] );
      ( "journal.retiring alone",
        [ ("journal.retiring", "# gomsm journal v1\n" ^ recs 0) ],
        [ "journal.retiring" ] );
      ( "a head-less segment past base 0",
        [ ("journal.log", "# gomsm journal v1 base 1\n" ^ recs 1) ],
        [ "journal.log" ] );
    ]

let test_recovered_ids_do_not_collide () =
  let dir = fresh_dir () in
  let _, _, _ = run_scenario dir in
  let r = Journal.recover ~dir () in
  let m = r.Journal.manager in
  (* a fresh type id after recovery must not collide with journaled ones *)
  Manager.begin_session m;
  Manager.run_commands m
    "add type Keeper to Zoo; add attribute badge : int to Keeper@Zoo;";
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent rs ->
      Alcotest.failf "evolution after recovery inconsistent: %s"
        (String.concat "; " (List.map (fun x -> x.Manager.description) rs)));
  check_bool "both types present" true
    (contains (dump_of m) "Animal" && contains (dump_of m) "Keeper")

let test_session_delta_nets_out () =
  let m = Manager.create () in
  Manager.begin_session m;
  Manager.load_definitions m zoo_frame;
  (match Manager.end_session m with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> Alcotest.fail "zoo inconsistent");
  let tid =
    Option.get
      (Gom.Schema_base.find_type_at (Manager.database m) ~type_name:"Animal"
         ~schema_name:"Zoo")
  in
  let f = Gom.Preds.attr_fact ~tid ~name:"tmp" ~domain:"tid_int" in
  Manager.begin_session m;
  Manager.propose m (Datalog.Delta.of_lists ~additions:[ f ] ~deletions:[]);
  Manager.propose m (Datalog.Delta.of_lists ~additions:[] ~deletions:[ f ]);
  check_bool "add then delete nets to nothing" true
    (Datalog.Delta.is_empty (Manager.session_delta m));
  let g =
    Gom.Preds.attr_fact ~tid ~name:"legs" ~domain:"tid_int" (* pre-existing *)
  in
  Manager.propose m (Datalog.Delta.of_lists ~additions:[] ~deletions:[ g ]);
  Manager.propose m (Datalog.Delta.of_lists ~additions:[ g ] ~deletions:[]);
  check_bool "delete then re-add nets to nothing" true
    (Datalog.Delta.is_empty (Manager.session_delta m));
  Manager.rollback m

(* ------------------------------------------------------------------ *)
(* The daemon over a real socket                                       *)
(* ------------------------------------------------------------------ *)

let daemon_port = ref 0

let ensure_daemon =
  let started = ref false in
  fun () ->
    if not !started then begin
      started := true;
      let ready = Mutex.create () and cond = Condition.create () in
      ignore
        (Thread.create
           (fun () ->
             Daemon.serve
               ~on_listen:(fun p ->
                 Mutex.lock ready;
                 daemon_port := p;
                 Condition.signal cond;
                 Mutex.unlock ready)
               ~broker:
                 (Broker.create ~acquire_timeout:0.5
                    ~metrics:(Metrics.create ()) (Manager.create ()))
               { Daemon.default_config with Daemon.port = 0 })
           ());
      Mutex.lock ready;
      while !daemon_port = 0 do Condition.wait cond ready done;
      Mutex.unlock ready
    end;
    !daemon_port

let open_conn port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock, sock)

let send (_, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv (ic, _, _) = Protocol.read_response ic

let rpc conn line =
  send conn line;
  recv conn

let test_daemon_round_trip () =
  let port = ensure_daemon () in
  let c = open_conn port in
  let r = rpc c "check" in
  expect_ok "check" r;
  Alcotest.(check (list string)) "empty base is consistent" [ "consistent." ]
    r.Protocol.body;
  expect_ok "bes" (rpc c "bes");
  expect_ok "script" (rpc c ("script-line " ^ zoo_frame));
  expect_ok "ees" (rpc c "ees");
  let d = rpc c "dump" in
  expect_ok "dump" d;
  check_bool "dump has zoo" true
    (List.exists (fun l -> contains l "schema Zoo") d.Protocol.body);
  let s = rpc c "stats" in
  expect_ok "stats" s;
  check_bool "stats counts the commit" true
    (List.exists
       (fun l -> contains l "counter sessions_committed")
       s.Protocol.body);
  expect_ok "quit" (rpc c "quit");
  Unix.close (let _, _, s = c in s)

let test_daemon_excludes_second_writer () =
  let port = ensure_daemon () in
  let a = open_conn port and b = open_conn port in
  expect_ok "bes a" (rpc a "bes");
  let reason = expect_err "bes b" (rpc b "bes") in
  check_bool "timeout" true (contains reason "timeout");
  (* a vanishes without ees: the broker rolls its session back and b can
     acquire the slot *)
  Unix.close (let _, _, s = a in s);
  expect_ok "bes b retry" (rpc b "bes");
  expect_ok "rollback b" (rpc b "rollback");
  expect_ok "quit b" (rpc b "quit");
  Unix.close (let _, _, s = b in s)

(* ------------------------------------------------------------------ *)
(* Concurrency: bes wakeup, shared readers, group commit               *)
(* ------------------------------------------------------------------ *)

(* A bes that found the slot taken must be woken promptly when the holder
   releases it — not rediscover the free slot at the end of a poll
   interval — and the wait must be counted. *)
let test_bes_wakeup_and_acquire_waits () =
  let m = Metrics.create () in
  let b = Broker.create ~acquire_timeout:5.0 ~metrics:m (Manager.create ()) in
  expect_ok "bes 1" (Broker.handle b ~client:1 Protocol.Bes);
  let woken = ref None in
  let t0 = Unix.gettimeofday () in
  let waiter =
    Thread.create
      (fun () -> woken := Some (Broker.handle b ~client:2 Protocol.Bes))
      ()
  in
  Thread.delay 0.05;
  expect_ok "rollback 1" (Broker.handle b ~client:1 Protocol.Rollback);
  Thread.join waiter;
  let elapsed = Unix.gettimeofday () -. t0 in
  (match !woken with
  | Some r -> expect_ok "bes 2 woken" r
  | None -> Alcotest.fail "waiter never ran");
  check_bool "woken well before the timeout" true (elapsed < 2.0);
  check_bool "wait counted" true (Metrics.counter m "acquire_waits" >= 1);
  check_bool "writer is 2" true (Broker.writer b = Some 2);
  check_bool "the woken waiter drained the pipe" false (Broker.wake_pending b);
  expect_ok "rollback 2" (Broker.handle b ~client:2 Protocol.Rollback)

(* Releasing the slot writes a wakeup byte only for a blocked [bes]: not
   on a rollback or an ees nobody waits for, nor after a waiter gave up. *)
let test_release_wakes_only_waiters () =
  let b =
    Broker.create ~acquire_timeout:0.05 ~metrics:(Metrics.create ())
      (Manager.create ())
  in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback);
  check_bool "no wakeup after a rollback" false (Broker.wake_pending b);
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  check_bool "no wakeup after an ees" false (Broker.wake_pending b);
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  ignore (expect_err "bes 2 times out" (Broker.handle b ~client:2 Protocol.Bes));
  expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback);
  check_bool "no wakeup once the waiter gave up" false (Broker.wake_pending b);
  Broker.close b

(* N readers race one writer through a stream of commits; every digest a
   reader observes must be one the writer committed (never a torn or
   in-flight state).  A 2 ms stall on every fsync keeps the in-flight
   [None] path exercised too. *)
let test_readers_observe_only_committed_states () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  Failpoint.configure "journal.append.fsync=delay:0.002";
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:5.0
      ~metrics:(Metrics.create ()) r.Journal.manager
  in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  (* every committed state's digest and its query/check/dump responses *)
  let committed = Hashtbl.create 16 in
  let record () =
    let answers = reads_of b ~client:50 in
    match Broker.state_digest b with
    | Some d ->
        locked (fun () ->
            Hashtbl.replace committed (`Digest d) ();
            List.iter (fun a -> Hashtbl.replace committed (`Read a) ()) answers)
    | None ->
        (* another in-flight commit can hide the digest; here there is a
           single writer, so after the ack it must be published *)
        Alcotest.fail "no digest on a committed state"
  in
  record ();
  let stop = Atomic.make false in
  let observed = ref [] in
  let note o = locked (fun () -> observed := o :: !observed) in
  let reader i =
    while not (Atomic.get stop) do
      (match Broker.state_digest b with Some d -> note (`Digest d) | None -> ());
      List.iter
        (fun (resp : Protocol.response) ->
          expect_ok "reader" resp;
          note (`Read resp))
        (reads_of b ~client:(100 + i))
    done
  in
  let readers = List.init 6 (fun i -> Thread.create reader i) in
  let a req = Broker.handle b ~client:1 req in
  let commit i frame =
    expect_ok (Printf.sprintf "bes %d" i) (a Protocol.Bes);
    expect_ok (Printf.sprintf "script %d" i) (a (Protocol.Script_line frame));
    expect_ok (Printf.sprintf "ees %d" i) (a Protocol.Ees);
    record ()
  in
  (* a session none of whose changes may ever be read: left open for a
     while, then rolled back, rejected and rolled back, or abandoned *)
  let ghost i =
    expect_ok "ghost bes" (a Protocol.Bes);
    expect_ok "ghost script"
      (a (Protocol.Script_line (Printf.sprintf "add type Ghost%d to Zoo;" i)));
    Thread.delay 0.005;
    match i mod 3 with
    | 0 -> expect_ok "ghost rollback" (a Protocol.Rollback)
    | 1 ->
        expect_ok "ghost bad script"
          (a
             (Protocol.Script_line
                "schema Bad is type T is [ x : Missing; ] end type T; end \
                 schema Bad;"));
        ignore (expect_err "ghost ees" (a Protocol.Ees));
        Thread.delay 0.005;
        expect_ok "ghost rollback" (a Protocol.Rollback)
    | _ -> Broker.disconnect b ~client:1
  in
  commit 0 zoo_frame;
  for i = 1 to 7 do
    ghost i;
    commit i (Printf.sprintf "add attribute a%d : int to Animal@Zoo;" i)
  done;
  (* the last state is committed and durable: if the scheduler parked
     every reader through the commits, give them up to 5 s to observe it
     before stopping, so the check below is never vacuous by timing *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    locked (fun () -> !observed = []) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Atomic.set stop true;
  List.iter Thread.join readers;
  check_bool "readers saw some states" true (!observed <> []);
  List.iter
    (fun o ->
      if not (Hashtbl.mem committed o) then
        match o with
        | `Digest d -> Alcotest.failf "reader observed uncommitted state %s" d
        | `Read (resp : Protocol.response) ->
            Alcotest.failf "reader observed an uncommitted answer:\n%s"
              (String.concat "\n" resp.Protocol.body))
    !observed;
  check_bool "writer advanced the state" true (Hashtbl.length committed >= 8);
  Broker.close b

(* Four committers behind one slow fsync must share the next one — and
   every record must still be durable: a fresh recovery replays all of
   them.  The first fsync stalls 150 ms, so the other commits enqueue
   while it runs. *)
let test_group_commit_batches_and_recovers () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear @@ fun () ->
  Failpoint.configure "journal.append.fsync=delay:0.15@nth:1";
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let m = Metrics.create () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:10.0 ~metrics:m
      r.Journal.manager
  in
  let frame i =
    Printf.sprintf
      "schema S%d is type T%d is [ x : int; ] end type T%d; end schema S%d;" i
      i i i
  in
  let n = 4 in
  let results = Array.make n None in
  let worker i =
    let c = 10 + i in
    let r1 = Broker.handle b ~client:c Protocol.Bes in
    let r2 = Broker.handle b ~client:c (Protocol.Script_line (frame i)) in
    let r3 = Broker.handle b ~client:c Protocol.Ees in
    results.(i) <- Some (r1, r2, r3)
  in
  let workers = List.init n (fun i -> Thread.create worker i) in
  List.iter Thread.join workers;
  Array.iteri
    (fun i -> function
      | None -> Alcotest.failf "worker %d died" i
      | Some (r1, r2, r3) ->
          expect_ok (Printf.sprintf "bes %d" i) r1;
          expect_ok (Printf.sprintf "script %d" i) r2;
          expect_ok (Printf.sprintf "ees %d" i) r3)
    results;
  check_int "every commit journaled" n (Metrics.counter m "journal_records");
  let batches = Metrics.counter m "group_commits" in
  check_bool
    (Printf.sprintf "fsyncs batched (%d batches for %d commits)" batches n)
    true
    (batches >= 1 && batches < n);
  Broker.close b;
  let r2 = Journal.recover ~dir () in
  check_int "all records durable" n r2.Journal.replayed;
  let dump = dump_of r2.Journal.manager in
  for i = 0 to n - 1 do
    check_bool
      (Printf.sprintf "schema S%d recovered" i)
      true
      (contains dump (Printf.sprintf "schema S%d" i))
  done

let test_daemon_rejects_garbage () =
  let port = ensure_daemon () in
  let c = open_conn port in
  let r = rpc c "make it so" in
  ignore (expect_err "garbage verb" r);
  (* the connection survives a bad request *)
  expect_ok "still alive" (rpc c "check");
  expect_ok "quit" (rpc c "quit");
  Unix.close (let _, _, s = c in s)

(* ------------------------------------------------------------------ *)
(* Query answers and journal bytes against the code they replaced       *)
(* ------------------------------------------------------------------ *)

module Term = Datalog.Term
module Fact = Datalog.Fact

(* Strings a constant may spell: printable ASCII, quotes, backslashes,
   control characters, NUL and non-ASCII bytes. *)
let spelling_gen =
  let chars =
    [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\''; '%'; '?'; ','; '(';
      '\r'; '\000'; '\x7f'; '\xc3'; '\xa9'; '\xff' ]
  in
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (4, string_size ~gen:(oneofl chars) (int_range 0 12));
        (2, string_size ~gen:printable (int_range 0 40));
        (1, string_size ~gen:(oneofl chars) (int_range 80 200));
      ])

(* Facts over arbitrary spellings. *)
let fact_gen =
  QCheck.Gen.(
    map2 Fact.make
      (oneofl [ "Attr"; "Schema"; "P" ])
      (list_size (int_range 0 4)
         (oneof
            [
              map Term.symc spelling_gen;
              map (fun i -> Term.Int i) int;
              map (fun s -> Term.Fresh s) spelling_gen;
            ])))

(* The answer rendering as it was: a [sprintf] per binding, a
   [String.concat] per answer, a [sprintf] for the count.  The constant
   printer itself is checked against its Format original in the datalog
   suite. *)
let sprintf_answer_lines answers =
  List.map
    (fun bindings ->
      "  "
      ^ String.concat ", "
          (List.map
             (fun (v, c) ->
               Printf.sprintf "%s = %s" v (Term.const_to_string c))
             bindings))
    answers
  @ [ Printf.sprintf "%d answer(s)." (List.length answers) ]

(* Schemas named by arbitrary strings, queried with an integer binding
   alongside, through [Broker.handle]. *)
let prop_query_answers_match_sprintf =
  QCheck.Test.make ~count:40 ~long_factor:10
    ~name:"query answers = the sprintf rendering"
    QCheck.(
      make
        ~print:Print.(pair (list string) int)
        Gen.(
          pair
            (list_size (int_range 0 6) spelling_gen)
            (int_bound 100_000)))
    (fun (names, k) ->
      let names = List.sort_uniq String.compare names in
      let m = Manager.create () in
      Manager.begin_session m;
      Manager.propose m
        (Datalog.Delta.of_lists ~deletions:[]
           ~additions:
             (List.mapi
                (fun i n ->
                  Fact.make "Schema"
                    [ Term.symc (Printf.sprintf "sid_q%d" i); Term.symc n ])
                names));
      match Manager.end_session m with
      | Manager.Inconsistent _ ->
          Manager.rollback m;
          QCheck.assume_fail ()
      | Manager.Consistent ->
          let b = Broker.create ~metrics:(Metrics.create ()) m in
          (* one in three texts has no answer *)
          let text =
            Printf.sprintf "Schema(S, N), K = %d%s" k
              (if k mod 3 = 0 then ", K < 0" else "")
          in
          let resp = Broker.handle b ~client:1 (Protocol.Query text) in
          Broker.close b;
          resp.Protocol.status = Protocol.Ok
          && resp.Protocol.body
             = sprintf_answer_lines (Manager.query_text m text))

(* A query answered the way every query was before query shapes were
   prepared: parse, normalize, plan against [db], evaluate, and sort each
   answer's bindings — rendered as the broker renders a response. *)
let fresh_response db text =
  match
    let lits = Datalog.Parse.query text in
    let r =
      Datalog.Rule.normalize
        (Datalog.Rule.make (Datalog.Atom.make "$query" []) lits)
    in
    let body = r.Datalog.Rule.body in
    let plan = Datalog.Plan.make db body in
    let out = ref [] in
    Datalog.Eval.eval_lits db ~plan body Datalog.Subst.empty (fun s ->
        out := Datalog.Subst.bindings s :: !out);
    List.rev !out
  with
  | answers -> Protocol.ok (sprintf_answer_lines answers)
  | exception Datalog.Parse.Error e -> Protocol.err ("syntax error: " ^ e)
  | exception Datalog.Rule.Unsafe e -> Protocol.err ("unsafe query: " ^ e)

(* A prepared query reuses the plan its shape got first, so answers may
   come in another order than a fresh plan's: compare them as sets, the
   count line last either way. *)
let same_answers (a : Protocol.response) (b : Protocol.response) =
  a.Protocol.status = b.Protocol.status
  && List.sort compare a.Protocol.body = List.sort compare b.Protocol.body

(* Query texts over the zoo: atoms, negations and comparisons over a few
   variables (repeated ones too) and constants — symbols lower-case and
   quoted, integers, some naming nothing — in varying layout, so shapes
   recur with other constants; some texts do not parse, some cannot be
   ordered. *)
let prepared_text_gen =
  let open QCheck.Gen in
  let var = oneofl [ "T"; "N"; "S"; "A"; "D" ] in
  let const =
    oneofl
      [ "tid_1"; "sid_1"; "'Animal'"; "\"Zoo\""; "\"legs\""; "tid_int"; "3";
        "0"; "nope"; "'Ghost'"; "99999" ]
  in
  let term = frequency [ (3, var); (2, const) ] in
  let atom =
    oneof
      [
        map3 (Printf.sprintf "Type(%s, %s, %s)") term term term;
        map3 (Printf.sprintf "Attr_i(%s,%s, %s)") term term term;
        map2 (Printf.sprintf "Schema(%s,  %s)") term term;
      ]
  in
  let lit =
    frequency
      [
        (6, atom);
        (1, map (fun a -> "not " ^ a) atom);
        ( 2,
          map3 (Printf.sprintf "%s %s %s") term
            (oneofl [ "="; "!="; "<"; ">=" ])
            term );
        ( 1,
          oneofl
            [ "Type(T, N"; "Type(T,, N)"; "Type(T, N, 99999999999999999999)";
              "'Ghost'(T)"; "Type(T, N, S) junk"; "X <" ] );
      ]
  in
  map2
    (fun lits stop ->
      String.concat (if String.length stop = 1 then ", " else ",") lits ^ stop)
    (list_size (int_range 1 3) lit)
    (oneofl [ ""; "."; "?"; "  " ])

(* Grow the base past the next size class of every relation the
   generated texts read ([Schema], [Type], [Attr_i]), as one commit: a
   query shape planned before now plans again. *)
let grow_base b =
  Broker.exclusively b (fun () ->
      let m = Broker.manager b in
      let n = Datalog.Database.total (Manager.materialized m) in
      let read = [ "Schema"; "Type"; "Attr_i" ] in
      let classes () =
        List.map
          (fun p ->
            let rec bits c = if c = 0 then 0 else 1 + bits (c lsr 1) in
            bits (Datalog.Database.count (Manager.materialized m) p))
          read
      in
      let before = classes () in
      Manager.begin_session m;
      Manager.propose m
        (Datalog.Delta.of_lists ~deletions:[]
           ~additions:
             (List.concat
                (List.init (n + 1) (fun i ->
                     let sid = Printf.sprintf "sid_bulk%d" i
                     and tid = Printf.sprintf "tid_bulk%d" i in
                     Gom.Preds.
                       [
                         schema_fact ~sid ~name:(Printf.sprintf "Bulk%d" i);
                         type_fact ~tid ~name:"Bulk" ~sid;
                         subtyprel_fact ~sub:tid ~super:Gom.Builtin.any_tid;
                         attr_fact ~tid ~name:"bulk" ~domain:"tid_int";
                       ]))));
      (match Manager.end_session m with
      | Manager.Consistent -> ()
      | Manager.Inconsistent _ -> Alcotest.fail "bulk schemas inconsistent");
      List.iter2
        (fun p (c0, c1) ->
          if c0 = c1 then Alcotest.failf "%s kept its size class" p)
        read
        (List.combine before (classes ())))

(* The response cache stores an answer on its key's second sighting, so
   the third is the first hit; a key seen before a commit is stored at its
   first evaluation after it.  An evaluation looks up its query's plan, a
   hit evaluates nothing. *)
let test_cache_admission () =
  let metrics = Metrics.create () in
  let b = Broker.create ~metrics (Manager.create ()) in
  let hits () = Metrics.counter metrics "read_cache_hits" in
  let lookups () =
    Metrics.counter metrics "plan.hits" + Metrics.counter metrics "plan.misses"
  in
  let ask text =
    let l0 = lookups () and h0 = hits () in
    expect_ok text (Broker.handle b ~client:1 (Protocol.Query text));
    match (lookups () - l0, hits () - h0) with
    | 0, 1 -> `Hit
    | n, 0 when n > 0 -> `Evaluated
    | _ -> Alcotest.failf "%s: neither a hit nor an evaluation" text
  in
  let outcome =
    Alcotest.testable
      (fun ppf o ->
        Format.pp_print_string ppf
          (match o with `Hit -> "hit" | `Evaluated -> "evaluated"))
      ( = )
  in
  let seq = Alcotest.(check (list outcome)) in
  let q = "Type(T, N, S)" in
  seq "1st and 2nd sightings evaluate, the 3rd hits"
    [ `Evaluated; `Evaluated; `Hit; `Hit ]
    (List.init 4 (fun _ -> ask q));
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script" (Broker.handle b ~client:1 (Protocol.Script_line zoo_frame));
  expect_ok "ees" (Broker.handle b ~client:1 Protocol.Ees);
  seq "after a commit a seen key is stored at its first evaluation"
    [ `Evaluated; `Hit ]
    (List.init 2 (fun _ -> ask q));
  seq "a new key after the commit waits for its second sighting"
    [ `Evaluated; `Evaluated; `Hit ]
    (List.init 3 (fun _ -> ask "Type(T, N, sid_1)"));
  (* check and dump go through the same cache *)
  let dump () =
    let h0 = hits () in
    expect_ok "dump" (Broker.handle b ~client:1 Protocol.Dump);
    hits () - h0
  in
  Alcotest.(check (list int))
    "dump hits on its third sighting" [ 0; 0; 1 ]
    (List.init 3 (fun _ -> dump ()));
  Broker.close b

(* A number past [max_int] is a syntax error, not an internal one. *)
let test_oversized_integer () =
  let b = mem_broker () in
  let reason =
    expect_err "oversized integer"
      (Broker.handle b ~client:1
         (Protocol.Query "Type(T, N, 99999999999999999999)"))
  in
  check_string "syntax error"
    "syntax error: integer out of range: 99999999999999999999" reason;
  expect_ok "max_int still reads"
    (Broker.handle b ~client:1
       (Protocol.Query (Printf.sprintf "Type(T, N, %d)" max_int)));
  Broker.close b

(* Every text three times through [Broker.handle]: the first two sightings
   evaluate, the third is served from the response cache; all three equal
   the fresh answer (error texts byte for byte), before and after a commit
   that moves the database to another size class. *)
let prop_prepared_answers_match_fresh =
  QCheck.Test.make ~count:15 ~long_factor:10
    ~name:"prepared answers = fresh answers, across a size class"
    QCheck.(
      make
        ~print:Print.(pair (list string) (list string))
        Gen.(
          pair
            (list_size (int_range 1 20) prepared_text_gen)
            (list_size (int_range 1 20) prepared_text_gen)))
    (fun (before, after) ->
      let b = zoo_broker () in
      let agree texts =
        let m = Broker.manager b in
        let db =
          Datalog.Checker.materialize (Manager.theory m) (Manager.database m)
        in
        List.for_all
          (fun text ->
            let ask () = Broker.handle b ~client:2 (Protocol.Query text) in
            let first = ask () in
            let second = ask () in
            let third = ask () in
            first = second && second = third
            && same_answers first (fresh_response db text))
          texts
      in
      let ok = agree before && (grow_base b; agree after) in
      Broker.close b;
      ok)

(* A journal record's bytes as they were written: [bprintf] lines around
   the fact encoding (checked against its sprintf original in the core
   suite).  Appended to one journal, read back, and parsed back to the
   same facts. *)
let prop_journal_bytes_match_sprintf =
  let j =
    lazy (Journal.recover ~dir:(fresh_dir ()) ()).Journal.journal
  in
  QCheck.Test.make ~count:30 ~long_factor:10
    ~name:"journal record = the sprintf record, and parses back"
    QCheck.(
      make
        ~print:
          Print.(
            pair (list Core.Persist.encode_fact) (list Core.Persist.encode_fact))
        Gen.(
          pair
            (list_size (int_range 0 4) fact_gen)
            (list_size (int_range 1 4) fact_gen)))
    (fun (deletions, additions) ->
      let j = Lazy.force j in
      let ids = Gom.Ids.create () in
      let delta = Datalog.Delta.of_lists ~additions ~deletions in
      let seq = Journal.append j ~ids ~code:[] delta in
      let expected =
        let buf = Buffer.create 256 in
        Printf.bprintf buf "begin %d\n" seq;
        Printf.bprintf buf "ids 0 0 0 0 0 0\n";
        List.iter
          (fun f ->
            Printf.bprintf buf "del %s\n" (Core.Persist.encode_fact f))
          deletions;
        List.iter
          (fun f ->
            Printf.bprintf buf "add %s\n" (Core.Persist.encode_fact f))
          additions;
        Printf.bprintf buf "crc %s\n"
          (Fault.Crc32.to_decimal (Fault.Crc32.string (Buffer.contents buf)));
        Printf.bprintf buf "commit %d\n" seq;
        Buffer.contents buf
      in
      match Journal.records_from j ~from:(seq - 1) with
      | [ (s, text) ] ->
          let r = Journal.parse_record text in
          let same a b =
            List.equal Fact.equal (List.sort Fact.compare a)
              (List.sort Fact.compare b)
          in
          s = seq && text = expected
          && same r.Journal.r_change.Manager.delta.Datalog.Delta.additions additions
          && same r.Journal.r_change.Manager.delta.Datalog.Delta.deletions
               deletions
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sessions stay out of the shared manager until EES                   *)
(* ------------------------------------------------------------------ *)

(* Client A opens a session that adds a type.  While it is open, after A's
   [ees] is rejected, after A's rollback and after A disconnects, client
   B's answers are the committed ones byte for byte; A's own query
   mid-session sees the new type. *)
let test_others_read_committed_state () =
  let b = zoo_broker () in
  let committed = reads_of b ~client:2 in
  let same what =
    check_bool what true (reads_of b ~client:2 = committed)
  in
  let a req = Broker.handle b ~client:1 req in
  expect_ok "bes" (a Protocol.Bes);
  expect_ok "script" (a (Protocol.Script_line "add type Keeper to Zoo;"));
  same "while A's session is open";
  let own_keeper () =
    List.find_opt
      (fun l -> contains l "Keeper")
      (query_body b ~client:1 "Type(T, N, S)")
  in
  let keeper = own_keeper () in
  check_bool "A sees its own type" true (keeper <> None);
  check_bool "B does not" false
    (List.exists
       (fun l -> contains l "Keeper")
       (query_body b ~client:2 "Type(T, N, S)"));
  expect_ok "bad script"
    (a
       (Protocol.Script_line
          "schema Bad is type T is [ x : Missing; ] end type T; end schema \
           Bad;"));
  ignore (expect_err "ees" (a Protocol.Ees));
  same "after A's ees is rejected";
  expect_ok "rollback" (a Protocol.Rollback);
  same "after A's rollback";
  expect_ok "bes again" (a Protocol.Bes);
  expect_ok "script again"
    (a (Protocol.Script_line "add type Keeper to Zoo;"));
  check_bool "the next session reuses the rolled-back ids" true
    (own_keeper () = keeper);
  Broker.disconnect b ~client:1;
  same "after A disconnects";
  check_bool "the manager holds no session" false
    (Manager.in_session (Broker.manager b));
  Broker.close b

(* [bes], [rollback] and a disconnect take no reader-writer lock: they
   complete while another thread holds it exclusively.  [script-line]
   takes it shared: it waits for the exclusive holder as a reader.  The
   manager is in a session only inside an exclusive section, also when a
   replayed command raises. *)
let test_session_verbs_lock_nothing () =
  let b = zoo_broker () in
  let metrics = Broker.metrics b in
  let a req = Broker.handle b ~client:1 req in
  let held = Atomic.make false and release = Atomic.make false in
  let holder =
    Thread.create
      (fun () ->
        Broker.exclusively b (fun () ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Thread.delay 0.001
            done))
      ()
  in
  while not (Atomic.get held) do
    Thread.delay 0.001
  done;
  (* on a helper thread, so a verb that does wait fails the test instead
     of hanging it *)
  let without_waiting what f =
    let result = ref None in
    let th =
      Thread.create
        (fun () -> result := Some (try Ok (f ()) with e -> Error e))
        ()
    in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while !result = None && Unix.gettimeofday () < deadline do
      Thread.delay 0.001
    done;
    if !result = None then begin
      Atomic.set release true;
      Thread.join th;
      Thread.join holder;
      Alcotest.failf "%s waited for the exclusive holder" what
    end;
    Thread.join th;
    match !result with Some (Error e) -> raise e | _ -> ()
  in
  without_waiting "bes" (fun () -> expect_ok "bes" (a Protocol.Bes));
  without_waiting "rollback" (fun () ->
      expect_ok "rollback" (a Protocol.Rollback));
  without_waiting "bes again" (fun () -> expect_ok "bes" (a Protocol.Bes));
  without_waiting "disconnect" (fun () -> Broker.disconnect b ~client:1);
  check_bool "disconnect freed the slot" true (Broker.writer b = None);
  expect_ok "bes for the script" (a Protocol.Bes);
  let reads0 = Metrics.counter metrics "read_lock_waits"
  and writes0 = Metrics.counter metrics "write_lock_waits" in
  let result = ref None in
  let scripter =
    Thread.create
      (fun () ->
        result :=
          Some (a (Protocol.Script_line "add attribute w : int to Animal@Zoo;")))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Metrics.counter metrics "read_lock_waits" = reads0
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.001
  done;
  check_bool "script-line waited as a reader" true
    (Metrics.counter metrics "read_lock_waits" > reads0);
  check_int "nothing waited as a writer" writes0
    (Metrics.counter metrics "write_lock_waits");
  Atomic.set release true;
  Thread.join holder;
  Thread.join scripter;
  expect_ok "script" (Option.get !result);
  let outside () =
    Broker.exclusively b (fun () -> Manager.in_session (Broker.manager b))
  in
  check_bool "no manager session after script-line" false (outside ());
  (* make the replay of the second command raise: its Type fact no longer
     fits the declared arity *)
  expect_ok "second script" (a (Protocol.Script_line "add type Keeper to Zoo;"));
  let committed = reads_of b ~client:2 in
  let db = Manager.database (Broker.manager b) in
  let decl = Option.get (Datalog.Database.declaration db "Type") in
  let redeclare columns =
    Broker.exclusively b (fun () ->
        Datalog.Database.declare db ~name:"Type" ~columns)
  in
  redeclare [ "only" ];
  let reason = expect_err "ees with a raising replay" (a Protocol.Ees) in
  check_bool "internal error" true (contains reason "internal error");
  check_bool "no manager session after the raise" false (outside ());
  ignore (expect_err "owner query" (a (Protocol.Query "Type(T, N, S)")));
  check_bool "no manager session after a raising owner read" false
    (outside ());
  redeclare decl.Datalog.Database.columns;
  check_bool "the committed state is untouched" true
    (reads_of b ~client:2 = committed);
  check_bool "the session survives" true (Broker.writer b = Some 1);
  expect_ok "ees" (a Protocol.Ees);
  check_bool "committed" true
    (List.exists
       (fun l -> contains l "Keeper")
       (query_body b ~client:2 "Type(T, N, S)"));
  check_bool "no manager session after ees" false (outside ());
  Broker.close b

(* A session's overlay reads the committed base of the manager it is
   analyzed against: when the broker swaps its manager (a replica's
   bootstrap, a rebuild from the journal), the next command sees the new
   base with the session's earlier changes still applied, and a replay
   into the new manager carries them all. *)
let test_session_follows_swapped_manager () =
  let zoo () =
    let m = Manager.create () in
    Manager.begin_session m;
    Manager.run_commands m zoo_frame;
    (match Manager.end_session m with
    | Manager.Consistent -> ()
    | Manager.Inconsistent _ -> Alcotest.fail "zoo inconsistent");
    m
  in
  let m1 = zoo () and m2 = zoo () in
  Manager.begin_session m2;
  Manager.run_commands m2 "add type Keeper to Zoo;";
  ignore (Manager.end_session m2);
  let s = Server.Session.create ~owner:1 m1 in
  let analyze m text =
    Server.Session.analyze s m (Analyzer.parse_commands text)
  in
  Alcotest.(check (list string)) "over the first base" []
    (analyze m1 "add attribute a : int to Animal@Zoo;");
  Alcotest.(check (list string)) "the swapped-in base is read" []
    (analyze m2 "add attribute b : int to Keeper@Zoo;");
  Alcotest.(check (list string)) "the first command's change is still seen"
    [] (analyze m2 "delete attribute a from Animal@Zoo;");
  let attrs m =
    Datalog.Database.facts (Manager.database m) "Attr"
    |> List.map (fun (f : Fact.t) -> Term.const_to_string f.Fact.args.(1))
    |> List.sort compare
  in
  let replayed =
    Manager.with_change m2 (Server.Session.change s m2) (fun () -> attrs m2)
  in
  Alcotest.(check (list string)) "the replay carries the session" [ "b"; "legs" ]
    replayed;
  Alcotest.(check (list string)) "and leaves the base as it was" [ "legs" ]
    (attrs m2)

(* HEAD's in-place flow, the oracle for the journal bytes: every
   script-line absorbed into the shared manager at once, [ees] capturing
   the session's delta and code before the check. *)
let in_place_records steps =
  let r = Journal.recover ~dir:(fresh_dir ()) () in
  let m = r.Journal.manager and j = r.Journal.journal in
  let outcomes =
    List.filter_map
      (function
        | `Bes ->
            Manager.begin_session m;
            None
        | `Line text ->
            List.iter
              (fun cmd ->
                Manager.absorb m
                  (Analyzer.analyze_parsed ~lookup_code:(Manager.lookup_code m)
                     (Manager.database m) (Manager.ids m) [ cmd ]))
              (Analyzer.parse_commands text);
            None
        | `Ees -> (
            let delta = Manager.session_delta m in
            let code = Manager.session_code_changes m in
            match Manager.end_session ~delta m with
            | Manager.Consistent ->
                ignore (Journal.append j ~ids:(Manager.ids m) ~code delta);
                Some true
            | Manager.Inconsistent _ -> Some false))
      steps
  in
  let records = Journal.records_from j ~from:0 in
  Journal.close j;
  (outcomes, records)

let broker_records steps =
  let r = Journal.recover ~dir:(fresh_dir ()) () in
  let b =
    Broker.create ~journal:r.Journal.journal ~metrics:(Metrics.create ())
      r.Journal.manager
  in
  let outcomes =
    List.filter_map
      (fun step ->
        let ask req = Broker.handle b ~client:1 req in
        match step with
        | `Bes ->
            expect_ok "bes" (ask Protocol.Bes);
            None
        | `Line text ->
            expect_ok text (ask (Protocol.Script_line text));
            None
        | `Ees -> Some ((ask Protocol.Ees).Protocol.status = Protocol.Ok))
      steps
  in
  let records = Journal.records_from r.Journal.journal ~from:0 in
  Broker.close b;
  (outcomes, records)

let shop_frame =
  "schema Shop is type Item is [ label : string; ] operations declare greet \
   : () -> string; implementation define greet() is begin return \"hi\"; \
   end greet; end type Item; end schema Shop;"

(* Multi-command sessions journal exactly the record the in-place flow
   wrote: a fact added and deleted again, code redefined twice, and a
   session committed after a rejected [ees]. *)
let test_journal_bytes_match_in_place_flow () =
  let session lines = (`Bes :: List.map (fun l -> `Line l) lines) @ [ `Ees ] in
  let steps =
    session [ zoo_frame; shop_frame ]
    @ session
        [
          "add attribute tmp : int to Animal@Zoo;";
          "add attribute keep : int to Animal@Zoo;";
          "delete attribute tmp from Animal@Zoo;";
        ]
    @ session
        [
          "set code of greet of Item@Shop is begin return \"one\"; end;";
          "add type Keeper to Zoo;";
          "set code of greet of Item@Shop is begin return \"two\"; end;";
        ]
    @ [
        `Bes;
        `Line "add type Cage to Zoo;";
        `Line
          "schema Bad is type T is [ x : Missing; ] end type T; end schema \
           Bad;";
        `Ees;
        `Line "delete attribute x from T@Bad;";
        `Line "add attribute size : int to Cage@Zoo;";
        `Ees;
      ]
  in
  let expected_outcomes, expected = in_place_records steps in
  let outcomes, records = broker_records steps in
  Alcotest.(check (list bool))
    "the same ees outcomes" [ true; true; true; false; true ] expected_outcomes;
  Alcotest.(check (list bool)) "broker outcomes" expected_outcomes outcomes;
  check_int "one record per commit" 4 (List.length expected);
  Alcotest.(check (list (pair int string))) "record bytes" expected records

(* Property: the state a primary commits in memory is the state its
   journal record rebuilds.  After every [ees] of a random session
   sequence — a rejected one followed by fixes included — the records
   since the previous [ees] are parsed and committed on a second manager
   through the same entry ([Journal.apply_record], [Manager.commit]), and
   the two managers' dumps and digests agree. *)
let parity_line_gen =
  let open QCheck.Gen in
  let ty = oneofl [ "Animal"; "Keeper"; "Cage" ] in
  let attr = oneofl [ "legs"; "name"; "size" ] in
  let domain = oneofl [ "int"; "string"; "Animal@Zoo"; "Keeper@Zoo" ] in
  oneof
    [
      map (Printf.sprintf "add type %s to Zoo;") ty;
      map3 (Printf.sprintf "add attribute %s : %s to %s@Zoo;") attr domain ty;
      map2 (Printf.sprintf "delete attribute %s from %s@Zoo;") attr ty;
      map2 (Printf.sprintf "add supertype %s@Zoo to %s@Zoo;") ty ty;
      map2 (Printf.sprintf "rename type %s@Zoo to %s;") ty ty;
      map (Printf.sprintf "delete type %s@Zoo;") ty;
    ]

let prop_record_commits_primary_state =
  QCheck.Test.make ~count:20 ~long_factor:10
    ~name:"a record commits the primary's state"
    QCheck.(
      make
        ~print:(fun sessions ->
          String.concat " | "
            (List.map
               (fun (lines, rejected) ->
                 String.concat " " lines ^ if rejected then " [rejected]" else "")
               sessions))
        Gen.(
          list_size (int_range 1 6)
            (pair (list_size (int_range 1 4) parity_line_gen) bool)))
    (fun sessions ->
      let r = Journal.recover ~checkpoint_every:1000 ~dir:(fresh_dir ()) () in
      let j = r.Journal.journal in
      let b =
        Broker.create ~journal:j ~acquire_timeout:0.05
          ~metrics:(Metrics.create ()) r.Journal.manager
      in
      let m2 = Manager.create () in
      let ask req = Broker.handle b ~client:1 req in
      let line text = ignore (ask (Protocol.Script_line text)) in
      let applied = ref 0 in
      let agree () =
        List.for_all
          (fun (n, text) ->
            applied := n;
            Journal.apply_record m2 (Journal.parse_record text))
          (Journal.records_from j ~from:!applied)
        && dump_of m2 = dump_of (Broker.manager b)
        && Broker.digest_of_manager m2
           = Broker.digest_of_manager (Broker.manager b)
      in
      let ees () = (ask Protocol.Ees).Protocol.status = Protocol.Ok in
      let held =
        List.for_all
          (fun (i, (lines, rejected)) ->
            expect_ok "bes" (ask Protocol.Bes);
            if i = 0 then line zoo_frame;
            List.iter line lines;
            let bad = Printf.sprintf "Bad%d" i in
            (not rejected
            || begin
                 line
                   (Printf.sprintf
                      "schema %s is type T is [ x : Missing; ] end type T; end \
                       schema %s;"
                      bad bad);
                 (not (ees ()))
                 && agree ()
                 && begin
                      line (Printf.sprintf "delete attribute x from T@%s;" bad);
                      true
                    end
               end)
            && begin
                 if not (ees ()) then
                   expect_ok "rollback" (ask Protocol.Rollback);
                 agree ()
               end)
          (List.mapi (fun i s -> (i, s)) sessions)
      in
      Broker.close b;
      held)

(* Query constants intern nothing: distinct answerless reads leave the
   symbol table as it was, and an equality still binds a query-local
   symbol and prints it by name. *)
let test_query_constants_intern_nothing () =
  let b = zoo_broker () in
  ignore (query_body b ~client:2 "Type(T, N, 'nothing_0')");
  let n0 = Term.interned_count () in
  for i = 1 to 10_000 do
    ignore
      (query_body b ~client:2 (Printf.sprintf "Type(T, N, 'nothing_%d')" i))
  done;
  check_int "interned symbols flat" n0 (Term.interned_count ());
  Alcotest.(check (list string))
    "X = 'new'" [ "  X = new"; "1 answer(s)." ] (query_body b ~client:2 "X = 'new'");
  Alcotest.(check (list string))
    "equal spellings share a symbol"
    [ "  X = fresh_a, Y = fresh_a"; "1 answer(s)." ]
    (query_body b ~client:2 "X = 'fresh_a', Y = 'fresh_a', X = Y");
  Alcotest.(check (list string))
    "distinct spellings differ" [ "0 answer(s)." ]
    (query_body b ~client:2 "X = 'fresh_b', Y = 'fresh_c', X = Y");
  check_int "still flat" n0 (Term.interned_count ());
  Broker.close b

let qcheck = Tmp_dirs.qcheck

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "server.protocol",
      [
        Tmp_dirs.test_case "request round trip" `Quick test_request_roundtrip;
        Tmp_dirs.test_case "response framing + dot-stuffing" `Quick
          test_response_roundtrip;
      ] );
    ( "server.broker",
      [
        Tmp_dirs.test_case "single writer" `Quick test_single_writer;
        Tmp_dirs.test_case "readers during a session" `Quick
          test_reader_while_writer;
        Tmp_dirs.test_case "disconnect rolls back" `Quick
          test_disconnect_rolls_back;
        Tmp_dirs.test_case "inconsistent ees stays open" `Quick
          test_inconsistent_ees_stays_open;
        Tmp_dirs.test_case "script-line rejects bes/ees" `Quick
          test_script_line_rejects_markers;
        qcheck prop_query_answers_match_sprintf;
        Tmp_dirs.test_case "oversized integer is a syntax error" `Quick
          test_oversized_integer;
        Tmp_dirs.test_case "others read committed state" `Quick
          test_others_read_committed_state;
        Tmp_dirs.test_case "session verbs lock nothing" `Quick
          test_session_verbs_lock_nothing;
        Tmp_dirs.test_case "a session follows a swapped manager" `Quick
          test_session_follows_swapped_manager;
      ] );
    ( "server.prepared",
      [
        Tmp_dirs.test_case "response cache admits on a second sighting"
          `Quick test_cache_admission;
        qcheck prop_prepared_answers_match_fresh;
        Tmp_dirs.test_case "query constants intern nothing" `Quick
          test_query_constants_intern_nothing;
      ] );
    ( "server.snapshot",
      [
        Tmp_dirs.test_case "one build serves every read" `Quick
          test_snapshot_shared_by_reads;
        Tmp_dirs.test_case "maintained across every mutation" `Quick
          test_maintained_across_every_mutation;
        Tmp_dirs.test_case "answers match fresh materialization" `Quick
          test_snapshot_answers_match_fresh;
      ] );
    ( "server.cone",
      [
        Tmp_dirs.test_case "a retained cone evaluates nothing" `Quick
          test_retained_cone_evaluates_nothing;
      ] );
    ( "server.journal",
      [
        Tmp_dirs.test_case "replay restores acknowledged sessions" `Quick
          test_recovery_replays_acknowledged_sessions;
        Tmp_dirs.test_case "replay keeps every byte of a fact" `Quick
          test_recovery_replays_any_bytes;
        Tmp_dirs.test_case "torn tail truncated at every byte" `Slow
          test_recovery_truncates_torn_tail_every_byte;
        Tmp_dirs.test_case "every single-bit flip detected" `Slow
          test_bit_flip_detected_at_every_byte;
        Tmp_dirs.test_case "corrupt header base raises" `Quick
          test_corrupt_header_base_raises;
        Tmp_dirs.test_case "legacy crc-less journal replays" `Quick
          test_legacy_crc_less_journal_replays;
        Tmp_dirs.test_case "garbage tail dropped" `Quick
          test_recovery_survives_garbage_tail;
        Tmp_dirs.test_case "checkpoint snapshots and resets" `Quick
          test_checkpoint_snapshots_and_resets;
        Tmp_dirs.test_case "recovered ids do not collide" `Quick
          test_recovered_ids_do_not_collide;
        Tmp_dirs.test_case "session delta nets out" `Quick
          test_session_delta_nets_out;
        Tmp_dirs.test_case "recovery skips what the snapshot covers" `Quick
          test_recovery_skips_what_the_snapshot_covers;
        Tmp_dirs.test_case "snapshot bit flip raises" `Quick
          test_snapshot_bit_flip_raises;
        Tmp_dirs.test_case "checkpoint after unjournaled changes" `Quick
          test_checkpoint_after_unjournaled_changes;
        Tmp_dirs.test_case "pre-head directories refused" `Quick
          test_pre_head_directories_refused;
        Tmp_dirs.test_case "torn head falls back to the older segment" `Quick
          test_torn_head_falls_back;
        Tmp_dirs.test_case "checkpoint crash matrix" `Quick
          test_checkpoint_crash_matrix;
        Tmp_dirs.test_case "switch overwrites stale bytes with NULs" `Quick
          test_switch_overwrites_stale_bytes;
        qcheck prop_journal_bytes_match_sprintf;
        qcheck prop_record_commits_primary_state;
        Tmp_dirs.test_case "journal bytes = the in-place flow's" `Quick
          test_journal_bytes_match_in_place_flow;
      ] );
    ( "server.concurrency",
      [
        Tmp_dirs.test_case "bes woken on release" `Quick
          test_bes_wakeup_and_acquire_waits;
        Tmp_dirs.test_case "release wakes only waiters" `Quick
          test_release_wakes_only_waiters;
        Tmp_dirs.test_case "readers see only committed states" `Quick
          test_readers_observe_only_committed_states;
        Tmp_dirs.test_case "group commit batches and recovers" `Quick
          test_group_commit_batches_and_recovers;
      ] );
    ( "server.daemon",
      [
        Tmp_dirs.test_case "socket round trip" `Quick test_daemon_round_trip;
        Tmp_dirs.test_case "second writer excluded" `Quick
          test_daemon_excludes_second_writer;
        Tmp_dirs.test_case "garbage requests tolerated" `Quick
          test_daemon_rejects_garbage;
      ] );
  ]

let () = Alcotest.run "server" suite
