(* The observability subsystem: structured log lines, span nesting and
   trace propagation, histogram bucket boundaries, Prometheus rendering,
   and the metrics lint the CI scrape check uses. *)

module Log = Obs.Log
module Trace = Obs.Trace
module Export = Obs.Export
module Metrics = Server.Metrics
module Protocol = Server.Protocol

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* Capture log output for one test, restoring the stderr sink and the
   info default after. *)
let with_captured_log ?(spec = "debug") f =
  let buf = Buffer.create 256 in
  Log.set_sink (Buffer.add_string buf);
  (match Log.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad log spec %S: %s" spec e);
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink (fun s ->
          output_string stderr s;
          flush stderr);
      ignore (Log.configure "default=info"))
    (fun () -> f buf)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let test_log_format () =
  with_captured_log (fun buf ->
      Log.infof ~comp:"daemon" ~kvs:[ ("port", "7643") ] "listening";
      let line = Buffer.contents buf in
      checkb "has ts=" true (contains line "ts=");
      checkb "has level" true (contains line " level=info ");
      checkb "has comp" true (contains line " comp=daemon ");
      checkb "has msg" true (contains line " msg=\"listening\" ");
      checkb "has kv" true (contains line " port=7643");
      checkb "ends with newline" true (String.length line > 0 && line.[String.length line - 1] = '\n'))

let test_log_quoting () =
  with_captured_log (fun buf ->
      Log.infof ~comp:"t"
        ~kvs:[ ("a", "plain"); ("b", "has space"); ("c", "q\"uote") ]
        "two words";
      let line = Buffer.contents buf in
      checkb "msg quoted" true (contains line "msg=\"two words\"");
      checkb "plain unquoted" true (contains line " a=plain");
      checkb "space quoted" true (contains line " b=\"has space\"");
      checkb "quote escaped" true (contains line " c=\"q\\\"uote\""))

let test_log_levels () =
  with_captured_log ~spec:"default=warn" (fun buf ->
      Log.infof ~comp:"x" "dropped";
      check Alcotest.string "info below warn is dropped" "" (Buffer.contents buf);
      Log.warnf ~comp:"x" "kept";
      checkb "warn passes" true
        (contains (Buffer.contents buf) "msg=\"kept\"");
      checkb "enabled says no" false (Log.enabled ~comp:"x" Log.Info);
      checkb "enabled says yes" true (Log.enabled ~comp:"x" Log.Error))

let test_log_component_override () =
  with_captured_log ~spec:"default=warn,chatty=debug" (fun buf ->
      Log.debugf ~comp:"quiet" "dropped";
      check Alcotest.string "other components stay at warn" ""
        (Buffer.contents buf);
      Log.debugf ~comp:"chatty" "kept";
      checkb "override lets debug through" true
        (contains (Buffer.contents buf) "comp=chatty"))

let test_log_bad_spec () =
  (match Log.configure "bogus" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bare unknown level accepted");
  match Log.configure "daemon=loud" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown level accepted"

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let with_span_hook f =
  let spans = ref [] in
  Trace.set_hook (Some (fun sp -> spans := sp :: !spans));
  Fun.protect
    ~finally:(fun () ->
      Trace.set_hook None;
      Trace.set_slow_ms 0.;
      Trace.set_enabled false)
    (fun () -> f spans)

let test_span_nesting () =
  with_span_hook (fun spans ->
      with_captured_log (fun _buf ->
          Trace.with_context "t-abc" (fun () ->
              Trace.with_span "outer" (fun () ->
                  Trace.with_span "inner" ~kvs:[ ("k", "v") ] (fun () -> ())));
          (* inner finishes first *)
          match List.rev !spans with
          | [ inner; outer ] ->
              check Alcotest.string "inner name" "inner" inner.Trace.name;
              check Alcotest.string "outer name" "outer" outer.Trace.name;
              check Alcotest.string "same trace" "t-abc" inner.Trace.trace;
              check Alcotest.string "same trace" "t-abc" outer.Trace.trace;
              check
                Alcotest.(option string)
                "inner's parent is outer" (Some outer.Trace.span_id)
                inner.Trace.parent;
              check Alcotest.(option string) "outer has no parent" None
                outer.Trace.parent;
              check
                Alcotest.(list string)
                "inner ancestry" [ "outer" ] inner.Trace.ancestry;
              check
                Alcotest.(list (pair string string))
                "kvs carried" [ ("k", "v") ] inner.Trace.kvs
          | other ->
              Alcotest.failf "expected 2 spans, got %d" (List.length other)))

let test_span_disabled_is_noop () =
  (* no hook, not enabled, no slow threshold, no context: nothing recorded,
     and the thunk still runs *)
  Trace.set_enabled false;
  Trace.set_slow_ms 0.;
  Trace.set_hook None;
  checkb "not armed" false (Trace.armed ());
  let ran = ref false in
  Trace.with_span "invisible" (fun () -> ran := true);
  checkb "thunk ran" true !ran;
  check Alcotest.(option string) "no context" None (Trace.current_trace ())

let test_trace_context_restored () =
  with_span_hook (fun _spans ->
      Trace.with_context "outer-trace" (fun () ->
          check Alcotest.(option string) "outer" (Some "outer-trace")
            (Trace.current_trace ());
          Trace.with_context "inner-trace" (fun () ->
              check Alcotest.(option string) "inner" (Some "inner-trace")
                (Trace.current_trace ()));
          check Alcotest.(option string) "restored" (Some "outer-trace")
            (Trace.current_trace ()));
      check Alcotest.(option string) "cleared" None (Trace.current_trace ()))

let test_slow_log () =
  with_span_hook (fun _spans ->
      with_captured_log (fun buf ->
          Trace.set_slow_ms 0.001;
          Trace.with_context "t-slow" (fun () ->
              Trace.with_span "a" (fun () ->
                  Trace.with_span "b" (fun () -> Thread.delay 0.005)));
          let out = Buffer.contents buf in
          checkb "slow line emitted" true (contains out "comp=slow");
          checkb "ancestry joined" true (contains out "ancestry=a>b");
          checkb "trace stamped" true (contains out "trace=t-slow")))

let test_log_carries_trace () =
  with_captured_log (fun buf ->
      Trace.with_context "t-log" (fun () -> Log.infof ~comp:"x" "inside");
      checkb "trace kv auto-appended" true
        (contains (Buffer.contents buf) "trace=t-log"))

let test_new_id_shape () =
  let a = Trace.new_id () and b = Trace.new_id () in
  check Alcotest.int "16 hex chars" 16 (String.length a);
  String.iter
    (fun c ->
      checkb "hex digit" true ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    a;
  checkb "ids differ" true (a <> b)

let test_split_trace () =
  check
    Alcotest.(pair (option string) string)
    "prefix stripped"
    (Some "abc123", "bes")
    (Protocol.split_trace "trace abc123 bes");
  check
    Alcotest.(pair (option string) string)
    "no prefix" (None, "bes") (Protocol.split_trace "bes");
  check
    Alcotest.(pair (option string) string)
    "query keeps its argument"
    (Some "id", "query Attr_i(T, A, D)")
    (Protocol.split_trace "trace id query Attr_i(T, A, D)");
  (match Protocol.split_trace "trace onlyid" with
  | None, _ -> ()
  | Some _, _ -> Alcotest.fail "bare trace id should not parse");
  check
    Alcotest.(pair (option string) string)
    "add_trace round-trips"
    (Some "deadbeef", "stats")
    (Protocol.split_trace (Protocol.add_trace "deadbeef" "stats"))

(* ------------------------------------------------------------------ *)
(* Histogram boundaries and Prometheus rendering                       *)
(* ------------------------------------------------------------------ *)

let find_hist metrics =
  List.find_map
    (function
      | Export.Histogram { name; labels; buckets; count; _ } ->
          Some (name, labels, buckets, count)
      | _ -> None)
    metrics

let test_bucket_boundaries () =
  let m = Metrics.create () in
  (* bounds are [| 1e-4; 1e-3; 1e-2; 1e-1; 1.0 |]; a value exactly equal
     to a bound must land in that bound's bin (upper bounds inclusive) *)
  Metrics.observe m "latency.check" 1e-4;
  Metrics.observe m "latency.check" 1e-3;
  Metrics.observe m "latency.check" 2e-3;
  Metrics.observe m "latency.check" 5.0;
  let name, labels, buckets, count =
    match find_hist (Metrics.export m) with
    | Some h -> h
    | None -> Alcotest.fail "no histogram exported"
  in
  check Alcotest.string "latency family" "gomsm_latency_seconds" name;
  check
    Alcotest.(list (pair string string))
    "op label" [ ("op", "check") ] labels;
  check
    Alcotest.(list int)
    "per-bin counts (exact bounds inclusive)"
    [ 1; 1; 1; 0; 0; 1 ]
    (Array.to_list buckets);
  check Alcotest.int "count" 4 count

(* Gauge readers run after the registry's mutex is released: a reader that
   bumps a counter of its own registry neither deadlocks nor trips the
   mutex's self-lock check, and a removed reader is gone. *)
let test_reader_outside_lock () =
  let m = Metrics.create () in
  Metrics.gauge m "reads" (fun () ->
      Metrics.incr m "reader_calls";
      Metrics.counter m "reader_calls");
  checkb "render reads the gauge" true
    (List.mem "gauge reads 1" (Metrics.render m));
  checkb "export reads the gauge" true
    (contains (Export.render (Metrics.export m)) "gomsm_reads 2\n");
  Metrics.remove_gauge m "reads";
  checkb "removed" false
    (List.exists (fun l -> contains l "gauge reads") (Metrics.render m));
  checkb "counter kept" true
    (List.mem "counter reader_calls 2" (Metrics.render m))

let test_render_cumulative () =
  let m = Metrics.create () in
  Metrics.observe m "latency.check" 1e-4;
  Metrics.observe m "latency.check" 1e-3;
  Metrics.observe m "latency.check" 5.0;
  Metrics.incr m "requests_total" ~by:7;
  Metrics.gauge m "degraded" (fun () -> 0);
  let body = Export.render (Metrics.export ~labels:[ ("db", "zoo") ] m) in
  checkb "counter line" true
    (contains body "gomsm_requests_total{db=\"zoo\"} 7");
  checkb "counter TYPE" true
    (contains body "# TYPE gomsm_requests_total counter");
  checkb "gauge line" true (contains body "gomsm_degraded{db=\"zoo\"} 0");
  checkb "first bucket cumulative" true
    (contains body
       "gomsm_latency_seconds_bucket{db=\"zoo\",op=\"check\",le=\"0.0001\"} 1");
  checkb "second bucket cumulative" true
    (contains body
       "gomsm_latency_seconds_bucket{db=\"zoo\",op=\"check\",le=\"0.001\"} 2");
  checkb "one-second bucket holds first two" true
    (contains body
       "gomsm_latency_seconds_bucket{db=\"zoo\",op=\"check\",le=\"1.0\"} 2");
  checkb "+Inf equals count" true
    (contains body
       "gomsm_latency_seconds_bucket{db=\"zoo\",op=\"check\",le=\"+Inf\"} 3");
  checkb "count line" true
    (contains body "gomsm_latency_seconds_count{db=\"zoo\",op=\"check\"} 3");
  (* cumulative le values never decrease *)
  (match Export.lint body with
  | Ok n -> checkb "some series" true (n > 0)
  | Error es -> Alcotest.failf "lint rejected: %s" (String.concat "; " es))

let test_label_escaping () =
  check Alcotest.string "backslash" "a\\\\b" (Export.escape_label "a\\b");
  check Alcotest.string "quote" "a\\\"b" (Export.escape_label "a\"b");
  check Alcotest.string "newline" "a\\nb" (Export.escape_label "a\nb");
  let body =
    Export.render [ Export.Counter ("x_total", [ ("db", "we\"ird\\db") ], 1.) ]
  in
  checkb "escaped in output" true
    (contains body "x_total{db=\"we\\\"ird\\\\db\"} 1")

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)
(* ------------------------------------------------------------------ *)

let test_lint_accepts_good () =
  let body =
    "# TYPE a_total counter\n\
     a_total 3\n\
     a_total{db=\"x\"} 1\n\
     # TYPE h histogram\n\
     h_bucket{le=\"0.1\"} 1\n\
     h_bucket{le=\"+Inf\"} 2\n\
     h_sum 0.5\n\
     h_count 2\n"
  in
  match Export.lint body with
  | Ok n -> check Alcotest.int "series" 6 n
  | Error es -> Alcotest.failf "rejected: %s" (String.concat "; " es)

let expect_lint_error body needle =
  match Export.lint body with
  | Ok _ -> Alcotest.failf "lint accepted a body that should fail: %s" needle
  | Error es ->
      checkb
        (Printf.sprintf "error mentions %S" needle)
        true
        (List.exists (fun e -> contains e needle) es)

let test_lint_rejects () =
  expect_lint_error "a_total 1\na_total 2\n" "duplicate series";
  expect_lint_error "a_total{db=\"x\"} 1\na_total{db=\"x\"} 2\n"
    "duplicate series";
  expect_lint_error "h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n"
    "non-monotone";
  expect_lint_error "a_total notanumber\n" "not a number";
  expect_lint_error "{oops} 1\n" "metric name";
  expect_lint_error "h_bucket{le=\"+Inf\"} 3\nh_count 4\n" "<> _count";
  expect_lint_error "# TYPE x counter\n# TYPE x counter\nx 1\n"
    "duplicate # TYPE";
  (* different label sets are different series, not duplicates *)
  match Export.lint "a_total{db=\"x\"} 1\na_total{db=\"y\"} 1\n" with
  | Ok _ -> ()
  | Error es -> Alcotest.failf "rejected: %s" (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Admin endpoint                                                      *)
(* ------------------------------------------------------------------ *)

let test_admin_roundtrip () =
  let handler = function
    | "/metrics" -> Some (Obs.Admin.text 200 "a_total 1\n")
    | "/healthz" -> Some (Obs.Admin.text 503 "status degraded\n")
    | _ -> None
  in
  let port = Obs.Admin.start ~port:0 handler in
  let status, body = Obs.Admin.get ~host:"127.0.0.1" ~port ~path:"/metrics" in
  check Alcotest.int "200" 200 status;
  check Alcotest.string "body" "a_total 1\n" body;
  let status, _ = Obs.Admin.get ~host:"127.0.0.1" ~port ~path:"/healthz" in
  check Alcotest.int "503" 503 status;
  let status, _ = Obs.Admin.get ~host:"127.0.0.1" ~port ~path:"/nope" in
  check Alcotest.int "404" 404 status

(* The "degraded" gauge is one reader the broker registered: a stats
   request before the scrape must not leave a second copy of the series. *)
let test_no_duplicate_degraded () =
  let m = Core.Manager.create () in
  let broker = Server.Broker.create ~metrics:(Metrics.create ()) m in
  (match Server.Broker.handle broker ~client:1 Protocol.Stats with
  | { Protocol.status = Protocol.Ok; _ } -> ()
  | _ -> Alcotest.fail "stats failed");
  let body = Export.render (Server.Broker.export ~labels:[ ("db", "d") ] broker) in
  match Export.lint body with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "scrape after stats is not clean: %s"
        (String.concat "; " es)

(* The acceptance wiring end to end in-process: a traced ees through a
   journaled broker produces the span chain the ISSUE promises —
   verb.ees > session.check (with per-stratum datalog spans) and
   journal.append > journal.fsync — all under the client's trace id. *)
let test_traced_commit_spans () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gomsm-obs-%d" (Unix.getpid ()))
  in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  Unix.mkdir dir 0o755;
  with_span_hook (fun spans ->
      with_captured_log (fun _buf ->
          let r = Server.Journal.recover ~dir () in
          let broker =
            Server.Broker.create ~journal:r.Server.Journal.journal
              ~metrics:(Metrics.create ()) r.Server.Journal.manager
          in
          Trace.with_context "t-commit" (fun () ->
              Trace.with_span "verb.ees" (fun () ->
                  ignore (Server.Broker.handle broker ~client:1 Protocol.Bes);
                  ignore
                    (Server.Broker.handle broker ~client:1
                       (Protocol.Script_line
                          "schema Zoo is type Animal is [ legs : int; ] end \
                           type Animal; end schema Zoo;"));
                  ignore (Server.Broker.handle broker ~client:1 Protocol.Ees)));
          let names = List.map (fun s -> s.Trace.name) !spans in
          let has n = List.mem n names in
          checkb "session.check span" true (has "session.check");
          checkb "journal.append span" true (has "journal.append");
          checkb "journal.fsync span" true (has "journal.fsync");
          checkb "datalog.stratum spans" true (has "datalog.stratum");
          checkb "broker.acquire span" true (has "broker.acquire");
          List.iter
            (fun s ->
              check Alcotest.string
                ("span " ^ s.Trace.name ^ " carries the trace")
                "t-commit" s.Trace.trace)
            !spans;
          (* the fsync span nests under the append span *)
          let find n = List.find (fun s -> s.Trace.name = n) !spans in
          check
            Alcotest.(option string)
            "fsync's parent is append"
            (Some (find "journal.append").Trace.span_id)
            (find "journal.fsync").Trace.parent;
          Server.Journal.close r.Server.Journal.journal));
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

module Profile = Obs.Profile

(* Every profiler test restores the global arming state so the rest of
   the suite (and the broker tests sharing the process) see it off. *)
let with_profile_off f =
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.set_slow_query_ms 0.)
    f

let test_fingerprint () =
  let fp = Profile.fingerprint in
  check Alcotest.string "ints become ?" "Attr(T, ?, D)" (fp "Attr(T, 42, D)");
  check Alcotest.string "quoted symbols become ?" "Type(?, N, S)"
    (fp "Type(\"tid_1\", N, S)");
  check Alcotest.string "lowercase constants become ?" "Slot(C, ?, V)"
    (fp "Slot(C, legs, V)");
  check Alcotest.string "variables and predicates survive"
    "SubTypRel_t(X, Y)"
    (fp "SubTypRel_t(X, Y)");
  check Alcotest.string "whitespace collapses" "Attr(T, A, D)"
    (fp "  Attr( T ,  A ,\tD )  ");
  check Alcotest.string "not survives" "Person(X), not Dead(X)"
    (fp "Person(X), not Dead(X)");
  (* two queries differing only in constants share one fingerprint *)
  check Alcotest.string "constants unify" (fp "Slot(c1, legs, 4)")
    (fp "Slot(c2, tail, 7)")

let test_topk_eviction () =
  let p = Profile.create ~cap:2 () in
  ignore (Profile.note_query p ~text:"A(X)" ~ns:5_000 ~events:[]);
  ignore (Profile.note_query p ~text:"B(X)" ~ns:1_000 ~events:[]);
  ignore (Profile.note_query p ~text:"C(X)" ~ns:3_000 ~events:[]);
  (* cap 2: B (cheapest) was evicted to admit C *)
  check Alcotest.int "bounded" 2 (Profile.fingerprints p);
  let fps = List.map (fun r -> r.Profile.fp) (Profile.top p ~k:10) in
  check Alcotest.(list string) "worst first, cheapest evicted" [ "A(X)"; "C(X)" ]
    fps;
  (* repeated queries aggregate instead of taking a second slot *)
  ignore (Profile.note_query p ~text:"A(X)" ~ns:2_000 ~events:[]);
  let a = List.hd (Profile.top p ~k:1) in
  check Alcotest.int "calls summed" 2 a.Profile.calls;
  check Alcotest.int "time summed" 7_000 a.Profile.total_ns;
  check Alcotest.int "max kept" 5_000 a.Profile.max_ns;
  Profile.reset p;
  check Alcotest.int "reset empties" 0 (Profile.fingerprints p)

let test_observe_rule_paths () =
  with_profile_off (fun () ->
      (* no scope installed: the thunk runs, nothing is recorded *)
      let p = Profile.create () in
      let n =
        Profile.observe_rule ~stratum:0 ~label:"r" ~plan:"[0]"
          ~cache:Profile.Hit (fun () -> 7)
      in
      check Alcotest.int "thunk result passes through" 7 n;
      check Alcotest.int "nothing recorded without a scope" 0
        (Profile.rule_count p);
      (* sink scope: events accumulate per (rule, stratum) *)
      Profile.with_scope ~sink:p (fun () ->
          ignore
            (Profile.observe_rule ~stratum:0 ~label:"r" ~plan:"[0]"
               ~cache:Profile.Miss (fun () -> 3));
          ignore
            (Profile.observe_rule ~stratum:0 ~label:"r" ~plan:"[0]"
               ~cache:Profile.Hit (fun () -> 2));
          ignore
            (Profile.observe_rule ~stratum:1 ~label:"r" ~plan:"[0 1]"
               ~cache:Profile.Unplanned (fun () -> 0)));
      check Alcotest.int "two (rule, stratum) rows" 2 (Profile.rule_count p);
      (match Profile.rules p with
      | [ r0; r1 ] ->
          check Alcotest.int "stratum order" 0 r0.Profile.stratum;
          check Alcotest.int "evals counted" 2 r0.Profile.evals;
          check Alcotest.int "derived summed" 5 r0.Profile.derived;
          check Alcotest.int "plan hits" 1 r0.Profile.plan_hits;
          check Alcotest.int "plan misses" 1 r0.Profile.plan_misses;
          check Alcotest.int "other stratum separate" 1 r1.Profile.stratum
      | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
      (* collect scope: raw events in evaluation order, for explain *)
      let events = ref [] in
      Profile.with_scope ~collect:events (fun () ->
          ignore
            (Profile.observe_rule ~stratum:0 ~label:"a" ~plan:"-"
               ~cache:Profile.Unplanned (fun () -> 1)));
      match !events with
      | [ ev ] ->
          check Alcotest.string "label collected" "a" ev.Profile.ev_label;
          check Alcotest.int "derived collected" 1 ev.Profile.ev_derived;
          checkb "duration measured" true (ev.Profile.ev_ns >= 0)
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_render_agreement () =
  (* profile top and GET /profile share one renderer: merge_top over a
     single table must render byte-identically to the broker's own top *)
  let p = Profile.create () in
  ignore (Profile.note_query p ~text:"A(X, 1)" ~ns:4_000 ~events:[]);
  ignore (Profile.note_query p ~text:"B(Y)" ~ns:9_000 ~events:[]);
  let direct = Profile.render_top (Profile.top p ~k:20) in
  let merged =
    Profile.render_top (Profile.merge_top [ Profile.top p ~k:max_int ] ~k:20)
  in
  check Alcotest.(list string) "verb and endpoint agree" direct merged;
  (* merge across tenants sums fingerprint-wise *)
  let q = Profile.create () in
  ignore (Profile.note_query q ~text:"A(X, 2)" ~ns:6_000 ~events:[]);
  match
    Profile.merge_top [ Profile.top p ~k:max_int; Profile.top q ~k:max_int ]
      ~k:10
  with
  | [ a; b ] ->
      check Alcotest.string "summed row wins" "A(X, ?)" a.Profile.fp;
      check Alcotest.int "totals summed across tables" 10_000 a.Profile.total_ns;
      check Alcotest.int "calls summed across tables" 2 a.Profile.calls;
      check Alcotest.string "other row intact" "B(Y)" b.Profile.fp
  | rows -> Alcotest.failf "expected 2 merged rows, got %d" (List.length rows)

let test_slow_query_log () =
  with_profile_off (fun () ->
      with_captured_log (fun buf ->
          Profile.set_slow_query_ms 1.;
          let p = Profile.create () in
          let ev =
            {
              Profile.ev_stratum = 0;
              ev_label = "R(X) :- S(X).";
              ev_plan = "[0]";
              ev_cache = Profile.Hit;
              ev_derived = 2;
              ev_ns = 2_000_000;
            }
          in
          ignore
            (Profile.note_query p ~text:"R(7)" ~ns:2_500_000 ~events:[ ev ]);
          let out = Buffer.contents buf in
          checkb "warn line emitted" true (contains out "comp=slowquery");
          checkb "fingerprint carried" true (contains out "R(?)");
          checkb "rule breakdown carried" true (contains out "R(X) :- S(X).");
          (* under the threshold: silence *)
          Buffer.clear buf;
          ignore (Profile.note_query p ~text:"R(8)" ~ns:100 ~events:[]);
          check Alcotest.string "fast query not logged" ""
            (Buffer.contents buf)))

let test_profile_export () =
  let p = Profile.create () in
  Profile.with_scope ~sink:p (fun () ->
      ignore
        (Profile.observe_rule ~stratum:0 ~label:"R(X) :- S(X)." ~plan:"[0]"
           ~cache:Profile.Hit (fun () -> 1)));
  ignore (Profile.note_query p ~text:"R(X)" ~ns:500 ~events:[]);
  let body =
    Export.render
      (Export.process_metrics ~version:"1.0.0" ()
      @ Profile.export ~labels:[ ("db", "zoo") ] p)
  in
  checkb "build info series" true
    (contains body "gomsm_build_info{version=\"1.0.0\"} 1");
  checkb "uptime series" true (contains body "gomsm_uptime_seconds");
  checkb "per-rule counter" true
    (contains body
       "gomsm_rule_eval_seconds{db=\"zoo\",rule=\"R(X) :- S(X).\"}");
  checkb "fingerprint gauge" true
    (contains body "gomsm_query_fingerprints{db=\"zoo\"} 1");
  match Export.lint body with
  | Ok _ -> ()
  | Error es ->
      Alcotest.failf "profile scrape not lint-clean: %s" (String.concat "; " es)

(* Explain end to end, in process: the broker answers [explain] with the
   stratification, per-rule rows and the query pseudo-rule, and running it
   twice yields the same rule set (stable plans). *)
let test_explain_stability () =
  with_profile_off (fun () ->
      with_captured_log (fun _buf ->
          let m = Core.Manager.create () in
          let broker = Server.Broker.create ~metrics:(Metrics.create ()) m in
          let explain () =
            match
              Server.Broker.handle broker ~client:1
                (Protocol.Explain "SubTypRel_t(X, Y)")
            with
            | { Protocol.status = Protocol.Ok; body } -> body
            | { Protocol.status = Protocol.Err e; _ } ->
                Alcotest.failf "explain refused: %s" e
          in
          let body = explain () in
          let has needle = List.exists (fun l -> contains l needle) body in
          checkb "echoes the query" true (has "query SubTypRel_t(X, Y)");
          checkb "fingerprint line" true (has "fingerprint SubTypRel_t(X, Y)");
          checkb "strata summary" true (has "strata ");
          checkb "rule rows" true (has "SubTypRel_t(X, Y) :- SubTypRel(X, Y).");
          checkb "query plan line" true (has "query plan ");
          checkb "answer count" true (has "answers ");
          checkb "total line" true (has "total_ms ");
          (* stable across runs: same rules, same plans — the timing and
             cache-hit columns differ, so compare rule rows by their
             trailing "label [plan]" part only *)
          let strip_times body =
            List.filter_map
              (fun l ->
                if contains l "total_ms" || contains l "query plan " then None
                else if
                  String.length l > 0 && (l.[0] = '-' || (l.[0] >= '0' && l.[0] <= '9'))
                then
                  (* a rule row: drop the 6 leading numeric columns *)
                  String.split_on_char ' ' l
                  |> List.filter (fun f -> f <> "")
                  |> (fun fs ->
                       if List.length fs > 6 then
                         Some
                           (String.concat " "
                              (List.filteri (fun i _ -> i >= 6) fs))
                       else Some l)
                else Some l)
              body
          in
          check
            Alcotest.(list string)
            "explain is stable" (strip_times body)
            (strip_times (explain ()));
          (* profiling stayed off: nothing leaked into the broker's table *)
          check Alcotest.int "no fingerprints recorded" 0
            (Profile.fingerprints (Server.Broker.profile broker))))

(* ------------------------------------------------------------------ *)
(* The shared per-thread context                                       *)
(* ------------------------------------------------------------------ *)

let observe_r () =
  ignore
    (Profile.observe_rule ~stratum:0 ~label:"r" ~plan:"-"
       ~cache:Profile.Unplanned (fun () -> 0))

let evals_of p =
  List.fold_left (fun n r -> n + r.Profile.evals) 0 (Profile.rules p)

let test_context_nesting () =
  with_profile_off (fun () ->
      with_span_hook (fun spans ->
          let p = Profile.create () in
          let trace = Alcotest.(option string) in
          (* a trace context inside a profile scope *)
          Profile.with_scope ~sink:p (fun () ->
              Trace.with_context "t-inner" (fun () ->
                  check trace "inner trace" (Some "t-inner")
                    (Trace.current_trace ());
                  checkb "scope kept under the trace" true (Profile.scoped ());
                  observe_r ());
              check trace "trace restored to none" None (Trace.current_trace ());
              checkb "scope restored" true (Profile.scoped ());
              observe_r ());
          check Alcotest.int "both evaluations recorded" 2 (evals_of p);
          (* a profile scope inside a trace context, under an open span *)
          Trace.with_context "t-outer" (fun () ->
              Trace.with_span "outer" (fun () ->
                  Profile.with_scope ~sink:p (fun () ->
                      check trace "trace kept under the scope" (Some "t-outer")
                        (Trace.current_trace ());
                      Trace.with_span "inner" (fun () -> observe_r ()))));
          check Alcotest.int "scoped evaluation recorded" 3 (evals_of p);
          Trace.with_context "t-outer" (fun () ->
              Profile.with_scope ~sink:p (fun () -> ());
              check trace "trace restored" (Some "t-outer")
                (Trace.current_trace ());
              checkb "scope restored to none" false (Profile.scoped ());
              observe_r ());
          check Alcotest.int "no evaluation outside the scope" 3 (evals_of p);
          checkb "no context left" true
            (Trace.current_trace () = None && not (Profile.scoped ()));
          let find n = List.find (fun s -> s.Trace.name = n) !spans in
          check
            Alcotest.(option string)
            "span opened under the scope keeps its parent"
            (Some (find "outer").Trace.span_id)
            (find "inner").Trace.parent))

let test_context_independence () =
  with_profile_off (fun () ->
      (* a profile scope alone is no trace: with tracing unarmed, a span
         under it is not recorded *)
      with_captured_log (fun buf ->
          Profile.with_scope ~sink:(Profile.create ()) (fun () ->
              check Alcotest.(option string) "no trace id" None
                (Trace.current_trace ());
              Trace.with_span "invisible" (fun () -> ()));
          checkb "no span logged" false
            (contains (Buffer.contents buf) "comp=trace"));
      (* a trace context alone does not make observe_rule record, even
         while another thread holds a scope *)
      let p = Profile.create () in
      Profile.with_scope ~sink:p (fun () ->
          Thread.join
            (Thread.create
               (fun () ->
                 Trace.with_context "t-alone" (fun () ->
                     checkb "not scoped" false (Profile.scoped ());
                     observe_r ()))
               ()));
      check Alcotest.int "no rule row" 0 (Profile.rule_count p))

(* One thread explains on one database while another toggles profiling
   around queries on a second: each sees its own rule rows, and once both
   are done an evaluation outside any context records nowhere. *)
let test_concurrent_explain_and_toggle () =
  with_profile_off (fun () ->
      with_captured_log (fun _buf ->
          let m1 = Core.Manager.create () and m2 = Core.Manager.create () in
          let b1 = Server.Broker.create ~metrics:(Metrics.create ()) m1 in
          let b2 = Server.Broker.create ~metrics:(Metrics.create ()) m2 in
          let rounds = 20 in
          let explained = Atomic.make 0 in
          let explainer () =
            for _ = 1 to rounds do
              match
                Server.Broker.handle b1 ~client:1
                  (Protocol.Explain "SubTypRel_t(X, Y)")
              with
              | { Protocol.status = Protocol.Ok; body } ->
                  if
                    List.exists
                      (fun l ->
                        contains l "SubTypRel_t(X, Y) :- SubTypRel(X, Y).")
                      body
                  then Atomic.incr explained
              | { Protocol.status = Protocol.Err _; _ } -> ()
            done
          in
          let toggler () =
            for i = 1 to rounds do
              Server.Broker.set_profiling true;
              (* a distinct text each round misses the response cache *)
              ignore
                (Server.Broker.handle b2 ~client:2
                   (Protocol.Query (Printf.sprintf "SubTypRel_t(X, %d)" i)));
              Server.Broker.set_profiling false
            done
          in
          let t1 = Thread.create explainer () and t2 = Thread.create toggler () in
          Thread.join t1;
          Thread.join t2;
          check Alcotest.int "every explain has its rule rows" rounds
            (Atomic.get explained);
          let p1 = Server.Broker.profile b1 and p2 = Server.Broker.profile b2 in
          checkb "profiled queries left rule rows" true (evals_of p2 > 0);
          check Alcotest.int "explain leaves its broker's table empty" 0
            (Profile.rule_count p1);
          let before = (evals_of p1, evals_of p2) in
          let theory = Core.Manager.theory m2 in
          Datalog.Eval.run
            (Datalog.Theory.prepared theory)
            (Datalog.Theory.fresh_database theory);
          check
            Alcotest.(pair int int)
            "an evaluation with no context records nowhere" before
            (evals_of p1, evals_of p2)))

(* The stratum half of the evaluator seam, without a broker in the way:
   both the from-scratch fixpoint and DRed maintenance emit one
   [datalog.stratum] span per stratum, carrying its index and rule count. *)
let test_stratum_spans () =
  with_span_hook (fun spans ->
      with_captured_log (fun _buf ->
          let theory = Datalog.Theory.create () in
          Datalog.Theory.add_rules theory
            (List.map Datalog.Parse.rule
               [ "T(X, Y) :- E(X, Y)."; "T(X, Z) :- E(X, Y), T(Y, Z)." ]);
          let e x y =
            Datalog.Fact.make "E" [ Datalog.Term.symc x; Datalog.Term.symc y ]
          in
          let db = Datalog.Theory.fresh_database theory in
          ignore (Datalog.Database.add db (e "a" "b"));
          let strata () =
            List.filter (fun s -> s.Trace.name = "datalog.stratum") !spans
          in
          let check_kvs what =
            match strata () with
            | [] -> Alcotest.failf "%s: no datalog.stratum span" what
            | ss ->
                List.iter
                  (fun s ->
                    checkb (what ^ ": stratum kv") true
                      (List.mem_assoc "stratum" s.Trace.kvs);
                    checkb (what ^ ": rules kv") true
                      (List.mem ("rules", "2") s.Trace.kvs))
                  ss
          in
          Trace.with_context "t-run" (fun () ->
              Datalog.Eval.run (Datalog.Theory.prepared theory)
                (Datalog.Database.copy db));
          check_kvs "Eval.run";
          let state = Datalog.Incremental.init theory db in
          spans := [];
          Trace.with_context "t-apply" (fun () ->
              ignore
                (Datalog.Incremental.apply state
                   (Datalog.Delta.of_lists ~additions:[ e "b" "c" ]
                      ~deletions:[])));
          check_kvs "Incremental.apply";
          List.iter
            (fun s ->
              check Alcotest.string "apply spans carry its trace" "t-apply"
                s.Trace.trace)
            (strata ())))

let () =
  Alcotest.run "obs"
    [
      ( "log",
        [
          Alcotest.test_case "line format" `Quick test_log_format;
          Alcotest.test_case "quoting" `Quick test_log_quoting;
          Alcotest.test_case "level filtering" `Quick test_log_levels;
          Alcotest.test_case "component override" `Quick
            test_log_component_override;
          Alcotest.test_case "bad specs rejected" `Quick test_log_bad_spec;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting + parents" `Quick test_span_nesting;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_span_disabled_is_noop;
          Alcotest.test_case "context save/restore" `Quick
            test_trace_context_restored;
          Alcotest.test_case "slow-op log with ancestry" `Quick test_slow_log;
          Alcotest.test_case "log lines carry trace id" `Quick
            test_log_carries_trace;
          Alcotest.test_case "id shape" `Quick test_new_id_shape;
          Alcotest.test_case "wire prefix split" `Quick test_split_trace;
          Alcotest.test_case "traced commit span chain" `Quick
            test_traced_commit_spans;
        ] );
      ( "export",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "cumulative rendering" `Quick
            test_render_cumulative;
          Alcotest.test_case "gauge readers run outside the lock" `Quick
            test_reader_outside_lock;
          Alcotest.test_case "label escaping" `Quick test_label_escaping;
          Alcotest.test_case "lint accepts a good body" `Quick
            test_lint_accepts_good;
          Alcotest.test_case "lint rejects broken bodies" `Quick
            test_lint_rejects;
          Alcotest.test_case "no duplicate degraded gauge after stats" `Quick
            test_no_duplicate_degraded;
        ] );
      ( "admin",
        [ Alcotest.test_case "GET round-trip" `Quick test_admin_roundtrip ] );
      ( "profile",
        [
          Alcotest.test_case "fingerprint normalization" `Quick
            test_fingerprint;
          Alcotest.test_case "top-K eviction + aggregation" `Quick
            test_topk_eviction;
          Alcotest.test_case "observe_rule scopes" `Quick
            test_observe_rule_paths;
          Alcotest.test_case "verb and endpoint share a renderer" `Quick
            test_render_agreement;
          Alcotest.test_case "slow-query warn line" `Quick test_slow_query_log;
          Alcotest.test_case "exporter series" `Quick test_profile_export;
          Alcotest.test_case "explain is complete and stable" `Quick
            test_explain_stability;
        ] );
      ( "context",
        [
          Alcotest.test_case "trace and scope nest both ways" `Quick
            test_context_nesting;
          Alcotest.test_case "scope alone is no trace, trace alone no scope"
            `Quick test_context_independence;
          Alcotest.test_case "explain beside a profiling toggle" `Quick
            test_concurrent_explain_and_toggle;
          Alcotest.test_case "Eval.run and Incremental.apply stratum spans"
            `Quick test_stratum_spans;
        ] );
    ]
