(* The repository benchmark: closed-loop load against a real [gomsm serve]
   (end-to-end metrics), or the traced run (per-layer metrics).

     bench.exe --workload read-hot|read-miss|evolve --seed N --seconds S
               --trace 0|1 --gomsm PATH --workdir DIR [--smoke]

   Human-readable lines go to stdout first; the last line is one JSON
   object.  Exit status: 0 on a valid run with every answer right, 1 when
   an answer was wrong (the JSON says [correct: false]), 2 on a set-up
   error, 3 when p99 has fewer than ten samples beyond it (no result). *)

module Manager = Core.Manager
module Broker = Server.Broker
module Registry = Tenant.Registry

type workload = Read_hot | Read_miss | Evolve

let workload_name = function
  | Read_hot -> "read-hot"
  | Read_miss -> "read-miss"
  | Evolve -> "evolve"

(* Sizes.  The base has 48 types, so one read-miss query (a full
   re-materialization) costs about 2 ms.  Fixed op counts (warm-up, the
   single-connection phase, the in-process phases) keep counters exactly
   repeatable; the evolve counts are multiples of 64 so the in-process
   broker and its twin checkpoint on the same commits. *)
type params = {
  types : int;
  setups : int;  (* rounds per end-to-end run, each set up afresh *)
  conns : int;
  warmup : int;  (* ops per connection, not sampled *)
  inproc_ops : int;
      (* traced run: ops over one connection, and untraced and traced
         in-process ops, each *)
}

let params ~smoke w =
  (* more, shorter rounds where ops are shortest *)
  let types, setups =
    if smoke then (12, 2)
    else (48, match w with Read_hot -> 15 | Read_miss | Evolve -> 10)
  in
  let warmup, inproc_ops =
    match (w, smoke) with
    | Read_hot, false -> (1000, 20000)
    | Read_hot, true -> (200, 2000)
    | Read_miss, false -> (32, 384)
    | Read_miss, true -> (16, 64)
    | Evolve, false -> (64, 640)
    | Evolve, true -> (64, 128)
  in
  { types; setups; conns = 2; warmup; inproc_ops }

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let body_is expected (r : Wire.response) = r.Wire.ok && r.Wire.body = expected

let answers_are n (r : Wire.response) =
  r.Wire.ok
  && List.length r.Wire.body = n + 1
  && List.nth r.Wire.body n = Printf.sprintf "%d answer(s)." n

let query_op (q : Gen.query) =
  {
    Load.steps = [| ("query " ^ q.Gen.text, answers_are q.Gen.answers) |];
    answers = Some q.Gen.answers;
  }

let evolve_op cmd =
  {
    Load.steps =
      [|
        ("bes", body_is [ "session open." ]);
        ("script-line " ^ cmd, body_is []);
        ("ees", body_is [ "consistent; session ended." ]);
      |];
    answers = None;
  }

(* The seeded op stream of one deployment.  read-hot: connection i cycles
   the 16 texts from offset 8i.  read-miss: the connections share one walk
   of the permuted key space.  evolve: connection i has its own plan and
   op counter (kept for the digest check). *)
type source = {
  next : int -> Load.op;
  issued : int array;  (* ops handed out per connection *)
  plans : Gen.evolve array;
}

let source ~seed ~(p : params) w =
  let issued = Array.make p.conns 0 in
  let count i =
    let o = issued.(i) in
    issued.(i) <- o + 1;
    o
  in
  match w with
  | Read_hot ->
      let qs = Gen.hot_queries ~rng:(Gen.rng ~seed 1) ~types:p.types in
      let n = Array.length qs in
      {
        next = (fun i -> query_op qs.((count i + (i * n / 2)) mod n));
        issued;
        plans = [||];
      }
  | Read_miss ->
      let order = Gen.miss_order ~rng:(Gen.rng ~seed 2) ~types:p.types in
      let cur = ref 0 in
      {
        next =
          (fun i ->
            ignore (count i);
            let k = order.(!cur mod Array.length order) in
            incr cur;
            query_op (Gen.miss_query ~types:p.types k));
        issued;
        plans = [||];
      }
  | Evolve ->
      let plans =
        Array.init p.conns (fun i ->
            Gen.evolve_plan ~rng:(Gen.rng ~seed (10 + i)) ~types:p.types)
      in
      {
        next = (fun i -> evolve_op (Gen.evolve_command plans.(i) (count i)));
        issued;
        plans;
      }

let tenant w i =
  match w with Evolve -> Printf.sprintf "bench%d" i | _ -> Registry.default_db

(* ------------------------------------------------------------------ *)
(* Deployments                                                         *)
(* ------------------------------------------------------------------ *)

type deployment = {
  d : Wire.daemon;
  conns : Wire.conn array;
  src : source;
  warm_failed : int;
  setup_s : float;
}

let seed_base c ~types =
  ignore (Wire.expect_ok c "bes");
  if not (body_is [] (Wire.request c ("script-line " ^ Gen.ddl ~types))) then
    failwith "seeding the base produced analyzer diagnostics";
  if not (body_is [ "consistent; session ended." ] (Wire.request c "ees")) then
    failwith "the seeded base did not commit"

(* Spawn the daemon, seed the base, warm up: the span setup_s measures. *)
let deploy ~exe ~dir ~seed ~(p : params) w =
  let t0 = Obs.Mtime.now_ns () in
  let d = Wire.spawn ~exe ~dir in
  let conns = Array.init p.conns (fun _ -> Wire.connect d.Wire.port) in
  (match w with
  | Evolve ->
      Array.iteri
        (fun i c ->
          ignore (Wire.expect_ok c ("db create " ^ tenant w i));
          ignore (Wire.expect_ok c ("use " ^ tenant w i));
          seed_base c ~types:p.types)
        conns
  | Read_hot | Read_miss -> seed_base conns.(0) ~types:p.types);
  let src = source ~seed ~p w in
  let warm = Load.run conns ~next:src.next ~stop:(Load.Ops p.warmup) in
  let warm_failed =
    Array.fold_left (fun a c -> a + c.Load.failed) 0 warm.Load.counts
  in
  { d; conns; src; warm_failed; setup_s = Obs.Mtime.ns_to_s (Obs.Mtime.elapsed_ns t0) }

let teardown dp =
  Array.iter Wire.close dp.conns;
  Wire.stop dp.d

(* The digest a tenant must report after [ops] evolve ops: the ops cancel
   pairwise, so the twin replays the base plus the unpaired last add. *)
let twin_digest ~types plan ops =
  let m = Manager.create () in
  let session cmd =
    Manager.begin_session m;
    Manager.run_commands m cmd;
    match Manager.end_session m with
    | Manager.Consistent -> ()
    | Manager.Inconsistent _ -> failwith "twin: session inconsistent"
  in
  session (Gen.ddl ~types);
  if ops mod 2 = 1 then session (Gen.evolve_command plan (ops - 1));
  Broker.digest_of_manager m

(* Each evolve tenant's health digest against its twin; the number of
   tenants that disagree. *)
let digest_mismatches dp ~(p : params) w =
  match w with
  | Read_hot | Read_miss -> 0
  | Evolve ->
      let bad = ref 0 in
      Array.iteri
        (fun i c ->
          let want = twin_digest ~types:p.types dp.src.plans.(i) dp.src.issued.(i) in
          match Wire.digest c with
          | Some got when got = want -> ()
          | got ->
              incr bad;
              Printf.printf "digest mismatch on %s: daemon %s, twin %s\n"
                (tenant w i)
                (Option.value got ~default:"(none)")
                want)
        dp.conns;
      !bad

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let ms ns = float_of_int ns /. 1e6

let median_f = function
  | [||] -> 0.
  | a ->
      let a = Array.copy a in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let conn_lines label (o : Load.outcome) ~warmup =
  Array.iteri
    (fun i c ->
      Printf.printf
        "  %s conn %d: attempted %d, failed %d, sampled %d, discarded: \
         warm-up %d, tail %d\n"
        label i c.Load.issued c.Load.failed c.Load.sampled warmup
        (c.Load.issued - c.Load.sampled))
    o.Load.counts

let sum_failed (o : Load.outcome) =
  Array.fold_left (fun a c -> a + c.Load.failed) 0 o.Load.counts

let sum_issued (o : Load.outcome) =
  Array.fold_left (fun a c -> a + c.Load.issued) 0 o.Load.counts

(* Percentiles with their sample accounting.  A p99 with fewer than ten
   samples beyond it is not reported: the run is invalid. *)
let sorted_samples label samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  if sorted = [||] then begin
    Printf.printf "INVALID: %s has no samples\n" label;
    exit 3
  end;
  sorted

let percentile label sorted pct =
  let v, beyond = Load.percentile sorted pct in
  if pct = 99 && beyond < 10 then begin
    Printf.printf
      "INVALID: %s p99 has %d samples beyond it (n=%d); at least 10 needed\n"
      label beyond (Array.length sorted);
    exit 3
  end;
  Printf.printf "  %s p%d %.4f ms (n=%d, %d beyond)\n" label pct (ms v)
    (Array.length sorted) beyond;
  ms v

let p50 label samples = percentile label (sorted_samples label samples) 50

(* ------------------------------------------------------------------ *)
(* The end-to-end run                                                  *)
(* ------------------------------------------------------------------ *)

(* [p.setups] rounds, each on a fresh daemon: set up (timed), measure for
   an equal share of [seconds], check, tear down.  Throughput, p50, RSS and
   set-up time are medians over the rounds, so one slow stretch of a
   shared machine, or one daemon's unlucky heap layout, moves them less
   than it would move a single long measurement.  p99 is taken over every
   round's samples together: a round alone has too few beyond it. *)
let end_to_end ~exe ~workdir ~seed ~seconds ~(p : params) w =
  Printf.printf "workload %s, seed %d, %g s in %d rounds, %d connections, \
                 %d types\n"
    (workload_name w) seed seconds p.setups p.conns p.types;
  let share = seconds /. float_of_int p.setups in
  let attempted = ref 0 and failed = ref 0 in
  let rounds =
    Array.init p.setups (fun k ->
        let dp =
          deploy ~exe ~dir:(Filename.concat workdir "serve") ~seed ~p w
        in
        let out = Load.run dp.conns ~next:dp.src.next ~stop:(Load.Until share) in
        let mismatches = digest_mismatches dp ~p w in
        let rss = Wire.peak_rss_mib dp.d in
        teardown dp;
        attempted := !attempted + sum_issued out + (p.conns * p.warmup);
        failed := !failed + sum_failed out + mismatches + dp.warm_failed;
        let label = Printf.sprintf "round %d" k in
        Printf.printf "  %s: setup_s %.4f s, rss_mb %.3f MiB\n" label dp.setup_s
          rss;
        conn_lines label out ~warmup:p.warmup;
        let n = Array.length out.Load.samples in
        let throughput = float_of_int n /. share in
        Printf.printf "  %s throughput_ops %.2f 1/s (%d ops in %g s)\n" label
          throughput n share;
        let p50 = p50 label out.Load.samples in
        (out.Load.samples, [| throughput; p50; rss; dp.setup_s |]))
  in
  let median i = median_f (Array.map (fun (_, r) -> r.(i)) rounds) in
  let p99 =
    percentile "all rounds"
      (sorted_samples "all rounds" (Array.concat (List.map fst (Array.to_list rounds))))
      99
  in
  let metrics =
    [
      ("throughput_ops", "1/s", median 0);
      ("p50_ms", "ms", median 1);
      ("p99_ms", "ms", p99);
      ("rss_mb", "MiB", median 2);
      ("setup_s", "s", median 3);
    ]
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %s %.6g %s\n" name v unit)
    metrics;
  let attempted = !attempted and failed = !failed in
  Printf.printf "  error_rate %g fraction (%d failed / %d attempted)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let delta s0 s1 name =
  let get s = Option.value ~default:0 (List.assoc_opt name s) in
  get s1 - get s0

(* Counter deltas over the tenants the connections use. *)
let scrape dp w =
  match w with
  | Evolve -> Array.to_list (Array.map Wire.stats dp.conns)
  | Read_hot | Read_miss -> [ Wire.stats dp.conns.(0) ]

let deltas before after name =
  List.fold_left2 (fun a s0 s1 -> a + delta s0 s1 name) 0 before after

let per_k count base =
  if base = 0 then 0. else float_of_int count *. 1000. /. float_of_int base

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let traced ~exe ~workdir ~seed ~seconds ~(p : params) w =
  Printf.printf "workload %s (traced), seed %d, %d types\n" (workload_name w)
    seed p.types;
  let dp = deploy ~exe ~dir:(Filename.concat workdir "serve") ~seed ~p w in
  (* the in-process side: a registry, a broker and the twin *)
  let dir = Filename.concat workdir "inproc" in
  Wire.rm_rf dir;
  Unix.mkdir dir 0o755;
  let reg =
    Registry.create
      { Registry.default_config with data_dir = Some (Filename.concat dir "data") }
  in
  let db = tenant w 0 in
  (match w with
  | Evolve -> (
      match Registry.create_db reg db with Ok () -> () | Error e -> failwith e)
  | Read_hot | Read_miss -> ());
  let broker =
    match Registry.with_db reg db Fun.id with Ok b -> b | Error e -> failwith e
  in
  let env =
    { Layers.reg; db; broker; devnull = open_out "/dev/null"; client = 1 }
  in
  let ddl = Gen.ddl ~types:p.types in
  List.iter
    (fun l -> ignore (Layers.serve env l))
    [ "bes"; "script-line " ^ ddl; "ees" ];
  let tw = Layers.twin ~dir:(Filename.concat dir "twin") in
  Layers.twin_seed tw ~ddl;
  let src = source ~seed ~p w in
  let next () = src.next 0 in
  let warm_failed = ref 0 in
  for _ = 1 to p.warmup do
    if not (snd (Layers.untraced_op env (next ()))) then incr warm_failed
  done;
  (* phases A and C, interleaved in blocks: one connection to the daemon
     (client latency, and counters around it), then untraced and traced
     in-process ops *)
  let c0 = dp.conns.(0) in
  let block = match w with Read_hot -> 1000 | Read_miss -> 16 | Evolve -> 64 in
  let a_samples = ref [] and a_failed = ref 0 and a_ns = ref 0 in
  let socket_block () =
    let t0 = Obs.Mtime.now_ns () in
    let o =
      Load.run [| c0 |] ~next:(fun _ -> dp.src.next 0) ~stop:(Load.Ops block)
    in
    a_ns := !a_ns + Obs.Mtime.elapsed_ns t0;
    a_samples := o.Load.samples :: !a_samples;
    a_failed := !a_failed + sum_failed o
  in
  let ops = p.inproc_ops in
  let a0 = Wire.stats c0 in
  let r = Layers.recorder () in
  let u =
    Layers.run env r tw ~ops ~block ~before_block:socket_block ~next
      ~replay_queries:(w = Read_miss)
  in
  let a1 = Wire.stats c0 in
  Printf.printf "  single-connection: %d ops, failed %d, %.1f ops/s\n" ops
    !a_failed
    (float_of_int ops *. 1e9 /. float_of_int !a_ns);
  let client_p50 =
    p50 "single-connection" (Array.concat (List.rev !a_samples))
  in
  let queries = match w with Evolve -> 0 | _ -> ops in
  let hits = delta a0 a1 "read_cache_hits"
  and ph = delta a0 a1 "plan_cache_hits"
  and pm = delta a0 a1 "plan_cache_misses"
  and cps = delta a0 a1 "checkpoints" in
  Printf.printf
    "  counters (single connection, base %d ops): read_cache_hits %d, \
     plan_cache_hits %d, plan_cache_misses %d, checkpoints %d\n"
    ops hits ph pm cps;
  (* phase B: every connection, for the queueing and lock-wait figures *)
  let b0 = scrape dp w in
  let b = Load.run dp.conns ~next:dp.src.next ~stop:(Load.Until (seconds /. 2.)) in
  let b1 = scrape dp w in
  conn_lines "two-connection" b ~warmup:0;
  let e2e_p50 = p50 "two-connection" b.Load.samples in
  let b_ops = sum_issued b in
  let rlw = deltas b0 b1 "read_lock_waits"
  and wlw = deltas b0 b1 "write_lock_waits"
  and aw = deltas b0 b1 "acquire_waits" in
  Printf.printf
    "  counters (two connections, base %d ops): read_lock_waits %d, \
     write_lock_waits %d, acquire_waits %d\n"
    b_ops rlw wlw aw;
  let mismatches = digest_mismatches dp ~p w in
  teardown dp;
  let twin_mismatch =
    match w with
    | Read_hot | Read_miss -> 0
    | Evolve ->
        if Broker.state_digest broker = Some (Broker.digest_of_manager tw.Layers.m)
        then 0
        else begin
          print_endline "digest mismatch: in-process broker vs twin";
          1
        end
  in
  Registry.shutdown reg;
  Server.Journal.close tw.Layers.j;
  close_out env.Layers.devnull;
  Wire.rm_rf dir;
  let layers, op_self = Layers.aggregate r ~ops in
  let service = Array.map float_of_int op_self in
  let service_p50 = median_f service /. 1e6 in
  let untraced_s = Array.fold_left ( + ) 0 u.Layers.times in
  let traced_s = Array.fold_left ( + ) 0 op_self in
  let overhead =
    100. *. (1. -. (float_of_int untraced_s /. float_of_int traced_s))
  in
  Printf.printf
    "  in-process: %d ops untraced %.1f ops/s, traced %.1f ops/s (tracing \
     overhead %.2f%%); service p50 %.4f ms\n"
    ops
    (float_of_int ops *. 1e9 /. float_of_int untraced_s)
    (float_of_int ops *. 1e9 /. float_of_int traced_s)
    overhead service_p50;
  (* per span name: the ops carrying it, the median duration and self time
     over those ops, and the median self time over every op (zero where
     absent) -- the figure that sums to a per-op service time *)
  let present name =
    match Hashtbl.find_opt layers name with
    | None -> 0
    | Some l -> Array.fold_left (fun a b -> if b then a + 1 else a) 0 l.Layers.present
  in
  let median_of name field =
    match Hashtbl.find_opt layers name with
    | None -> 0.
    | Some l ->
        let vs = ref [] in
        Array.iteri
          (fun i b -> if b then vs := float_of_int (field l).(i) :: !vs)
          l.Layers.present;
        median_f (Array.of_list !vs)
  in
  let dur name = median_of name (fun l -> l.Layers.dur)
  and self name = median_of name (fun l -> l.Layers.self) in
  let self_per_op name =
    match Hashtbl.find_opt layers name with
    | None -> 0.
    | Some l -> median_f (Array.map float_of_int l.Layers.self)
  in
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) layers [] |> List.sort compare
  in
  Printf.printf "  %-22s %6s %13s %13s %13s\n" "span (us)" "ops" "p50 dur"
    "p50 self" "p50 self/op";
  List.iter
    (fun n ->
      Printf.printf "  %-22s %6d %13.3f %13.3f %13.3f\n" n (present n)
        (dur n /. 1e3) (self n /. 1e3) (self_per_op n /. 1e3))
    names;
  let self_sum =
    List.fold_left (fun a n -> a +. self_per_op n) 0. names /. 1e6
  in
  let io = client_p50 -. service_p50 in
  Printf.printf
    "  accounting: sum of p50 self/op %.4f ms + server.io %.4f ms = %.4f \
     ms vs single-connection client p50 %.4f ms (%+.1f%%)\n"
    self_sum io (self_sum +. io) client_p50
    (100. *. (self_sum +. io -. client_p50) /. client_p50);
  let check label ok = Printf.printf "  check %s: %s\n" label (if ok then "pass" else "FAIL") in
  let hit_ratio = ratio hits queries in
  (match w with
  | Read_hot ->
      check "cache_hit_ratio >= 0.99" (hit_ratio >= 0.99);
      check "no datalog.materialize span" (present "datalog.materialize" = 0)
  | Read_miss ->
      check "cache_hit_ratio <= 0.05" (hit_ratio <= 0.05);
      check "materialize + query >= 80% of service p50"
        ((dur "datalog.materialize" +. dur "datalog.query") /. 1e6
        >= 0.8 *. service_p50)
  | Evolve ->
      List.iter
        (fun n -> check (n ^ " on every op") (present n = ops))
        [ "datalog.check"; "analyzer.parse"; "journal.append" ];
      check "journal.checkpoint on every 64th commit"
        (present "journal.checkpoint" = ops / Layers.checkpoint_every));
  check "layer sum within 10% of client p50"
    (Float.abs (self_sum +. io -. client_p50) <= 0.1 *. client_p50);
  let bytes =
    match w with
    | Evolve ->
        let l = List.filteri (fun i _ -> i < ops) tw.Layers.append_bytes in
        float_of_int (List.fold_left ( + ) 0 l) /. float_of_int ops
    | Read_hot | Read_miss -> 0.
  in
  let only w' v = if w = w' then v else 0. in
  let attempted =
    ops + b_ops + (p.conns * p.warmup) + (2 * ops) + p.warmup
  and failed =
    !a_failed + sum_failed b + dp.warm_failed + mismatches + twin_mismatch
    + !warm_failed + u.Layers.failed
  in
  Printf.printf "  error_rate %g fraction (%d failed / %d attempted)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let us name = dur name /. 1e3 and msd name = dur name /. 1e6 in
  print_result ~correct:(failed = 0) ~attempted ~failed
    [
      ("protocol.parse_us", "us", us "protocol.parse");
      ("protocol.write_us", "us", us "protocol.write");
      ("tenant.route_us", "us", us "tenant.route");
      ("broker.hit_us", "us", only Read_hot (us "broker.handle"));
      ("broker.miss_us", "us", only Read_miss (us "broker.handle"));
      ("broker.session_us", "us", only Evolve (us "broker.handle"));
      ("broker.cache_hit_ratio", "ratio", hit_ratio);
      ("broker.read_lock_waits", "count/kop", per_k rlw b_ops);
      ("broker.write_lock_waits", "count/kop", per_k wlw b_ops);
      ("broker.acquire_waits", "count/kop", per_k aw b_ops);
      ("broker.queue_ms", "ms", e2e_p50 -. service_p50);
      ("server.io_ms", "ms", io);
      ("datalog.parse_us", "us", us "datalog.parse");
      ("datalog.materialize_ms", "ms", msd "datalog.materialize");
      ("datalog.query_us", "us", us "datalog.query");
      ("datalog.plan_hit_ratio", "ratio", ratio ph (ph + pm));
      ("analyzer.parse_us", "us", us "analyzer.parse");
      ("core.run_commands_us", "us", us "core.run_commands");
      ("core.session_delta_us", "us", us "core.session_delta");
      ("datalog.check_ms", "ms", msd "datalog.check");
      ("journal.append_us", "us", us "journal.append");
      ("journal.bytes_per_commit", "bytes", bytes);
      ("journal.checkpoint_ms", "ms", msd "journal.checkpoint");
      ("journal.checkpoints", "count/kop", only Evolve (per_k cps ops));
      ("gc.minor_words_per_op", "words", u.Layers.minor_words);
      ("gc.major_per_kop", "count/kop", u.Layers.major_per_kop);
      ("layers.accounted_pct", "%", 100. *. service_p50 /. client_p50);
      ("trace.overhead_pct", "%", overhead);
    ];
  if failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and exe = ref "" and workdir = ref "" and smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "read-hot|read-miss|evolve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
      ("--gomsm", Arg.Set_string exe, "PATH the gomsm binary");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the benchmark's own tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --gomsm PATH \
     --workdir DIR";
  let w =
    match !workload with
    | "read-hot" -> Read_hot
    | "read-miss" -> Read_miss
    | "evolve" -> Evolve
    | other ->
        Printf.eprintf "bench: unknown workload %S\n" other;
        exit 2
  in
  if !exe = "" || !workdir = "" || !seconds <= 0. then begin
    prerr_endline "bench: --gomsm, --workdir and a positive --seconds are required";
    exit 2
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let p = params ~smoke:!smoke w in
  at_exit (fun () ->
      List.iter Wire.stop !Wire.live;
      try Wire.rm_rf !workdir with Unix.Unix_error _ | Sys_error _ -> ());
  try
    Wire.rm_rf !workdir;
    Unix.mkdir !workdir 0o755;
    (if !trace = 1 then traced else end_to_end)
      ~exe:!exe ~workdir:!workdir ~seed:!seed ~seconds:!seconds ~p w
  with
  | Failure e | Sys_error e ->
      Printf.eprintf "bench: error: %s\n%s" e (Printexc.get_backtrace ());
      exit 2
  | Unix.Unix_error (e, f, a) ->
      Printf.eprintf "bench: error: %s(%s): %s\n" f a (Unix.error_message e);
      exit 2
