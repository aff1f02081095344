(* The query profiler: per-(rule, stratum) evaluation counters and a
   bounded top-K table of normalized query fingerprints, one [t] per
   broker, surfaced by the [profile]/[explain] verbs, [db stat],
   GET /profile and /metrics.

   Accumulation is lock-free on the hot path: every rule counter is an
   [Atomic.t], bumped without any lock once its row exists (rows are
   created under a mutex, a once-per-rule event).  Evaluations on one
   broker are already serialized by its [eval_mu], so rows are never even
   contended there; the atomics make cross-thread reads (renderers,
   scrapes) safe without a lock and keep concurrent tenants independent.

   The disabled fast path mirrors Trace: when no thread carries a
   context, {!observe_rule} is one atomic load and the thunk — priced by
   the B13 bench.

   Scopes live in the per-thread {!Context}, next to the trace id: the
   broker installs its profile as the current thread's sink around a
   request, and [explain] installs a collector that captures the raw
   per-rule events of one query.  The table itself is only locked for
   surgery. *)

type cache_status = Hit | Miss | Unplanned

type rule_stat = {
  rs_label : string;  (* the printed rule (or "$query <body>") *)
  rs_stratum : int;  (* -1 for ad-hoc query bodies *)
  rs_evals : int Atomic.t;  (* times the rule body was evaluated *)
  rs_derived : int Atomic.t;  (* facts those evaluations derived *)
  rs_ns : int Atomic.t;  (* cumulative evaluation time *)
  rs_plan_hits : int Atomic.t;
  rs_plan_misses : int Atomic.t;
  mutable rs_plan : string;  (* most recent chosen join order *)
}

type query_stat = {
  q_fp : string;  (* the normalized fingerprint *)
  mutable q_count : int;
  mutable q_ns : int;  (* cumulative; the top-K table sorts on this *)
  mutable q_max_ns : int;
}

type t = {
  mu : Mutex.t;  (* table surgery only, never held across an eval *)
  cap : int;  (* fingerprint rows kept; evict smallest-total beyond it *)
  rules : (string * int, rule_stat) Hashtbl.t;
  queries : (string, query_stat) Hashtbl.t;
  fps : (string, string) Hashtbl.t;  (* text -> fingerprint memo *)
}

let create ?(cap = 256) () =
  {
    mu = Mutex.create ();
    cap = max 1 cap;
    rules = Hashtbl.create 32;
    queries = Hashtbl.create 32;
    fps = Hashtbl.create 32;
  }

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let reset t =
  with_mu t (fun () ->
      Hashtbl.reset t.rules;
      Hashtbl.reset t.queries;
      Hashtbl.reset t.fps)

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)
(* ------------------------------------------------------------------ *)

(* [enabled]: the [profile on] switch — rule/fingerprint accumulation for
   every request.  [slow_query_ns]: the --slow-query-ms threshold; either
   arms the per-query measurement. *)
let enabled_v = Atomic.make false
let slow_query_ns_v = Atomic.make 0

let set_enabled b = Atomic.set enabled_v b
let enabled () = Atomic.get enabled_v

let set_slow_query_ms ms =
  Atomic.set slow_query_ns_v
    (int_of_float (Float.max 0.0 ms *. 1e6))

let slow_query_ms () = float_of_int (Atomic.get slow_query_ns_v) /. 1e6
let query_armed () = Atomic.get enabled_v || Atomic.get slow_query_ns_v > 0

(* ------------------------------------------------------------------ *)
(* Per-thread scopes                                                   *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_stratum : int;
  ev_label : string;
  ev_plan : string;
  ev_cache : cache_status;
  ev_derived : int;
  ev_ns : int;
}

type Context.scope +=
  | Scope of { sink : t option; collect : event list ref option }

let with_scope ?sink ?collect f =
  Context.with_
    (fun c -> { c with Context.scope = Some (Scope { sink; collect }) })
    (fun _ -> f ())

let scoped () =
  match Context.current () with
  | Some { Context.scope = Some (Scope _); _ } -> true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let rule_stat_for t ~label ~stratum =
  let key = (label, stratum) in
  match Hashtbl.find_opt t.rules key with
  | Some rs -> rs
  | None ->
      with_mu t (fun () ->
          (* re-probe under the lock: another thread may have won *)
          match Hashtbl.find_opt t.rules key with
          | Some rs -> rs
          | None ->
              let rs =
                {
                  rs_label = label;
                  rs_stratum = stratum;
                  rs_evals = Atomic.make 0;
                  rs_derived = Atomic.make 0;
                  rs_ns = Atomic.make 0;
                  rs_plan_hits = Atomic.make 0;
                  rs_plan_misses = Atomic.make 0;
                  rs_plan = "-";
                }
              in
              Hashtbl.replace t.rules key rs;
              rs)

let record_rule t (ev : event) =
  let rs = rule_stat_for t ~label:ev.ev_label ~stratum:ev.ev_stratum in
  Atomic.incr rs.rs_evals;
  ignore (Atomic.fetch_and_add rs.rs_derived ev.ev_derived);
  ignore (Atomic.fetch_and_add rs.rs_ns ev.ev_ns);
  (match ev.ev_cache with
  | Hit -> Atomic.incr rs.rs_plan_hits
  | Miss -> Atomic.incr rs.rs_plan_misses
  | Unplanned -> ());
  if ev.ev_plan <> "-" then rs.rs_plan <- ev.ev_plan

(* The evaluator-side hook body: the engine's observer seam calls this
   around each rule evaluation; the thunk returns the number of facts it
   derived.  Only a profile scope on this thread records — a trace context
   alone does not. *)
let observe_rule ~stratum ~label ~plan ~cache f =
  match Context.current () with
  | Some { Context.scope = Some (Scope { sink; collect }); _ } ->
      let t0 = Mtime.now_ns () in
      let derived = ref 0 in
      Fun.protect
        ~finally:(fun () ->
          let ev =
            {
              ev_stratum = stratum;
              ev_label = label;
              ev_plan = plan;
              ev_cache = cache;
              ev_derived = !derived;
              ev_ns = Mtime.elapsed_ns t0;
            }
          in
          (match sink with Some t -> record_rule t ev | None -> ());
          match collect with Some r -> r := ev :: !r | None -> ())
        (fun () ->
          let n = f () in
          derived := n;
          n)
  | Some _ | None -> f ()

(* ------------------------------------------------------------------ *)
(* Query fingerprints                                                  *)
(* ------------------------------------------------------------------ *)

(* Normalize a query text pg_stat_statements-style: constants are
   replaced by [?] so the same query shape collapses to one fingerprint
   regardless of its literal values.  The Datalog grammar makes this a
   lexical pass: integers and quoted symbols are constants; a lowercase
   identifier is a symbol constant unless it is a predicate name (next
   non-blank char is an opening paren); uppercase identifiers are
   variables and predicate names stay as written.  Spacing is
   canonicalized — runs of blanks collapse, none before punctuation, one
   after each comma — so formatting differences collapse too. *)
let fingerprint text =
  let b = Buffer.create (String.length text) in
  let n = String.length text in
  let is_ident c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let is_punct c = c = ',' || c = '(' || c = ')' in
  let pending_space = ref false in
  let emit_char c =
    if
      !pending_space
      && Buffer.length b > 0
      && (not (is_punct c))
      && Buffer.nth b (Buffer.length b - 1) <> '('
    then Buffer.add_char b ' ';
    pending_space := false;
    Buffer.add_char b c;
    if c = ',' then pending_space := true
  in
  let emit_string s = String.iter emit_char s in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
      pending_space := true;
      incr i
    end
    else if c = '\'' || c = '"' then begin
      (* a quoted symbol constant, up to the matching quote (or EOL) *)
      let j = ref (!i + 1) in
      while !j < n && text.[!j] <> c do incr j done;
      emit_char '?';
      i := if !j < n then !j + 1 else n
    end
    else if c >= '0' && c <= '9' then begin
      let j = ref !i in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do incr j done;
      emit_char '?';
      i := !j
    end
    else if is_ident c then begin
      let j = ref !i in
      while !j < n && is_ident text.[!j] do incr j done;
      let word = String.sub text !i (!j - !i) in
      (* peek past blanks: a '(' makes this a predicate name *)
      let k = ref !j in
      while
        !k < n && (text.[!k] = ' ' || text.[!k] = '\t' || text.[!k] = '\n')
      do
        incr k
      done;
      let is_call = !k < n && text.[!k] = '(' in
      let lowercase = c >= 'a' && c <= 'z' in
      if lowercase && (not is_call) && word <> "not" then emit_char '?'
      else emit_string word;
      i := !j
    end
    else begin
      emit_char c;
      incr i
    end
  done;
  Buffer.contents b

(* The slow-query warn line, emitted when a query ran past the
   --slow-query-ms threshold — with its fingerprint and the top rule
   contributors by time, worst first. *)
let maybe_warn_slow fp ~ns ~(events : event list) =
  let threshold = Atomic.get slow_query_ns_v in
  if threshold > 0 && ns >= threshold then begin
    (* the rule breakdown: top contributors by time, worst first *)
    let by_rule = Hashtbl.create 8 in
    List.iter
      (fun ev ->
        let prev =
          Option.value (Hashtbl.find_opt by_rule ev.ev_label) ~default:0
        in
        Hashtbl.replace by_rule ev.ev_label (prev + ev.ev_ns))
      events;
    let top =
      Hashtbl.fold (fun l ns acc -> (l, ns) :: acc) by_rule []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
      |> fun l ->
      List.filteri (fun i _ -> i < 3) l
      |> List.map (fun (l, ns) ->
             Printf.sprintf "%s=%.3fms" l (Mtime.ns_to_ms ns))
    in
    Log.warnf ~comp:"slowquery"
      ~kvs:
        ([
           ("fingerprint", fp);
           ("ms", Printf.sprintf "%.3f" (Mtime.ns_to_ms ns));
         ]
        @
        match top with
        | [] -> []
        | _ -> [ ("rules", String.concat "," top) ])
      "slow query"
  end

let warn_slow ~text ~ns ~events = maybe_warn_slow (fingerprint text) ~ns ~events

(* Record one finished query into the fingerprint table (bounded: beyond
   [cap] rows the smallest-total row is evicted — a query that cannot beat
   the table's floor is not worth a row) and emit the slow-query warn line
   when it ran past the --slow-query-ms threshold. *)
let note_query t ~text ~ns ~(events : event list) =
  let fp =
    with_mu t (fun () ->
      let fp =
        (* memoized: normalizing is a per-char pass, and a hot query runs
           the same text thousands of times a second.  The memo is a pure
           cache — flushed wholesale if it ever fills. *)
        match Hashtbl.find_opt t.fps text with
        | Some fp -> fp
        | None ->
            let fp = fingerprint text in
            if Hashtbl.length t.fps >= 4 * t.cap then Hashtbl.reset t.fps;
            Hashtbl.replace t.fps text fp;
            fp
      in
      (match Hashtbl.find_opt t.queries fp with
      | Some q ->
          q.q_count <- q.q_count + 1;
          q.q_ns <- q.q_ns + ns;
          if ns > q.q_max_ns then q.q_max_ns <- ns
      | None ->
          if Hashtbl.length t.queries >= t.cap then begin
            (* evict the cheapest row to stay bounded *)
            let victim =
              Hashtbl.fold
                (fun _ q best ->
                  match best with
                  | Some b when b.q_ns <= q.q_ns -> best
                  | _ -> Some q)
                t.queries None
            in
            match victim with
            | Some v -> Hashtbl.remove t.queries v.q_fp
            | None -> ()
          end;
          Hashtbl.replace t.queries fp
            { q_fp = fp; q_count = 1; q_ns = ns; q_max_ns = ns });
      fp)
  in
  maybe_warn_slow fp ~ns ~events;
  fp

(* ------------------------------------------------------------------ *)
(* Reading the tables                                                  *)
(* ------------------------------------------------------------------ *)

type query_row = {
  fp : string;
  calls : int;
  total_ns : int;
  max_ns : int;
}

type rule_row = {
  label : string;
  stratum : int;
  evals : int;
  derived : int;
  ns : int;
  plan_hits : int;
  plan_misses : int;
  plan : string;
}

(* Worst queries first: total time, then call count, then the fingerprint
   itself so equal-cost rows render in a stable order. *)
let top t ~k =
  with_mu t (fun () ->
      Hashtbl.fold
        (fun _ q acc ->
          { fp = q.q_fp; calls = q.q_count; total_ns = q.q_ns;
            max_ns = q.q_max_ns }
          :: acc)
        t.queries [])
  |> List.sort (fun a b ->
         match compare b.total_ns a.total_ns with
         | 0 -> (
             match compare b.calls a.calls with
             | 0 -> compare a.fp b.fp
             | c -> c)
         | c -> c)
  |> fun rows -> List.filteri (fun i _ -> i < k) rows

let rules t =
  with_mu t (fun () ->
      Hashtbl.fold
        (fun _ rs acc ->
          {
            label = rs.rs_label;
            stratum = rs.rs_stratum;
            evals = Atomic.get rs.rs_evals;
            derived = Atomic.get rs.rs_derived;
            ns = Atomic.get rs.rs_ns;
            plan_hits = Atomic.get rs.rs_plan_hits;
            plan_misses = Atomic.get rs.rs_plan_misses;
            plan = rs.rs_plan;
          }
          :: acc)
        t.rules [])
  |> List.sort (fun a b ->
         match compare a.stratum b.stratum with
         | 0 -> compare a.label b.label
         | c -> c)

let fingerprints t = with_mu t (fun () -> Hashtbl.length t.queries)
let rule_count t = with_mu t (fun () -> Hashtbl.length t.rules)

(* ------------------------------------------------------------------ *)
(* Rendering (shared by the profile verb and GET /profile)             *)
(* ------------------------------------------------------------------ *)

let render_top rows =
  Printf.sprintf "%-10s %-8s %-10s %s" "total_ms" "calls" "max_ms"
    "fingerprint"
  :: List.map
       (fun r ->
         Printf.sprintf "%-10.3f %-8d %-10.3f %s"
           (Mtime.ns_to_ms r.total_ns)
           r.calls
           (Mtime.ns_to_ms r.max_ns)
           r.fp)
       rows

let page rows =
  String.concat "\n"
    (Printf.sprintf "profiling %s" (if enabled () then "on" else "off")
    :: render_top rows)
  ^ "\n"

let render_rules rows =
  Printf.sprintf "%-8s %-8s %-9s %-10s %-11s %-12s %s" "stratum" "evals"
    "derived" "total_ms" "plan_hit" "plan_miss" "rule"
  :: List.map
       (fun r ->
         Printf.sprintf "%-8d %-8d %-9d %-10.3f %-11d %-12d %s [%s]"
           r.stratum r.evals r.derived (Mtime.ns_to_ms r.ns) r.plan_hits
           r.plan_misses r.label r.plan)
       rows

(* Merge top-K tables from several tenants (the registry's GET /profile):
   fingerprints are summed across tenants, then re-ranked. *)
let merge_top (tables : query_row list list) ~k =
  let acc : (string, query_row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (List.iter (fun r ->
         match Hashtbl.find_opt acc r.fp with
         | Some p ->
             Hashtbl.replace acc r.fp
               {
                 fp = r.fp;
                 calls = p.calls + r.calls;
                 total_ns = p.total_ns + r.total_ns;
                 max_ns = max p.max_ns r.max_ns;
               }
         | None -> Hashtbl.replace acc r.fp r))
    tables;
  Hashtbl.fold (fun _ r l -> r :: l) acc []
  |> List.sort (fun a b ->
         match compare b.total_ns a.total_ns with
         | 0 -> (
             match compare b.calls a.calls with
             | 0 -> compare a.fp b.fp
             | c -> c)
         | c -> c)
  |> fun rows -> List.filteri (fun i _ -> i < k) rows

(* ------------------------------------------------------------------ *)
(* Exporter series                                                     *)
(* ------------------------------------------------------------------ *)

(* gomsm_rule_eval_seconds{rule=...}: cumulative evaluation seconds per
   rule (a counter — the accumulators only grow between resets); and
   gomsm_query_fingerprints: how many distinct fingerprints the bounded
   table currently tracks. *)
let export ?(labels = []) t : Export.metric list =
  let rule_series =
    List.map
      (fun r ->
        Export.Counter
          ( "gomsm_rule_eval_seconds",
            labels @ [ ("rule", r.label) ],
            Mtime.ns_to_s r.ns ))
      (rules t)
  in
  rule_series
  @ [
      Export.Gauge
        ("gomsm_query_fingerprints", labels, float_of_int (fingerprints t));
    ]
