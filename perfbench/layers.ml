(* The traced, in-process run: the per-layer breakdown.

   One client drives a tenant registry and broker built in this process, on
   its own data directory, with the same seeded inputs as the end-to-end
   run.  Each request crosses the layers the daemon's connection thread
   calls, each wrapped in a span recorded here, in the benchmark:
   [Protocol.parse_request], [Registry.with_db] (around a no-op: the routing
   cost), [Broker.handle], and [Protocol.write_response] (to /dev/null).
   The library has no spans of its own, so the work beneath
   [Broker.handle] is measured by replaying the same step on a twin
   [Core.Manager] held at the same state, calling each layer's public
   function directly.  Those spans are recorded as children of the
   [broker.handle] span: the broker's self time is its duration minus what
   the replay attributes to the layers below it.  Spans stay in memory
   until the run ends. *)

module Manager = Core.Manager
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal

type span = { id : int; name : string; op : int; parent : int; dur : int }

type recorder = { mutable spans : span list; mutable next : int }

let recorder () = { spans = []; next = 0 }

(* Run [f] as span [name] of op [op]; returns its result and the span's id,
   for children to name as their parent. *)
let span r ~op ?(parent = -1) name f =
  let id = r.next in
  r.next <- id + 1;
  let t0 = Obs.Mtime.now_ns () in
  let v = f () in
  let dur = Obs.Mtime.elapsed_ns t0 in
  r.spans <- { id; name; op; parent; dur } :: r.spans;
  (v, id)

type env = {
  reg : Tenant.Registry.t;
  db : string;
  broker : Broker.t;
  devnull : out_channel;
  client : int;
}

(* The twin: a manager recovered from its own data directory, with its own
   journal, so commits, appends and checkpoints replay exactly as the
   broker performs them. *)
type twin = { m : Manager.t; j : Journal.t; mutable append_bytes : int list }

let twin ~dir =
  let r = Journal.recover ~dir () in
  { m = r.Journal.manager; j = r.Journal.journal; append_bytes = [] }

(* The broker's defaults, which the daemon runs with. *)
let checkpoint_every = 64
let checkpoint_bytes = 4 * 1024 * 1024

(* Commit the twin's open session the way the broker does at [ees]:
   capture the delta, check, append, and checkpoint on either cap.  With
   [trace] each step is a span. *)
let twin_commit ?trace t =
  let wrap : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    match trace with
    | None -> f ()
    | Some (r, op, parent) -> fst (span r ~op ~parent name f)
  in
  let delta, code =
    wrap "core.session_delta" (fun () ->
        (Manager.session_delta t.m, Manager.session_code_changes t.m))
  in
  (match wrap "datalog.check" (fun () -> Manager.end_session t.m) with
  | Manager.Consistent -> ()
  | Manager.Inconsistent _ -> failwith "twin: session inconsistent");
  let b0 = Journal.bytes t.j in
  ignore
    (wrap "journal.append" (fun () ->
         Journal.append t.j ~ids:(Manager.ids t.m) ~code delta));
  t.append_bytes <- (Journal.bytes t.j - b0) :: t.append_bytes;
  if
    Journal.since_checkpoint t.j >= checkpoint_every
    || Journal.bytes t.j >= checkpoint_bytes
  then wrap "journal.checkpoint" (fun () -> Journal.checkpoint t.j t.m)

(* Seed the twin with the base, as one committed session. *)
let twin_seed t ~ddl =
  Manager.begin_session t.m;
  Manager.run_commands t.m ddl;
  twin_commit t

(* Replay one request beneath the broker span [parent].  A query is
   replayed only when [answers] is given (a response-cache hit does no work
   beneath the broker), against [reader]: reads leave the state as it was,
   so the broker's own manager is the twin at the same state. *)
let replay r t ~reader ~op ~parent ~answers (req : Protocol.request) =
  let wrap name f = fst (span r ~op ~parent name f) in
  match (req, answers) with
  | Protocol.Query text, Some n ->
      let lits = wrap "datalog.parse" (fun () -> Datalog.Parse.query text) in
      let mat =
        wrap "datalog.materialize" (fun () ->
            Datalog.Checker.materialize (Manager.theory reader)
              (Manager.database reader))
      in
      let count = ref 0 in
      wrap "datalog.query" (fun () ->
          Datalog.Eval.query mat lits (fun _ -> incr count));
      !count = n
  | Protocol.Bes, _ ->
      Manager.begin_session t.m;
      true
  | Protocol.Script_line cmd, _ ->
      let (), rc =
        span r ~op ~parent "core.run_commands" (fun () ->
            Manager.run_commands t.m cmd)
      in
      ignore
        (span r ~op ~parent:rc "analyzer.parse" (fun () ->
             Analyzer.parse_commands cmd));
      true
  | Protocol.Ees, _ ->
      twin_commit ~trace:(r, op, parent) t;
      true
  | _ -> true

let wire_response (resp : Protocol.response) : Wire.response =
  match resp.Protocol.status with
  | Protocol.Ok -> { Wire.ok = true; status = "ok"; body = resp.Protocol.body }
  | Protocol.Err e ->
      { Wire.ok = false; status = "err " ^ e; body = resp.Protocol.body }

let parse line =
  match Protocol.parse_request line with
  | Ok req -> req
  | Error e -> failwith ("bad request line: " ^ e)

let route env =
  match Tenant.Registry.with_db env.reg env.db ignore with
  | Ok () -> ()
  | Error e -> failwith e

(* One request through the layers without spans. *)
let serve env line =
  let req = parse line in
  route env;
  let resp = Broker.handle env.broker ~client:env.client req in
  Protocol.write_response env.devnull resp;
  resp

(* One op through the layers without spans; the ns it took and whether
   every response was right. *)
let untraced_op env (op : Load.op) =
  let t0 = Obs.Mtime.now_ns () in
  let resps = Array.map (fun (line, _) -> serve env line) op.Load.steps in
  let ns = Obs.Mtime.elapsed_ns t0 in
  let ok = ref true in
  Array.iteri
    (fun i (_, check) -> if not (check (wire_response resps.(i))) then ok := false)
    op.Load.steps;
  (ns, !ok)

(* One op with a span per layer and the twin replay beneath the broker.
   [replay_queries] says whether queries evaluate (read-miss) or hit the
   cache (read-hot). *)
let traced_op env r t ~o ~replay_queries (op : Load.op) =
  let ok = ref true in
  Array.iter
    (fun (line, check) ->
      let req, _ = span r ~op:o "protocol.parse" (fun () -> parse line) in
      ignore (span r ~op:o "tenant.route" (fun () -> route env));
      let resp, h =
        span r ~op:o "broker.handle" (fun () ->
            Broker.handle env.broker ~client:env.client req)
      in
      let answers = if replay_queries then op.Load.answers else None in
      let reader = Broker.manager env.broker in
      if not (replay r t ~reader ~op:o ~parent:h ~answers req) then ok := false;
      ignore
        (span r ~op:o "protocol.write" (fun () ->
             Protocol.write_response env.devnull resp));
      if not (check (wire_response resp)) then ok := false)
    op.Load.steps;
  !ok

type inproc = {
  times : int array;  (* untraced ops, ns each *)
  failed : int;
  minor_words : float;  (* per untraced op *)
  major_per_kop : float;  (* per 1000 untraced ops *)
}

(* [ops] untraced and [ops] traced ops, alternating in blocks of [block]
   (each block preceded by [before_block]), so that drift in machine speed
   hits every side alike.  For evolve the block is a multiple of 64 and
   even: the untraced ops then leave the broker at the twin's state and on
   the same checkpoint cadence. *)
let run env r t ~ops ~block ~before_block ~(next : unit -> Load.op)
    ~replay_queries =
  let times = Array.make ops 0 and failed = ref 0 in
  let minor = ref 0. and major = ref 0 in
  let u = ref 0 and tr = ref 0 in
  while !u < ops || !tr < ops do
    before_block ();
    let g0 = Gc.quick_stat () in
    for _ = 1 to min block (ops - !u) do
      let ns, ok = untraced_op env (next ()) in
      times.(!u) <- ns;
      incr u;
      if not ok then incr failed
    done;
    let g1 = Gc.quick_stat () in
    minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
    major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
    for _ = 1 to min block (ops - !tr) do
      if not (traced_op env r t ~o:!tr ~replay_queries (next ())) then
        incr failed;
      incr tr
    done
  done;
  {
    times;
    failed = !failed;
    minor_words = !minor /. float_of_int ops;
    major_per_kop = float_of_int !major *. 1000. /. float_of_int ops;
  }

(* Per span name: for each op, the summed duration and self time of that
   name's spans (self = duration minus the children's durations), and
   whether the op had one at all. *)
type layer = { dur : int array; self : int array; present : bool array }

let aggregate r ~ops =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.dur + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    r.spans;
  let layers = Hashtbl.create 16 in
  let op_self = Array.make ops 0 in
  List.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt layers s.name with
        | Some l -> l
        | None ->
            let l =
              {
                dur = Array.make ops 0;
                self = Array.make ops 0;
                present = Array.make ops false;
              }
            in
            Hashtbl.replace layers s.name l;
            l
      in
      let self =
        s.dur - Option.value ~default:0 (Hashtbl.find_opt child s.id)
      in
      l.dur.(s.op) <- l.dur.(s.op) + s.dur;
      l.self.(s.op) <- l.self.(s.op) + self;
      l.present.(s.op) <- true;
      op_self.(s.op) <- op_self.(s.op) + self)
    r.spans;
  (layers, op_self)
