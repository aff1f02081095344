(* Session broker: single-writer BES/EES across clients, each session kept
   out of the shared manager until EES, concurrent reads under a
   reader-writer lock, journaling through the batch writer, feeds. *)

module Manager = Core.Manager
module Persist = Core.Persist
module Failpoint = Fault.Failpoint
module Crc32 = Fault.Crc32

(* Fires between the in-memory commit and the journal append: the window
   the degraded-mode machinery exists for. *)
let fp_broker_commit = Failpoint.define "broker.commit"

(* The evaluator's observation seam, translated once here (broker.ml is
   linked into every server path): stratum fixpoints become
   [datalog.stratum] spans, rule evaluations feed the profiler.  Whether
   either records is decided by the current thread's context alone; with
   no context on any thread a rule evaluation costs one atomic load and
   renders no label or plan. *)
let () =
  let observe (type a) (ev : a Datalog.Eval.event) (f : unit -> a) : a =
    match ev with
    | Datalog.Eval.Stratum { stratum; rules } ->
        Obs.Trace.with_span "datalog.stratum"
          ~kvs:
            [
              ("stratum", string_of_int stratum); ("rules", string_of_int rules);
            ]
          f
    | Datalog.Eval.Rule { stratum; rule; plan; cache } ->
        if not (Obs.Profile.scoped ()) then f ()
        else
          Obs.Profile.observe_rule ~stratum
            ~label:(Datalog.Eval.rule_label rule)
            ~plan:(Datalog.Eval.plan_label plan)
            ~cache:
              (match cache with
              | `Hit -> Obs.Profile.Hit
              | `Miss -> Obs.Profile.Miss
              | `Unplanned -> Obs.Profile.Unplanned)
            f
  in
  Datalog.Eval.observer := { Datalog.Eval.observe }

let set_profiling on = Obs.Profile.set_enabled on

(* Locking, outermost first (never acquire a lock left of one you hold):

     Registry.mu  >  rw (read or write)  >  eval_mu  >  mu  >  metrics/journal

   Metrics calls its gauge readers after releasing its own mutex, so the
   [feed_subscribers]/[replication_lag_records] readers may take [mu] even
   though [enter_degraded] calls into Metrics with [mu] held.

   [rw] — [ees] and every other manager mutation hold it exclusively, as
   do the writer's reads over its own session (its change applied, read,
   rolled back); check/query/dump/health/feed and [script-line]'s analysis
   hold it shared, so the daemon's per-connection threads overlap on reads (and
   overlap with a commit's fsync wait, which holds no lock at all).
   [bes]/[rollback]/disconnect take none: until [ees] the session is the
   broker's own value ({!Session}), so there is nothing to undo.
   [eval_mu] — serializes datalog evaluation among concurrent readers:
   the evaluator's caches (lazily built relation indexes, per-program
   plans) are mutable per-manager state, so two evals on the same manager
   must not interleave.  It also guards the manager's derived-state slot,
   which a cache-miss read fills with the whole maintained program, and
   the base indexes a [script-line]'s analysis probes (and may build)
   through its session's overlay.  Response-cache hits skip it.
   [mu] — a leaf protecting the quick mutable fields: the writer slot and
   its waiter count, the response/digest caches and the response cache's
   doorkeeper, the degraded flag, the subscriber table. *)
type t = {
  mutable manager : Manager.t;  (* swapped only by a replica's bootstrap *)
  journal : Journal.t option;
  metrics : Metrics.t;
  rw : Rwlock.t;
  eval_mu : Mutex.t;
  mu : Mutex.t;
  mutable writer : Session.t option;  (* the BES..EES section's holder *)
  (* a self-pipe: releasing the writer slot writes a byte when a [bes]
     acquirer is blocked, and blocked acquirers select on it with their
     remaining deadline — a timed wait the stdlib Condition cannot
     express *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable waiters : int;  (* [bes] acquirers blocked on the writer slot *)
  mutable version : int;  (* bumped by every exclusive section *)
  (* responses to read-only verbs, valid for exactly one version of the
     manager state: the "published snapshot" concurrent readers serve
     from without evaluating (or locking) anything *)
  mutable read_cache : (int * (string, Protocol.response) Hashtbl.t) option;
  seen : int array;
      (* the response cache's doorkeeper: hashes of recently missed keys,
         in [admission_sets] sets of [admission_ways], newest first *)
  acquire_timeout : float;
  (* primary address to redirect writers to; cleared by a promotion *)
  mutable read_only : string option;
  mutable degraded : string option;  (* read-only after a storage failure *)
  mutable epoch : int;  (* promotion epoch (mirrors the journal's) *)
  (* a peer with a higher epoch exists: permanently refuse mutators *)
  mutable fenced : string option;
  mutable digest_cache : (int * string) option;  (* seq -> state digest *)
  subscribers : (int, int ref) Hashtbl.t;  (* feed client -> last sent seq *)
  profile : Obs.Profile.t;  (* this database's query-profile tables *)
}

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The gauges this broker reports, read live by [stats] and /metrics:
   registered by [create], removed by [close]. *)
let gauges t =
  let flag = function None -> 0 | Some _ -> 1 in
  [
    ("degraded", fun () -> flag t.degraded);
    ("epoch", fun () -> t.epoch);
    ("fenced", fun () -> flag t.fenced);
  ]
  @
  match t.journal with
  | None -> []
  | Some j ->
      let lags () =
        with_lock t (fun () ->
            Hashtbl.fold (fun _ sent acc -> (Journal.seq j - !sent) :: acc)
              t.subscribers [])
      in
      [
        ("journal_seq", fun () -> Journal.seq j);
        ("journal_base", fun () -> Journal.base j);
        ("journal_bytes", fun () -> Journal.bytes j);
        ("feed_subscribers", fun () -> List.length (lags ()));
        ("replication_lag_records", fun () -> List.fold_left max 0 (lags ()));
      ]

(* The doorkeeper's geometry: 4 ways per set, so a handful of hot keys
   that share a set do not keep pushing one another out, and 1024 hashes
   in all — a key seen again within about that many distinct misses is
   admitted. *)
let admission_ways = 4
let admission_sets = 256

let create ?journal ?(acquire_timeout = 5.0) ?read_only ~metrics manager =
  let rw =
    Rwlock.create
      ~on_read_wait:(fun () -> Metrics.incr metrics "read_lock_waits")
      ~on_write_wait:(fun () -> Metrics.incr metrics "write_lock_waits")
      ()
  in
  Option.iter
    (fun j ->
      Journal.set_flush_observer j (fun n ->
          Metrics.incr metrics "group_commits";
          Metrics.observe_count metrics "fsync_batch_size" n))
    journal;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      manager;
      journal;
      metrics;
      rw;
      eval_mu = Mutex.create ();
      mu = Mutex.create ();
      writer = None;
      wake_r;
      wake_w;
      waiters = 0;
      version = 0;
      read_cache = None;
      seen = Array.make (admission_sets * admission_ways) (-1);
      acquire_timeout;
      read_only;
      degraded = None;
      epoch = (match journal with Some j -> Journal.epoch j | None -> 0);
      fenced =
        (match journal with
        | Some j when Journal.fenced j && read_only = None ->
            (* the journal remembers the fence across restarts: a stale
               ex-primary must not boot back into accepting writes.  A node
               restarted explicitly as a replica has taken its demotion —
               the plain replica role covers it. *)
            Some
              (Printf.sprintf "superseded by a primary at epoch %d"
                 (Journal.epoch j))
        | _ -> None);
      digest_cache = None;
      subscribers = Hashtbl.create 4;
      profile = Obs.Profile.create ();
    }
  in
  List.iter (fun (name, read) -> Metrics.gauge metrics name read) (gauges t);
  t

let manager t = t.manager
let metrics t = t.metrics
let profile t = t.profile
let journal t = t.journal

let with_read t f = Rwlock.read t.rw f

let with_write t f =
  Rwlock.write t.rw (fun () ->
      t.version <- t.version + 1;
      f ())

(* Per-tenant plan-cache traffic: the evaluator's hit/miss counters are
   global, so each broker charges itself the delta it observes across its
   own eval sections.  A concurrent eval on another broker can shift a few
   counts between tenants; the daemon-wide totals stay exact — good enough
   for the per-database [db stat] breakdown this feeds. *)
let count_plan_traffic t f =
  let h0 = Datalog.Plan.hits () and m0 = Datalog.Plan.misses () in
  Fun.protect
    ~finally:(fun () ->
      let dh = Datalog.Plan.hits () - h0
      and dm = Datalog.Plan.misses () - m0 in
      if dh > 0 then Metrics.incr ~by:dh t.metrics "plan.hits";
      if dm > 0 then Metrics.incr ~by:dm t.metrics "plan.misses")
    f

let with_eval t f =
  Mutex.lock t.eval_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.eval_mu)
    (fun () -> count_plan_traffic t f)

let exclusively = with_write
(* a replaced state may reuse a sequence number the digest cache knows *)
let replace_manager t m =
  t.manager <- m;
  with_lock t (fun () -> t.digest_cache <- None)

let writer t = with_lock t (fun () -> Option.map Session.owner t.writer)

let session_of t ~client =
  with_lock t (fun () ->
      match t.writer with
      | Some s when Session.owner s = client -> Some s
      | _ -> None)

let degraded t = t.degraded
let epoch t = t.epoch
let fenced t = t.fenced

let role t =
  if t.fenced <> None then "fenced"
  else match t.read_only with Some _ -> "replica" | None -> "primary"

(* ------------------------------------------------------------------ *)
(* Writer slot (the BES..EES exclusivity)                              *)
(* ------------------------------------------------------------------ *)

let wake_byte = Bytes.make 1 'w'

(* Call with [mu] held.  The byte is a wakeup edge, not a token: every
   blocked acquirer wakes, one wins the slot, the rest go back to their
   select.  With no acquirer blocked nothing is written: an acquirer
   counts itself in [waiters] in the same critical section that finds the
   slot taken, so a release after that finds it counted.  A full pipe
   means wakeups are already pending — dropping the write is fine. *)
let release_slot_locked t =
  t.writer <- None;
  if t.waiters > 0 then
    try ignore (Unix.write t.wake_w wake_byte 0 1)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
    -> ()

let wake_pending t =
  match Unix.select [ t.wake_r ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true

let drain_wakeups fd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* State digest and degraded mode                                      *)
(* ------------------------------------------------------------------ *)

(* CRC-32 over the sorted encoded base facts and the code a dump carries:
   order-independent, and deliberately blind to identifier counters (a
   primary's allocations can be rolled back, so its counters legitimately
   drift ahead of a replica that only ever sees committed records) and to
   code no fact names (a replica bootstrapped from a snapshot lacks it). *)
let digest_of_manager m =
  let lines =
    (Datalog.Database.all_facts (Manager.database m)
    |> List.map Persist.encode_fact
    |> List.sort String.compare)
    @ List.map
        (fun (cid, (params, body)) -> Persist.encode_code ~cid ~params ~body)
        (Persist.code_pieces m)
  in
  let acc =
    List.fold_left
      (fun a l -> Crc32.update_string (Crc32.update_string a l) "\n")
      Crc32.init lines
  in
  Crc32.to_hex (Crc32.finish acc)

(* Call with the read lock held.  [None] while committed records await
   their fsync, or once degraded or fenced: the in-memory state then does
   not describe a committed, durable position and the digest would trip
   false divergence alarms.  An open session is not in the manager. *)
let state_digest_rd t =
  let blocked =
    with_lock t (fun () -> t.degraded <> None || t.fenced <> None)
    || (match t.journal with Some j -> Journal.in_flight j | None -> false)
  in
  if blocked then None
  else
    match t.journal with
    | None -> Some (with_eval t (fun () -> digest_of_manager t.manager))
    | Some j -> (
        let seq = Journal.seq j in
        match with_lock t (fun () -> t.digest_cache) with
        | Some (s, d) when s = seq -> Some d
        | _ ->
            let d = with_eval t (fun () -> digest_of_manager t.manager) in
            with_lock t (fun () -> t.digest_cache <- Some (seq, d));
            Some d)

let state_digest t = with_read t (fun () -> state_digest_rd t)

(* One-way: once the store has failed under us, only a restart (which
   re-runs recovery) clears the flag. *)
let enter_degraded t reason =
  with_lock t (fun () ->
      if t.degraded = None then begin
        t.degraded <- Some reason;
        t.digest_cache <- None;
        Metrics.incr t.metrics "degraded_entries"
      end)

(* ------------------------------------------------------------------ *)
(* Epochs: fencing and promotion                                       *)
(* ------------------------------------------------------------------ *)

(* A peer with epoch [epoch] (above ours) exists — observed on a
   subscriber's higher epoch, or delivered by the [fence] admin verb.
   Permanently stop accepting mutators; the fence is journaled (marker +
   header), so it survives a restart.  One-way like degraded mode: the
   only way forward for this node is a restart as a replica of the new
   primary. *)
let fence t ~epoch ~source =
  Obs.Trace.with_span "broker.fence"
    ~kvs:[ ("epoch", string_of_int epoch); ("source", source) ]
  @@ fun () ->
  with_write t (fun () ->
      if epoch <= t.epoch then
        Error
          (Printf.sprintf "stale epoch %d: this node is already at epoch %d"
             epoch t.epoch)
      else begin
        (match t.journal with
        | Some j -> Journal.advance_epoch j ~epoch ~fenced:true
        | None -> ());
        t.epoch <- epoch;
        let reason =
          Printf.sprintf "superseded by a primary at epoch %d (%s)" epoch
            source
        in
        with_lock t (fun () ->
            t.fenced <- Some reason;
            t.digest_cache <- None);
        Metrics.incr t.metrics "fencings";
        Obs.Log.warnf ~comp:"broker"
          ~kvs:[ ("epoch", string_of_int epoch); ("source", source) ]
          "fenced: refusing all further writes";
        Ok ()
      end)

(* Flip a read-only replica broker into the writer for its data dir: the
   replica daemon calls this once its subscription is drained.  The epoch
   bump is journaled first (marker + record stamps from here on), so a
   crash right after promotion still recovers as a primary at the new
   epoch. *)
let promote t =
  with_write t (fun () ->
      match t.read_only with
      | None -> Error "already a primary; promote is for replicas"
      | Some _ ->
          if t.fenced <> None then Error "this node is fenced; cannot promote"
          else begin
            let epoch = t.epoch + 1 in
            (match t.journal with
            | Some j -> Journal.advance_epoch j ~epoch ~fenced:false
            | None -> ());
            t.epoch <- epoch;
            t.read_only <- None;
            Metrics.incr t.metrics "promotions";
            let seq =
              match t.journal with Some j -> Journal.seq j | None -> 0
            in
            Obs.Log.infof ~comp:"broker"
              ~kvs:
                [ ("epoch", string_of_int epoch); ("seq", string_of_int seq) ]
              "promoted: accepting writes";
            Ok (epoch, seq)
          end)

(* Adopt a higher epoch observed on the feed this broker is replicating
   from (ack, ping or record stamp): not a fence — the primary we follow
   is legitimately ahead after a promotion.  Only the replica's single
   feed thread calls this (no locking: the epoch is a monotonic int and
   nothing else writes it on a replica). *)
let note_feed_epoch t ~epoch =
  if epoch > t.epoch then begin
    (match t.journal with
    | Some j when Journal.epoch j < epoch ->
        Journal.advance_epoch j ~epoch ~fenced:false
    | _ -> ());
    t.epoch <- epoch
  end

(* ------------------------------------------------------------------ *)
(* The read-side response cache                                        *)
(* ------------------------------------------------------------------ *)

let max_cache_entries = 256

let cache_probe t key =
  with_lock t (fun () ->
      match t.read_cache with
      | Some (v, tbl) when v = t.version -> Hashtbl.find_opt tbl key
      | _ -> None)

(* Call with [mu] held.  Whether [key] was missed recently: its hash is in
   its set of the doorkeeper.  If not, it is remembered there (the set's
   oldest hash makes room), and the answer is not worth storing — most
   misses are never asked again, and storing each one into the
   long-lived table costs a promotion per miss.  The doorkeeper survives
   a version move, so a key asked before a commit is stored at its first
   evaluation after it. *)
let admit_locked t key =
  let h = Hashtbl.hash key in
  let base = (h land (admission_sets - 1)) * admission_ways in
  let rec known w =
    w < admission_ways && (t.seen.(base + w) = h || known (w + 1))
  in
  known 0
  || begin
       Array.blit t.seen base t.seen (base + 1) (admission_ways - 1);
       t.seen.(base) <- h;
       false
     end

(* Publish [resp] for [key] at version [v], on the key's second sighting. *)
let cache_store t v key resp =
  with_lock t (fun () ->
      if admit_locked t key then begin
        let tbl =
          match t.read_cache with
          | Some (v', tbl) when v' = v -> tbl
          | _ ->
              let tbl = Hashtbl.create 32 in
              t.read_cache <- Some (v, tbl);
              tbl
        in
        if Hashtbl.length tbl >= max_cache_entries then Hashtbl.reset tbl;
        Hashtbl.replace tbl key resp
      end)

(* Serve a read-only verb: from the response cache when the state hasn't
   moved since the answer was computed, else evaluate under the shared
   lock (evaluations themselves serialized by [eval_mu], over the
   manager's maintained derived state) and publish the answer for
   every later reader at this version. *)
let cached t key compute =
  match cache_probe t key with
  | Some r ->
      Metrics.incr t.metrics "read_cache_hits";
      r
  | None ->
      with_read t (fun () ->
          (* the version is frozen while we hold the read lock, so an
             answer computed here is valid for exactly this version *)
          match cache_probe t key with
          | Some r ->
              Metrics.incr t.metrics "read_cache_hits";
              r
          | None ->
              let v = t.version in
              let r = with_eval t compute in
              cache_store t v key r;
              r)

(* A read for [client].  The writer reads its own changes: while its
   session holds commands, [f] runs over the session's change applied
   under the exclusive lock, then rolled back — the committed state does
   not move, so the cache version stays.  Everyone else reads committed
   state, as [others] does. *)
let read t ~client ~others f =
  match session_of t ~client with
  | Some s when not (Session.is_empty s) ->
      Rwlock.write t.rw (fun () ->
          Manager.with_change t.manager (Session.change s t.manager) (fun () ->
              with_eval t f))
  | _ -> others f

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let ok = Protocol.ok
let err = Protocol.err

(* bes: take the writer slot, waiting up to the acquire timeout.  Blocked
   acquirers select on the wake pipe (a slot release writes a byte), so a
   release wakes them immediately and the deadline still holds; the 250 ms
   cap on each select is only a safety net. *)
let do_bes t ~client =
  Obs.Trace.with_span "broker.acquire"
    ~kvs:[ ("client", string_of_int client) ]
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. t.acquire_timeout in
  let waited = ref false in
  (* counted among [waiters] from the first [Busy] until this call ends *)
  let counted = ref false in
  Fun.protect ~finally:(fun () ->
      if !counted then with_lock t (fun () -> t.waiters <- t.waiters - 1))
  @@ fun () ->
  let rec attempt () =
    let r =
      with_lock t (fun () ->
          match t.writer with
          | None ->
              t.writer <- Some (Session.create ~owner:client t.manager);
              `Acquired
          | Some s when Session.owner s = client -> `Own
          | Some s ->
              if not !counted then begin
                counted := true;
                t.waiters <- t.waiters + 1
              end;
              `Busy (Session.owner s))
    in
    match r with
    | `Acquired ->
        Metrics.incr t.metrics "sessions_opened";
        ok [ "session open." ]
    | `Own -> err "session already open"
    | `Busy c ->
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then begin
          Metrics.incr t.metrics "sessions_timed_out";
          err (Printf.sprintf "timeout: evolution session held by client %d" c)
        end
        else begin
          if not !waited then begin
            waited := true;
            Metrics.incr t.metrics "acquire_waits"
          end;
          (match Unix.select [ t.wake_r ] [] [] (Float.min remaining 0.25) with
          | [], _, _ -> ()
          | _ -> with_lock t (fun () -> drain_wakeups t.wake_r)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          attempt ()
        end
  in
  attempt ()

let violation_lines reports =
  List.map (fun r -> "violation: " ^ r.Manager.description) reports

(* A commit's record failed to enqueue, or the fsync covering it failed,
   after the in-memory commit: put the manager back to what the files
   hold, before any reply.  It is rebuilt from them, not by inverting
   this session's delta, since one failed batch can cover several
   sessions; the drain first writes what earlier commits enqueued, if
   the journal still can.  Call in an exclusive section. *)
let restore_durable t j =
  (try Journal.drain j with _ -> ());
  match Journal.reload j with
  | m -> replace_manager t m
  | exception e ->
      Obs.Log.warnf ~comp:"journal"
        "cannot rebuild the manager from the journal: %s"
        (Printexc.to_string e)

(* The record is not durable, and the manager no longer holds it. *)
let journal_failure t e =
  Metrics.incr t.metrics "journal_errors";
  match e with
  | Journal.Fenced { record_epoch; journal_epoch } ->
      (* the append-side gate caught a commit racing a fence: nothing was
         written — report the refusal in the same shape as the protocol-
         side fence so clients fail over identically *)
      with_lock t (fun () ->
          if t.fenced = None then
            t.fenced <-
              Some
                (Printf.sprintf "superseded by a primary at epoch %d"
                   journal_epoch));
      Metrics.incr t.metrics "fenced_refusals";
      err
        (Printf.sprintf
           "fenced: this node (epoch %d) was superseded by a primary at \
            epoch %d; the commit was not written — retry against the \
            promoted node"
           record_epoch journal_epoch)
  | Unix.Unix_error ((Unix.EIO | Unix.ENOSPC) as ec, _, _) ->
      (* the disk is failing under us: the in-memory commit can no longer
         be made durable, so stop accepting writes — readers keep
         working, a restart re-runs recovery *)
      enter_degraded t
        (Printf.sprintf "journal append failed: %s" (Unix.error_message ec));
      err
        ("journal write failed ("
        ^ Unix.error_message ec
        ^ "); entering degraded read-only mode — the commit was not made \
           durable: "
        ^ Printexc.to_string e)
  | e -> err ("the journal write failed: " ^ Printexc.to_string e)

(* A checkpoint failed behind a durable record. *)
let checkpoint_failure t e =
  Metrics.incr t.metrics "journal_errors";
  match e with
  | Unix.Unix_error ((Unix.EIO | Unix.ENOSPC) as ec, _, _) ->
      enter_degraded t
        (Printf.sprintf "checkpoint failed: %s" (Unix.error_message ec))
  | e ->
      Obs.Log.warnf ~comp:"journal" "checkpoint failed: %s"
        (Printexc.to_string e)

let do_ees t ~client =
  let step =
    with_write t (fun () ->
        match session_of t ~client with
        | None -> `Resp (err "no session open; send bes first")
        | Some s -> (
          let change = Session.change s t.manager in
          match
            Manager.commit t.manager change ~around_check:(fun check ->
                Obs.Trace.with_span "session.check" (fun () ->
                    count_plan_traffic t check))
          with
          | Manager.Consistent -> (
              with_lock t (fun () -> release_slot_locked t);
              Metrics.incr t.metrics "sessions_committed";
              match t.journal with
              | None -> `Resp (ok [ "consistent; session ended." ])
              | Some j -> (
                  match
                    Failpoint.hit fp_broker_commit;
                    Journal.enqueue j ~epoch:t.epoch ~ids:change.ids
                      ~code:change.code change.delta
                  with
                  | exception e ->
                      restore_durable t j;
                      `Failed e
                  | seq ->
                      Metrics.incr t.metrics "journal_records";
                      let ckpt =
                        match Journal.maybe_checkpoint j t.manager with
                        | true ->
                            Metrics.incr t.metrics "checkpoints";
                            None
                        | false -> None
                        | exception e -> Some e
                      in
                      `Enqueued (j, seq, ckpt)))
          | Manager.Inconsistent reports ->
              (* only the manager rolls back: fix the session, or rollback *)
              Metrics.incr ~by:(List.length reports) t.metrics
                "violations_found";
              `Resp
                (err "inconsistent; session stays open (rollback to undo)"
                   ~body:(violation_lines reports))))
  in
  match step with
  | `Resp r -> r
  | `Failed e -> journal_failure t e
  | `Enqueued (j, seq, ckpt) -> (
      (* the record is enqueued but not yet durable.  The writer slot and
         the exclusive lock are already released, so the fsync wait below
         overlaps the next client's session work and every concurrent
         read, and commits that arrive meanwhile share the next fsync.
         The acknowledgment still only goes out after the fsync covering
         the record (or reports its loss). *)
      match Journal.await j ~seq with
      | exception e ->
          with_write t (fun () -> restore_durable t j);
          journal_failure t e
      | () ->
          (* a checkpoint that failed after draining this record leaves it
             durable: acknowledge it, and let the poisoned journal refuse
             the next commit *)
          Option.iter (checkpoint_failure t) ckpt;
          ok [ "consistent; session ended." ])

(* The manager never saw the session: dropping it is the whole undo. *)
let do_rollback t ~client =
  with_lock t (fun () ->
      match t.writer with
      | Some s when Session.owner s = client ->
          release_slot_locked t;
          Metrics.incr t.metrics "sessions_rolled_back";
          ok [ "rolled back." ]
      | _ -> err "no session open")

let do_check t ~client =
  read t ~client ~others:(cached t "check") (fun () ->
      match
        Obs.Trace.with_span "session.check" (fun () ->
            Manager.check_now t.manager)
      with
      | [] -> ok [ "consistent." ]
      | reports ->
          Metrics.incr ~by:(List.length reports) t.metrics "violations_found";
          ok (violation_lines reports))

(* One line per answer, ["  X = a, Y = b"], then the count.  A cache miss
   renders every binding, so the lines are built in one reused buffer. *)
let answer_lines answers =
  let buf = Buffer.create 128 in
  let line bindings =
    Buffer.clear buf;
    Buffer.add_string buf "  ";
    List.iteri
      (fun i (v, c) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf v;
        Buffer.add_string buf " = ";
        Buffer.add_string buf (Datalog.Term.const_to_string c))
      bindings;
    Buffer.contents buf
  in
  let rec go n acc = function
    | [] -> List.rev ((string_of_int n ^ " answer(s).") :: acc)
    | b :: rest -> go (n + 1) (line b :: acc) rest
  in
  go 0 [] answers

let do_query_uninstrumented t ~client text =
  read t ~client ~others:(cached t ("query:" ^ text)) (fun () ->
      match Manager.query_text t.manager text with
      | answers -> ok (answer_lines answers)
      | exception Datalog.Parse.Error e -> err ("syntax error: " ^ e)
      | exception Datalog.Rule.Unsafe e -> err ("unsafe query: " ^ e))

(* [query] under the profiler: when profiling is on or a slow-query
   threshold is set, time the whole request (response-cache hits included
   — they are this query's real cost), collect the per-rule events, and
   file the result under the query's fingerprint.  Parse failures are not
   fingerprinted. *)
let do_query t ~client text =
  if not (Obs.Profile.query_armed ()) then
    do_query_uninstrumented t ~client text
  else begin
    let t0 = Obs.Mtime.now_ns () in
    let note resp events =
      (match resp.Protocol.status with
      | Protocol.Ok ->
          let ns = Obs.Mtime.elapsed_ns t0 in
          (* the table accumulates only while profiling is on; with just a
             slow-query threshold set, slow queries are logged but nothing
             is recorded — [profile off] means off *)
          if Obs.Profile.enabled () then
            ignore (Obs.Profile.note_query t.profile ~text ~ns ~events)
          else Obs.Profile.warn_slow ~text ~ns ~events
      | Protocol.Err _ -> ());
      resp
    in
    match
      if session_of t ~client = None then cache_probe t ("query:" ^ text)
      else None
    with
    | Some resp ->
        (* a response-cache hit evaluates no rules, so there is no scope
           to install — the hit is still this query's real cost, so it is
           timed and filed under its fingerprint like any other run *)
        Metrics.incr t.metrics "read_cache_hits";
        note resp []
    | None ->
        let events = ref [] in
        let sink = if Obs.Profile.enabled () then Some t.profile else None in
        let resp =
          Obs.Profile.with_scope ?sink ~collect:events (fun () ->
              do_query_uninstrumented t ~client text)
        in
        note resp !events
  end

(* [explain]: run the query once, uncached and freshly materialized, with a
   one-shot collector scope, then report what actually happened — the
   program's strata, every rule evaluation with its chosen plan, cache
   outcome and time, the ad-hoc query body's own plan, and the answer
   count.  Bypassing both the response cache and the maintained derived
   state is the point: the rule rows exist to show what evaluation costs,
   and an explain answered from either would have nothing to explain.  The
   strata are read inside the same locked section: preparing the theory
   fills a lazy cache a concurrent writer could be changing. *)
let do_explain t ~client text =
  let tmp = Obs.Profile.create () in
  let t0 = Obs.Mtime.now_ns () in
  let explain () =
    Obs.Profile.with_scope ~sink:tmp (fun () ->
        let m = t.manager in
        match
          Manager.query_text
            ~materialized:
              (Datalog.Checker.materialize (Manager.theory m)
                 (Manager.database m))
            m text
        with
        | answers ->
            let strata =
              Datalog.Eval.stratification
                (Datalog.Theory.prepared (Manager.theory t.manager))
              |> Datalog.Stratify.strata
            in
            Ok (List.length answers, strata)
        | exception Datalog.Parse.Error e -> Error ("syntax error: " ^ e)
        | exception Datalog.Rule.Unsafe e -> Error ("unsafe query: " ^ e))
  in
  let result =
    read t ~client explain ~others:(fun f ->
        with_read t (fun () -> with_eval t f))
  in
  let total_ns = Obs.Mtime.elapsed_ns t0 in
  match result with
  | Error e -> err e
  | Ok (answers, strata) ->
      let strata_lines =
        Printf.sprintf "strata %d" (Array.length strata)
        :: (Array.to_list strata
           |> List.mapi (fun i rules ->
                  Printf.sprintf "stratum %d: %d rule(s)" i
                    (List.length rules)))
      in
      let rows = Obs.Profile.rules tmp in
      let query_rows, rule_rows =
        List.partition (fun r -> r.Obs.Profile.stratum < 0) rows
      in
      let rule_lines = Obs.Profile.render_rules rule_rows in
      let query_plan_lines =
        List.map
          (fun r ->
            Printf.sprintf "query plan %s (%.3f ms)" r.Obs.Profile.plan
              (Obs.Mtime.ns_to_ms r.Obs.Profile.ns))
          query_rows
      in
      ok
        (("query " ^ text)
         :: ("fingerprint " ^ Obs.Profile.fingerprint text)
         :: strata_lines
        @ rule_lines @ query_plan_lines
        @ [
            Printf.sprintf "answers %d" answers;
            Printf.sprintf "total_ms %.3f" (Obs.Mtime.ns_to_ms total_ns);
          ])

let do_profile t (cmd : Protocol.profile_cmd) =
  match cmd with
  | Protocol.Pon ->
      set_profiling true;
      ok [ "profiling on." ]
  | Protocol.Poff ->
      set_profiling false;
      ok [ "profiling off." ]
  | Protocol.Preset ->
      Obs.Profile.reset t.profile;
      ok [ "profile reset." ]
  | Protocol.Prules ->
      ok (Obs.Profile.render_rules (Obs.Profile.rules t.profile))
  | Protocol.Ptop k -> ok (Obs.Profile.render_top (Obs.Profile.top t.profile ~k))

(* Analysis only reads the committed base, beside other readers: its
   changes go into the session's overlay. *)
let do_script_line t ~client text =
  match session_of t ~client with
  | None -> err "no session open; send bes first"
  | Some s -> (
    match Analyzer.parse_commands text with
    | exception Analyzer.Syntax_error e -> err ("syntax error: " ^ e)
    | commands ->
        if
          List.exists
            (function
              | Analyzer.Ast.Begin_session | Analyzer.Ast.End_session -> true
              | _ -> false)
            commands
        then err "use the bes/ees requests to manage sessions"
        else begin
          let diags =
            with_read t (fun () ->
                with_eval t (fun () -> Session.analyze s t.manager commands))
          in
          ok (List.map (fun d -> "analyzer: " ^ d) diags)
        end)

let do_dump t ~client =
  read t ~client ~others:(cached t "dump") (fun () ->
      let text =
        Analyzer.Unparse.unparse_script
          (Analyzer.Unparse.make
             ~db:(Manager.database t.manager)
             ~lookup_code:(Manager.lookup_code t.manager))
      in
      let lines = String.split_on_char '\n' text in
      (* drop the trailing empty line the final newline produces *)
      let lines =
        match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
      in
      ok lines)

let do_health t =
  let role = role t in
  let degraded, fenced, seq, digest =
    with_read t (fun () ->
        ( t.degraded,
          t.fenced,
          (match t.journal with Some j -> Journal.seq j | None -> 0),
          state_digest_rd t ))
  in
  let status_lines =
    match (fenced, degraded) with
    | Some reason, _ -> [ "status fenced"; "reason " ^ reason ]
    | None, Some reason -> [ "status degraded"; "reason " ^ reason ]
    | None, None -> [ "status ok" ]
  in
  ok
    (("role " ^ role) :: status_lines
    @ [ Printf.sprintf "epoch %d" t.epoch; Printf.sprintf "seq %d" seq ]
    @ (match digest with None -> [] | Some d -> [ "digest " ^ d ]))

let do_stats t = ok (Metrics.render t.metrics)

(* The [db stat] body of an open database: the tenant registry appends the
   data directory's path, a bare broker's router serves it as is. *)
let stat_lines ~name t =
  [
    "name " ^ name;
    "state open";
    Printf.sprintf "epoch %d" t.epoch;
    "role " ^ role t;
  ]
  @ (match t.journal with
    | Some j ->
        [
          Printf.sprintf "seq %d" (Journal.seq j);
          Printf.sprintf "journal_bytes %d" (Journal.bytes j);
        ]
    | None -> [])
  @ [
      (match writer t with
      | Some c -> Printf.sprintf "writer client %d" c
      | None -> "writer none");
      (* this database's own plan-cache traffic (the process-wide
         roll-up lives in [stats]) and its profile tables *)
      Printf.sprintf "plan_cache_hits %d"
        (Metrics.counter t.metrics "plan.hits");
      Printf.sprintf "plan_cache_misses %d"
        (Metrics.counter t.metrics "plan.misses");
      Printf.sprintf "profile_fingerprints %d"
        (Obs.Profile.fingerprints t.profile);
      Printf.sprintf "profile_rules %d" (Obs.Profile.rule_count t.profile);
    ]

let export ?labels t =
  Metrics.export ?labels t.metrics @ Obs.Profile.export ?labels t.profile

(* ------------------------------------------------------------------ *)
(* Replication feed (the primary's side of [subscribe])                *)
(* ------------------------------------------------------------------ *)

let ping_interval = 2.0

(* Stream the journal to one subscriber forever: snapshot bootstrap when its
   position predates the last checkpoint, then batches of raw records, then
   pings while idle.  Journal reads happen under the shared lock — many
   feeds (and queries) overlap, while checkpoints still exclude them — and
   the socket writes happen under no lock at all: a slow replica must not
   stall the writer.  Batches being flushed are invisible here
   until their fsync completes ([Journal.seq] only advances then), so a
   feed can never ship an unacknowledged record.  Returns when the
   subscriber goes away or the feed cannot continue. *)
let feed t ~client ~from ?(sub_epoch = 0) oc =
  match t.journal with
  | None ->
      Protocol.write_response oc
        (err "replication requires a journaled server (start with --data)")
  | Some _ when sub_epoch > t.epoch ->
      (* the subscriber has lived through a promotion we have not: we are
         the stale side of a split brain.  Fence ourselves before
         refusing, so no mutator sneaks in afterwards either. *)
      (match
         fence t ~epoch:sub_epoch
           ~source:(Printf.sprintf "subscriber client %d" client)
       with
      | Ok () | Error _ -> ());
      Protocol.write_response oc
        (err
           (Printf.sprintf
              "fenced: subscriber epoch %d is above this node's epoch %d"
              sub_epoch t.epoch))
  | Some j ->
      Protocol.write_response oc
        (ok
           [
             Printf.sprintf "feed from %d at %d" from (Journal.seq j);
             Printf.sprintf "epoch %d" t.epoch;
           ]);
      Metrics.incr t.metrics "feed_subscriptions";
      let sent = ref from in
      with_lock t (fun () -> Hashtbl.replace t.subscribers client sent);
      Fun.protect
        ~finally:(fun () ->
          with_lock t (fun () -> Hashtbl.remove t.subscribers client))
      @@ fun () ->
      let last_ping = ref (Unix.gettimeofday ()) in
      let frame header body =
        Protocol.write_frame oc ~header ~body;
        last_ping := Unix.gettimeofday ()
      in
      let body_of text =
        (* the text ends in a newline; drop the empty tail line *)
        match List.rev (String.split_on_char '\n' text) with
        | "" :: rest -> List.rev rest
        | _ -> String.split_on_char '\n' text
      in
      let rec loop () =
        let action =
          with_read t (fun () ->
              let base = Journal.base j and seq = Journal.seq j in
              if !sent > seq then `Diverged (!sent, seq)
              else if !sent < base then
                match Journal.read_snapshot j with
                | Some text -> `Snapshot (base, text)
                | None -> `Diverged (!sent, seq)
              else if !sent < seq then
                `Records (Journal.records_from j ~from:!sent)
              else `Idle (seq, state_digest_rd t))
        in
        match action with
        | `Snapshot (bseq, text) ->
            frame (Printf.sprintf "snapshot %d" bseq) (body_of text);
            Metrics.incr t.metrics "feed_snapshots_sent";
            sent := bseq;
            loop ()
        | `Records rs ->
            List.iter
              (fun (s, text) ->
                frame (Printf.sprintf "record %d" s) (body_of text);
                Metrics.incr t.metrics "feed_records_sent";
                sent := s)
              rs;
            loop ()
        | `Diverged (have, seq) ->
            frame
              (Printf.sprintf
                 "error subscriber position %d is ahead of the journal (at \
                  %d); resubscribe from 0"
                 have seq)
              []
        | `Idle (seq, digest) ->
            if Unix.gettimeofday () -. !last_ping >= ping_interval then
              frame
                (match digest with
                | Some d -> Printf.sprintf "ping %d epoch %d %s" seq t.epoch d
                | None -> Printf.sprintf "ping %d epoch %d" seq t.epoch)
                []
            else Thread.delay 0.02;
            loop ()
      in
      (try loop () with Sys_error _ | Unix.Unix_error _ -> ())

let read_only_verbs = function
  | Protocol.Bes | Protocol.Ees | Protocol.Rollback | Protocol.Script_line _ ->
      true
  | _ -> false

let handle t ~client (req : Protocol.request) : Protocol.response =
  Metrics.incr t.metrics "requests_total";
  let dispatch () =
  try
    match t.fenced with
    | Some reason when read_only_verbs req ->
        (* fenced outranks every other refusal: the reason line must start
           with "fenced" so clients fail over to the promoted node *)
        Metrics.incr t.metrics "fenced_refusals";
        err
          (Printf.sprintf
             "fenced: %s; reads still served, writes go to the promoted \
              primary"
             reason)
    | _ -> (
    match t.degraded with
    | Some reason when read_only_verbs req ->
        Metrics.incr t.metrics "degraded_refusals";
        err
          (Printf.sprintf
             "degraded read-only mode after a storage failure (%s); reads \
              still served, restart the server to recover"
             reason)
    | _ -> (
    match t.read_only with
    | Some primary when read_only_verbs req ->
        Metrics.incr t.metrics "read_only_refusals";
        err
          (Printf.sprintf
             "read-only replica: evolution sessions go to the primary at %s"
             primary)
    | _ -> (
        match req with
        | Protocol.Bes -> do_bes t ~client
        | Protocol.Ees -> do_ees t ~client
        | Protocol.Rollback -> do_rollback t ~client
        | Protocol.Check -> do_check t ~client
        | Protocol.Query q -> do_query t ~client q
        | Protocol.Explain q -> do_explain t ~client q
        | Protocol.Profile cmd -> do_profile t cmd
        | Protocol.Script_line c -> do_script_line t ~client c
        | Protocol.Dump -> do_dump t ~client
        | Protocol.Stats -> do_stats t
        | Protocol.Health -> do_health t
        | Protocol.Fence e -> (
            match fence t ~epoch:e ~source:(Printf.sprintf "fence verb from client %d" client) with
            | Ok () ->
                ok [ Printf.sprintf "fenced at epoch %d; writes refused." e ]
            | Error reason -> err reason)
        | Protocol.Promote ->
            (* the replica daemon intercepts promote (it must stop its
               feed thread first); a bare primary broker has nothing to
               promote *)
            err "promote is only available on a replica daemon"
        | Protocol.Subscribe _ ->
            (* the daemon turns the connection into a feed before it gets
               here; anything else cannot stream *)
            err "subscribe is only available on a feed connection"
        | Protocol.Use _ | Protocol.Db_create _ | Protocol.Db_drop _
        | Protocol.Db_list | Protocol.Db_stat _ ->
            (* the daemon routes these to its registry before they get
               here; a bare broker hosts exactly one database *)
            err "database management needs a multi-database daemon"
        | Protocol.Quit -> ok [ "bye." ])))
  with e ->
    Metrics.incr t.metrics "internal_errors";
    err ("internal error: " ^ Printexc.to_string e)
  in
  (* with profiling on, every rule evaluation under this request — session
     checks and script analysis included, not only queries — accumulates
     into this database's profile; off, this is one atomic load.  [query]
     and [explain] install their own scopes inside, so the hottest verb
     pays exactly one scope, not two *)
  match req with
  | Protocol.Query _ | Protocol.Explain _ -> dispatch ()
  | _ ->
      if Obs.Profile.enabled () then
        Obs.Profile.with_scope ~sink:t.profile dispatch
      else dispatch ()

(* Release the broker's on-disk resources: the registry's eviction/shutdown
   path.  No checkpoint is forced — every acknowledged record is already
   fsynced ({!Journal.close} drains any pending batch first),
   so an evict/reopen cycle leaves the journal bytes untouched and
   reopening replays them exactly like a restart (the crash-tested path).
   Never called with a writer active or records in flight (the registry
   refuses to evict then). *)
let close t =
  List.iter (fun (name, _) -> Metrics.remove_gauge t.metrics name) (gauges t);
  with_lock t (fun () ->
      (match t.journal with
      | None -> ()
      | Some j -> ( try Journal.close j with Unix.Unix_error _ -> ()));
      try
        Unix.close t.wake_r;
        Unix.close t.wake_w
      with Unix.Unix_error _ -> ())

let disconnect t ~client =
  with_lock t (fun () ->
      match t.writer with
      | Some s when Session.owner s = client ->
          release_slot_locked t;
          (* distinct from an explicit rollback request: these are the
             client-vanished undos that replication debugging cares about *)
          Metrics.incr t.metrics "disconnect_rollbacks";
          Metrics.incr t.metrics "sessions_rolled_back"
      | _ -> ())
