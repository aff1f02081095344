(* Apply feed events to the replica's manager and local journal.

   Every record goes through a BES..EES session, like a commit on the
   primary, so the manager's derived state — the whole program while
   reads keep it — is kept in step by {!Datalog.Incremental.apply},
   maintained, never re-derived.  The raw record bytes are appended to the
   replica's own journal before the position advances: a replica restart
   resumes exactly where it stopped.
   All manager/journal mutation happens inside {!Server.Broker.exclusively},
   serializing the applier against the read traffic the replica serves. *)

module Manager = Core.Manager
module Persist = Core.Persist
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Failpoint = Fault.Failpoint

(* Fires before a record is applied; the raised error forces a reconnect
   and the record is re-shipped (apply is idempotent by position). *)
let fp_apply = Failpoint.define "replica.apply"

type t = {
  broker : Broker.t;
  metrics : Metrics.t;
  mutable last_applied : int;  (* position: last record in the local state *)
  mutable primary_seq : int;  (* primary's position, from frames *)
}

let position t = t.last_applied
let primary_seq t = t.primary_seq
let lag t = max 0 (t.primary_seq - t.last_applied)

let create broker : t =
  let last_applied =
    match Broker.journal broker with
    | Some j -> Journal.seq j
    | None -> 0
  in
  let t =
    {
      broker;
      metrics = Broker.metrics broker;
      last_applied;
      primary_seq = last_applied;
    }
  in
  List.iter
    (fun (name, read) -> Metrics.gauge t.metrics name read)
    [
      ("replica_last_applied_seq", fun () -> position t);
      ("replica_primary_seq", fun () -> primary_seq t);
      ("replica_lag_records", fun () -> lag t);
    ];
  t

let note_primary t seq = if seq > t.primary_seq then t.primary_seq <- seq

let install_snapshot t ~seq ~text =
  Obs.Trace.with_span "replica.snapshot"
    ~kvs:[ ("seq", string_of_int seq) ]
  @@ fun () ->
  (* parse outside the lock (the expensive part), swap inside it *)
  let m = Persist.load_from_string text in
  Broker.exclusively t.broker (fun () ->
      Broker.replace_manager t.broker m;
      (match Broker.journal t.broker with
      | Some j -> Journal.install_snapshot j ~seq ~text
      | None -> ());
      t.last_applied <- seq);
  Metrics.incr t.metrics "replica_snapshots_installed";
  note_primary t seq

let apply_record t ~seq ~text =
  if seq > t.last_applied then begin
    Failpoint.hit fp_apply;
    if seq <> t.last_applied + 1 then
      failwith
        (Printf.sprintf "sequence gap: record %d after %d" seq t.last_applied);
    let r = Journal.parse_record text in
    if r.Journal.r_seq <> seq then
      failwith
        (Printf.sprintf "record header says %d, frame says %d"
           r.Journal.r_seq seq);
    let t0 = Obs.Mtime.now_ns () in
    Obs.Trace.with_span "replica.apply" ~kvs:[ ("seq", string_of_int seq) ]
      (fun () ->
        Broker.exclusively t.broker (fun () ->
            let m = Broker.manager t.broker in
            if not (Journal.apply_record m r) then
              failwith (Printf.sprintf "record %d did not apply cleanly" seq);
            match Broker.journal t.broker with
            | Some j ->
                Journal.append_raw j ~epoch:r.Journal.r_epoch ~seq ~text ();
                (* the record is durable: a checkpoint that fails after
                   it must not have it re-shipped onto a state that
                   already holds it *)
                t.last_applied <- seq;
                if Journal.maybe_checkpoint j m then
                  Metrics.incr t.metrics "checkpoints"
            | None -> t.last_applied <- seq));
    if r.Journal.r_epoch > Broker.epoch t.broker then
      Broker.note_feed_epoch t.broker ~epoch:r.Journal.r_epoch;
    Metrics.observe t.metrics "latency.replica_apply"
      (Obs.Mtime.ns_to_s (Obs.Mtime.elapsed_ns t0));
    Metrics.incr t.metrics "replica_records_applied"
  end;
  (* duplicates after a reconnect are skipped, but still advance lag info *)
  note_primary t seq

(* The primary says our position is ahead of its journal — it lost data or
   was replaced.  Drop everything and resubscribe from zero; the next feed
   will bootstrap us (snapshot or full record history). *)
let reset t =
  let m = Manager.create () in
  let empty = Persist.(contents (render m)) in
  Broker.exclusively t.broker (fun () ->
      Broker.replace_manager t.broker m;
      (match Broker.journal t.broker with
      | Some j -> Journal.install_snapshot j ~seq:0 ~text:empty
      | None -> ());
      t.last_applied <- 0);
  t.primary_seq <- 0;
  Metrics.incr t.metrics "replica_resyncs"

(* A ping carrying the primary's state digest, received while caught up
   (same position), must match our own digest: both sides fingerprint the
   same committed prefix.  A mismatch means silent divergence — the exact
   failure replication is supposed to rule out — so count it, drop
   everything, and resync from scratch rather than keep serving wrong
   answers. *)
let check_digest t ~seq ~primary_digest =
  if seq = t.last_applied then
    match Broker.state_digest t.broker with
    | Some mine when mine <> primary_digest ->
        Metrics.incr t.metrics "replica_divergences";
        reset t;
        failwith
          (Printf.sprintf
             "state digest mismatch at seq %d (primary %s, replica %s); \
              resyncing"
             seq primary_digest mine)
    | Some _ | None -> ()

(* The primary acked our subscription from a position *below* ours: we
   hold records it never acknowledged — the divergent tail of a demoted
   primary resyncing against the promoted node.  Seal at the primary's
   position: move the divergent suffix into journal.orphaned (never
   silently drop it), rebuild the manager from what is left on disk, and
   let the caller resubscribe from the seal. *)
let resync_to_seal t ~seal =
  Obs.Trace.with_span "replica.resync" ~kvs:[ ("seal", string_of_int seal) ]
  @@ fun () ->
  let sealed =
    Broker.exclusively t.broker (fun () ->
        match Broker.journal t.broker with
        | None -> None
        | Some j ->
            (* never seal below the snapshot base: records before it are
               gone already, so orphan everything we still hold past it *)
            let cut = max seal (Journal.base j) in
            let n = Journal.orphan_suffix j ~seal:cut in
            if n > 0 then Metrics.incr ~by:n t.metrics "orphaned_records";
            if cut = seal then begin
              let m = Journal.reload j in
              Broker.replace_manager t.broker m;
              t.last_applied <- Journal.seq j;
              Some n
            end
            else
              (* even our snapshot base is past the primary: what could be
                 orphaned is orphaned, the rest starts from scratch *)
              None)
  in
  match sealed with
  | Some n ->
      Obs.Log.warnf ~comp:"replica"
        "diverged from primary: %d record(s) past seq %d moved to the \
         orphan file"
        n seal;
      Metrics.incr t.metrics "replica_resyncs";
      t.primary_seq <- seal
  | None -> reset t

(* The subscribe ack's body: "feed from <from> at <seq>", then — from an
   epoch-aware primary — "epoch <e>". *)
let on_connected t body =
  let at = ref None and ep = ref 0 in
  List.iter
    (fun line ->
      match
        String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
      with
      | [ "feed"; "from"; _; "at"; a ] -> at := int_of_string_opt a
      | [ "epoch"; e ] -> (
          match int_of_string_opt e with Some e -> ep := e | None -> ())
      | _ -> ())
    body;
  if !ep > Broker.epoch t.broker then Broker.note_feed_epoch t.broker ~epoch:!ep;
  match !at with
  | Some at when at < t.last_applied ->
      resync_to_seal t ~seal:at;
      failwith
        (Printf.sprintf
           "position was past the primary's seq %d; sealed, resubscribing \
            from %d"
           at t.last_applied)
  | Some at -> note_primary t at
  | None -> ()

let handle t (ev : Stream.event) : unit =
  match ev with
  | Stream.Snapshot (seq, text) -> install_snapshot t ~seq ~text
  | Stream.Record (seq, text) -> apply_record t ~seq ~text
  | Stream.Ping (seq, epoch, digest) -> (
      if epoch > Broker.epoch t.broker then
        Broker.note_feed_epoch t.broker ~epoch;
      note_primary t seq;
      match digest with
      | Some primary_digest -> check_digest t ~seq ~primary_digest
      | None -> ())
  | Stream.Feed_error reason ->
      reset t;
      failwith ("feed error from primary: " ^ reason)
