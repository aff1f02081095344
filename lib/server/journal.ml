(* Write-ahead journal: one fsynced record per commit in Core.Persist's
   textual fact format, written by one batch writer, snapshot checkpoints
   whose file I/O runs behind a segment switch, and replay-on-boot
   recovery with torn-tail truncation. *)

module Manager = Core.Manager
module Persist = Core.Persist
open Datalog

exception Corrupt of string
exception Fenced of { record_epoch : int; journal_epoch : int }

module Failpoint = Fault.Failpoint
module Crc32 = Fault.Crc32

(* Fault-injection sites on the durability path; inert unless armed.  A
   journal opened with [~label] (one tenant among many) additionally hits
   [<site>#<label>] variants, so faults can be aimed at a single tenant. *)
let fp_append_write = Failpoint.define "journal.append.write"
let fp_append_fsync = Failpoint.define "journal.append.fsync"
let fp_checkpoint = Failpoint.define "journal.checkpoint.snapshot"
let fp_retire = Failpoint.define "journal.checkpoint.retire"

let labeled_site site label =
  Option.map (fun l -> Failpoint.define (site ^ "#" ^ l)) label

let hit_opt = function None -> () | Some fp -> Failpoint.hit fp
let hit_io_opt fp n = match fp with None -> n | Some fp -> Failpoint.hit_io fp n

let header = "# gomsm journal v1\n"

(* The header records the global sequence number the snapshot covers, so
   sequence numbers stay monotonic across checkpoints — they double as the
   replication stream positions.  It also records the promotion epoch (and
   whether the node was fenced) when either is non-trivial, so a checkpoint
   cannot erase the fencing history the in-file markers carried.  Plain
   epoch-0 journals keep the exact legacy header bytes. *)
let header_for ?(epoch = 0) ?(fenced = false) base =
  if base = 0 && epoch = 0 && not fenced then header
  else if epoch = 0 && not fenced then
    Printf.sprintf "# gomsm journal v1 base %d\n" base
  else
    Printf.sprintf "# gomsm journal v1 base %d epoch %d%s\n" base epoch
      (if fenced then " fenced" else "")

(* (base, epoch, fenced) from the header line. *)
let base_of_header text =
  let num what n =
    (* the header is fsynced before the first record: a number that no
       longer parses is bit-rot, and defaulting it to 0 would silently
       renumber the whole log — refuse instead *)
    match int_of_string_opt n with
    | Some b -> b
    | None ->
        raise
          (Corrupt
             (Printf.sprintf "journal header has a non-integer %s %S" what n))
  in
  match String.index_opt text '\n' with
  | None -> (0, 0, false)
  | Some i -> (
      match String.split_on_char ' ' (String.trim (String.sub text 0 i)) with
      | [ "#"; "gomsm"; "journal"; "v1"; "base"; n ] -> (num "base" n, 0, false)
      | [ "#"; "gomsm"; "journal"; "v1"; "base"; n; "epoch"; e ] ->
          (num "base" n, num "epoch" e, false)
      | [ "#"; "gomsm"; "journal"; "v1"; "base"; n; "epoch"; e; "fenced" ] ->
          (num "base" n, num "epoch" e, true)
      | _ -> (0, 0, false))

let journal_path ~dir = Filename.concat dir "journal.log"
let retiring_path ~dir = Filename.concat dir "journal.retiring"
let snapshot_path ~dir = Filename.concat dir "snapshot.gomdb"

(* The snapshot's first line names the sequence number it covers, the
   epoch at that point and a CRC-32 over the Persist text that follows
   (which skips the line as a comment). *)
let snapshot_prefix = "# gomsm snapshot v1 "

let snapshot_header ~seq ~epoch body =
  Printf.sprintf "%sseq %d epoch %d crc %s\n" snapshot_prefix seq epoch
    (Crc32.to_hex (Crc32.string body))

(* ((covered seq, epoch) option, Persist text).  A legacy snapshot has no
   header line: it covers its journal header's base. *)
let parse_snapshot text =
  let bad what = raise (Corrupt ("snapshot: " ^ what)) in
  if not (String.starts_with ~prefix:snapshot_prefix text) then (None, text)
  else
    match String.index_opt text '\n' with
    | None -> bad "header line not terminated"
    | Some i -> (
        let body = String.sub text (i + 1) (String.length text - i - 1) in
        match String.split_on_char ' ' (String.sub text 0 i) with
        | [ "#"; "gomsm"; "snapshot"; "v1"; "seq"; s; "epoch"; e; "crc"; c ]
          -> (
            match (int_of_string_opt s, int_of_string_opt e) with
            | Some s, Some e ->
                if Crc32.to_hex (Crc32.string body) <> c then
                  bad "crc mismatch";
                (Some (s, e), body)
            | _ -> bad "malformed header")
        | _ -> bad "malformed header")

(* The batch writer — the journal's only writer.  Every byte after the
   header (commit records, a replica's raw records, epoch markers) is
   enqueued here, and one leader performs a single write+fsync for the
   whole batch.  [g_assigned] is the last sequence number handed out at
   enqueue time; [t.seq] stays the last DURABLE sequence number — the
   durability oracle, the replication positions and the stats all keep
   reading it.  [t.seq] and [t.bytes] advance only in [run_flush], or on
   a segment switch or truncation ([switch], [orphan_suffix]), which
   re-anchors [g_assigned].  A failed batch flush poisons the group
   ([g_error] is sticky): every waiter whose record the failed fsync was
   meant to cover gets the error, and so does every later enqueue — the
   broker turns that into degraded mode.  A poisoned journal writes
   nothing more.

   [g_ckpt] is the second half of a checkpoint — the snapshot write and
   the retirement of the old segment — which runs on its own thread.  At
   most one is in flight; a failed one is kept, poisons the group the
   same way, and is raised by every later {!settle}. *)
type ckpt = Idle | Running | Failed of exn

type group = {
  g_mu : Mutex.t;
  g_cond : Condition.t;
  g_buf : Buffer.t;  (* pending bytes, in sequence order *)
  mutable g_records : int;  (* pending record count *)
  mutable g_assigned : int;  (* last enqueued (not necessarily durable) seq *)
  mutable g_flushing : bool;  (* a leader owns the current batch window *)
  mutable g_error : exn option;  (* sticky: the group died mid-flush *)
  mutable g_ckpt : ckpt;
  mutable on_flush : int -> unit;  (* batch-size observer (metrics) *)
}

let default_checkpoint_every = 64
let default_checkpoint_bytes = 4 * 1024 * 1024

type t = {
  dir : string;
  mutable fd : Unix.file_descr;  (* the live segment, journal.log *)
  mutable base : int;  (* global seq the snapshot (journal start) covers *)
  mutable seq : int;  (* global seq of the last durable record *)
  mutable since : int;  (* records appended since the last checkpoint *)
  mutable bytes : int;  (* durable journal size *)
  mutable epoch : int;  (* promotion epoch: highest stamp seen or adopted *)
  mutable was_fenced : bool;  (* a fence marker is the latest epoch event *)
  checkpoint_every : int;  (* checkpoint after this many records ... *)
  checkpoint_bytes : int;  (* ... or once the file reaches this size *)
  group : group;
  (* tenant-labeled failpoint variants; None on single-tenant journals *)
  fp_write : Failpoint.site option;
  fp_fsync : Failpoint.site option;
  fp_ckpt : Failpoint.site option;
  fp_retire : Failpoint.site option;
}

let base t = t.base
let seq t = t.seq
let since_checkpoint t = t.since
let bytes t = t.bytes
let epoch t = t.epoch
let fenced t = t.was_fenced

let set_flush_observer t f = t.group.on_flush <- f

let in_flight t =
  let g = t.group in
  g.g_records > 0 || g.g_flushing || g.g_assigned > t.seq
  || match g.g_ckpt with Running -> true | Idle | Failed _ -> false

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Append                                                              *)
(* ------------------------------------------------------------------ *)

(* Write one batch and fsync, with the failpoint sites armed-in and — the
   hardening they forced — rollback on failure: whatever the failed write
   left behind is truncated back to the last good (durable) offset, so a
   half-appended batch can never poison the file for the next recovery.
   The failpoints fire once per batch (an injected partial write or fsync
   error takes down every record in it). *)
let append_protected ~records t s =
  try
    Obs.Trace.with_span "journal.append"
      ~kvs:
        [
          ("bytes", string_of_int (String.length s));
          ("records", string_of_int records);
        ]
    @@ fun () ->
    let budget = Failpoint.hit_io fp_append_write (String.length s) in
    let budget = min budget (hit_io_opt t.fp_write budget) in
    if budget < String.length s then begin
      write_all t.fd (String.sub s 0 budget);
      raise (Unix.Unix_error (Unix.EIO, "write", "failpoint: partial append"))
    end
    else write_all t.fd s;
    Failpoint.hit fp_append_fsync;
    hit_opt t.fp_fsync;
    Obs.Trace.with_span "journal.fsync" (fun () -> Unix.fsync t.fd)
  with e ->
    (try
       Unix.ftruncate t.fd t.bytes;
       ignore (Unix.lseek t.fd 0 Unix.SEEK_END)
     with Unix.Unix_error _ -> ());
    raise e

(* One record's bytes carrying sequence number [seq].  Records stamped
   with a non-zero promotion epoch carry it right after [begin]; epoch-0
   records keep the exact pre-epoch byte format (replay treats a missing
   stamp as epoch 0). *)
let record_bytes ~seq ~epoch ~(ids : Gom.Ids.gen) ~code (delta : Delta.t) :
    string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "begin %d\n" seq;
  if epoch > 0 then Printf.bprintf buf "epoch %d\n" epoch;
  Printf.bprintf buf "ids %d %d %d %d %d %d\n" ids.Gom.Ids.schemas
    ids.Gom.Ids.types ids.Gom.Ids.decls ids.Gom.Ids.codes ids.Gom.Ids.phreps
    ids.Gom.Ids.objects;
  let fact_line verb f =
    Buffer.add_string buf verb;
    Persist.add_fact buf f;
    Buffer.add_char buf '\n'
  in
  List.iter (fact_line "del ") delta.Delta.deletions;
  List.iter (fact_line "add ") delta.Delta.additions;
  List.iter
    (fun (cid, (params, body)) ->
      Printf.bprintf buf "code %s\n" (Persist.encode_code ~cid ~params ~body))
    code;
  (* the crc covers every record byte before its own line (begin through
     the last payload line, newlines included) *)
  Printf.bprintf buf "crc %s\n"
    (Crc32.to_decimal (Crc32.string (Buffer.contents buf)));
  Printf.bprintf buf "commit %d\n" seq;
  Buffer.contents buf

(* Flush the pending batch.  Called with [g_mu] held and [g_flushing]
   already claimed by the caller; returns with [g_mu] held, [g_flushing]
   cleared and every waiter woken.  The I/O itself runs unlocked so
   committers keep enqueuing (and readers keep reading) during the fsync;
   [g_flushing] guarantees a single flusher. *)
let run_flush t g =
  let s = Buffer.contents g.g_buf in
  (* reset, not clear: one large record (a whole base schema) must not
     pin its buffer for the journal's lifetime *)
  Buffer.reset g.g_buf;
  let n = g.g_records in
  g.g_records <- 0;
  let last = g.g_assigned in
  Mutex.unlock g.g_mu;
  let result =
    if s = "" then Ok ()
    else match append_protected ~records:n t s with
      | () -> Ok ()
      | exception e -> Error e
  in
  Mutex.lock g.g_mu;
  (match result with
  | Ok () ->
      t.seq <- last;
      t.bytes <- t.bytes + String.length s;
      if n > 0 then g.on_flush n
  | Error e -> g.g_error <- Some e);
  g.g_flushing <- false;
  Condition.broadcast g.g_cond

let with_g t f =
  let g = t.group in
  Mutex.lock g.g_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.g_mu) (fun () -> f g)

(* Add [s] — [records] whole records, or none for a marker line — to the
   pending batch.  Call with [g_mu] held. *)
let push t g ~records s =
  (match g.g_error with Some e -> raise e | None -> ());
  Buffer.add_string g.g_buf s;
  g.g_records <- g.g_records + records;
  g.g_assigned <- g.g_assigned + records;
  t.since <- t.since + records

(* The writer's epoch gate: a committer stamped with an epoch below the
   journal's current one has been superseded by a promotion it has not
   observed yet — refusing it here (not just at the protocol layer) means
   even a fence racing an in-flight commit cannot produce forked bytes. *)
let check_epoch t e =
  if e < t.epoch then
    raise (Fenced { record_epoch = e; journal_epoch = t.epoch })
  else if e > t.epoch then t.epoch <- e

let enqueue t ?epoch ~(ids : Gom.Ids.gen) ~code (delta : Delta.t) : int =
  with_g t (fun g ->
      let e = match epoch with Some e -> e | None -> t.epoch in
      if Delta.is_empty delta && code = [] then begin
        check_epoch t e;
        t.seq
      end
      else begin
        check_epoch t e;
        let n = g.g_assigned + 1 in
        push t g ~records:1 (record_bytes ~seq:n ~epoch:e ~ids ~code delta);
        n
      end)

(* Block until the record at [seq] is durable (or its flush failed).  The
   first waiter to find an unclaimed batch becomes the leader and writes
   and fsyncs the whole batch at once; whatever is enqueued during that
   fsync is the next leader's batch. *)
let await t ~seq =
  with_g t (fun g ->
      let rec wait () =
        if t.seq >= seq then ()
        else
          match g.g_error with
          | Some e -> raise e
          | None ->
              if g.g_flushing || Buffer.length g.g_buf = 0 then begin
                Condition.wait g.g_cond g.g_mu;
                wait ()
              end
              else begin
                g.g_flushing <- true;
                run_flush t g;
                wait ()
              end
      in
      wait ())

let append t ?epoch ~ids ~code delta =
  let seq = enqueue t ?epoch ~ids ~code delta in
  await t ~seq;
  seq

(* Flush everything pending and wait for any in-flight batch: what a
   checkpoint, a truncation or a marker needs — a quiescent, fully
   durable journal.  Raises the sticky group error, and then flushes
   nothing: records left pending behind a failed flush stay unwritten, as
   their committers were told. *)
let drain t =
  with_g t (fun g ->
      let rec go () =
        if g.g_flushing then begin
          Condition.wait g.g_cond g.g_mu;
          go ()
        end
        else
          match g.g_error with
          | Some e -> raise e
          | None ->
              if Buffer.length g.g_buf > 0 then begin
                g.g_flushing <- true;
                run_flush t g;
                go ()
              end
      in
      go ())

(* Wait out the checkpoint in flight, if any; raise the kept error of one
   that failed.  Every operation that reads or rewrites the journal's
   files calls this first, so it sees the snapshot {!base} names.  The
   checkpoint thread takes no broker lock, so waiting under one is safe. *)
let settle t =
  with_g t (fun g ->
      let rec go () =
        match g.g_ckpt with
        | Idle -> ()
        | Failed e -> raise e
        | Running ->
            Condition.wait g.g_cond g.g_mu;
            go ()
      in
      go ())

let close t =
  (try settle t with _ -> ());
  (try drain t with _ -> ());
  Unix.close t.fd

(* Raw record append: the replica's write path.  [text] must be one
   complete record (begin..commit, newline-terminated) carrying exactly
   sequence number [seq]; it is written verbatim so the replica's journal
   stays byte-identical to the primary's record stream. *)
let append_raw t ?(epoch = 0) ~seq ~text () =
  with_g t (fun g ->
      if seq <> g.g_assigned + 1 then
        invalid_arg
          (Printf.sprintf "Journal.append_raw: seq %d after %d" seq
             g.g_assigned);
      push t g ~records:1 text);
  await t ~seq;
  (* historical records may carry any epoch <= the feed's current one, so
     unlike {!append} a low stamp is not an error here — the replica just
     adopts the highest epoch it has applied (the stamp inside the record
     bytes makes the adoption durable) *)
  if epoch > t.epoch then begin
    t.epoch <- epoch;
    t.was_fenced <- false
  end

(* Durably raise the journal's epoch with a standalone marker line —
   [epoch <e>] for a promotion/adoption, [fenced <e>] when this node was
   fenced by a peer's higher epoch.  Markers live between records, go
   through the batch writer like records, and are replayed on recovery so
   a restarted node remembers both its epoch and whether it was fenced.
   The epoch moves when the marker is enqueued, so every record enqueued
   after it is checked against the new epoch. *)
let advance_epoch t ~epoch ~fenced =
  with_g t (fun g ->
      if epoch < t.epoch || (epoch = t.epoch && t.was_fenced = fenced) then
        invalid_arg
          (Printf.sprintf "Journal.advance_epoch: epoch %d at %d" epoch
             t.epoch);
      push t g ~records:0
        (Printf.sprintf "%s %d\n" (if fenced then "fenced" else "epoch") epoch);
      t.epoch <- epoch;
      t.was_fenced <- fenced);
  drain t

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let fsync_dir dir =
  (* best effort: not all filesystems allow fsync on a directory fd *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd

(* Write [snapshot.tmp]: the header line, then [body]; fsynced. *)
let write_snapshot_tmp ~dir ~seq ~epoch body =
  let tmp = Filename.concat dir "snapshot.tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (snapshot_header ~seq ~epoch body);
      write_all fd body;
      Unix.fsync fd);
  tmp

let publish_snapshot ~dir tmp =
  Unix.rename tmp (snapshot_path ~dir);
  fsync_dir dir

(* Make [journal.log] a fresh segment holding only the header [h]: the
   live file, if there is one, becomes [journal.retiring].  Returns the
   new segment's fd, positioned for appending. *)
let fresh_segment ~dir h =
  let live = journal_path ~dir in
  if Sys.file_exists live then Unix.rename live (retiring_path ~dir);
  let fd =
    Unix.openfile live [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try write_all fd h
   with e ->
     Unix.close fd;
     raise e);
  fd

(* A failure that leaves the files out of step with [base] poisons the
   journal: it writes nothing more, and {!settle} raises the error. *)
let keep_failure g e =
  g.g_ckpt <- Failed e;
  if Option.is_none g.g_error then g.g_error <- Some e

(* The locked half of a checkpoint: switch to a fresh segment covering
   [base] and re-anchor the counters.  Call with the journal drained.  The
   directory is fsynced here, so the new segment's entry is durable before
   any record in it can be acknowledged; its header bytes become durable
   with the first record's fsync, or in [retire] before the old segment
   goes. *)
let switch t ~base =
  let h = header_for ~epoch:t.epoch ~fenced:t.was_fenced base in
  with_g t (fun g ->
      match fresh_segment ~dir:t.dir h with
      | exception e ->
          keep_failure g e;
          raise e
      | fd ->
          fsync_dir t.dir;
          Unix.close t.fd;
          t.fd <- fd;
          t.base <- base;
          t.seq <- base;
          t.since <- 0;
          t.bytes <- String.length h;
          (* nothing is pending here, so assigned = durable *)
          g.g_assigned <- base)

(* The unlocked half: make the new segment's header and the snapshot
   covering [seq] durable, then drop the segment they replace. *)
let retire t ~seq ~epoch body =
  let dir = t.dir in
  Unix.fsync t.fd;
  let tmp = write_snapshot_tmp ~dir ~seq ~epoch body in
  Failpoint.hit fp_checkpoint;
  hit_opt t.fp_ckpt;
  publish_snapshot ~dir tmp;
  Failpoint.hit fp_retire;
  hit_opt t.fp_retire;
  Unix.unlink (retiring_path ~dir)

(* Run [retire], keeping its failure; returns it too. *)
let retire_kept t ~seq ~epoch body =
  let r =
    match retire t ~seq ~epoch body with
    | () -> None
    | exception e -> Some e
  in
  with_g t (fun g ->
      (match r with None -> g.g_ckpt <- Idle | Some e -> keep_failure g e);
      Condition.broadcast g.g_cond);
  r

(* Everything a checkpoint does under the caller's exclusive section:
   drain, serialize, switch.  The snapshot write and the retirement of the
   old segment then run on a thread of their own, which takes no lock but
   the batch writer's. *)
let begin_checkpoint t (m : Manager.t) =
  settle t;
  drain t;
  let body = Buffer.contents (Persist.save_to_buffer m) in
  let seq = t.seq and epoch = t.epoch in
  with_g t (fun g -> g.g_ckpt <- Running);
  switch t ~base:seq;
  let finish () = ignore (retire_kept t ~seq ~epoch body) in
  (* without a thread to spare, finish here *)
  try ignore (Thread.create finish ()) with _ -> finish ()

let checkpoint t m =
  begin_checkpoint t m;
  settle t

(* The journal's one checkpoint rule: snapshot on either cap — a count of
   records, or the file growing past the byte budget (a burst of large
   sessions must not grow it unboundedly).  Whoever appends calls this
   after each record, so the caps a data directory was recovered with
   hold whichever role the node plays. *)
let maybe_checkpoint t m =
  let due = t.since >= t.checkpoint_every || t.bytes >= t.checkpoint_bytes in
  if due then begin_checkpoint t m;
  due

(* The same switch, with the snapshot written before returning. *)
let install_snapshot t ~seq ~text =
  settle t;
  drain t;
  switch t ~base:seq;
  match retire_kept t ~seq ~epoch:t.epoch text with
  | None -> ()
  | Some e -> raise e

let read_snapshot t =
  settle t;
  let path = snapshot_path ~dir:t.dir in
  if Sys.file_exists path then Some (snd (parse_snapshot (read_file path)))
  else None

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery = {
  manager : Manager.t;
  journal : t;
  from_snapshot : bool;
  replayed : int;
  truncated_bytes : int;
}

(* Newline-terminated lines with the byte offset just past each line's
   '\n'; a trailing fragment without a newline is torn by construction
   (fsynced records always end in one) and is not returned. *)
let complete_lines text =
  let out = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        out := (String.sub text !start (i - !start), i + 1) :: !out;
        start := i + 1
      end)
    text;
  List.rev !out

(* A line as the scanner sees it: brackets, markers and comments are told
   apart by their verb alone; every other line is payload, left undecoded
   for {!parse_record}. *)
type line =
  | L_comment
  | L_begin of int
  | L_epoch of int  (* record stamp, or a standalone adoption marker *)
  | L_fenced of int  (* standalone marker only: this node was fenced *)
  | L_commit of int
  | L_payload of string * string  (* verb, argument *)

let line_of (l : string) : line =
  let s = String.trim l in
  if s = "" || s.[0] = '#' then L_comment
  else
    let verb, rest =
      match String.index_opt s ' ' with
      | None -> (s, "")
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match (verb, int_of_string_opt (String.trim rest)) with
    | "begin", Some n -> L_begin n
    | "epoch", Some n -> L_epoch n
    | "fenced", Some n -> L_fenced n
    | "commit", Some n -> L_commit n
    | _ -> L_payload (verb, rest)

(* What lies between (and is) records in journal text. *)
type item =
  | Comment
  | Marker of { m_epoch : int; m_fenced : bool }
  | Record of int * string  (* seq, exact bytes from begin to commit *)

(* Split journal text into items, each with the offset just past it, in
   file order.  Only the bracket is inspected — [begin n] opens a record,
   the first [commit n] closes it — so scanning costs no fact decoding.
   Stops at the first line that fits neither a record nor the gap between
   records: a stray line, a nested or mismatched bracket, or a record
   that never closes (the torn tail). *)
let scan text : (item * int) list =
  let rec between acc = function
    | [] -> List.rev acc
    | (l, stop) :: rest -> (
        match line_of l with
        | L_comment -> between ((Comment, stop) :: acc) rest
        | L_epoch e -> marker acc e false stop rest
        | L_fenced e -> marker acc e true stop rest
        | L_begin n -> inside acc n (stop - String.length l - 1) rest
        | L_commit _ | L_payload _ -> List.rev acc)
  and marker acc m_epoch m_fenced stop rest =
    between ((Marker { m_epoch; m_fenced }, stop) :: acc) rest
  and inside acc n start = function
    | [] -> List.rev acc
    | (l, stop) :: rest -> (
        match line_of l with
        | L_commit m when m = n ->
            let r = Record (n, String.sub text start (stop - start)) in
            between ((r, stop) :: acc) rest
        | L_begin _ | L_commit _ -> List.rev acc
        | L_comment | L_epoch _ | L_fenced _ | L_payload _ ->
            inside acc n start rest)
  in
  between [] (complete_lines text)

(* One parsed record, in file order. *)
type parsed_record = {
  r_seq : int;
  r_epoch : int;  (* promotion epoch stamp; 0 when the record predates epochs *)
  r_ids : int array option;
  r_delta : Delta.t;
  r_code : (string * (string list * Analyzer.Ast.stmt)) list;
}

(* Decode and check one record's text — the only place record lines are
   decoded, for recovery and for a replica alike.  The record is whole
   lines from [begin n] to [commit n]; the [crc] line covers every byte
   before it, and only the matching [commit] may follow it; comments and
   fence markers never appear inside a record; nothing follows [commit].
   Records written before the checksum existed have no [crc] line. *)
let parse_record text : parsed_record =
  let bad what = raise (Corrupt ("record: " ^ what)) in
  let lines = complete_lines text in
  (match List.rev lines with
  | (_, stop) :: _ when stop = String.length text -> ()
  | _ -> bad "not whole lines");
  let fact arg =
    (* fact lines are emitted by [encode_fact], so a strict round-trip must
       reproduce the input exactly; [decode_fact] alone would silently
       ignore trailing bytes, and a corrupted newline could fuse a payload
       line with the crc line *)
    match Persist.decode_fact arg with
    | f when Persist.encode_fact f = arg -> f
    | _ -> bad ("trailing bytes in fact line: " ^ arg)
    | exception Persist.Corrupt e -> bad e
  in
  let rec go r = function
    | [] -> bad "missing commit"
    | (l, stop) :: rest -> (
        match line_of l with
        | L_commit n when n = r.r_seq ->
            (* a legacy crc-less record *)
            if rest <> [] then bad "line after commit";
            r
        | L_epoch e -> go { r with r_epoch = e } rest
        | L_payload ("crc", c) -> (
            let covered = String.sub text 0 (stop - String.length l - 1) in
            if Crc32.of_decimal c <> Some (Crc32.string covered) then
              bad "crc mismatch";
            match rest with
            | [ (l', _) ] when line_of l' = L_commit r.r_seq -> r
            | _ -> bad "only the matching commit may follow crc")
        | L_payload ("ids", a) -> (
            let ns = String.split_on_char ' ' a |> List.filter (( <> ) "") in
            match List.map int_of_string_opt ns with
            | [ Some _; Some _; Some _; Some _; Some _; Some _ ] as ids ->
                let ids = Array.of_list (List.map Option.get ids) in
                go { r with r_ids = Some ids } rest
            | _ -> bad ("bad ids line: " ^ l))
        | L_payload ("add", f) ->
            go { r with r_delta = Delta.add (fact f) r.r_delta } rest
        | L_payload ("del", f) ->
            go { r with r_delta = Delta.del (fact f) r.r_delta } rest
        | L_payload ("code", c) -> (
            match Persist.decode_code c with
            | cid, params, body ->
                go { r with r_code = (cid, (params, body)) :: r.r_code } rest
            | exception Persist.Corrupt e -> bad e)
        | L_payload _ -> bad ("unknown journal line: " ^ l)
        | L_comment -> bad "comment inside record"
        | L_begin _ -> bad "nested begin"
        | L_fenced _ -> bad "fence marker inside record"
        | L_commit _ -> bad "mismatched commit")
  in
  match lines with
  | (l, _) :: rest -> (
      match line_of l with
      | L_begin n ->
          let r0 =
            {
              r_seq = n;
              r_epoch = 0;
              r_ids = None;
              r_delta = Delta.empty;
              r_code = [];
            }
          in
          let r = go r0 rest in
          { r with r_code = List.rev r.r_code }
      | _ -> bad "missing begin")
  | [] -> bad "empty"

(* Apply one record through a session, so whatever derived state the
   manager keeps is maintained by DRed.  Any failure — exception or an
   inconsistent result — rolls the session back and reports the record as
   bad, which recovery treats as the start of the torn tail. *)
let apply_record (m : Manager.t) (r : parsed_record) : bool =
  Manager.begin_session m;
  match
    Manager.propose m r.r_delta;
    List.iter
      (fun (cid, (params, body)) -> Manager.register_code m cid params body)
      r.r_code;
    Manager.end_session m
  with
  | Manager.Consistent ->
      (match r.r_ids with
      | Some a ->
          let g = Manager.ids m in
          g.Gom.Ids.schemas <- max g.Gom.Ids.schemas a.(0);
          g.Gom.Ids.types <- max g.Gom.Ids.types a.(1);
          g.Gom.Ids.decls <- max g.Gom.Ids.decls a.(2);
          g.Gom.Ids.codes <- max g.Gom.Ids.codes a.(3);
          g.Gom.Ids.phreps <- max g.Gom.Ids.phreps a.(4);
          g.Gom.Ids.objects <- max g.Gom.Ids.objects a.(5)
      | None -> ());
      true
  | Manager.Inconsistent _ ->
      Manager.rollback m;
      false
  | exception _ ->
      if Manager.in_session m then Manager.rollback m;
      false

let records_from t ~from : (int * string) list =
  settle t;
  List.filter_map
    (function
      | Record (n, text), _ when n > from && n <= t.seq -> Some (n, text)
      | _ -> None)
    (scan (read_file (journal_path ~dir:t.dir)))

(* Where replay stands.  [covered] is the sequence number the snapshot
   covers: records up to it are skipped, not replayed over a later state. *)
type cursor = {
  covered : int;
  n : int;  (* records replayed *)
  last : int;  (* seq of the last record in the state *)
  epoch : int;
  fenced : bool;
}

(* Replay one segment's text onto [m] — every in-sequence record that
   parses and applies, and the epoch markers between them — and return
   the offset just past the last item kept, with the cursor after it.  A
   segment's header carries the epoch state as of its switch.  [epoch] is
   raised by record stamps and by markers; [fenced] tracks whether the
   most recent epoch event was a fence (a later record or promotion marker
   clears it — the node has since acted in the newer epoch).  Replay stops
   at the first item that breaks these rules: everything from there on is
   the torn tail. *)
let replay_segment (m : Manager.t) c text =
  let _, h_epoch, h_fenced = base_of_header text in
  let c =
    if h_epoch >= c.epoch then { c with epoch = h_epoch; fenced = h_fenced }
    else c
  in
  let rec go good c = function
    | (Comment, stop) :: rest -> go stop c rest
    | (Marker { m_epoch = e; m_fenced }, stop) :: rest when e >= c.epoch ->
        go stop { c with epoch = e; fenced = m_fenced } rest
    | (Record (seq, _), stop) :: rest
      when seq <= c.covered && c.last = c.covered ->
        go stop c rest
    | (Record (seq, text), stop) :: rest when seq = c.last + 1 -> (
        match parse_record text with
        | r when apply_record m r ->
            go stop
              {
                c with
                n = c.n + 1;
                last = seq;
                epoch = max c.epoch r.r_epoch;
                fenced = c.fenced && r.r_epoch <= c.epoch;
              }
              rest
        | _ | (exception Corrupt _) -> (good, c))
    | _ -> (good, c)
  in
  go 0 c (scan text)

let read_if_present path =
  match read_file path with
  | text -> Some text
  | exception Sys_error _ when not (Sys.file_exists path) -> None

type rebuilt = {
  b_manager : Manager.t;
  b_from_snapshot : bool;
  b_retiring : (string * int) option;  (* text, offset past what was kept *)
  b_live : (string * int) option;
  b_cursor : cursor;
}

(* The snapshot, if any, with [journal.retiring] and then [journal.log]
   replayed on top of it.  The retiring segment is read before the
   snapshot that replaces it, so a checkpoint finishing meanwhile cannot
   hide records from both. *)
let rebuild ~dir =
  let retiring = read_if_present (retiring_path ~dir) in
  let live = read_if_present (journal_path ~dir) in
  let snap = read_if_present (snapshot_path ~dir) in
  let manager, header =
    match snap with
    | None -> (Manager.create (), None)
    | Some text -> (
        let header, body = parse_snapshot text in
        try (Persist.load_from_string body, header)
        with Persist.Corrupt e -> raise (Corrupt ("snapshot: " ^ e)))
  in
  let covered, snap_epoch =
    match (header, retiring, live) with
    | Some (s, e), _, _ -> (s, e)
    | None, Some first, _ | None, None, Some first ->
        let b, _, _ = base_of_header first in
        (b, 0)
    | None, None, None -> (0, 0)
  in
  let replay c = function
    | None -> (None, c)
    | Some text ->
        let good, c = replay_segment manager c text in
        (Some (text, good), c)
  in
  let c = { covered; n = 0; last = covered; epoch = 0; fenced = false } in
  let b_retiring, c = replay c retiring in
  let b_live, c = replay c live in
  let c =
    if snap_epoch > c.epoch then { c with epoch = snap_epoch; fenced = false }
    else c
  in
  {
    b_manager = manager;
    b_from_snapshot = snap <> None;
    b_retiring;
    b_live;
    b_cursor = c;
  }

let recover ?label ?(checkpoint_every = default_checkpoint_every)
    ?(checkpoint_bytes = default_checkpoint_bytes) ~dir () : recovery =
  mkdir_p dir;
  let b = rebuild ~dir in
  let c = b.b_cursor in
  let fd, size, base, since =
    match (b.b_retiring, b.b_live) with
    | None, Some (text, good) ->
        let fd = Unix.openfile (journal_path ~dir) [ Unix.O_RDWR ] 0o644 in
        if good < String.length text then Unix.ftruncate fd good;
        (fd, good, c.covered, c.n)
    | retiring, _ ->
        (* a fresh directory, or a checkpoint that was interrupted: finish
           it.  The snapshot goes first — until it is durable,
           journal.retiring holds records nothing else does — and a fresh
           segment then replaces both journal files. *)
        let interrupted = Option.is_some retiring in
        if interrupted then
          publish_snapshot ~dir
            (write_snapshot_tmp ~dir ~seq:c.last ~epoch:c.epoch
               (Buffer.contents (Persist.save_to_buffer b.b_manager)));
        let h = header_for ~epoch:c.epoch ~fenced:c.fenced c.last in
        let fd = fresh_segment ~dir h in
        Unix.fsync fd;
        fsync_dir dir;
        if interrupted then Unix.unlink (retiring_path ~dir);
        (fd, String.length h, c.last, 0)
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let torn = function
    | Some (text, good) -> String.length text - good
    | None -> 0
  in
  let journal =
    {
      dir;
      fd;
      base;
      seq = c.last;
      since;
      bytes = size;
      epoch = c.epoch;
      was_fenced = c.fenced;
      checkpoint_every;
      checkpoint_bytes;
      group =
        {
          g_mu = Mutex.create ();
          g_cond = Condition.create ();
          g_buf = Buffer.create 4096;
          g_records = 0;
          g_assigned = c.last;
          g_flushing = false;
          g_error = None;
          g_ckpt = Idle;
          on_flush = ignore;
        };
      fp_write = labeled_site "journal.append.write" label;
      fp_fsync = labeled_site "journal.append.fsync" label;
      fp_ckpt = labeled_site "journal.checkpoint.snapshot" label;
      fp_retire = labeled_site "journal.checkpoint.retire" label;
    }
  in
  {
    manager = b.b_manager;
    journal;
    from_snapshot = b.b_from_snapshot;
    replayed = c.n;
    truncated_bytes = torn b.b_retiring + torn b.b_live;
  }

(* ------------------------------------------------------------------ *)
(* Failover resync                                                     *)
(* ------------------------------------------------------------------ *)

let orphaned_path ~dir = Filename.concat dir "journal.orphaned"

(* A demoted ex-primary resyncing from a promoted node may hold committed
   records past the promoted node's seal — history the cluster has moved
   beyond.  Those records are never silently dropped: their exact bytes
   are appended to [journal.orphaned] (with a provenance comment) and only
   then truncated out of the live journal.  Returns how many records were
   orphaned.  Requires [seal >= base]; when the local snapshot already
   covers past the seal the caller must orphan what the journal holds and
   fall back to a full resync instead. *)
let orphan_suffix t ~seal =
  if seal < t.base then
    invalid_arg
      (Printf.sprintf "Journal.orphan_suffix: seal %d below base %d" seal
         t.base);
  settle t;
  drain t;
  let suffix =
    List.filter_map
      (function
        | Record (n, text), stop when n > seal -> Some (text, stop)
        | _ -> None)
      (scan (read_file (journal_path ~dir:t.dir)))
  in
  (match suffix with
  | [] -> ()
  | (first, stop) :: _ ->
      let cut = stop - String.length first in
      let buf = Buffer.create 1024 in
      Printf.bprintf buf "# orphaned %d record(s) past seal %d at epoch %d\n"
        (List.length suffix) seal t.epoch;
      List.iter (fun (text, _) -> Buffer.add_string buf text) suffix;
      let ofd =
        Unix.openfile (orphaned_path ~dir:t.dir)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close ofd)
        (fun () ->
          write_all ofd (Buffer.contents buf);
          Unix.fsync ofd);
      Unix.ftruncate t.fd cut;
      ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
      Unix.fsync t.fd;
      t.bytes <- cut;
      t.since <- min t.since (seal - t.base));
  if t.seq > seal then t.seq <- seal;
  (* the batch writer numbers the next record after the seal *)
  t.group.g_assigned <- t.seq;
  List.length suffix

(* Rebuild a fresh manager from the on-disk snapshot + (possibly just
   truncated) journal, without disturbing the journal handle: the resync
   path's way to roll its in-memory state back to what the file now
   holds. *)
let reload t : Manager.t =
  settle t;
  (rebuild ~dir:t.dir).b_manager
