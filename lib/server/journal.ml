(* Write-ahead journal: fsynced per-commit records in Core.Persist's textual
   fact format, snapshot checkpoints, and replay-on-boot recovery with
   torn-tail truncation. *)

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
let snapshot_path ~dir = Filename.concat dir "snapshot.gomdb"

(* Group-commit state: concurrent committers enqueue their record bytes
   here and one leader performs a single write+fsync for the whole batch.
   [g_assigned] is the last sequence number handed out at enqueue time;
   [t.seq] stays the last DURABLE sequence number — the durability oracle,
   the replication positions and the stats all keep reading it.  A failed
   batch flush poisons the group ([g_error] is sticky): every waiter whose
   record the failed fsync was meant to cover gets the error, and so does
   every later enqueue — the broker turns that into degraded mode. *)
type group = {
  linger : float;  (* leader waits this long for committers to pile on *)
  byte_cap : int;  (* pending bytes that force an immediate flush *)
  g_mu : Mutex.t;
  g_cond : Condition.t;
  g_buf : Buffer.t;  (* pending record bytes, in sequence order *)
  mutable g_records : int;  (* pending record count *)
  mutable g_assigned : int;  (* last enqueued (not necessarily durable) seq *)
  mutable g_flushing : bool;  (* a leader owns the current batch window *)
  mutable g_error : exn option;  (* sticky: the group died mid-flush *)
  on_flush : int -> unit;  (* batch-size observer (metrics) *)
}

type t = {
  dir : string;
  fd : Unix.file_descr;
  mutable base : int;  (* global seq the snapshot (journal start) covers *)
  mutable seq : int;  (* global seq of the last durable record *)
  mutable since : int;  (* records appended since the last checkpoint *)
  mutable bytes : int;  (* durable journal size *)
  mutable epoch : int;  (* promotion epoch: highest stamp seen or adopted *)
  mutable was_fenced : bool;  (* a fence marker is the latest epoch event *)
  mutable group : group option;  (* group-commit mode, when enabled *)
  (* tenant-labeled failpoint variants; None on single-tenant journals *)
  fp_write : Failpoint.site option;
  fp_fsync : Failpoint.site option;
  fp_ckpt : Failpoint.site option;
}

let base t = t.base
let seq t = t.seq
let since_checkpoint t = t.since
let bytes t = t.bytes
let epoch t = t.epoch
let fenced t = t.was_fenced

let set_group_commit t ~linger ?(byte_cap = 1024 * 1024) ~on_flush () =
  t.group <-
    Some
      {
        linger;
        byte_cap;
        g_mu = Mutex.create ();
        g_cond = Condition.create ();
        g_buf = Buffer.create 4096;
        g_records = 0;
        g_assigned = t.seq;
        g_flushing = false;
        g_error = None;
        on_flush;
      }

let grouped t = t.group <> None

let in_flight t =
  match t.group with
  | None -> false
  | Some g -> g.g_records > 0 || g.g_flushing || g.g_assigned > t.seq

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

(* Write some record bytes and fsync, with the failpoint sites armed-in
   and — the hardening they forced — rollback on failure: whatever the
   failed write left behind is truncated back to the last good (durable)
   offset, so a half-appended record can never poison the file for later
   appends or the next recovery.  In group-commit mode [s] is a whole
   batch and the same failpoints fire once per batch (an injected partial
   write or fsync error takes down every record in it). *)
let append_protected ?(records = 1) t s =
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
  List.iter
    (fun f -> Printf.bprintf buf "del %s\n" (Persist.encode_fact f))
    delta.Delta.deletions;
  List.iter
    (fun f -> Printf.bprintf buf "add %s\n" (Persist.encode_fact f))
    delta.Delta.additions;
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
   [g_flushing] guarantees a single flusher, so [t.seq]/[t.bytes] are
   only ever advanced here (or by the sync path, never concurrently). *)
let run_flush t g =
  let s = Buffer.contents g.g_buf in
  Buffer.clear g.g_buf;
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

let with_g g f =
  Mutex.lock g.g_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.g_mu) f

(* The writer's epoch gate: a committer stamped with an epoch below the
   journal's current one has been superseded by a promotion it has not
   observed yet — refusing it here (not just at the protocol layer) means
   even a fence racing an in-flight commit cannot produce forked bytes. *)
let check_epoch t e =
  if e < t.epoch then
    raise (Fenced { record_epoch = e; journal_epoch = t.epoch })
  else if e > t.epoch then t.epoch <- e

let append t ?epoch ~(ids : Gom.Ids.gen) ~code (delta : Delta.t) : int =
  let e = match epoch with Some e -> e | None -> t.epoch in
  if Delta.is_empty delta && code = [] then begin
    check_epoch t e;
    t.seq
  end
  else
    match t.group with
    | None ->
        check_epoch t e;
        let n = t.seq + 1 in
        let s = record_bytes ~seq:n ~epoch:e ~ids ~code delta in
        append_protected t s;
        t.seq <- n;
        t.since <- t.since + 1;
        t.bytes <- t.bytes + String.length s;
        n
    | Some g ->
        (* enqueue only: the record is durable once a flush covering its
           seq completes — callers must [await] before acknowledging *)
        with_g g (fun () ->
            (match g.g_error with Some e -> raise e | None -> ());
            check_epoch t e;
            let n = g.g_assigned + 1 in
            Buffer.add_string g.g_buf (record_bytes ~seq:n ~epoch:e ~ids ~code delta);
            g.g_records <- g.g_records + 1;
            g.g_assigned <- n;
            t.since <- t.since + 1;
            (* safety valve: a burst of large sessions must not grow the
               pending batch unboundedly while the leader lingers *)
            if Buffer.length g.g_buf >= g.byte_cap && not g.g_flushing then begin
              g.g_flushing <- true;
              run_flush t g
            end;
            n)

(* Block until the record at [seq] is durable (or its flush failed).  The
   first waiter to find an unclaimed batch becomes the leader: it lingers
   for the configured window so concurrent committers can pile on, then
   writes and fsyncs the whole batch at once. *)
let await t ~seq =
  match t.group with
  | None -> ()
  | Some g ->
      with_g g (fun () ->
          let rec wait () =
            if t.seq >= seq then ()
            else
              match g.g_error with
              | Some e -> raise e
              | None ->
                  if g.g_flushing || g.g_records = 0 then begin
                    Condition.wait g.g_cond g.g_mu;
                    wait ()
                  end
                  else begin
                    g.g_flushing <- true;
                    if g.linger > 0. then begin
                      Mutex.unlock g.g_mu;
                      Thread.delay g.linger;
                      Mutex.lock g.g_mu
                    end;
                    run_flush t g;
                    wait ()
                  end
          in
          wait ())

(* Flush everything pending, without a linger, and wait for any in-flight
   batch: the checkpoint/close path — a snapshot must cover a quiescent,
   fully durable journal.  Raises the sticky group error if records were
   lost to a failed flush. *)
let drain t =
  match t.group with
  | None -> ()
  | Some g ->
      with_g g (fun () ->
          let rec go () =
            if g.g_flushing then begin
              Condition.wait g.g_cond g.g_mu;
              go ()
            end
            else if g.g_records > 0 then begin
              g.g_flushing <- true;
              run_flush t g;
              go ()
            end
            else
              match g.g_error with
              | Some e when t.seq < g.g_assigned -> raise e
              | _ -> ()
          in
          go ())

let close t =
  (try drain t with _ -> ());
  Unix.close t.fd

(* Raw record append: the replica's write path.  [text] must be one
   complete record (begin..commit, newline-terminated) carrying exactly
   sequence number [seq]; it is written verbatim so the replica's journal
   stays byte-identical to the primary's record stream. *)
let append_raw t ?(epoch = 0) ~seq ~text () =
  if seq <> t.seq + 1 then
    invalid_arg
      (Printf.sprintf "Journal.append_raw: seq %d after %d" seq t.seq);
  append_protected t text;
  t.seq <- seq;
  t.since <- t.since + 1;
  t.bytes <- t.bytes + String.length text;
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
   fenced by a peer's higher epoch.  Markers live between records, are
   fsynced like records, and are replayed on recovery so a restarted node
   remembers both its epoch and whether it was fenced. *)
let advance_epoch t ~epoch ~fenced =
  if epoch < t.epoch || (epoch = t.epoch && t.was_fenced = fenced) then
    invalid_arg
      (Printf.sprintf "Journal.advance_epoch: epoch %d at %d" epoch t.epoch);
  drain t;
  let line =
    Printf.sprintf "%s %d\n" (if fenced then "fenced" else "epoch") epoch
  in
  append_protected t line;
  t.bytes <- t.bytes + String.length line;
  t.epoch <- epoch;
  t.was_fenced <- fenced;
  match t.group with Some g -> g.g_assigned <- max g.g_assigned t.seq | None -> ()

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

let write_snapshot_file t text =
  Failpoint.hit fp_checkpoint;
  hit_opt t.fp_ckpt;
  let tmp = Filename.concat t.dir "snapshot.tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  write_all fd text;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp (snapshot_path ~dir:t.dir);
  fsync_dir t.dir

(* the snapshot now covers everything up to [base]: reset the journal *)
let reset_journal t ~new_base =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  let h = header_for ~epoch:t.epoch ~fenced:t.was_fenced new_base in
  write_all t.fd h;
  Unix.fsync t.fd;
  t.base <- new_base;
  t.seq <- new_base;
  t.since <- 0;
  t.bytes <- String.length h;
  (* callers drain the group before resetting, so assigned = durable here;
     re-anchor it in case the numbering base just moved *)
  match t.group with Some g -> g.g_assigned <- new_base | None -> ()

let checkpoint t (m : Manager.t) : unit =
  (* a snapshot must cover a quiescent, fully durable journal: flush any
     pending group-commit batch first (raises if records were lost) *)
  drain t;
  let buf = Persist.save_to_buffer m in
  write_snapshot_file t (Buffer.contents buf);
  reset_journal t ~new_base:t.seq

let install_snapshot t ~seq ~text =
  write_snapshot_file t text;
  reset_journal t ~new_base:seq

let read_snapshot t =
  let path = snapshot_path ~dir:t.dir in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
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

type line =
  | L_comment
  | L_begin of int
  | L_epoch of int  (* record stamp, or a standalone adoption marker *)
  | L_fenced of int  (* standalone marker only: this node was fenced *)
  | L_ids of int array
  | L_add of Fact.t
  | L_del of Fact.t
  | L_code of string * (string list * Analyzer.Ast.stmt)
  | L_crc of int32
  | L_commit of int

let parse_line (s : string) : line =
  let s = String.trim s in
  if s = "" || s.[0] = '#' then L_comment
  else
    let verb, rest =
      match String.index_opt s ' ' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    let int_of r = match int_of_string_opt (String.trim r) with
      | Some n -> n
      | None -> raise (Corrupt ("bad number in journal line: " ^ s))
    in
    match verb with
    | "begin" -> L_begin (int_of rest)
    | "epoch" -> L_epoch (int_of rest)
    | "fenced" -> L_fenced (int_of rest)
    | "commit" -> L_commit (int_of rest)
    | "crc" -> (
        match Crc32.of_decimal rest with
        | Some c -> L_crc c
        | None -> raise (Corrupt ("bad crc in journal line: " ^ s)))
    | "ids" ->
        let parts =
          String.split_on_char ' ' rest |> List.filter (fun p -> p <> "")
        in
        if List.length parts <> 6 then raise (Corrupt ("bad ids line: " ^ s));
        L_ids (Array.of_list (List.map int_of parts))
    | "add" | "del" -> (
        (* journal fact lines are emitted by [encode_fact], so a strict
           round-trip must reproduce the input exactly; [decode_fact]
           alone would silently ignore trailing bytes, and a corrupted
           newline could fuse a payload line with the crc line and smuggle
           the record through the legacy crc-less path *)
        try
          let f = Persist.decode_fact rest in
          if Persist.encode_fact f <> rest then
            raise (Corrupt ("trailing bytes in fact line: " ^ s));
          if verb = "add" then L_add f else L_del f
        with Persist.Corrupt e -> raise (Corrupt e))
    | "code" -> (
        try
          let cid, params, body = Persist.decode_code rest in
          L_code (cid, (params, body))
        with Persist.Corrupt e -> raise (Corrupt e))
    | _ -> raise (Corrupt ("unknown journal line: " ^ s))

(* One parsed record, in file order. *)
type parsed_record = {
  r_seq : int;
  r_epoch : int;  (* promotion epoch stamp; 0 when the record predates epochs *)
  r_ids : int array option;
  r_delta : Delta.t;
  r_code : (string * (string list * Analyzer.Ast.stmt)) list;
}

(* Parse one complete record's raw text (as shipped over a replication
   feed) back into its delta/code/ids. *)
let parse_record text : parsed_record =
  let seq = ref None
  and repoch = ref 0
  and ids = ref None
  and delta = ref Delta.empty
  and code = ref []
  and commit = ref None
  and acc = ref Crc32.init in
  List.iter
    (fun l ->
      match parse_line l with
      | L_crc c ->
          (* the crc covers every record byte before its own line *)
          if Crc32.finish !acc <> c then raise (Corrupt "record: crc mismatch")
      | parsed ->
          (match parsed with
          | L_comment ->
              (* only the empty tail of the final newline is tolerated:
                 the appender writes no comments inside records, and a
                 damaged "crc" line can masquerade as one *)
              if l <> "" then raise (Corrupt "record: comment inside record")
          | L_begin n -> (
              match !seq with
              | None -> seq := Some n
              | Some _ -> raise (Corrupt "record: nested begin"))
          | L_epoch e -> repoch := e
          | L_fenced _ -> raise (Corrupt "record: fence marker inside record")
          | L_ids a -> ids := Some a
          | L_add f -> delta := Delta.add f !delta
          | L_del f -> delta := Delta.del f !delta
          | L_code (cid, c) -> code := (cid, c) :: !code
          | L_crc _ -> ()
          | L_commit n -> commit := Some n);
          if !commit = None then acc := Crc32.update_string !acc (l ^ "\n"))
    (String.split_on_char '\n' text);
  match (!seq, !commit) with
  | Some n, Some n' when n = n' ->
      {
        r_seq = n;
        r_epoch = !repoch;
        r_ids = !ids;
        r_delta = !delta;
        r_code = List.rev !code;
      }
  | _ -> raise (Corrupt "record: missing or mismatched begin/commit")

(* Replay one record through a session.  Any failure — exception or an
   inconsistent result — rolls the session back and reports the record as
   bad, which recovery treats as the start of the torn tail. *)
let replay_record (m : Manager.t) (r : parsed_record) : bool =
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

let apply_record = replay_record

(* Raw complete records in journal text, in file order: [(seq, text)] where
   [text] is the record's exact bytes (begin..commit inclusive).  Only the
   begin/commit bracket is inspected — interior lines were validated when
   the record was first replayed or received — so streaming a record to a
   replica costs no fact decoding. *)
let verb_int prefix line =
  let pl = String.length prefix in
  if String.length line > pl && String.sub line 0 pl = prefix then
    int_of_string_opt (String.trim (String.sub line pl (String.length line - pl)))
  else None

(* [(seq, start offset, record text)] for every complete record. *)
let scan_raw_offsets text : (int * int * string) list =
  let out = ref [] in
  let line_start = ref 0 in
  let cur = ref None in
  List.iter
    (fun (line, end_off) ->
      let s = String.trim line in
      (match (verb_int "begin " s, verb_int "commit " s) with
      | Some n, _ -> cur := Some (n, !line_start)
      | _, Some n -> (
          match !cur with
          | Some (n', start) when n = n' ->
              out := (n, start, String.sub text start (end_off - start)) :: !out;
              cur := None
          | _ -> cur := None)
      | None, None -> ());
      line_start := end_off)
    (complete_lines text);
  List.rev !out

let scan_raw text : (int * string) list =
  List.map (fun (n, _, s) -> (n, s)) (scan_raw_offsets text)

let records_from t ~from : (int * string) list =
  let text = read_file (journal_path ~dir:t.dir) in
  List.filter (fun (s, _) -> s > from && s <= t.seq) (scan_raw text)

(* Scan the journal text: replay every complete, in-sequence record and
   return (last good offset, #replayed, last seq, epoch, fenced).  [epoch]
   starts at the header's value and is raised by record stamps and by
   standalone [epoch]/[fenced] markers; [fenced] tracks whether the most
   recent epoch event was a fence (a later record or promotion marker
   clears it — the node has since acted in the newer epoch). *)
let scan_and_replay (m : Manager.t) ~base ?(epoch0 = 0) ?(fenced0 = false)
    (text : string) : int * int * int * int * bool =
  let lines = ref (complete_lines text) in
  let good = ref 0 in
  let replayed = ref 0 in
  let last_seq = ref base in
  let epoch = ref epoch0 in
  let fenced = ref fenced0 in
  let next () =
    match !lines with
    | [] -> None
    | l :: rest ->
        lines := rest;
        Some l
  in
  let rec between () =
    (* between records: blanks, comments and epoch markers advance the
       good offset *)
    match next () with
    | None -> ()
    | Some (line, off) -> (
        match parse_line line with
        | L_comment ->
            good := off;
            between ()
        | L_epoch e when e >= !epoch ->
            epoch := e;
            fenced := false;
            good := off;
            between ()
        | L_fenced e when e >= !epoch ->
            epoch := e;
            fenced := true;
            good := off;
            between ()
        | L_begin n when n = !last_seq + 1 ->
            in_record n 0 None Delta.empty []
              (Crc32.update_string Crc32.init (line ^ "\n"))
        | _ -> (* out-of-sequence or stray line: torn tail *) ())
  and in_record n repoch ids delta code acc =
    (* [acc] checksums the raw bytes of the record so far; a [crc] line
       must match it or the whole record is bit-rot (treated as torn). *)
    let finish off =
      let r =
        {
          r_seq = n;
          r_epoch = repoch;
          r_ids = ids;
          r_delta = delta;
          r_code = List.rev code;
        }
      in
      if replay_record m r then begin
        good := off;
        replayed := !replayed + 1;
        last_seq := n;
        if repoch > !epoch then begin
          epoch := repoch;
          fenced := false
        end;
        between ()
      end
    in
    match next () with
    | None -> () (* EOF mid-record: torn *)
    | Some (line, off) -> (
        let acc' () = Crc32.update_string acc (line ^ "\n") in
        match parse_line line with
        | L_epoch e -> in_record n e ids delta code (acc' ())
        | L_ids a -> in_record n repoch (Some a) delta code (acc' ())
        | L_add f -> in_record n repoch ids (Delta.add f delta) code (acc' ())
        | L_del f -> in_record n repoch ids (Delta.del f delta) code (acc' ())
        | L_code (cid, c) ->
            in_record n repoch ids delta ((cid, c) :: code) (acc' ())
        | L_crc c ->
            if Crc32.finish acc <> c then () (* corrupt record: torn *)
            else (
              (* after a verified crc the only acceptable next line is the
                 matching commit — anything else is uncovered by the
                 checksum and must not be replayed *)
              match next () with
              | None -> ()
              | Some (line2, off2) -> (
                  match parse_line line2 with
                  | L_commit n' when n' = n -> finish off2
                  | _ -> ()))
        | L_commit n' when n' = n -> finish off (* legacy crc-less record *)
        (* the appender never writes comments inside a record, so one here
           is damage — e.g. a single-bit flip turning "crc" into "#rc",
           which would otherwise demote the record to the crc-less path *)
        | L_comment | L_begin _ | L_commit _ | L_fenced _ ->
            () (* malformed: torn *))
  in
  (try between () with Corrupt _ -> ());
  (!good, !replayed, !last_seq, !epoch, !fenced)

let recover ?label ~dir () : recovery =
  mkdir_p dir;
  let snap = snapshot_path ~dir in
  let from_snapshot = Sys.file_exists snap in
  let manager =
    if from_snapshot then
      try Persist.load ~path:snap
      with Persist.Corrupt e -> raise (Corrupt ("snapshot: " ^ e))
    else Manager.create ()
  in
  let jpath = journal_path ~dir in
  let existed = Sys.file_exists jpath in
  let fd = Unix.openfile jpath [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let base, replayed, last_seq, truncated, size, ep, fen =
    if existed then begin
      let text = read_file jpath in
      let base, epoch0, fenced0 = base_of_header text in
      let good, replayed, last_seq, ep, fen =
        scan_and_replay manager ~base ~epoch0 ~fenced0 text
      in
      let len = String.length text in
      if good < len then Unix.ftruncate fd good;
      (base, replayed, last_seq, len - good, good, ep, fen)
    end
    else begin
      write_all fd header;
      Unix.fsync fd;
      (0, 0, 0, 0, String.length header, 0, false)
    end
  in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let journal =
    {
      dir;
      fd;
      base;
      seq = last_seq;
      since = replayed;
      bytes = size;
      epoch = ep;
      was_fenced = fen;
      group = None;
      fp_write = labeled_site "journal.append.write" label;
      fp_fsync = labeled_site "journal.append.fsync" label;
      fp_ckpt = labeled_site "journal.checkpoint.snapshot" label;
    }
  in
  { manager; journal; from_snapshot; replayed; truncated_bytes = truncated }

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
  drain t;
  let text = read_file (journal_path ~dir:t.dir) in
  let suffix =
    List.filter (fun (n, _, _) -> n > seal) (scan_raw_offsets text)
  in
  match suffix with
  | [] ->
      if t.seq > seal then t.seq <- seal;
      0
  | (_, cut, _) :: _ ->
      let buf = Buffer.create 1024 in
      Printf.bprintf buf "# orphaned %d record(s) past seal %d at epoch %d\n"
        (List.length suffix) seal t.epoch;
      List.iter (fun (_, _, s) -> Buffer.add_string buf s) suffix;
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
      t.seq <- seal;
      t.bytes <- cut;
      t.since <- min t.since (seal - t.base);
      List.length suffix

(* Rebuild a fresh manager from the on-disk snapshot + (possibly just
   truncated) journal, without disturbing the journal handle: the resync
   path's way to roll its in-memory state back to what the file now
   holds. *)
let reload t : Manager.t =
  let snap = snapshot_path ~dir:t.dir in
  let manager =
    if Sys.file_exists snap then
      try Persist.load ~path:snap
      with Persist.Corrupt e -> raise (Corrupt ("snapshot: " ^ e))
    else Manager.create ()
  in
  let text = read_file (journal_path ~dir:t.dir) in
  let base, epoch0, fenced0 = base_of_header text in
  ignore (scan_and_replay manager ~base ~epoch0 ~fenced0 text);
  manager
