(* Write-ahead journal: one fsynced record per commit in Core.Persist's
   textual fact format, written by one batch writer into two segment
   files used in turn, each headed by the snapshot its records follow,
   and replay-on-boot recovery with torn-tail truncation. *)

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
let fp_head = Failpoint.define "journal.checkpoint.snapshot"
let fp_switch = Failpoint.define "journal.checkpoint.switch"

let labeled_site site label =
  Option.map (fun l -> Failpoint.define (site ^ "#" ^ l)) label

let hit_opt = function None -> () | Some fp -> Failpoint.hit fp
let hit_io_opt fp n = match fp with None -> n | Some fp -> Failpoint.hit_io fp n

(* ------------------------------------------------------------------ *)
(* Files and heads                                                     *)
(* ------------------------------------------------------------------ *)

let journal_path ~dir = Filename.concat dir "journal.log"
let alt_path ~dir = Filename.concat dir "journal.alt"

(* The two segments, by index: a checkpoint writes the other one. *)
let segment_path ~dir i = if i = 0 then journal_path ~dir else alt_path ~dir

(* A segment's first line.  [gen] counts the heads written in this data
   directory (the segment with the higher one is live) and [head] is the
   length of the snapshot that follows the line, so records start at
   [head] bytes past it.  A segment that never carried a snapshot (a
   fresh directory's journal.log) has neither field: generation 0,
   records straight after the line. *)
type header = {
  h_base : int;  (* global seq the segment's snapshot covers *)
  h_epoch : int;
  h_fenced : bool;
  h_gen : int;
  h_head : int option;
}

let fresh_header = "# gomsm journal v1\n"

let header_line ~base ~epoch ~fenced ~gen ~head =
  Printf.sprintf "# gomsm journal v1 base %d epoch %d%s gen %d head %d\n" base
    epoch
    (if fenced then " fenced" else "")
    gen head

(* [None] when [line] is not a journal header at all.  A number that no
   longer parses is bit-rot, and defaulting it would silently renumber
   the log: refuse instead. *)
let parse_header line : header option =
  let bad what = raise (Corrupt ("journal header has " ^ what)) in
  let num what n =
    match int_of_string_opt n with
    | Some v -> v
    | None -> bad (Printf.sprintf "a non-integer %s %S" what n)
  in
  let rec go h = function
    | [] -> h
    | "base" :: n :: rest -> go { h with h_base = num "base" n } rest
    | "epoch" :: n :: rest -> go { h with h_epoch = num "epoch" n } rest
    | "fenced" :: rest -> go { h with h_fenced = true } rest
    | "gen" :: n :: rest -> go { h with h_gen = num "gen" n } rest
    | "head" :: n :: rest -> go { h with h_head = Some (num "head" n) } rest
    | w :: _ -> bad (Printf.sprintf "a malformed field %S" w)
  in
  match String.split_on_char ' ' (String.trim line) with
  | "#" :: "gomsm" :: "journal" :: "v1" :: fields ->
      let none =
        { h_base = 0; h_epoch = 0; h_fenced = false; h_gen = 0; h_head = None }
      in
      Some (go none fields)
  | _ -> None

(* The snapshot's first line names the sequence number it covers, the
   epoch at that point and a CRC-32 over the Persist text that follows
   (which skips the line as a comment). *)
let snapshot_header ~seq ~epoch crc =
  Printf.sprintf "# gomsm snapshot v1 seq %d epoch %d crc %s\n" seq epoch
    (Crc32.to_hex crc)

(* (covered seq, epoch, Persist text). *)
let parse_snapshot text =
  let bad what = raise (Corrupt ("snapshot: " ^ what)) in
  match String.index_opt text '\n' with
  | None -> bad "header line not terminated"
  | Some i -> (
      let body = String.sub text (i + 1) (String.length text - i - 1) in
      match String.split_on_char ' ' (String.sub text 0 i) with
      | [ "#"; "gomsm"; "snapshot"; "v1"; "seq"; s; "epoch"; e; "crc"; c ]
        -> (
          match (int_of_string_opt s, int_of_string_opt e) with
          | Some s, Some e ->
              if Crc32.to_hex (Crc32.string body) <> c then bad "crc mismatch";
              (s, e, body)
          | _ -> bad "malformed header")
      | _ -> bad "malformed header")

(* A head in [buf], or in a larger buffer when it does not fit: the
   segment header line, the snapshot line (its CRC is the text's, folded
   from the pieces') and the Persist text.  Returns the buffer and the
   head's length. *)
let assemble_head buf ~base ~epoch ~fenced ~gen (text : Persist.text) =
  let snap = snapshot_header ~seq:base ~epoch text.Persist.crc in
  let head = String.length snap + text.Persist.length in
  let line = header_line ~base ~epoch ~fenced ~gen ~head in
  let len = String.length line + head in
  let buf =
    if Bytes.length buf >= len then buf
    else Bytes.create (max len (2 * Bytes.length buf))
  in
  let off =
    List.fold_left
      (fun off p ->
        Bytes.blit_string p 0 buf off (String.length p);
        off + String.length p)
      0
      (line :: snap :: text.Persist.pieces)
  in
  assert (off = len);
  (buf, len)

(* The batch writer — the journal's only writer.  Every byte after a
   segment's head (commit records, a replica's raw records, epoch
   markers) is enqueued here, and one leader performs a single
   write+fsync for the whole batch.  [g_assigned] is the last sequence
   number handed out at enqueue time; [t.seq] stays the last DURABLE
   sequence number — the durability oracle, the replication positions and
   the stats all keep reading it.  [t.seq] and [t.bytes] advance only in
   [run_flush], or on a segment switch or truncation ([switch],
   [orphan_suffix]), which re-anchors [g_assigned].  A failed batch flush
   poisons the group ([g_error] is sticky): every waiter whose record the
   failed fsync was meant to cover gets the error, and so does every
   later enqueue — the broker turns that into degraded mode.  A poisoned
   journal writes nothing more; a failed checkpoint poisons it too. *)
type group = {
  g_mu : Mutex.t;
  g_cond : Condition.t;
  g_buf : Buffer.t;  (* pending bytes, in sequence order *)
  mutable g_records : int;  (* pending record count *)
  mutable g_assigned : int;  (* last enqueued (not necessarily durable) seq *)
  mutable g_flushing : bool;  (* a leader owns the current batch window *)
  mutable g_error : exn option;  (* sticky: the group died mid-flush *)
  mutable on_flush : int -> unit;  (* batch-size observer (metrics) *)
}

let default_checkpoint_every = 64
let default_checkpoint_bytes = 4 * 1024 * 1024

type t = {
  dir : string;
  mutable live : int;  (* index of the live segment *)
  mutable fd : Unix.file_descr;  (* the live segment *)
  mutable other : Unix.file_descr;  (* the segment the next head overwrites *)
  mutable other_end : int;  (* [other] holds only NULs past this offset *)
  mutable gen : int;  (* the live head's generation *)
  mutable head : int;  (* the live head's length: where its records start *)
  mutable head_durable : bool;  (* the live head was fsynced *)
  mutable base : int;  (* global seq the live head covers *)
  mutable seq : int;  (* global seq of the last durable record *)
  mutable since : int;  (* records appended since the last checkpoint *)
  mutable bytes : int;  (* durable bytes after the live head *)
  mutable epoch : int;  (* promotion epoch: highest stamp seen or adopted *)
  mutable was_fenced : bool;  (* a fence marker is the latest epoch event *)
  mutable cache : Persist.cache;  (* what the last head's render keeps *)
  mutable head_buf : Bytes.t;  (* where the next head is assembled *)
  checkpoint_every : int;  (* checkpoint after this many records ... *)
  checkpoint_bytes : int;  (* ... or once this many bytes follow the head *)
  group : group;
  (* tenant-labeled failpoint variants; None on single-tenant journals *)
  fp_write : Failpoint.site option;
  fp_fsync : Failpoint.site option;
  fp_head : Failpoint.site option;
  fp_switch : Failpoint.site option;
}

let base t = t.base
let seq t = t.seq
let since_checkpoint t = t.since
let bytes t = t.bytes
let epoch t = t.epoch
let fenced t = t.was_fenced
let live_path t = segment_path ~dir:t.dir t.live

let set_flush_observer t f = t.group.on_flush <- f

let in_flight t =
  let g = t.group in
  g.g_records > 0 || g.g_flushing || g.g_assigned > t.seq

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

(* The first [n] bytes of [b]. *)
let write_bytes fd b n =
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [len] bytes of [path] from [off]. *)
let read_range path ~off ~len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic off;
      really_input_string ic len)

let fsync_dir dir =
  (* best effort: not all filesystems allow fsync on a directory fd *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
      (try Unix.fsync dfd with Unix.Unix_error _ -> ());
      Unix.close dfd

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
       Unix.ftruncate t.fd (t.head + t.bytes);
       ignore (Unix.lseek t.fd (t.head + t.bytes) Unix.SEEK_SET)
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
      if s <> "" then t.head_durable <- true;
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

let close t =
  (try drain t with _ -> ());
  Unix.close t.fd;
  Unix.close t.other

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

(* The stale bytes of the other segment are overwritten from this block,
   so no old record past a new head can ever be replayed. *)
let zeros = Bytes.make 16384 '\000'

let rec zero_fill fd n =
  if n > 0 then
    zero_fill fd (n - Unix.write fd zeros 0 (min n (Bytes.length zeros)))

let fsync_head t =
  if not t.head_durable then begin
    Unix.fsync t.fd;
    t.head_durable <- true
  end

(* Run [f]; a failure poisons the journal, like a failed flush. *)
let poisoning t f =
  try f ()
  with e ->
    with_g t (fun g -> if Option.is_none g.g_error then g.g_error <- Some e);
    raise e

(* Make [other] a segment headed by [text] covering [base]: the head at
   offset 0, in one write from the journal's head buffer, NULs over
   whatever older bytes follow it, and the write position at the head's
   end.  Then switch to it.  The live segment's own head must be durable
   first — it is what recovery falls back on until the new head is — so
   this fsyncs it when no flush has since a boot or the previous switch.  On a failure the live segment stays
   what it was, and the poisoned journal writes nothing more. *)
let switch t ~base text =
  poisoning t @@ fun () ->
    fsync_head t;
    let gen = t.gen + 1 in
    let buf, len =
      assemble_head t.head_buf ~base ~epoch:t.epoch ~fenced:t.was_fenced ~gen
        text
    in
    t.head_buf <- buf;
    let budget = Failpoint.hit_io fp_head len in
    let budget = min budget (hit_io_opt t.fp_head budget) in
    ignore (Unix.lseek t.other 0 Unix.SEEK_SET);
    write_bytes t.other buf budget;
    if budget < len then
      raise (Unix.Unix_error (Unix.EIO, "write", "failpoint: partial head"));
    zero_fill t.other (t.other_end - len);
    ignore (Unix.lseek t.other len Unix.SEEK_SET);
    Failpoint.hit fp_switch;
    hit_opt t.fp_switch;
    with_g t (fun g ->
        let fd = t.fd in
        (* past the old segment's records there are only NULs *)
        t.other_end <- t.head + t.bytes;
        t.fd <- t.other;
        t.other <- fd;
        t.live <- 1 - t.live;
        t.gen <- gen;
        t.head <- len;
        t.head_durable <- false;
        t.base <- base;
        t.seq <- base;
        t.since <- 0;
        t.bytes <- 0;
        (* nothing is pending here, so assigned = durable *)
        g.g_assigned <- base)

(* A checkpoint, whole, under the caller's exclusive section: drain (the
   commit's own fsync), render, and switch.  The render re-renders only
   the chunks of rows that changed since the previous head, and the
   head's CRC is folded from the pieces' cached ones.  The new head
   becomes durable with the next flush. *)
let checkpoint t (m : Manager.t) =
  drain t;
  switch t ~base:t.seq (Persist.render ~cache:t.cache m)

(* The journal's one checkpoint rule: checkpoint on either cap — a count
   of records, or the bytes after the head passing the byte budget (a
   burst of large sessions must not grow a segment unboundedly).  Whoever
   appends calls this after each record, so the caps a data directory was
   recovered with hold whichever role the node plays. *)
let maybe_checkpoint t m =
  (* like [since], count what is enqueued but not yet flushed *)
  let bytes = with_g t (fun g -> t.bytes + Buffer.length g.g_buf) in
  let due = t.since >= t.checkpoint_every || bytes >= t.checkpoint_bytes in
  if due then checkpoint t m;
  due

(* The same switch to a head holding [text], durable before returning;
   the manager it came from is a new one, so the render cache restarts. *)
let install_snapshot t ~seq ~text =
  drain t;
  switch t ~base:seq
    {
      Persist.pieces = [ text ];
      length = String.length text;
      crc = Crc32.string text;
    };
  t.cache <- Persist.render_cache ();
  poisoning t (fun () -> fsync_head t)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Newline-terminated lines of [text] from [from], with the byte offset
   just past each line's '\n'; a trailing fragment without a newline is
   torn by construction (fsynced records always end in one) and is not
   returned. *)
let complete_lines ?(from = 0) text =
  let out = ref [] in
  let rec go start =
    match String.index_from_opt text start '\n' with
    | Some i ->
        out := (String.sub text start (i - start), i + 1) :: !out;
        go (i + 1)
    | None -> ()
  in
  if from < String.length text then go from;
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
let scan ?from text : (item * int) list =
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
  between [] (complete_lines ?from text)

(* One parsed record, in file order. *)
type parsed_record = {
  r_seq : int;
  r_epoch : int;  (* promotion epoch stamp; 0 when the record predates epochs *)
  r_change : Manager.change;
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
  let ids = Gom.Ids.create () in
  let rec go (r, (c : Manager.change)) = function
    | [] -> bad "missing commit"
    | (l, stop) :: rest -> (
        match line_of l with
        | L_commit n when n = r.r_seq ->
            (* a legacy crc-less record *)
            if rest <> [] then bad "line after commit";
            { r with r_change = { c with code = List.rev c.code } }
        | L_epoch e -> go ({ r with r_epoch = e }, c) rest
        | L_payload ("crc", crc) -> (
            let covered = String.sub text 0 (stop - String.length l - 1) in
            if Crc32.of_decimal crc <> Some (Crc32.string covered) then
              bad "crc mismatch";
            match rest with
            | [ (l', _) ] when line_of l' = L_commit r.r_seq ->
                go (r, c) [ (l', stop) ]
            | _ -> bad "only the matching commit may follow crc")
        | L_payload ("ids", a) -> (
            let ns = String.split_on_char ' ' a |> List.filter (( <> ) "") in
            match List.map int_of_string_opt ns with
            | [ Some s; Some t; Some d; Some k; Some p; Some o ] ->
                ids.schemas <- s;
                ids.types <- t;
                ids.decls <- d;
                ids.codes <- k;
                ids.phreps <- p;
                ids.objects <- o;
                go (r, c) rest
            | _ -> bad ("bad ids line: " ^ l))
        | L_payload ("add", f) ->
            go (r, { c with delta = Delta.add (fact f) c.delta }) rest
        | L_payload ("del", f) ->
            go (r, { c with delta = Delta.del (fact f) c.delta }) rest
        | L_payload ("code", a) -> (
            match Persist.decode_code a with
            | cid, params, body ->
                go (r, { c with code = (cid, (params, body)) :: c.code }) rest
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
          let c = { Manager.delta = Delta.empty; code = []; ids } in
          go ({ r_seq = n; r_epoch = 0; r_change = c }, c) rest
      | _ -> bad "missing begin")
  | [] -> bad "empty"

(* Commit one record's change, as the primary committed it.  A failure —
   exception or an inconsistent result — leaves the manager as it was
   and reports the record as bad, which recovery treats as the start of
   the torn tail. *)
let apply_record (m : Manager.t) (r : parsed_record) : bool =
  match Manager.commit m r.r_change with
  | Manager.Consistent -> true
  | Manager.Inconsistent _ | (exception _) -> false

let records_from t ~from : (int * string) list =
  let path, off, len, seq =
    with_g t (fun _ -> (live_path t, t.head, t.bytes, t.seq))
  in
  List.filter_map
    (function
      | Record (n, text), _ when n > from && n <= seq -> Some (n, text)
      | _ -> None)
    (scan (read_range path ~off ~len))

(* Where replay stands.  [covered] is the sequence number the snapshot
   covers: records up to it are skipped, not replayed over a later state. *)
type cursor = {
  covered : int;
  n : int;  (* records replayed *)
  last : int;  (* seq of the last record in the state *)
  epoch : int;
  fenced : bool;
}

(* Replay the items of [text] from [from] onto [m] — every in-sequence
   record that parses and applies, and the epoch markers between them —
   and return the offset just past the last item kept, with the cursor
   after it.  [epoch] is raised by record stamps and by markers;
   [fenced] tracks whether the most recent epoch event was a fence (a
   later record or promotion marker clears it — the node has since acted
   in the newer epoch).  Replay stops at the first item that breaks these
   rules: everything from there on is the torn tail. *)
let replay (m : Manager.t) c ~from text =
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
  go from c (scan ~from text)

(* Bytes past [good] up to the last one that is not NUL: what a torn
   write left.  The NUL run a switch writes past a head is free space. *)
let torn_bytes text good =
  let rec last i = if i >= good && text.[i] = '\000' then last (i - 1) else i in
  last (String.length text - 1) + 1 - good

let read_if_present path =
  match read_file path with
  | text -> Some text
  | exception Sys_error _ when not (Sys.file_exists path) -> None

let load_snapshot body =
  try Persist.load_from_string body
  with Persist.Corrupt e -> raise (Corrupt ("snapshot: " ^ e))

(* What a segment file holds.  [Segment]: a header and, when it names
   one, a whole head whose snapshot passes its CRC.  [Unusable]: a
   header that does not parse, or a head that is torn or fails its
   check.  [Blank]: nothing a journal wrote a header into. *)
type segment = {
  hdr : header;
  text : string;
  start : int;  (* past the head: where records begin *)
  snapshot : string option;  (* the head's Persist text *)
}

type found = Blank | Segment of segment | Unusable of string

let classify text =
  match String.index_opt text '\n' with
  | None -> Blank
  | Some i -> (
      match parse_header (String.sub text 0 i) with
      | None -> Blank
      | exception Corrupt why -> Unusable why
      | Some ({ h_head = None; _ } as hdr) ->
          Segment { hdr; text; start = i + 1; snapshot = None }
      | Some ({ h_head = Some len; _ } as hdr) -> (
          let off = i + 1 in
          if off + len > String.length text then Unusable "torn head"
          else
            match parse_snapshot (String.sub text off len) with
            | s, e, body when s = hdr.h_base && e = hdr.h_epoch ->
                Segment { hdr; text; start = off + len; snapshot = Some body }
            | _ -> Unusable "head does not match its header"
            | exception Corrupt why -> Unusable why))

(* What {!bytes} reads for the directory's live segment, from the files
   alone: the bytes between its head and the NUL run after its records. *)
let stored_bytes ~dir =
  List.fold_left
    (fun (gen, n) i ->
      match Option.map classify (read_if_present (segment_path ~dir i)) with
      | Some (Segment s) when s.hdr.h_gen > gen ->
          (s.hdr.h_gen, torn_bytes s.text s.start)
      | _ -> (gen, n))
    (-1, 0) [ 0; 1 ]
  |> snd

(* The first [commit] line past [last] in [text], if any. *)
let record_past text last =
  List.find_map
    (fun (l, _) ->
      match line_of l with L_commit n when n > last -> Some n | _ -> None)
    (complete_lines text)

type rebuilt = {
  b_manager : Manager.t;
  b_from_snapshot : bool;
  b_cursor : cursor;
  b_truncated : int;  (* torn bytes past what was kept *)
  b_live : (int * int * int * int) option;
      (* the live segment's index, generation, head length and end of
         kept bytes; [None]: no segment yet *)
}

(* The layout before heads kept a [snapshot.gomdb] beside its segments,
   a [journal.retiring] during a checkpoint, and a [base] in a head-less
   header.  It is refused, not read: converting it is left to the last
   build that does. *)
let refuse_pre_heads ~dir found =
  let files =
    List.filter
      (fun f -> Sys.file_exists (Filename.concat dir f))
      [ "snapshot.gomdb"; "journal.retiring" ]
    @ List.filter_map
        (fun i ->
          match found.(i) with
          | Segment { hdr = { h_head = None; h_base; _ }; _ } when h_base > 0 ->
              Some (Filename.basename (segment_path ~dir i))
          | _ -> None)
        [ 0; 1 ]
  in
  if files <> [] then
    raise
      (Corrupt
         (Printf.sprintf
            "%s: %s in the layout before segment heads; open the directory \
             once with a build at or before commit 4c77f62, which converts it"
            dir (String.concat ", " files)))

(* The state the files hold.  The live segment is the one with the
   higher generation among those whose head is whole; its snapshot is
   loaded and its records replayed.  The other segment is only ever older
   or a head that did not land, and falling back from a head that did not
   land loses nothing acknowledged only while no record follows it: a
   segment that is not a whole head but holds a record past the
   recovered position raises.  Reads only. *)
let rebuild ~dir =
  let texts = Array.init 2 (fun i -> read_if_present (segment_path ~dir i)) in
  let found =
    Array.map (function None -> Blank | Some text -> classify text) texts
  in
  refuse_pre_heads ~dir found;
  let gen i = match found.(i) with Segment s -> s.hdr.h_gen | _ -> -1 in
  let best = if gen 1 > gen 0 then 1 else 0 in
  let b =
    match found.(best) with
    | Segment s ->
        let h = s.hdr in
        let m =
          match s.snapshot with
          | None -> Manager.create ()
          | Some body -> load_snapshot body
        in
        let c =
          {
            covered = h.h_base;
            n = 0;
            last = h.h_base;
            epoch = h.h_epoch;
            fenced = h.h_fenced;
          }
        in
        let good, c = replay m c ~from:s.start s.text in
        {
          b_manager = m;
          b_from_snapshot = s.snapshot <> None;
          b_cursor = c;
          b_truncated = torn_bytes s.text good;
          b_live = Some (best, h.h_gen, s.start, good);
        }
    | _ -> (
        let unusable = function Unusable _ -> true | _ -> false in
        match Array.find_opt unusable found with
        | Some (Unusable why) -> raise (Corrupt why)
        | _ ->
            {
              b_manager = Manager.create ();
              b_from_snapshot = false;
              b_cursor =
                { covered = 0; n = 0; last = 0; epoch = 0; fenced = false };
              b_truncated = 0;
              b_live = None;
            })
  in
  Array.iteri
    (fun i f ->
      let why = match f with Unusable why -> why | _ -> "no header" in
      match (f, texts.(i)) with
      | (Blank | Unusable _), Some text -> (
          match record_past text b.b_cursor.last with
          | Some n ->
              raise
                (Corrupt
                   (Printf.sprintf "%s: %s, yet it holds record %d past seq %d"
                      (segment_path ~dir i) why n b.b_cursor.last))
          | None -> ())
      | _ -> ())
    found;
  b

type recovery = {
  manager : Manager.t;
  journal : t;
  from_snapshot : bool;
  replayed : int;
  truncated_bytes : int;
}

let recover ?label ?(checkpoint_every = default_checkpoint_every)
    ?(checkpoint_bytes = default_checkpoint_bytes) ~dir () : recovery =
  mkdir_p dir;
  let b = rebuild ~dir in
  let c = b.b_cursor in
  (* the live segment, its generation, head length and end of kept bytes *)
  let idx, gen, start, good =
    match b.b_live with
    | Some live -> live
    | None ->
        (* a fresh directory: journal.log is its header line alone *)
        let fd =
          Unix.openfile (journal_path ~dir)
            [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            write_all fd fresh_header;
            Unix.fsync fd);
        let n = String.length fresh_header in
        (0, 0, n, n)
  in
  let created = ref (b.b_live = None) in
  let open_segment i =
    let path = segment_path ~dir i in
    if not (Sys.file_exists path) then created := true;
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  let fd = open_segment idx and other = open_segment (1 - idx) in
  if !created then fsync_dir dir;
  if b.b_truncated > 0 then Unix.ftruncate fd good;
  ignore (Unix.lseek fd good Unix.SEEK_SET);
  let journal =
    {
      dir;
      live = idx;
      fd;
      other;
      other_end = (Unix.fstat other).Unix.st_size;
      gen;
      head = start;
      head_durable = b.b_live = None;
      base = c.covered;
      seq = c.last;
      since = c.n;
      bytes = good - start;
      epoch = c.epoch;
      was_fenced = c.fenced;
      cache = Persist.render_cache ();
      head_buf = Bytes.empty;
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
          on_flush = ignore;
        };
      fp_write = labeled_site "journal.append.write" label;
      fp_fsync = labeled_site "journal.append.fsync" label;
      fp_head = labeled_site "journal.checkpoint.snapshot" label;
      fp_switch = labeled_site "journal.checkpoint.switch" label;
    }
  in
  {
    manager = b.b_manager;
    journal;
    from_snapshot = b.b_from_snapshot;
    replayed = c.n;
    truncated_bytes = b.b_truncated;
  }

let read_snapshot t =
  if t.gen = 0 then None
  else
    match classify (read_range (live_path t) ~off:0 ~len:t.head) with
    | Segment { snapshot; _ } -> snapshot
    | Unusable why -> raise (Corrupt why)
    | Blank -> None

(* ------------------------------------------------------------------ *)
(* Failover resync                                                     *)
(* ------------------------------------------------------------------ *)

let orphaned_path ~dir = Filename.concat dir "journal.orphaned"

(* A demoted ex-primary resyncing from a promoted node may hold committed
   records past the promoted node's seal — history the cluster has moved
   beyond.  Those records are never silently dropped: their exact bytes
   are appended to [journal.orphaned] (with a provenance comment) and only
   then truncated out of the live segment.  Returns how many records were
   orphaned.  Requires [seal >= base]; when the live head already covers
   past the seal the caller must orphan what the journal holds and fall
   back to a full resync instead. *)
let orphan_suffix t ~seal =
  if seal < t.base then
    invalid_arg
      (Printf.sprintf "Journal.orphan_suffix: seal %d below base %d" seal
         t.base);
  drain t;
  let suffix =
    List.filter_map
      (function
        | Record (n, text), stop when n > seal -> Some (text, stop)
        | _ -> None)
      (scan (read_range (live_path t) ~off:t.head ~len:t.bytes))
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
      Unix.ftruncate t.fd (t.head + cut);
      ignore (Unix.lseek t.fd (t.head + cut) Unix.SEEK_SET);
      Unix.fsync t.fd;
      t.head_durable <- true;
      t.bytes <- cut;
      t.since <- min t.since (seal - t.base));
  if t.seq > seal then t.seq <- seal;
  (* the batch writer numbers the next record after the seal *)
  t.group.g_assigned <- t.seq;
  List.length suffix

(* Rebuild a fresh manager from the segments as they stand now (the live
   one possibly just truncated), without disturbing the journal handle:
   the resync path's way to roll its in-memory state back to what the
   files hold. *)
let reload t : Manager.t = (rebuild ~dir:t.dir).b_manager
