(* The tenant registry: many named databases (Broker + Journal each) inside
   one daemon, with a bounded LRU cache of open managers.  See the mli for
   the contract; the locking rule here is simple: the registry mutex is
   always the outer lock, it is held only for table surgery (never across a
   request), and broker/metrics locks are leaves taken under it at will. *)

module Manager = Core.Manager
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics
module Protocol = Server.Protocol
module Daemon = Server.Daemon

let default_db = "default"

type config = {
  data_dir : string option;
  max_open : int;
  checkpoint_every : int;
  checkpoint_bytes : int;
  acquire_timeout : float;
  log : string -> unit;
}

let default_config =
  {
    data_dir = None;
    max_open = 64;
    checkpoint_every = Journal.default_checkpoint_every;
    checkpoint_bytes = Journal.default_checkpoint_bytes;
    acquire_timeout = 5.0;
    log = ignore;
  }

type entry = {
  e_name : string;
  e_broker : Broker.t;
  mutable e_pins : int;  (* in-flight requests/feeds holding the tenant *)
  mutable e_stamp : int;  (* LRU clock tick of the last touch *)
}

type t = {
  cfg : config;
  mu : Mutex.t;
  open_tbl : (string, entry) Hashtbl.t;
  (* one metrics registry per tenant, surviving eviction so counters and
     the stats aggregates are lifetime totals, not open-window totals *)
  tenant_metrics : (string, Metrics.t) Hashtbl.t;
  server_metrics : Metrics.t;
  mutable tick : int;
}

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* ------------------------------------------------------------------ *)
(* Names and directories                                               *)
(* ------------------------------------------------------------------ *)

(* Letters, digits, _ and -: no '.' (tombstones are "<name>.tomb", journal
   files carry extensions) and no '/' (no path traversal), so a valid name
   is exactly one safe path component. *)
let valid_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let validate name =
  let n = String.length name in
  if n = 0 then Error "database names cannot be empty"
  else if n > 64 then Error "database names are limited to 64 characters"
  else if name.[0] = '-' then
    Error (Printf.sprintf "invalid database name %S: cannot start with -" name)
  else if not (String.for_all valid_char name) then
    Error
      (Printf.sprintf
         "invalid database name %S: use letters, digits, _ and -" name)
  else Ok name

(* [default] is the data root itself: a pre-existing single-tenant data
   directory keeps working unchanged, byte for byte. *)
let dir_of t name =
  Option.map
    (fun root ->
      if name = default_db then root else Filename.concat root name)
    t.cfg.data_dir

let is_tombstone entry = Filename.check_suffix entry ".tomb"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> rm_rf (Filename.concat path e))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create cfg =
  let cfg = { cfg with max_open = max 1 cfg.max_open } in
  (match cfg.data_dir with
  | None -> ()
  | Some root ->
      mkdir_p root;
      (* a crash between tombstone-rename and deletion leaves the corpse
         behind; it is invisible to every lookup (the '.' in '.tomb' can
         never appear in a name), so just finish the job here *)
      Array.iter
        (fun e -> if is_tombstone e then rm_rf (Filename.concat root e))
        (try Sys.readdir root with Sys_error _ -> [||]));
  let open_tbl = Hashtbl.create 8 and server_metrics = Metrics.create () in
  (* no lock: readers must not take [mu], which the renderers hold *)
  Metrics.gauge server_metrics "open_dbs" (fun () -> Hashtbl.length open_tbl);
  {
    cfg;
    mu = Mutex.create ();
    open_tbl;
    tenant_metrics = Hashtbl.create 8;
    server_metrics;
    tick = 0;
  }

(* Call with the lock held. *)
let exists_locked t name =
  name = default_db
  || Hashtbl.mem t.open_tbl name
  ||
  match dir_of t name with
  | Some dir -> ( try Sys.is_directory dir with Sys_error _ -> false)
  | None -> false

let unknown name =
  Printf.sprintf "unknown database %S (db create %s first)" name name

(* ------------------------------------------------------------------ *)
(* Open / evict                                                        *)
(* ------------------------------------------------------------------ *)

let metrics_for_locked t name =
  match Hashtbl.find_opt t.tenant_metrics name with
  | Some m -> m
  | None ->
      let m = Metrics.create () in
      Hashtbl.replace t.tenant_metrics name m;
      m

(* Call with the lock held.  Evictable = nothing pinning it and no open
   evolution session; feeds pin for their whole lifetime, so a tenant with
   subscribers never goes.  When every open tenant is busy the cap is
   allowed to overflow — refusing the open would turn a full cache into
   spurious "unknown database" errors. *)
let evict_for_room_locked t =
  if t.cfg.data_dir <> None then begin
    let continue_ = ref true in
    while !continue_ && Hashtbl.length t.open_tbl >= t.cfg.max_open do
      let in_flight e =
        (* a journal batch awaiting its fsync: the committer already
           released the writer slot, but closing the journal under the
           flush would lose acknowledgment-pending records *)
        match Broker.journal e.e_broker with
        | Some j -> Journal.in_flight j
        | None -> false
      in
      let victim =
        Hashtbl.fold
          (fun _ e best ->
            if e.e_pins > 0 || Broker.writer e.e_broker <> None || in_flight e
            then best
            else
              match best with
              | Some b when b.e_stamp <= e.e_stamp -> best
              | _ -> Some e)
          t.open_tbl None
      in
      match victim with
      | None -> continue_ := false
      | Some e ->
          Hashtbl.remove t.open_tbl e.e_name;
          Broker.close e.e_broker;
          Metrics.incr t.server_metrics "evictions";
          t.cfg.log
            (Printf.sprintf "db %s: evicted (journal closed, %d still open)"
               e.e_name (Hashtbl.length t.open_tbl))
    done
  end

(* Call with the lock held; the name must exist and not be open.  Opening
   does disk I/O under the registry lock — opens are rare and serialized,
   and requests to already-open tenants only graze the lock to pin. *)
let open_entry_locked t name =
  evict_for_room_locked t;
  let metrics = metrics_for_locked t name in
  let broker =
    match dir_of t name with
    | None ->
        Broker.create ~acquire_timeout:t.cfg.acquire_timeout ~metrics
          (Manager.create ())
    | Some dir ->
        let r =
          Journal.recover ~label:name ~checkpoint_every:t.cfg.checkpoint_every
            ~checkpoint_bytes:t.cfg.checkpoint_bytes ~dir ()
        in
        t.cfg.log
          (Printf.sprintf "db %s: data dir %s: %s, replayed %d record(s)%s"
             name dir
             (if r.Journal.from_snapshot then "loaded snapshot"
              else "no snapshot")
             r.Journal.replayed
             (if r.Journal.truncated_bytes > 0 then
                Printf.sprintf ", truncated %d torn byte(s)"
                  r.Journal.truncated_bytes
              else ""));
        Broker.create ~journal:r.Journal.journal
          ~acquire_timeout:t.cfg.acquire_timeout ~metrics r.Journal.manager
  in
  let e =
    { e_name = name; e_broker = broker; e_pins = 0; e_stamp = next_tick t }
  in
  Hashtbl.replace t.open_tbl name e;
  e

let find_or_open_locked t name =
  match Hashtbl.find_opt t.open_tbl name with
  | Some e ->
      e.e_stamp <- next_tick t;
      Ok e
  | None ->
      if not (exists_locked t name) then Error (unknown name)
      else begin
        match open_entry_locked t name with
        | e -> Ok e
        | exception Journal.Corrupt reason ->
            Error (Printf.sprintf "cannot open database %S: %s" name reason)
        | exception Unix.Unix_error (ec, _, _) ->
            Error
              (Printf.sprintf "cannot open database %S: %s" name
                 (Unix.error_message ec))
      end

(* ------------------------------------------------------------------ *)
(* The public operations                                               *)
(* ------------------------------------------------------------------ *)

let use t name =
  match validate name with
  | Error _ as e -> e
  | Ok name ->
      with_lock t (fun () ->
          Result.map (fun e -> e.e_name) (find_or_open_locked t name))

let with_db t name f =
  (* validate here, not only in [use]: subscribe feeds (and any future
     caller) reach the registry with a client-supplied name, and an
     unvalidated "." or ".." would alias the data root or escape it *)
  match validate name with
  | Error _ as e -> e
  | Ok name -> (
      let pinned =
        with_lock t (fun () ->
            Result.map
              (fun e ->
                e.e_pins <- e.e_pins + 1;
                e)
              (find_or_open_locked t name))
      in
      match pinned with
      | Error _ as e -> e
      | Ok e ->
          Fun.protect
            ~finally:(fun () ->
              with_lock t (fun () -> e.e_pins <- e.e_pins - 1))
            (fun () -> Ok (f e.e_broker)))

let create_db t name =
  match validate name with
  | Error _ as e -> e
  | Ok name ->
      with_lock t (fun () ->
          if exists_locked t name then
            Error (Printf.sprintf "database %S already exists" name)
          else begin
            match
              match dir_of t name with
              | Some dir -> Unix.mkdir dir 0o755
              | None ->
                  (* in-memory registries have no directory to stand for the
                     database: materialize the broker immediately *)
                  ignore (open_entry_locked t name)
            with
            | () ->
                Metrics.incr t.server_metrics "db_creates";
                t.cfg.log (Printf.sprintf "db %s: created" name);
                Ok ()
            | exception Unix.Unix_error (ec, _, _) ->
                (* e.g. a plain file squatting on the name (EEXIST — it is
                   not a directory, so exists_locked said no), EACCES,
                   ENOSPC: an err reply, not a dead connection thread *)
                Error
                  (Printf.sprintf "cannot create database %S: %s" name
                     (Unix.error_message ec))
          end)

let drop_db t name =
  match validate name with
  | Error _ as e -> e
  | Ok name ->
      if name = default_db then
        Error "the default database cannot be dropped"
      else
        with_lock t (fun () ->
            match Hashtbl.find_opt t.open_tbl name with
            | Some e when Broker.writer e.e_broker <> None ->
                Error
                  (Printf.sprintf
                     "database %S has an open evolution session; end it (ees \
                      or rollback) first"
                     name)
            | Some e when e.e_pins > 0 ->
                Error
                  (Printf.sprintf
                     "database %S is busy (%d in-flight request(s) or \
                      feed(s))"
                     name e.e_pins)
            | entry ->
                if not (exists_locked t name) then
                  Error (Printf.sprintf "unknown database %S" name)
                else begin
                  (match entry with
                  | Some e ->
                      Hashtbl.remove t.open_tbl name;
                      Broker.close e.e_broker
                  | None -> ());
                  Hashtbl.remove t.tenant_metrics name;
                  match
                    match dir_of t name with
                    | None -> ()
                    | Some dir ->
                        (* rename is the atomic point of no return; a crash
                           after it leaves only a tombstone, swept at the
                           next registry open *)
                        let tomb = dir ^ ".tomb" in
                        rm_rf tomb;
                        Unix.rename dir tomb;
                        rm_rf tomb
                  with
                  | () ->
                      Metrics.incr t.server_metrics "db_drops";
                      t.cfg.log (Printf.sprintf "db %s: dropped" name);
                      Ok ()
                  | exception Unix.Unix_error (ec, _, _) ->
                      Error
                        (Printf.sprintf "cannot drop database %S: %s" name
                           (Unix.error_message ec))
                end)

let list t =
  with_lock t (fun () ->
      let names =
        match t.cfg.data_dir with
        | None ->
            (* default always exists (exists_locked says so) even before its
               first [use] materializes a broker for it *)
            default_db :: Hashtbl.fold (fun n _ acc -> n :: acc) t.open_tbl []
        | Some root ->
            default_db
            :: (Array.to_list
                  (try Sys.readdir root with Sys_error _ -> [||])
               |> List.filter (fun e ->
                      e <> default_db
                      && Result.is_ok (validate e)
                      && try Sys.is_directory (Filename.concat root e)
                         with Sys_error _ -> false))
      in
      names
      |> List.sort_uniq String.compare
      |> List.map (fun n ->
             if Hashtbl.mem t.open_tbl n then n ^ " open" else n ^ " closed"))

let stat t name =
  match validate name with
  | Error _ as e -> e
  | Ok name ->
      with_lock t (fun () ->
          if not (exists_locked t name) then
            Error (Printf.sprintf "unknown database %S" name)
          else
            match Hashtbl.find_opt t.open_tbl name with
            | Some e ->
                Ok
                  (Broker.stat_lines ~name e.e_broker
                  @
                  match dir_of t name with
                  | Some dir -> [ "path " ^ dir ]
                  | None -> [])
            | None ->
                (* only reachable with a data dir: in-memory databases are
                   always open *)
                let dir = Option.get (dir_of t name) in
                let jbytes = Journal.stored_bytes ~dir in
                Ok
                  ([
                     "name " ^ name;
                     "state closed";
                     Printf.sprintf "journal_bytes %d" jbytes;
                   ]
                  @ (* counters outlive the broker; the profile dies with
                       it, so only the lifetime plan traffic survives *)
                  (match Hashtbl.find_opt t.tenant_metrics name with
                  | Some m ->
                      [
                        Printf.sprintf "plan_cache_hits %d"
                          (Metrics.counter m "plan.hits");
                        Printf.sprintf "plan_cache_misses %d"
                          (Metrics.counter m "plan.misses");
                      ]
                  | None -> [])
                  @ [ "path " ^ dir ]))

let open_count t = with_lock t (fun () -> Hashtbl.length t.open_tbl)
let server_metrics t = t.server_metrics

let stats_lines t =
  with_lock t (fun () ->
      let totals = Hashtbl.create 16 in
      Hashtbl.iter
        (fun _ m ->
          List.iter
            (fun (k, v) ->
              Hashtbl.replace totals k
                (v + Option.value (Hashtbl.find_opt totals k) ~default:0))
            (Metrics.counters m))
        t.tenant_metrics;
      let total_lines =
        Hashtbl.fold
          (fun k v acc -> Printf.sprintf "counter total.%s %d" k v :: acc)
          totals []
        |> List.sort compare
      in
      Metrics.render t.server_metrics @ total_lines)

(* The /metrics scrape body: the daemon-wide registry unlabeled, every
   tenant's registry (evicted ones included — their counters outlive the
   broker; the gauges left with it) and the open brokers' profiles under a
   db= label.  The registry lock is the outer lock here and the metrics
   mutexes are leaves, the same order every other path uses. *)
let export_metrics t =
  with_lock t (fun () ->
      let sorted tbl =
        Hashtbl.fold (fun n v acc -> (n, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      Metrics.export t.server_metrics
      @ List.concat_map
          (fun (name, m) -> Metrics.export ~labels:[ ("db", name) ] m)
          (sorted t.tenant_metrics)
      @ List.concat_map
          (fun (name, e) ->
            Obs.Profile.export ~labels:[ ("db", name) ]
              (Broker.profile e.e_broker))
          (sorted t.open_tbl))

let shutdown t =
  with_lock t (fun () ->
      Hashtbl.iter (fun _ e -> Broker.close e.e_broker) t.open_tbl;
      Hashtbl.reset t.open_tbl)

(* ------------------------------------------------------------------ *)
(* The daemon router                                                   *)
(* ------------------------------------------------------------------ *)

let router t : Daemon.router =
  {
    Daemon.default_db;
    use_db =
      (fun ~current ~client name ->
        (* switching away while holding the writer slot would orphan the
           open session: the disconnect rollback only covers the current
           database *)
        let holds_writer =
          with_lock t (fun () ->
              match Hashtbl.find_opt t.open_tbl current with
              | Some e -> Broker.writer e.e_broker = Some client
              | None -> false)
        in
        if holds_writer && name <> current then
          Error
            "an evolution session is open; end it (ees or rollback) before \
             switching databases"
        else use t name);
    with_db =
      (fun name ~client req ->
        match with_db t name (fun b -> Broker.handle b ~client req) with
        | Ok resp -> resp
        | Error reason -> Protocol.err reason);
    feed_db =
      (fun name ~client ~from ~sub_epoch oc ->
        match
          with_db t name (fun b -> Broker.feed b ~client ~from ~sub_epoch oc)
        with
        | Ok () -> ()
        | Error reason -> Protocol.write_response oc (Protocol.err reason));
    admin =
      (fun req ->
        let of_result verb name = function
          | Ok () -> Protocol.ok [ Printf.sprintf "%s %s." verb name ]
          | Error reason -> Protocol.err reason
        in
        match req with
        | Protocol.Db_create name ->
            Some (of_result "created" name (create_db t name))
        | Protocol.Db_drop name ->
            Some (of_result "dropped" name (drop_db t name))
        | Protocol.Db_list -> Some (Protocol.ok (list t))
        | Protocol.Db_stat name -> (
            match stat t name with
            | Ok lines -> Some (Protocol.ok lines)
            | Error reason -> Some (Protocol.err reason))
        | _ -> None);
    disconnect_db =
      (fun name ~client ->
        (* only roll back on a still-open tenant: a client that merely read
           from a since-evicted one has nothing to undo, and reopening the
           database just to disconnect would defeat the eviction *)
        let entry =
          with_lock t (fun () ->
              match Hashtbl.find_opt t.open_tbl name with
              | Some e ->
                  e.e_pins <- e.e_pins + 1;
                  Some e
              | None -> None)
        in
        match entry with
        | None -> ()
        | Some e ->
            Fun.protect
              ~finally:(fun () ->
                with_lock t (fun () -> e.e_pins <- e.e_pins - 1))
              (fun () -> Broker.disconnect e.e_broker ~client));
    stats_extra = (fun () -> stats_lines t);
    server_metrics = t.server_metrics;
    export_metrics = (fun () -> export_metrics t);
    profile_text =
      (fun () ->
        (* merge the open tenants' fingerprint tables (summed per
           fingerprint, re-ranked); an evicted tenant's profile died with
           its broker — lifetime counters live in /metrics instead *)
        let brokers =
          with_lock t (fun () ->
              Hashtbl.fold (fun _ e acc -> e.e_broker :: acc) t.open_tbl [])
        in
        Obs.Profile.page
          (Obs.Profile.merge_top ~k:20
             (List.map
                (fun b -> Obs.Profile.top (Broker.profile b) ~k:max_int)
                brokers)));
  }
