(* The [gomsm serve] daemon: a TCP listener (stdlib unix + threads) hosting
   one Core.Manager.t behind a Broker, one thread per client connection. *)

type config = {
  host : string;  (* address to bind, e.g. "127.0.0.1" *)
  port : int;  (* 0 picks an ephemeral port *)
  port_file : string option;  (* written (atomically) with the bound port *)
  backlog : int;  (* pending-connection queue passed to listen(2) *)
  admin_port : int option;  (* /metrics + /healthz listener; None = off *)
  admin_port_file : string option;  (* bound admin port, written like port_file *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7643;
    port_file = None;
    backlog = 64;
    admin_port = None;
    admin_port_file = None;
  }

let log ?kvs level = Obs.Log.log ?kvs level ~comp:"daemon"

(* The release string: the CLI's --version and the gomsm_build_info series
   both read it from here so a scrape always matches the binary. *)
let version = "1.0.0"

module Failpoint = Fault.Failpoint

(* Connection-level fault injection: accepted sockets dropped before any
   request is read, and established connections cut mid-request — the
   failures client retry logic exists for. *)
let fp_accept = Failpoint.define "daemon.accept"
let fp_handler = Failpoint.define "daemon.handler"

(* A request's span name and latency metric name, per verb.  Constant
   strings: building them per request would allocate on every line
   served. *)
let request_names : Protocol.request -> string * string = function
  | Protocol.Bes -> ("verb.bes", "latency.bes")
  | Protocol.Ees -> ("verb.ees", "latency.ees")
  | Protocol.Rollback -> ("verb.rollback", "latency.rollback")
  | Protocol.Check -> ("verb.check", "latency.check")
  | Protocol.Query _ -> ("verb.query", "latency.query")
  | Protocol.Explain _ -> ("verb.explain", "latency.explain")
  | Protocol.Profile _ -> ("verb.profile", "latency.profile")
  | Protocol.Script_line _ -> ("verb.script-line", "latency.script-line")
  | Protocol.Dump -> ("verb.dump", "latency.dump")
  | Protocol.Stats -> ("verb.stats", "latency.stats")
  | Protocol.Health -> ("verb.health", "latency.health")
  | Protocol.Use _ -> ("verb.use", "latency.use")
  | Protocol.Db_create _ | Protocol.Db_drop _ | Protocol.Db_list
  | Protocol.Db_stat _ ->
      ("verb.db", "latency.db")
  | Protocol.Subscribe _ -> ("verb.subscribe", "latency.subscribe")
  | Protocol.Promote -> ("verb.promote", "latency.promote")
  | Protocol.Fence _ -> ("verb.fence", "latency.fence")
  | Protocol.Quit -> ("verb.quit", "latency.quit")

(* How the daemon reaches the database(s) it serves.  A single-broker
   router (below) wraps one Broker.t — the historical shape, still used by
   replicas and by tests that hand [serve] a broker; the tenant registry
   builds a many-database router.  [use_db] validates/opens a database and
   returns its canonical name; [with_db] serves one request against a
   named database; [admin] intercepts the db-management verbs. *)
type router = {
  default_db : string;  (* every connection starts scoped to this one *)
  use_db : current:string -> client:int -> string -> (string, string) result;
  with_db : string -> client:int -> Protocol.request -> Protocol.response;
  feed_db :
    string -> client:int -> from:int -> sub_epoch:int -> out_channel -> unit;
  admin : Protocol.request -> Protocol.response option;
  disconnect_db : string -> client:int -> unit;
  stats_extra : unit -> string list;  (* appended to a tenant's stats body *)
  server_metrics : Metrics.t;
      (* connection-level counters and the process-wide gauges live here *)
  export_metrics : unit -> Obs.Export.metric list;
      (* everything GET /metrics renders — per-tenant series carry db= *)
  profile_text : unit -> string;
      (* the body GET /profile renders: the top-K fingerprint table (merged
         across open tenants on a registry router) *)
}

let broker_router ?(name = "default") (broker : Broker.t) : router =
  let unknown_msg n =
    Printf.sprintf "unknown database %S: this server hosts only %S" n name
  in
  let unknown n = Protocol.err (unknown_msg n) in
  {
    default_db = name;
    use_db =
      (fun ~current:_ ~client:_ n ->
        if n = name then Ok name else Error (unknown_msg n));
    with_db = (fun _ ~client req -> Broker.handle broker ~client req);
    feed_db =
      (fun db ~client ~from ~sub_epoch oc ->
        if db = name then Broker.feed broker ~client ~from ~sub_epoch oc
        else Protocol.write_response oc (unknown db));
    admin =
      (function
      | Protocol.Db_list -> Some (Protocol.ok [ name ^ " open" ])
      | Protocol.Db_stat n ->
          if n = name then Some (Protocol.ok (Broker.stat_lines ~name broker))
          else Some (unknown n)
      | Protocol.Db_create _ | Protocol.Db_drop _ ->
          Some
            (Protocol.err
               "single-database server: create/drop need a multi-database \
                daemon (gomsm serve)")
      | _ -> None);
    disconnect_db = (fun _ ~client -> Broker.disconnect broker ~client);
    stats_extra = (fun () -> []);
    server_metrics = Broker.metrics broker;
    export_metrics = (fun () -> Broker.export ~labels:[ ("db", name) ] broker);
    profile_text =
      (fun () ->
        Obs.Profile.page (Obs.Profile.top (Broker.profile broker) ~k:20));
  }

(* Serve one connection until quit/EOF; the current database's broker rolls
   back any session the client still holds when it goes away.  [use]
   re-scopes the connection; the db-management verbs go to the router's
   admin hook; everything else is served by the current database. *)
let client_loop (router : router) ~client fd =
  let metrics = router.server_metrics in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let current = ref router.default_db in
  (* one trace id for the whole connection; requests carrying their own
     [trace <id>] prefix run under that id instead *)
  let conn_trace = lazy (Obs.Trace.new_id ()) in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line ->
        if String.trim line = "" then loop ()
        else begin
          let trace_id, line = Protocol.split_trace line in
          (* spans are recorded under a trace id, the request's own or,
             with tracing armed, the connection's *)
          let traced = trace_id <> None || Obs.Trace.armed () in
          let serve () =
            match Protocol.parse_request line with
            | Error reason ->
                Metrics.incr metrics "bad_requests";
                Protocol.write_response oc (Protocol.err reason);
                false
            | Ok (Protocol.Use name) ->
                (match router.use_db ~current:!current ~client name with
                | Ok canonical ->
                    current := canonical;
                    Protocol.write_response oc
                      (Protocol.ok [ Printf.sprintf "using %s." canonical ])
                | Error reason ->
                    Protocol.write_response oc (Protocol.err reason));
                false
            | Ok Protocol.Quit ->
                (* connection-level, not database-level: answering through
                   the current database would pointlessly reopen it when it
                   has been evicted since the last request *)
                Protocol.write_response oc (Protocol.ok [ "bye." ]);
                true
            | Ok (Protocol.Subscribe (from, db, sub_epoch)) ->
                (* the connection becomes a one-way replication feed; when
                   the feed ends, so does the connection.  No span — the
                   feed only ends with the subscriber — but the log line
                   carries the replica's trace id for correlation *)
                let db = Option.value db ~default:!current in
                log Obs.Log.Info
                  ~kvs:
                    [
                      ("db", db);
                      ("client", string_of_int client);
                      ("from", string_of_int from);
                      ("epoch", string_of_int sub_epoch);
                    ]
                  "replication feed subscribed";
                router.feed_db db ~client ~from ~sub_epoch oc;
                true
            | Ok req -> (
                match router.admin req with
                | Some resp ->
                    Protocol.write_response oc resp;
                    false
                | None -> (
                    match Failpoint.hit fp_handler with
                    | exception (Failpoint.Dropped _ | Unix.Unix_error _) ->
                        (* injected connection cut: no response, just hang up
                           — the client sees EOF mid-request *)
                        Metrics.incr metrics "failpoint_drops";
                        true
                    | () ->
                        let t0 = Obs.Mtime.now_ns () in
                        let span, latency = request_names req in
                        let resp =
                          Obs.Trace.with_span span
                            ?kvs:
                              (if traced then
                                 Some
                                   [
                                     ("db", !current);
                                     ("client", string_of_int client);
                                   ]
                               else None)
                            (fun () -> router.with_db !current ~client req)
                        in
                        let resp =
                          (* daemon-wide lines ride along on stats, so one
                             request shows both the tenant and the server *)
                          match (req, resp.Protocol.status) with
                          | Protocol.Stats, Protocol.Ok ->
                              {
                                resp with
                                Protocol.body =
                                  resp.Protocol.body @ router.stats_extra ();
                              }
                          | _ -> resp
                        in
                        Metrics.observe metrics latency
                          (Obs.Mtime.ns_to_s (Obs.Mtime.elapsed_ns t0));
                        Protocol.write_response oc resp;
                        false))
          in
          let stop =
            match trace_id with
            | Some id -> Obs.Trace.with_context id serve
            | None ->
                if traced then
                  Obs.Trace.with_context (Lazy.force conn_trace) serve
                else serve ()
          in
          if not stop then loop ()
        end
  in
  (try loop () with Sys_error _ -> ());
  router.disconnect_db !current ~client;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%d\n" port;
  close_out oc;
  Sys.rename tmp path

let serve ?on_listen ?broker ?router (config : config) : unit =
  (* a client closing mid-response must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let router =
    match router with
    | Some r -> r
    | None ->
        let broker =
          match broker with
          | Some b -> b
          | None ->
              Broker.create ~metrics:(Metrics.create ())
                (Core.Manager.create ())
        in
        broker_router broker
  in
  let metrics = router.server_metrics in
  let active = Atomic.make 0 in
  List.iter
    (fun (name, read) -> Metrics.gauge metrics name read)
    [
      ("active_connections", fun () -> Atomic.get active);
      (* process-wide evaluator state: reported once, by the daemon *)
      ("plan_cache_hits", Datalog.Plan.hits);
      ("plan_cache_misses", Datalog.Plan.misses);
      ("interned_symbols", Datalog.Term.interned_count);
    ];
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock
    (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen sock config.backlog;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  log Obs.Log.Info
    ~kvs:[ ("host", config.host); ("port", string_of_int port) ]
    "listening";
  (match config.port_file with
  | Some path -> write_port_file path port
  | None -> ());
  (* the admin endpoint: GET /metrics (Prometheus text format) and
     GET /healthz (the health verb's body; 503 once degraded) on a second
     socket, so scrapes never compete with the line protocol *)
  (match config.admin_port with
  | None -> ()
  | Some admin_port ->
      let handler path =
        match path with
        | "/metrics" ->
            Some
              {
                Obs.Admin.status = 200;
                content_type = "text/plain; version=0.0.4; charset=utf-8";
                body =
                  Obs.Export.render
                    (Obs.Export.process_metrics ~version ()
                    @ router.export_metrics ());
              }
        | "/profile" -> Some (Obs.Admin.text 200 (router.profile_text ()))
        | "/healthz" ->
            let resp =
              router.with_db router.default_db ~client:0 Protocol.Health
            in
            let healthy =
              (match resp.Protocol.status with
              | Protocol.Ok -> true
              | Protocol.Err _ -> false)
              && List.mem "status ok" resp.Protocol.body
            in
            Some
              (Obs.Admin.text
                 (if healthy then 200 else 503)
                 (String.concat "\n" resp.Protocol.body ^ "\n"))
        | _ -> None
      in
      let bound = Obs.Admin.start ~host:config.host ~port:admin_port handler in
      log Obs.Log.Info
        ~kvs:[ ("host", config.host); ("port", string_of_int bound) ]
        "admin endpoint listening";
      (match config.admin_port_file with
      | Some path -> write_port_file path bound
      | None -> ()));
  (match on_listen with Some f -> f port | None -> ());
  let next_client = ref 0 in
  while true do
    let fd, _addr = Unix.accept sock in
    match Failpoint.hit fp_accept with
    | exception (Failpoint.Dropped _ | Unix.Unix_error _) ->
        (* injected accept failure: the connection is closed unserved *)
        Metrics.incr metrics "failpoint_drops";
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | () ->
        Metrics.incr metrics "connections";
        Atomic.incr active;
        next_client := !next_client + 1;
        let client = !next_client in
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Atomic.decr active)
                 (fun () ->
                   try client_loop router ~client fd
                   with e ->
                     Obs.Log.errorf
                       ~kvs:[ ("client", string_of_int client) ]
                       ~comp:"daemon" "client handler died: %s"
                       (Printexc.to_string e)))
             ())
  done
