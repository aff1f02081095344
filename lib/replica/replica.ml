(* The [gomsm replica] daemon: a read-only copy of a primary [gomsm serve],
   fed by the primary's journal stream.

   Boot order: recover the local data directory (snapshot + journal — the
   replica journals every record it applies, so a restart resumes from its
   own position), subscribe to the primary from that position, and serve
   check/query/dump/stats locally while refusing writer verbs with a
   redirect.  The feed reconnects with exponential backoff, so a primary
   kill -9/restart or a network partition only ever delays convergence. *)

module Stream = Stream
module Applier = Applier
module Manager = Core.Manager
module Broker = Server.Broker
module Daemon = Server.Daemon
module Journal = Server.Journal
module Metrics = Server.Metrics

type config = {
  primary_host : string;
  primary_port : int;
  host : string;  (* address the replica itself binds *)
  port : int;  (* 0 picks an ephemeral port *)
  data_dir : string option;  (* local journal + snapshots; None = in-memory *)
  (* the data dir's journal caps ({!Journal.recover}): they stay in force
     after a promotion, since the journal itself applies them *)
  checkpoint_every : int;
  checkpoint_bytes : int;
  port_file : string option;
  db : string;  (* which of the primary's databases to mirror *)
  admin_port : int option;  (* /metrics + /healthz, like the primary's *)
  admin_port_file : string option;
}

let default_config =
  {
    primary_host = "127.0.0.1";
    primary_port = Daemon.default_config.Daemon.port;
    host = "127.0.0.1";
    port = 7644;
    data_dir = None;
    checkpoint_every = Journal.default_checkpoint_every;
    checkpoint_bytes = Journal.default_checkpoint_bytes;
    port_file = None;
    db = "default";
    admin_port = None;
    admin_port_file = None;
  }

type t = {
  broker : Broker.t;
  applier : Applier.t;
  ctl : Stream.control;  (* stops the feed thread (promotion, shutdown) *)
  feed : Thread.t;
}

let broker t = t.broker
let applier t = t.applier

let logf fmt = Obs.Log.infof ~comp:"replica" fmt

let primary_address config =
  Printf.sprintf "%s:%d" config.primary_host config.primary_port

(* Build the read-only broker: recover local state when a data directory is
   given (resuming from our own journaled position), else start empty and
   let the feed bootstrap us. *)
let prepare config metrics : Broker.t =
  let read_only = primary_address config in
  match config.data_dir with
  | None ->
      Broker.create ~read_only ~metrics (Manager.create ())
  | Some dir ->
      let r =
        Journal.recover ~checkpoint_every:config.checkpoint_every
          ~checkpoint_bytes:config.checkpoint_bytes ~dir ()
      in
      logf "data dir %s: %s, replayed %d record(s), resuming from seq %d" dir
        (if r.Journal.from_snapshot then "loaded snapshot" else "no snapshot")
        r.Journal.replayed
        (Journal.seq r.Journal.journal);
      Broker.create ~journal:r.Journal.journal ~read_only ~metrics
        r.Journal.manager

let make config : t =
  let metrics = Metrics.create () in
  let broker = prepare config metrics in
  let applier = Applier.create broker in
  (* the whole feed runs under one trace id: the subscribe line carries it
     to the primary, and every apply span and feed log line here wears it *)
  let feed_trace = Obs.Trace.new_id () in
  Obs.Log.infof ~comp:"replica"
    ~kvs:[ ("trace", feed_trace); ("db", config.db) ]
    "replication feed starting";
  let ctl = Stream.control () in
  let feed =
    Thread.create
      (fun () ->
        Obs.Trace.with_context feed_trace (fun () ->
            Stream.run ~ctl ~host:config.primary_host
              ~port:config.primary_port ~db:config.db
              ~position:(fun () -> Applier.position applier)
              ~epoch:(fun () -> Broker.epoch broker)
              ~on_connected:(Applier.on_connected applier)
              ~handle:(Applier.handle applier)
              ~on_status:(fun s -> Obs.Log.warnf ~comp:"replica" "%s" s)
              ~on_retry:(fun () -> Metrics.incr metrics "replica_reconnects")
              ()))
      ()
  in
  { broker; applier; ctl; feed }

(* Promotion: drain the subscription (stop the feed thread and join it, so
   no record is mid-apply), then flip the broker into the writer at
   [epoch + 1].  The returned pair is [(new epoch, seal seq)]. *)
let promote t : (int * int, string) result =
  Obs.Trace.with_span "replica.promote" @@ fun () ->
  Stream.stop t.ctl;
  Thread.join t.feed;
  Broker.promote t.broker

let daemon_config config =
  {
    Daemon.default_config with
    Daemon.host = config.host;
    port = config.port;
    port_file = config.port_file;
    admin_port = config.admin_port;
    admin_port_file = config.admin_port_file;
  }

(* The replica's own listener hosts exactly the mirrored database, under
   the same name the primary serves it as.  The [promote] verb is
   intercepted here — the broker alone cannot drain the feed thread. *)
let daemon_router config t =
  let r = Daemon.broker_router ~name:config.db t.broker in
  {
    r with
    Daemon.with_db =
      (fun name ~client req ->
        match req with
        | Server.Protocol.Promote -> (
            match promote t with
            | Ok (epoch, seq) ->
                Server.Protocol.ok
                  [
                    Printf.sprintf
                      "promoted to epoch %d at seq %d; now accepting writes."
                      epoch seq;
                  ]
            | Error reason -> Server.Protocol.err reason)
        | _ -> r.Daemon.with_db name ~client req);
  }

(* Non-blocking: spawn the feed and the listener, return the handles (for
   tests and benches). *)
let start ?on_listen config : t =
  let t = make config in
  ignore
    (Thread.create
       (fun () ->
         Daemon.serve ?on_listen
           ~router:(daemon_router config t)
           (daemon_config config))
       ());
  t

(* Blocking: the CLI entry point. *)
let run ?on_listen config : unit =
  let t = make config in
  logf "replicating from %s" (primary_address config);
  Daemon.serve ?on_listen ~router:(daemon_router config t) (daemon_config config)
