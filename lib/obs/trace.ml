(* Request tracing: a trace id minted per client connection (or supplied by
   the client over the wire as a [trace <id>] request prefix), a span per
   interesting operation (verb dispatch, broker acquire, session check,
   per-stratum datalog eval, journal append/fsync, replica apply).

   Finished spans are emitted through Log at debug level (comp=trace); any
   span slower than the [--slow-ms] threshold is additionally emitted at
   warn level (comp=slow) with its full ancestry.

   The trace id and span stack live in this thread's {!Context} entry,
   next to any profile scope.  When tracing is off and no thread carries a
   context, [with_span] costs two atomic loads and nothing else; the B11
   bench series prices exactly that. *)

type span = {
  name : string;
  trace : string;
  span_id : string;
  parent : string option;  (* enclosing span's id, if any *)
  ancestry : string list;  (* enclosing span names, outermost first *)
  ms : float;
  kvs : (string * string) list;
}

(* [armed] mirrors "would a finished span go anywhere": tracing enabled, a
   slow threshold set, or a test hook installed.  A thread inside
   [with_context] records regardless — a client that sent a [trace] prefix
   is recorded even when the server itself has tracing off. *)
let enabled = Atomic.make false
let slow_ms_v = Atomic.make 0.0
let hooked = Atomic.make false
let armed_v = Atomic.make false

let recompute () =
  Atomic.set armed_v
    (Atomic.get enabled || Atomic.get slow_ms_v > 0.0 || Atomic.get hooked)

let set_enabled b =
  Atomic.set enabled b;
  recompute ()

let set_slow_ms ms =
  Atomic.set slow_ms_v (Float.max 0.0 ms);
  recompute ()

let slow_ms () = Atomic.get slow_ms_v
let armed () = Atomic.get armed_v

let hook : (span -> unit) option ref = ref None

let set_hook h =
  hook := h;
  Atomic.set hooked (Option.is_some h);
  recompute ()

let rng_mu = Mutex.create ()
let rng = lazy (Random.State.make_self_init ())

let new_id () =
  Mutex.lock rng_mu;
  let st = Lazy.force rng in
  let a = Random.State.bits st land 0xffffff
  and b = Random.State.bits st land 0xffffff
  and c = Random.State.bits st land 0xffff in
  Mutex.unlock rng_mu;
  Printf.sprintf "%06x%06x%04x" a b c

let current_trace () =
  match Context.current () with Some c -> c.Context.trace | None -> None

(* A new trace keeps the thread's profile scope: the two are independent,
   and each is restored on exit. *)
let in_context id f =
  Context.with_ (fun c -> { c with Context.trace = Some id; stack = [] }) f

let with_context id f = in_context id (fun _ -> f ())

let emit (c : Context.t) trace (fr : Context.frame) ~ms ~kvs =
  let parent, ancestry =
    match c.stack with
    | [] -> (None, [])
    | up :: _ ->
        ( Some up.f_id,
          List.rev_map (fun (f : Context.frame) -> f.f_name) c.stack )
  in
  let sp =
    {
      name = fr.f_name;
      trace;
      span_id = fr.f_id;
      parent;
      ancestry;
      ms;
      kvs;
    }
  in
  (match !hook with Some h -> h sp | None -> ());
  let base =
    ("span", fr.f_id)
    :: (match parent with Some p -> [ ("parent", p) ] | None -> [])
    @ [ ("ms", Printf.sprintf "%.3f" ms) ]
    @ kvs
  in
  Log.log ~kvs:base Log.Debug ~comp:"trace" fr.f_name;
  let threshold = Atomic.get slow_ms_v in
  if threshold > 0.0 && ms >= threshold then
    Log.log
      ~kvs:
        (("span", fr.f_id)
        :: ("ancestry", String.concat ">" (ancestry @ [ fr.f_name ]))
        :: ("ms", Printf.sprintf "%.3f" ms)
        :: kvs)
      Log.Warn ~comp:"slow" fr.f_name

(* Durations come from the monotonic clock: a wall-clock (NTP) step under
   an open span must not produce negative or inflated ms= values or false
   slow-span logs.  Log timestamps stay wall-clock (Log stamps them). *)
let record (c : Context.t) trace name kvs f =
  let fr =
    { Context.f_name = name; f_id = new_id (); f_start = Mtime.now_ns () }
  in
  c.stack <- fr :: c.stack;
  Fun.protect
    ~finally:(fun () ->
      (match c.stack with _ :: rest -> c.stack <- rest | [] -> ());
      let ms = Mtime.ns_to_ms (Mtime.elapsed_ns fr.f_start) in
      emit c trace fr ~ms ~kvs)
    f

(* A profile scope alone is no trace: without a trace id the span is
   recorded only when tracing is armed, as if the thread had no context. *)
let with_span ?(kvs = []) name f =
  match Context.current () with
  | Some ({ Context.trace = Some id; _ } as c) -> record c id name kvs f
  | Some { Context.trace = None; _ } | None ->
      if Atomic.get armed_v then
        (* no surrounding request: record under a fresh one-span trace so
           slow background work (recovery, checkpoints) still surfaces *)
        let id = new_id () in
        in_context id (fun c -> record c id name kvs f)
      else f ()

(* Stamp every log line emitted inside a traced request with trace=<id>. *)
let () = Log.set_context_provider (fun () ->
    match current_trace () with
    | Some t -> [ ("trace", t) ]
    | None -> [])
