(* Counter/histogram registry plus gauge readers.  One global mutex is
   plenty: every record is a few loads and stores, and the registry is
   consulted far less often than the broker's own lock.  Gauges hold no
   value here — each is a reader its owner registered, called by [render]
   and [export] after the mutex is released, so a reader may take its
   owner's lock without inverting the lock order. *)

(* Histograms come in two kinds: [Seconds] (latencies — the exporter adds
   a _seconds suffix and [render] prints microseconds) and [Count] (plain
   magnitudes like a group-commit batch size — exported and rendered
   as-is). *)
type hkind = Seconds | Count

type hist = {
  kind : hkind;
  h_bounds : float array;  (* upper bounds; the last bucket is +inf *)
  h_labels : string array;  (* one per bucket, for [render] *)
  mutable count : int;
  mutable sum : float;
  mutable max : float;
  buckets : int array;
  (* per-bin counts, NOT cumulative: bucket [i] holds values in
     (bounds.(i-1), bounds.(i)] — [observe] advances past a bound only
     when the value is strictly greater, so a value exactly equal to a
     bound lands in that bound's bin.  That makes each upper bound
     inclusive, which is exactly Prometheus [le] semantics; the exporter
     ([export] below + Obs.Export.render) does the cumulative sum. *)
}

(* Upper bounds in seconds; the last bucket is +inf. *)
let bounds = [| 1e-4; 1e-3; 1e-2; 1e-1; 1.0 |]

let bound_label = [| "le_100us"; "le_1ms"; "le_10ms"; "le_100ms"; "le_1s"; "inf" |]

(* Upper bounds for [Count] histograms (batch sizes). *)
let count_bounds = [| 1.; 2.; 4.; 8.; 16.; 32. |]

let count_label = [| "le_1"; "le_2"; "le_4"; "le_8"; "le_16"; "le_32"; "inf" |]

type t = {
  mu : Mutex.t;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, unit -> int) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let incr ?(by = 1) t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some r -> r := !r + by
      | None -> Hashtbl.replace t.counters name (ref by))

let counter t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let counters t =
  with_lock t (fun () ->
      Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
      |> List.sort compare)

let gauge t name read =
  with_lock t (fun () -> Hashtbl.replace t.gauges name read)

let remove_gauge t name = with_lock t (fun () -> Hashtbl.remove t.gauges name)

(* Copy the readers under the mutex, call them outside it. *)
let read_gauges t =
  with_lock t (fun () ->
      Hashtbl.fold (fun n r acc -> (n, r) :: acc) t.gauges [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, read) -> (name, read ()))

let observe_kind t name kind v =
  with_lock t (fun () ->
      let h =
        match Hashtbl.find_opt t.hists name with
        | Some h -> h
        | None ->
            let h_bounds, h_labels =
              match kind with
              | Seconds -> (bounds, bound_label)
              | Count -> (count_bounds, count_label)
            in
            let h =
              { kind; h_bounds; h_labels; count = 0; sum = 0.; max = 0.;
                buckets = Array.make (Array.length h_bounds + 1) 0 }
            in
            Hashtbl.replace t.hists name h;
            h
      in
      h.count <- h.count + 1;
      h.sum <- h.sum +. v;
      if v > h.max then h.max <- v;
      let i = ref 0 in
      while !i < Array.length h.h_bounds && v > h.h_bounds.(!i) do
        i := !i + 1
      done;
      h.buckets.(!i) <- h.buckets.(!i) + 1)

let observe t name seconds = observe_kind t name Seconds seconds
let observe_count t name n = observe_kind t name Count (float_of_int n)

(* Map the registry onto neutral exporter metrics.  Internal names use
   dots ("latency.bes", "total.requests_total"); Prometheus names cannot,
   so dots become underscores and everything gains a gomsm_ prefix.
   Latency histograms collapse into one gomsm_latency_seconds family with
   the verb as an [op] label. *)
let prom_name s =
  "gomsm_" ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) s

let export ?(labels = []) t : Obs.Export.metric list =
  let gauges =
    List.map
      (fun (name, v) ->
        Obs.Export.Gauge (prom_name name, labels, float_of_int v))
      (read_gauges t)
  in
  with_lock t (fun () ->
      let sorted tbl =
        Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
        |> List.sort compare
      in
      let counters =
        List.map
          (fun (name, r) ->
            Obs.Export.Counter (prom_name name, labels, float_of_int !r))
          (sorted t.counters)
      in
      let hists =
        List.map
          (fun (name, h) ->
            let name, labels =
              match h.kind with
              | Count -> (prom_name name, labels)
              | Seconds -> (
                  match
                    String.length name > 8 && String.sub name 0 8 = "latency."
                  with
                  | true ->
                      ( "gomsm_latency_seconds",
                        labels
                        @ [
                            ( "op",
                              String.sub name 8 (String.length name - 8) );
                          ] )
                  | false -> (prom_name name ^ "_seconds", labels))
            in
            Obs.Export.Histogram
              {
                name;
                labels;
                bounds = h.h_bounds;
                buckets = Array.copy h.buckets;
                sum = h.sum;
                count = h.count;
              })
          (sorted t.hists)
      in
      counters @ gauges @ hists)

let render t =
  let gauges =
    List.map
      (fun (name, v) -> Printf.sprintf "gauge %s %d" name v)
      (read_gauges t)
  in
  with_lock t (fun () ->
      let counters =
        Hashtbl.fold
          (fun name r acc -> Printf.sprintf "counter %s %d" name !r :: acc)
          t.counters []
        |> List.sort compare
      in
      let hists =
        Hashtbl.fold
          (fun name h acc ->
            let mean = if h.count = 0 then 0. else h.sum /. float_of_int h.count in
            let buckets =
              Array.to_list
                (Array.mapi
                   (fun i c -> Printf.sprintf "%s %d" h.h_labels.(i) c)
                   h.buckets)
            in
            (match h.kind with
            | Seconds ->
                Printf.sprintf "hist %s count %d mean_us %.1f max_us %.1f %s"
                  name h.count (mean *. 1e6) (h.max *. 1e6)
                  (String.concat " " buckets)
            | Count ->
                Printf.sprintf "hist %s count %d mean %.1f max %.0f %s" name
                  h.count mean h.max
                  (String.concat " " buckets))
            :: acc)
          t.hists []
        |> List.sort compare
      in
      counters @ gauges @ hists)
