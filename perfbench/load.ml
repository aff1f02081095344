(* The closed-loop load generator: one thread drives every connection,
   multiplexed with [Unix.select].  Each connection sends its next op only
   after the previous one completed; there is no think time.  An op is a
   short sequence of request lines sent one at a time, each response
   checked before the next line goes out; its latency runs from the first
   line sent to the last response line read. *)

type op = {
  steps : (string * (Wire.response -> bool)) array;
  answers : int option;  (* a query's expected answer count *)
}

(* Growable int arrays, for latency samples in nanoseconds. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

type conn_count = {
  mutable issued : int;
  mutable failed : int;
  mutable sampled : int;  (* completed inside the measured window *)
}

type outcome = {
  samples : int array;  (* latencies of ops completed in the window, ns *)
  counts : conn_count array;
}

(* [Ops k]: every connection runs exactly k ops.  [Until s]: connections
   keep starting ops for s seconds; ops still running at the deadline are
   completed and checked but not sampled. *)
type stop = Ops of int | Until of float

type running = { op : op; mutable step : int; t0 : int; mutable bad : bool }

let run (conns : Wire.conn array) ~(next : int -> op) ~stop : outcome =
  let n = Array.length conns in
  let counts =
    Array.init n (fun _ -> { issued = 0; failed = 0; sampled = 0 })
  in
  let samples = Ints.create () in
  let deadline =
    match stop with
    | Ops _ -> max_int
    | Until s -> Obs.Mtime.now_ns () + int_of_float (s *. 1e9)
  in
  let cur = Array.make n None in
  let start i =
    let may =
      match stop with
      | Ops k -> counts.(i).issued < k
      | Until _ -> Obs.Mtime.now_ns () < deadline
    in
    if may then begin
      let op = next i in
      counts.(i).issued <- counts.(i).issued + 1;
      let t0 = Obs.Mtime.now_ns () in
      Wire.send conns.(i) (fst op.steps.(0));
      cur.(i) <- Some { op; step = 0; t0; bad = false }
    end
    else cur.(i) <- None
  in
  let rec drain i =
    match cur.(i) with
    | None -> ()
    | Some r -> (
        match Wire.take conns.(i) with
        | None -> ()
        | Some resp ->
            if not ((snd r.op.steps.(r.step)) resp) then r.bad <- true;
            r.step <- r.step + 1;
            if r.step < Array.length r.op.steps then begin
              Wire.send conns.(i) (fst r.op.steps.(r.step));
              drain i
            end
            else begin
              let t1 = Obs.Mtime.now_ns () in
              let c = counts.(i) in
              if r.bad then c.failed <- c.failed + 1;
              if t1 <= deadline then begin
                c.sampled <- c.sampled + 1;
                Ints.push samples (t1 - r.t0)
              end;
              start i;
              drain i
            end)
  in
  for i = 0 to n - 1 do
    start i
  done;
  let rec loop () =
    let fds =
      List.filter_map
        (fun i -> Option.map (fun _ -> conns.(i).Wire.fd) cur.(i))
        (List.init n Fun.id)
    in
    if fds <> [] then begin
      let ready =
        match Unix.select fds [] [] (-1.) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      Array.iteri
        (fun i c ->
          if List.mem c.Wire.fd ready then begin
            Wire.fill c;
            drain i
          end)
        conns;
      loop ()
    end
  in
  loop ();
  { samples = Ints.to_array samples; counts }

(* Nearest-rank percentile [pct] (an integer percent) of sorted samples:
   the value, and how many samples lie beyond it. *)
let percentile sorted pct =
  let n = Array.length sorted in
  let rank = max 1 (((pct * n) + 99) / 100) in
  (sorted.(rank - 1), n - rank)
