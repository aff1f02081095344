(* Tests for the fault-injection subsystem: CRC-32, failpoint triggers and
   actions, the textual GOMSM_FAILPOINTS grammar, the broker's degraded
   read-only mode and health verb, state digests, and the jittered-backoff
   envelope used by client retries and replica reconnects. *)

module Failpoint = Fault.Failpoint
module Crc32 = Fault.Crc32
module Manager = Core.Manager
module Protocol = Server.Protocol
module Broker = Server.Broker
module Journal = Server.Journal
module Metrics = Server.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let fresh_dir = Tmp_dirs.fresh ~prefix:"gomsm-fault"

(* Every test starts from a clean registry: failpoint state is global. *)
let with_clean_failpoints f () =
  Failpoint.clear ();
  Fun.protect ~finally:Failpoint.clear f

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* the IEEE 802.3 check value *)
  check_string "123456789" "cbf43926" (Crc32.to_hex (Crc32.string "123456789"));
  check_string "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  (* streaming in chunks equals one-shot *)
  let s = "begin 7\nadd foo(bar, baz)\n" in
  let chunked =
    Crc32.finish
      (Crc32.update_string (Crc32.update_string Crc32.init "begin 7\n")
         "add foo(bar, baz)\n")
  in
  check_bool "streaming = one-shot" true (chunked = Crc32.string s);
  (* decimal form round-trips, including values with the sign bit set *)
  List.iter
    (fun v ->
      match Crc32.of_decimal (Crc32.to_decimal v) with
      | Some v' -> check_bool "decimal roundtrip" true (v = v')
      | None -> Alcotest.fail "decimal form did not parse")
    [ 0l; 1l; 0x7FFFFFFFl; 0x80000000l; 0xFFFFFFFFl; Crc32.string "x" ];
  check_bool "garbage rejected" true (Crc32.of_decimal "12x" = None);
  check_bool "negative rejected" true (Crc32.of_decimal "-1" = None);
  check_bool "overflow rejected" true (Crc32.of_decimal "4294967296" = None)

(* The reference: CRC-32 one bit at a time, straight from the polynomial,
   with no table. *)
let bitwise_crc32 s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 1 to 8 do
        crc :=
          if !crc land 1 <> 0 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* Property: the sliced, streaming CRC equals the bitwise reference over
   arbitrary bytes, however the input is cut into [update_string] chunks. *)
let prop_crc32_matches_bitwise =
  QCheck.Test.make ~count:500 ~name:"crc32 = bitwise reference, any chunking"
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts)
      in
      let crc, last =
        List.fold_left
          (fun (crc, from) cut ->
            (Crc32.update_string crc (String.sub s from (cut - from)), cut))
          (Crc32.init, 0) cuts
      in
      let streamed =
        Crc32.finish (Crc32.update_string crc (String.sub s last (n - last)))
      in
      streamed = bitwise_crc32 s && Crc32.string s = streamed)

(* Property: combining the CRCs of [a] and [b] (with [b]'s length, or
   its shift) gives the CRC of [a ^ b], empty pieces included — what a
   snapshot head's CRC is folded from. *)
let prop_crc32_combine =
  let piece =
    QCheck.Gen.(
      string_size ~gen:char (oneof [ return 0; int_range 0 64; int_range 0 5000 ]))
  in
  QCheck.Test.make ~count:500 ~name:"crc32 combine = crc32 of the concatenation"
    QCheck.(make ~print:Print.(pair string string) Gen.(pair piece piece))
    (fun (a, b) ->
      let ca = Crc32.string a and cb = Crc32.string b and n = String.length b in
      let whole = Crc32.string (a ^ b) in
      Crc32.combine ca cb n = whole
      && Crc32.combine_shift ca cb (Crc32.shift n) = whole
      && Crc32.combine ca (Crc32.string "") 0 = ca
      && Crc32.combine (Crc32.string "") cb n = cb)

let test_crc32_single_bit_flips () =
  let s = "begin 3\nids 1 2 3 4 5 6\nadd attr(t, a, d)\n" in
  let reference = Crc32.string s in
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    for bit = 0 to 7 do
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      check_bool
        (Printf.sprintf "flip byte %d bit %d detected" i bit)
        false
        (Crc32.string (Bytes.to_string b) = reference);
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
    done
  done

(* ------------------------------------------------------------------ *)
(* Failpoints                                                          *)
(* ------------------------------------------------------------------ *)

let test_triggers () =
  let s = Failpoint.define "test.site" in
  check_bool "define is idempotent" true (Failpoint.define "test.site" == s);
  (* inactive: never fires *)
  for _ = 1 to 5 do
    Failpoint.hit s
  done;
  check_int "hits counted" 5 (Failpoint.hits s);
  check_int "nothing fired" 0 (Failpoint.fired s);
  (* nth: exactly the third hit *)
  Failpoint.clear ();
  Failpoint.activate "test.site" ~trigger:(Failpoint.Nth 3) Failpoint.Eio;
  Failpoint.hit s;
  Failpoint.hit s;
  (match Failpoint.hit s with
  | () -> Alcotest.fail "nth:3 did not fire on the third hit"
  | exception Unix.Unix_error (Unix.EIO, _, site) ->
      check_string "site name carried" "test.site" site);
  Failpoint.hit s;
  check_int "fired exactly once" 1 (Failpoint.fired s);
  (* from: every hit from the second on *)
  Failpoint.clear ();
  Failpoint.activate "test.site" ~trigger:(Failpoint.From 2) Failpoint.Enospc;
  Failpoint.hit s;
  (match Failpoint.hit s with
  | () -> Alcotest.fail "from:2 did not fire"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  (match Failpoint.hit s with
  | () -> Alcotest.fail "from:2 did not keep firing"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  check_int "fired twice" 2 (Failpoint.fired s);
  (* deactivate disarms but keeps the site *)
  Failpoint.deactivate "test.site";
  Failpoint.hit s;
  check_bool "site still listed" true
    (List.mem "test.site" (Failpoint.sites ()));
  check_bool "no longer active" false
    (List.mem "test.site" (Failpoint.active ()))

let test_prob_is_deterministic () =
  let s = Failpoint.define "test.prob" in
  let decisions () =
    Failpoint.clear ();
    Failpoint.activate "test.prob"
      ~trigger:(Failpoint.Prob (0.3, 42))
      Failpoint.Eio;
    List.init 200 (fun _ ->
        match Failpoint.hit s with
        | () -> false
        | exception Unix.Unix_error (Unix.EIO, _, _) -> true)
  in
  let a = decisions () and b = decisions () in
  check_bool "same seed, same schedule" true (a = b);
  let fired = List.length (List.filter Fun.id a) in
  check_bool "fires sometimes" true (fired > 20);
  check_bool "not always" true (fired < 180);
  Failpoint.clear ();
  Failpoint.activate "test.prob"
    ~trigger:(Failpoint.Prob (0.3, 43))
    Failpoint.Eio;
  let c =
    List.init 200 (fun _ ->
        match Failpoint.hit s with
        | () -> false
        | exception Unix.Unix_error (Unix.EIO, _, _) -> true)
  in
  check_bool "different seed, different schedule" true (a <> c)

let test_io_actions () =
  let s = Failpoint.define "test.io" in
  check_int "inactive passes the length through" 10 (Failpoint.hit_io s 10);
  Failpoint.activate "test.io" ~trigger:Failpoint.Always
    (Failpoint.Partial 4);
  check_int "partial caps the budget" 4 (Failpoint.hit_io s 10);
  check_int "partial never exceeds the write" 3 (Failpoint.hit_io s 3);
  Failpoint.activate "test.io" ~trigger:Failpoint.Always Failpoint.Drop;
  (match Failpoint.hit_io s 10 with
  | _ -> Alcotest.fail "drop did not raise"
  | exception Failpoint.Dropped site -> check_string "site" "test.io" site);
  Failpoint.activate "test.io" ~trigger:Failpoint.Always
    (Failpoint.Delay 0.001);
  check_int "delay proceeds" 10 (Failpoint.hit_io s 10)

let test_config_grammar () =
  (match
     Failpoint.parse_config
       "journal.append.fsync=eio@nth:3; daemon.handler=drop@prob:0.1:42, \
        x=partial:8 ; y=delay:0.5@from:2"
   with
  | [
   ("journal.append.fsync", Failpoint.Nth 3, Failpoint.Eio);
   ("daemon.handler", Failpoint.Prob (p, 42), Failpoint.Drop);
   ("x", Failpoint.Always, Failpoint.Partial 8);
   ("y", Failpoint.From 2, Failpoint.Delay d);
  ] ->
      check_bool "prob value" true (abs_float (p -. 0.1) < 1e-9);
      check_bool "delay value" true (abs_float (d -. 0.5) < 1e-9)
  | _ -> Alcotest.fail "config did not parse as expected");
  List.iter
    (fun bad ->
      match Failpoint.parse_config bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Failpoint.Bad_spec _ -> ())
    [
      "nosign";
      "=eio";
      "x=unknownaction";
      "x=delay:-1";
      "x=partial:nope";
      "x=eio@nth:0";
      "x=eio@prob:2:1";
      "x=eio@sometimes";
    ];
  (* configure arms; a second configure re-arms *)
  Failpoint.configure "test.cfg=eio@nth:1";
  check_bool "armed" true (List.mem "test.cfg" (Failpoint.active ()));
  let s = Failpoint.define "test.cfg" in
  (match Failpoint.hit s with
  | () -> Alcotest.fail "configured failpoint did not fire"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ())

let test_env_loading () =
  Unix.putenv Failpoint.env_var "test.env=enospc@nth:1";
  let armed = Failpoint.load_env () in
  Unix.putenv Failpoint.env_var "";
  check_bool "env site armed" true (List.mem "test.env" armed);
  let s = Failpoint.define "test.env" in
  (match Failpoint.hit s with
  | () -> Alcotest.fail "env failpoint did not fire"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  check_bool "empty env is a no-op" true (Failpoint.load_env () = [])

(* ------------------------------------------------------------------ *)
(* Degraded mode, health, digests                                      *)
(* ------------------------------------------------------------------ *)

let zoo_frame =
  "schema Zoo is type Animal is [ legs : int; ] end type Animal; end schema \
   Zoo;"

let expect_ok what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Ok -> ()
  | Protocol.Err reason -> Alcotest.failf "%s failed: %s" what reason

let expect_err what (resp : Protocol.response) =
  match resp.Protocol.status with
  | Protocol.Err reason -> reason
  | Protocol.Ok -> Alcotest.failf "%s unexpectedly succeeded" what

let commit b i lines =
  let r1 = Broker.handle b ~client:i Protocol.Bes in
  (match r1.Protocol.status with
  | Protocol.Err _ -> `Refused
  | Protocol.Ok ->
      List.iter
        (fun l ->
          expect_ok "script" (Broker.handle b ~client:i (Protocol.Script_line l)))
        lines;
      (match (Broker.handle b ~client:i Protocol.Ees).Protocol.status with
      | Protocol.Ok -> `Acked
      | Protocol.Err reason -> `Failed reason))

let dump_of m =
  Analyzer.Unparse.unparse_script
    (Analyzer.Unparse.make ~db:(Manager.database m)
       ~lookup_code:(Manager.lookup_code m))

let test_degraded_mode () =
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let metrics = Metrics.create () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05 ~metrics
      r.Journal.manager
  in
  (* healthy first commit *)
  check_bool "commit 1 acked" true (commit b 1 [ zoo_frame ] = `Acked);
  let h = Broker.handle b ~client:9 Protocol.Health in
  expect_ok "health" h;
  check_bool "healthy status" true
    (List.mem "status ok" h.Protocol.body && List.mem "role primary" h.Protocol.body);
  check_bool "digest on health" true
    (List.exists
       (fun l -> String.length l = 15 && String.sub l 0 7 = "digest ")
       h.Protocol.body);
  (* second commit hits an injected ENOSPC on fsync *)
  Failpoint.configure "journal.append.fsync=enospc@nth:2";
  (match commit b 1 [ "add attribute name : string to Animal@Zoo;" ] with
  | `Failed reason ->
      check_bool "err mentions degraded" true (contains reason "degraded")
  | `Acked | `Refused -> Alcotest.fail "commit 2 should fail at ees");
  check_bool "broker degraded" true (Broker.degraded b <> None);
  (* writer verbs refused, reads still served *)
  let reason = expect_err "bes while degraded" (Broker.handle b ~client:2 Protocol.Bes) in
  check_bool "refusal mentions degraded" true (contains reason "degraded");
  expect_ok "check still works" (Broker.handle b ~client:2 Protocol.Check);
  expect_ok "dump still works" (Broker.handle b ~client:2 Protocol.Dump);
  (* health and stats report it *)
  let h = Broker.handle b ~client:9 Protocol.Health in
  expect_ok "health degraded" h;
  check_bool "status degraded" true (List.mem "status degraded" h.Protocol.body);
  check_bool "reason line" true
    (List.exists (fun l -> contains l "reason ") h.Protocol.body);
  let s = Broker.handle b ~client:9 Protocol.Stats in
  expect_ok "stats" s;
  check_bool "degraded gauge" true
    (List.mem "gauge degraded 1" s.Protocol.body);
  check_int "entry counted" 1 (Metrics.counter metrics "degraded_entries");
  Failpoint.clear ();
  (* "restart": recovery sees only the durable commit *)
  let r2 = Journal.recover ~dir () in
  let d = dump_of r2.Journal.manager in
  check_bool "acked commit survived" true (contains d "Zoo");
  check_bool "failed commit invisible" false (contains d "name")

let test_append_failure_rolls_back_file () =
  let dir = fresh_dir () in
  let r = Journal.recover ~dir () in
  let read_journal () =
    let ic = open_in_bin (Journal.journal_path ~dir) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let before = read_journal () in
  let metrics = Metrics.create () in
  let b =
    Broker.create ~journal:r.Journal.journal ~acquire_timeout:0.05 ~metrics
      r.Journal.manager
  in
  (* a partial write leaves bytes behind; the rollback must remove them *)
  Failpoint.configure "journal.append.write=partial:7@nth:1";
  (match commit b 1 [ zoo_frame ] with
  | `Failed _ -> ()
  | `Acked | `Refused -> Alcotest.fail "partial append should fail the commit");
  Failpoint.clear ();
  check_string "file truncated back to the last good offset" before
    (read_journal ());
  check_int "seq unchanged" 0 (Journal.seq r.Journal.journal);
  (* and a later recovery is clean *)
  let r2 = Journal.recover ~dir () in
  check_int "nothing truncated" 0 r2.Journal.truncated_bytes;
  check_int "nothing replayed" 0 r2.Journal.replayed

let test_state_digest () =
  let script m text =
    Manager.begin_session m;
    Manager.run_commands m text;
    match Manager.end_session m with
    | Manager.Consistent -> ()
    | Manager.Inconsistent _ -> Alcotest.fail "script inconsistent"
  in
  let m1 = Manager.create () in
  script m1 zoo_frame;
  script m1 "add attribute name : string to Animal@Zoo;";
  (* same content reached by a different command grouping *)
  let m2 = Manager.create () in
  script m2
    "schema Zoo is type Animal is [ legs : int; name : string; ] end type \
     Animal; end schema Zoo;";
  check_string "same content, same digest" (Broker.digest_of_manager m1)
    (Broker.digest_of_manager m2);
  script m2 "add type Keeper to Zoo;";
  check_bool "different content, different digest" true
    (Broker.digest_of_manager m1 <> Broker.digest_of_manager m2);
  (* the code a dump carries is covered: equal facts, different bodies *)
  let with_method body =
    let m = Manager.create () in
    script m
      (Printf.sprintf
         "schema Shop is type Item is [ label : string; ] operations declare \
          greet : () -> string; implementation define greet() is begin \
          return \"%s\"; end greet; end type Item; end schema Shop;"
         body);
    m
  in
  let m3 = with_method "hi" and m4 = with_method "hi" in
  check_string "same method, same digest" (Broker.digest_of_manager m3)
    (Broker.digest_of_manager m4);
  let cid, (params, _) = List.hd (Core.Persist.code_pieces m4) in
  let _, (_, other) = List.hd (Core.Persist.code_pieces (with_method "bye")) in
  Manager.begin_session m4;
  Manager.register_code m4 cid params other;
  ignore (Manager.end_session m4);
  let facts m =
    List.sort compare
      (List.map Core.Persist.encode_fact
         (Datalog.Database.all_facts (Manager.database m)))
  in
  check_bool "same facts" true (facts m3 = facts m4);
  check_bool "different bodies, different digests" true
    (Broker.digest_of_manager m3 <> Broker.digest_of_manager m4);
  (* broker-level: an open session is not in the manager, so the digest
     mid-session is the committed one *)
  let b =
    Broker.create ~acquire_timeout:0.05 ~metrics:(Metrics.create ()) m1
  in
  let committed =
    match Broker.state_digest b with
    | Some d ->
        check_int "eight hex digits" 8 (String.length d);
        d
    | None -> Alcotest.fail "digest missing on an idle broker"
  in
  expect_ok "bes" (Broker.handle b ~client:1 Protocol.Bes);
  expect_ok "script"
    (Broker.handle b ~client:1
       (Protocol.Script_line "add type Keeper to Zoo;"));
  check_bool "the digest mid-session equals the committed one" true
    (Broker.state_digest b = Some committed);
  expect_ok "rollback" (Broker.handle b ~client:1 Protocol.Rollback);
  check_bool "digest unchanged" true (Broker.state_digest b = Some committed)

(* ------------------------------------------------------------------ *)
(* Backoff envelopes                                                   *)
(* ------------------------------------------------------------------ *)

let test_jittered_backoff_bounds () =
  let min_backoff = 0.1 and max_backoff = 5.0 in
  List.iter
    (fun attempt ->
      List.iter
        (fun rand ->
          let d =
            Replica.Stream.jittered_delay ~min_backoff ~max_backoff ~attempt
              rand
          in
          check_bool
            (Printf.sprintf "lower bound at attempt %d" attempt)
            true
            (d >= 0.75 *. min_backoff -. 1e-9);
          check_bool
            (Printf.sprintf "cap at attempt %d" attempt)
            true
            (d <= 1.25 *. max_backoff +. 1e-9))
        [ 0.0; 0.25; 0.5; 0.9999 ])
    [ 0; 1; 2; 3; 5; 8; 16 ];
  (* the cap actually binds: deep attempts stop growing *)
  let d16 =
    Replica.Stream.jittered_delay ~min_backoff ~max_backoff ~attempt:16 0.0
  in
  check_bool "capped" true (abs_float (d16 -. (0.75 *. max_backoff)) < 1e-9)

(* ------------------------------------------------------------------ *)

let suite =
  [
    ( "fault.crc32",
      [
        Tmp_dirs.test_case "known vectors and encodings" `Quick
          test_crc32_vectors;
        Tmp_dirs.test_case "every single-bit flip detected" `Quick
          test_crc32_single_bit_flips;
        Tmp_dirs.qcheck prop_crc32_matches_bitwise;
        Tmp_dirs.qcheck prop_crc32_combine;
      ] );
    ( "fault.failpoint",
      [
        Tmp_dirs.test_case "triggers" `Quick (with_clean_failpoints test_triggers);
        Tmp_dirs.test_case "prob is seeded and deterministic" `Quick
          (with_clean_failpoints test_prob_is_deterministic);
        Tmp_dirs.test_case "io actions" `Quick
          (with_clean_failpoints test_io_actions);
        Tmp_dirs.test_case "config grammar" `Quick
          (with_clean_failpoints test_config_grammar);
        Tmp_dirs.test_case "env loading" `Quick
          (with_clean_failpoints test_env_loading);
      ] );
    ( "fault.degraded",
      [
        Tmp_dirs.test_case "enospc enters degraded read-only mode" `Quick
          (with_clean_failpoints test_degraded_mode);
        Tmp_dirs.test_case "append failure rolls the file back" `Quick
          (with_clean_failpoints test_append_failure_rolls_back_file);
      ] );
    ( "fault.digest",
      [ Tmp_dirs.test_case "state digests" `Quick test_state_digest ] );
    ( "fault.backoff",
      [
        Tmp_dirs.test_case "jittered delays stay in the envelope" `Quick
          test_jittered_backoff_bounds;
      ] );
  ]

let () = Alcotest.run "fault" suite
