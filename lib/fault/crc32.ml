(* CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing by 4.  Used for
   per-record journal checksums, snapshot heads and state digests — any
   single-bit flip inside a checked span is guaranteed to be detected.

   The state is a native int holding the 32-bit register, so the inner
   loop allocates nothing.  [table] holds four 256-entry tables back to
   back: [table.(n)] is the classic byte-at-a-time table, and
   [table.(256 * k + n)] advances entry [n] by [k] further zero bytes, so
   four input bytes fold in with four lookups. *)

let table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 3 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

type t = int

let init : t = 0xFFFFFFFF

let update_string (crc : t) (s : string) : t =
  let byte i = Char.code (String.unsafe_get s i) in
  let tbl i = Array.unsafe_get table i in
  let n = String.length s in
  let crc = ref crc and i = ref 0 in
  while !i + 4 <= n do
    let j = !i in
    let c =
      !crc
      lxor (byte j lor (byte (j + 1) lsl 8) lor (byte (j + 2) lsl 16)
           lor (byte (j + 3) lsl 24))
    in
    crc :=
      tbl (768 + (c land 0xFF))
      lxor tbl (512 + ((c lsr 8) land 0xFF))
      lxor tbl (256 + ((c lsr 16) land 0xFF))
      lxor tbl (c lsr 24);
    i := j + 4
  done;
  while !i < n do
    crc := tbl ((!crc lxor byte !i) land 0xFF) lxor (!crc lsr 8);
    incr i
  done;
  !crc

let finish (crc : t) : int32 = Int32.of_int (crc lxor 0xFFFFFFFF)

let string (s : string) : int32 = finish (update_string init s)

let to_hex (c : int32) : string = Printf.sprintf "%08lx" c

(* Decimal form of the unsigned value — what journal [crc] lines carry. *)
let to_decimal (c : int32) : string =
  Printf.sprintf "%Lu" (Int64.logand (Int64.of_int32 c) 0xFFFFFFFFL)

let of_decimal (s : string) : int32 option =
  match Int64.of_string_opt (String.trim s) with
  | Some v when v >= 0L && v <= 0xFFFFFFFFL -> Some (Int64.to_int32 v)
  | Some _ | None -> None
