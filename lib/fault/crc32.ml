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

(* Combining, after zlib's [crc32_combine]: a CRC is a remainder modulo
   the polynomial, so appending [n] bytes multiplies the first piece's
   remainder by x^(8n).  Polynomials are bit-reflected, as in [table]:
   x^0 is bit 31.  [multmodp a b] is a*b modulo the polynomial ([a] not
   zero), and [x2n.(k)] is x^(2^k). *)
let multmodp a b =
  (* branch-free: the bits of [a] and [b] are data, and mispredicted
     branches would cost more than the masks *)
  let b = ref b and p = ref 0 in
  for k = 31 downto 0 do
    p := !p lxor (!b land -((a lsr k) land 1));
    b := (!b lsr 1) lxor (0xEDB88320 land -(!b land 1))
  done;
  !p

let x2n =
  let t = Array.make 32 (1 lsl 30) in
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n * 2^k) *)
let x2nmodp n k =
  let rec go n k p =
    if n = 0 then p
    else go (n lsr 1) (k + 1) (if n land 1 <> 0 then multmodp x2n.(k land 31) p else p)
  in
  go n k (1 lsl 31)

let unsigned (c : int32) = Int32.to_int c land 0xFFFFFFFF

type shift = int

let shift len = x2nmodp len 3

let combine_shift (crc1 : int32) (crc2 : int32) (op : shift) : int32 =
  Int32.of_int (multmodp op (unsigned crc1) lxor unsigned crc2)

let combine crc1 crc2 len2 = combine_shift crc1 crc2 (shift len2)

let to_hex (c : int32) : string = Printf.sprintf "%08lx" c

(* Decimal form of the unsigned value — what journal [crc] lines carry. *)
let to_decimal (c : int32) : string =
  Printf.sprintf "%Lu" (Int64.logand (Int64.of_int32 c) 0xFFFFFFFFL)

let of_decimal (s : string) : int32 option =
  match Int64.of_string_opt (String.trim s) with
  | Some v when v >= 0L && v <= 0xFFFFFFFFL -> Some (Int64.to_int32 v)
  | Some _ | None -> None
