(** CRC-32 (IEEE 802.3 polynomial), table-driven (slicing by 4), streaming.

    [string s] is the one-shot form; [init] / [update_string] / [finish]
    checksum a sequence of chunks without concatenating them. *)

type t
(** A running (pre-finalization) checksum state. *)

val init : t
val update_string : t -> string -> t
val finish : t -> int32

val string : string -> int32
(** [string s = finish (update_string init s)]. *)

val combine : int32 -> int32 -> int -> int32
(** [combine (string a) (string b) (String.length b) = string (a ^ b)]:
    the CRC of a concatenation from its pieces' CRCs, without reading
    their bytes (zlib's [crc32_combine]).  About [log2 len] polynomial
    multiplications. *)

type shift
(** The operator that appends a given number of bytes (x^(8 len) modulo
    the polynomial): what {!combine} computes from the length. *)

val shift : int -> shift
(** zlib's [crc32_combine_gen]. *)

val combine_shift : int32 -> int32 -> shift -> int32
(** [combine_shift a b (shift n) = combine a b n], in one polynomial
    multiplication: for pieces whose shift is kept with their CRC
    (zlib's [crc32_combine_op]). *)

val to_hex : int32 -> string
(** Eight lowercase hex digits. *)

val to_decimal : int32 -> string
(** The unsigned decimal form used in journal [crc] lines. *)

val of_decimal : string -> int32 option
(** Inverse of {!to_decimal}; [None] on anything but an unsigned 32-bit
    decimal. *)
