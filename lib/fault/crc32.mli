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

val to_hex : int32 -> string
(** Eight lowercase hex digits. *)

val to_decimal : int32 -> string
(** The unsigned decimal form used in journal [crc] lines. *)

val of_decimal : string -> int32 option
(** Inverse of {!to_decimal}; [None] on anything but an unsigned 32-bit
    decimal. *)
