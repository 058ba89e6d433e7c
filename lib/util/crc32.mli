(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

    Used as the integrity check for persisted PM objects, micro-log
    words and pool images, and as the per-line "media ECC" of
    {!Hart_pmem.Pmem}. Table-driven; byte-exact with the
    zlib/POSIX cksum-style CRC-32 (check value of ["123456789"] is
    [0xCBF43926]).

    All results are returned in the low 32 bits of a non-negative
    [int]. *)

val bytes_sub : Bytes.t -> off:int -> len:int -> int
(** CRC-32 of [len] bytes of [b] starting at [off]. *)

val string : string -> int
(** CRC-32 of a whole string. *)

val update : int -> Bytes.t -> off:int -> len:int -> int
(** [update crc b ~off ~len] extends a running CRC (as returned by the
    functions above) with more data, for streaming whole-image
    checksums. *)
