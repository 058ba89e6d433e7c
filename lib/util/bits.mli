(** Bit-level helpers shared by the persistent layouts and the ART
    bitmap node layer.

    FPTree's leaf bitmap and EPallocator's DRAM occupancy words use the
    set/test/scan helpers. The DRAM ART's bitmap nodes (DESIGN.md §14) additionally rank children by
    popcount over their membership bitset, so {!popcount} is a
    branchless SWAR reduction rather than a per-set-bit loop, and the
    [_w] variants operate on 32-bit words held in a native [int] (the
    bitset is stored as 8×32-bit words in an [int] Bigarray, since
    64-bit SWAR mask literals exceed OCaml's 63-bit [int]). *)

val test : int64 -> int -> bool
(** [test word i] is bit [i] (0 = least significant) of [word]. *)

val set : int64 -> int -> int64
(** [set word i] has bit [i] forced to 1. *)

val clear : int64 -> int -> int64
(** [clear word i] has bit [i] forced to 0. *)

val popcount : int64 -> int
(** Number of set bits. Branchless SWAR; constant time. *)

val rank_below : int64 -> int -> int
(** [rank_below word i] is the number of set bits strictly below bit
    [i], i.e. among bits \[0, i). [i] may be 64, giving {!popcount}. *)

val popcount_w : int -> int
(** {!popcount} for a 32-bit word held in a native [int] (must be
    [< 2{^32}]). *)

val rank_below_w : int -> int -> int
(** {!rank_below} for a 32-bit word held in a native [int]; [i] may be
    32, counting every set bit. *)

val ctz_w : int -> int
(** Trailing zeros of a non-zero 32-bit word held in a native [int]:
    the index of its least-significant set bit. *)

val ctz : int -> int
(** {!ctz_w} for any non-zero native [int], e.g. a 56-bit chunk bitmap:
    [ctz_w] miscounts a word of [2{^32}] or more. *)

val lowest_zero : int64 -> width:int -> int option
(** [lowest_zero word ~width] is the index of the least-significant zero
    bit among bits \[0, width), or [None] if those bits are all ones. *)

val lowest_one : int64 -> width:int -> int option
(** Least-significant set bit among bits \[0, width), if any. *)

val get_u64 : Bytes.t -> int -> int64
(** Little-endian unaligned 64-bit load. *)

val set_u64 : Bytes.t -> int -> int64 -> unit
(** Little-endian unaligned 64-bit store. *)
