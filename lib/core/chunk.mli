(** PM memory-chunk layout (Fig. 2 of the paper).

    A chunk packs 56 fixed-size objects behind a 16-byte prologue:

    {v
    offset 0   8-byte chunk header:
                 bytes 0..6  = 56-bit occupancy bitmap (bit i = object i used)
                 byte 7      = bits 0..5: next-free-object hint
                               bits 6..7: full indicator (00 available, 01 full)
    offset 8   8-byte PNext: pool offset of the next chunk in this class's list
    offset 16  56 objects of [obj_size cls] bytes each
    v}

    Object classes: leaf nodes (40 B) and three value-object sizes — the
    paper ships 8 B and 16 B value classes and notes the scheme "can be
    easily extended to support more sizes"; we add a 32 B class as that
    extension. Each value object stores a 1-byte length followed by the
    payload, so a class [ValN] carries payloads of at most N−1 bytes.

    Mapping an object offset back to its chunk ([MemChunkOf] in the
    paper's algorithms) is done by {!Epalloc.chunk_of_obj} through a
    volatile chunk registry rebuilt on recovery. *)

type cls = Leaf_c | Val8 | Val16 | Val32

val pp_cls : Format.formatter -> cls -> unit
val all_classes : cls list

val objs_per_chunk : int
(** 56, as in the paper. *)

val obj_size : cls -> int
(** Leaf_c = 40, Val8 = 8, Val16 = 16, Val32 = 32. *)

val chunk_bytes : cls -> int
(** 16 + 56 × [obj_size]. *)

val value_class_for : int -> cls
(** Smallest value class whose payload capacity (size − 1 length byte)
    fits a payload of the given length.
    @raise Invalid_argument beyond 31 bytes. *)

val alloc : Hart_pmem.Pmem.t -> cls -> int
(** Allocate and persist a fresh, empty chunk; returns its offset. *)

val release : Hart_pmem.Pmem.t -> cls -> chunk:int -> unit
(** Give the chunk's space back to the pool ([pfree]). *)

val obj_off : cls -> chunk:int -> idx:int -> int
val idx_of_obj : cls -> chunk:int -> obj:int -> int

(** {1 Header accessors}

    Reads and writes go through the pool (and are metered); writes do not
    persist unless stated. *)

val bitmap : Hart_pmem.Pmem.t -> chunk:int -> int64
(** Low 56 bits = occupancy bitmap. *)

val test_bit : Hart_pmem.Pmem.t -> chunk:int -> idx:int -> bool

val set_bit : Hart_pmem.Pmem.t -> chunk:int -> idx:int -> unit
(** Set object [idx]'s bit and persist the header (the commit point of an
    insertion, Algorithm 1 line 18). Also refreshes the next-free hint
    and full indicator. *)

val reset_bit : Hart_pmem.Pmem.t -> chunk:int -> idx:int -> unit
(** Clear the bit and persist the header. *)

val is_empty : Hart_pmem.Pmem.t -> chunk:int -> bool
val is_full : Hart_pmem.Pmem.t -> chunk:int -> bool

val next_free_hint : Hart_pmem.Pmem.t -> chunk:int -> int
val full_indicator : Hart_pmem.Pmem.t -> chunk:int -> int

val header : Hart_pmem.Pmem.t -> chunk:int -> int64
(** The raw header word. *)

val header_of_bitmap : int64 -> int64
(** The header every legitimate store writes for this bitmap: the
    bitmap with its next-free hint and full indicator. *)

val header_of_bits : int -> int64
(** [header_of_bitmap] of a bitmap held in a native [int] (\[0,
    2{^56})), computed without the [Int64] bit helpers. *)

val write_header : Hart_pmem.Pmem.t -> chunk:int -> int -> unit
(** Store and persist [header_of_bits bits]. {!Epalloc} writes every
    header through this, passing the bitmap from its DRAM mirror so no
    PM read precedes the store. *)

val pnext : Hart_pmem.Pmem.t -> chunk:int -> int

val set_pnext : Hart_pmem.Pmem.t -> chunk:int -> int -> unit
(** Store and persist the next pointer. *)

val iter_slots :
  Hart_pmem.Pmem.t ->
  cls ->
  chunk:int ->
  (idx:int -> obj:int -> live:bool -> unit) ->
  unit
(** Visit every slot in index order with its bit, reading the bitmap
    once (one PM read per chunk, not one per slot). [f] must not change
    this chunk's bitmap. *)

val iter_live : Hart_pmem.Pmem.t -> cls -> chunk:int -> (idx:int -> obj:int -> unit) -> unit
(** Visit every object whose bit is set (recovery scan, Algorithm 7);
    {!iter_slots} restricted to live slots. *)
