(** PM memory-chunk layout (Fig. 2 of the paper).

    A chunk packs 56 fixed-size objects behind a prologue whose only
    field is the chain pointer:

    {v
    offset 0   8 bytes, unused (zero)
    offset 8   8-byte PNext: pool offset of the next chunk in this class's list
    offset 16  padding up to [prologue cls] (leaf chunks: 32, Val32: 96)
    then       56 objects of [obj_size cls] bytes each
    v}

    No chunk keeps an occupancy bitmap on PM: {!Epalloc} holds every
    chunk's occupancy in DRAM, and recovery derives it (a leaf slot is
    live when its length byte is non-zero, see {!Leaf}; a value object
    is live when a leaf names it).

    The prologue pads each class's objects to their own alignment where
    that keeps the object on one line: leaves (32 B) and Val32 objects
    start 32-aligned, so none straddles a line. Val32's prologue is 96
    bytes rather than 32 so that its chunk rounds to a size no other
    allocation in a HART pool has (DESIGN.md §18).

    Object classes: leaf nodes (32 B) and three value-object sizes — the
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
(** Leaf_c = 32, Val8 = 8, Val16 = 16, Val32 = 32. *)

val prologue : cls -> int
(** Bytes before the first object: Leaf_c = 32, Val8 = Val16 = 16,
    Val32 = 96. *)

val chunk_bytes : cls -> int
(** [prologue] + 56 × [obj_size]: 1824, 464, 912 and 1888 bytes, which
    [Pmem] rounds to 1856, 512, 960 and 1920. *)

val value_class_for : int -> cls
(** Smallest value class whose payload capacity (size − 1 length byte)
    fits a payload of the given length.
    @raise Invalid_argument beyond 31 bytes. *)

val alloc : ?publish_at:int -> Hart_pmem.Pmem.t -> cls -> int
(** Allocate and persist a fresh, empty chunk; returns its offset.
    [publish_at] as for {!Hart_pmem.Pmem.alloc}. *)

val release : Hart_pmem.Pmem.t -> cls -> chunk:int -> unit
(** Give the chunk's space back to the pool ([pfree]). *)

val obj_off : cls -> chunk:int -> idx:int -> int
val idx_of_obj : cls -> chunk:int -> obj:int -> int

val pnext : Hart_pmem.Pmem.t -> chunk:int -> int
(** The chain pointer (a metered PM read). *)

val set_pnext : Hart_pmem.Pmem.t -> chunk:int -> int -> unit
(** Store and persist the next pointer. *)

val iter_slots : cls -> chunk:int -> (idx:int -> obj:int -> unit) -> unit
(** Visit every object offset of the chunk in index order. Reads
    nothing: a caller that needs a leaf slot's liveness reads its length
    byte ({!Leaf.slot}). *)
