(** EPallocator — the enhanced persistent memory allocator (§III-A.4/6).

    EPallocator amortises expensive PM allocation by carving objects out
    of 56-slot {!Chunk}s, one singly linked chunk list per object class,
    with list heads and micro-logs in a persistent root block. Its leak
    freedom comes from ordering: an object's bitmap bit is set only
    {e after} the object is fully linked into the index, so a crash
    between allocation and commit leaves a free bit and the slot is
    simply handed out again later (Algorithm 2's repair path also clears
    any value object such a half-born leaf still references).

    Volatile acceleration (rebuilt by {!attach} after a crash): a mirror
    of the list heads, a per-class registry resolving object offsets to
    their chunks ([MemChunkOf]), a DRAM mirror of every registered
    chunk's occupancy bitmap, each chunk's predecessor in its list (so
    {!eprecycle} finds Algorithm 6's [PPrev] without walking the list),
    a per-chunk reservation mask preventing double hand-out of
    uncommitted slots, and a cache of chunks known to have free slots so
    the common allocation touches no full chunk.

    The bitmap mirror takes PM reads off the write path: allocation,
    bit commits and frees, recycling's emptiness test and {!obj_bit}
    read the mirror, and every header store is computed from it. Each
    header store still writes and persists the PM header exactly as
    before, in the same stripe-locked call that updates the mirror, so
    PM stays the only durable copy and the persist sequence is
    unchanged. The mirror is a dense DRAM array of 8-byte words, 8 per
    line, charged on the meter as DRAM accesses and counted in
    {!mirror_bytes}.

    Domain safety: object-offset resolution is lock-free (the registry is
    a sorted array with spare capacity, published with its length through
    an [Atomic.t]; registration appends in place, recycling marks a
    record dead, and a reader never looks past its snapshot's length); bitmap
    read-modify-writes and reservations are serialised per chunk by a
    stripe of mutexes, which also preserves the bitmap-after-insert
    persistence ordering per chunk; chunk-list structure, the avail cache
    and registry publication are serialised by one mutex per class; and
    each domain caches a per-class active chunk so steady-state
    allocation takes only the chunk's stripe lock, never the class lock.
    Stale active/avail references are harmless — a reservation re-checks
    chunk registration under the stripe lock. Lock order is always
    class → stripe → (pool allocator / micro-log), never reversed.

    The root block occupies the first allocation of the pool, so a HART
    pool is self-describing: {!attach} needs only the pool. *)

type t

val magic : int64
(** ["HART_v02"]: root scalars on a line of their own, then one micro-log
    slot per line. A ["HART_v01"] root (logs packed after the scalars) is
    refused by {!attach}. *)

val root_off : int
(** Pool offset of the root block (the pool's first allocation). *)

val root_bytes : int
(** Bytes of the root block: one line of scalars + both micro-log slot
    arrays ({!Microlog.region_bytes}). *)

val cls_name : Chunk.cls -> string
(** Short class name ("leaf", "val8", …) as used in {!Hart_error.site}
    coordinates. *)

val create : ?kh:int -> ?checksums:bool -> Hart_pmem.Pmem.t -> t
(** Format a fresh pool: root block (magic, [kh], null list heads) and
    zeroed micro-logs. [kh] is HART's hash-key length, default 2,
    persisted for recovery. [checksums] (default false) selects the
    checksummed object format — CRC-32 trailers on leaf keys, value
    objects and micro-log words — recorded in the root block's feature
    word so a re-opened pool self-describes. Must be the first
    allocation in the pool.
    @raise Invalid_argument if [kh] is outside \[1, 8\]. *)

val attach :
  ?bad_lines:int list ->
  ?report:(Hart_error.finding -> unit) ->
  Hart_pmem.Pmem.t ->
  t
(** Adopt the pool after a crash or reopen: verify the magic, rebuild the
    volatile state by walking the chunk lists (every chain pointer
    validated — alignment, bounds, acyclicity), then run the recovery
    protocols of both micro-logs (recycle logs first, so update-log
    recovery can acquire one). An update is redone only when its leaf
    shows it in flight; every other complete update record is kept
    without a PM write, its POldV reserved again.

    Passing [~report] switches on quarantine mode for media-damaged
    pools: log records on a [bad_lines] line or failing their CRC are
    discarded (reported via [report]) instead of replayed, replay is
    guarded against unresolvable pointers, and the eager free-leaf-slot
    sanitation sweep is skipped — the caller must follow with
    [Hart]'s deferred reference-counted scan, since a forged [p_value]
    could alias a live key's value object.

    @raise Hart_error.Error when the pool cannot be mounted: bad magic
    (including a ["HART_v01"] root),
    implausible feature word, corrupt chunk chain, or a media fault on
    the root-scalar line or a chunk prologue line (per-line ECC cannot
    localise damage below line granularity, so those structures cannot
    be trusted). *)

val pool : t -> Hart_pmem.Pmem.t
val kh : t -> int

val checksums : t -> bool
(** Whether this pool uses the checksummed object format. *)

val logs : t -> Microlog.t

val free_slot : int -> int option
(** The lowest slot of a chunk whose occupied-or-reserved mask is given,
    or [None] if all 56 are taken: the slot {!epmalloc} hands out.
    Constant time (a trailing-zero count). *)

val epmalloc : t -> Chunk.cls -> int
(** Algorithm 2: return the offset of a free object, reserving it
    (volatile) against concurrent hand-out. The object's bit is {e not}
    set. For [Leaf_c], the repair path of lines 12–16 runs here. *)

val set_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Commit the object: set and persist its bitmap bit, release the
    reservation. *)

val reset_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Clear and persist the object's bit, making the slot reusable. *)

val reset_obj_bit_hold : t -> Chunk.cls -> obj:int -> unit
(** Like {!reset_obj_bit}, but keep the slot reserved so no domain can
    be handed it while the caller still scrubs the object's contents
    (e.g. severing a dead leaf's value pointer, Algorithm 5). Release
    with {!cancel_reservation}. Same PM traffic as {!reset_obj_bit}. *)

val obj_bit : t -> Chunk.cls -> obj:int -> bool
(** Whether the object is committed, read from the bitmap mirror (one
    DRAM access, no PM read). Lock-free. *)

val cancel_reservation : t -> Chunk.cls -> obj:int -> unit
(** Release a reservation without committing (an aborted operation). *)

val unsafe_no_reservation_hold : bool ref
(** Test-only fault injection: while [true], {!reset_obj_bit_hold}
    degrades to plain {!reset_obj_bit} — the freed slot becomes
    reallocatable while its durable reference still stands, reinstating
    the free-before-sever race the hold closes. The fault tests flip
    this to prove the concurrent explorer still catches (and the
    shrinker minimizes) the original bug. Never set outside tests. *)

val release_hold : t -> Chunk.cls -> obj:int -> unit
(** End the hold {!reset_obj_bit_hold} placed once the object's durable
    reference is gone: {!cancel_reservation}, then {!eprecycle} its
    chunk. *)

val eprecycle : t -> Chunk.cls -> chunk:int -> unit
(** Algorithm 6: if the chunk holds no used or reserved object, unlink it
    from its list under the recycle log and return its space to the
    pool. Safe to call on any chunk, including already-recycled ones.
    [PPrev] comes from the chunk's volatile predecessor link, so the
    cost does not depend on the length of the list. *)

val chunk_of_obj : t -> Chunk.cls -> int -> int
(** [MemChunkOf]: the chunk containing this object.
    @raise Not_found if the offset is in no registered chunk. *)

val class_of_value_obj : t -> int -> Chunk.cls option
(** Which value class's chunk (if any) contains this offset — recovery
    needs it because a leaf's [p_value] does not record the class. *)

val chunk_covering : t -> int -> (Chunk.cls * int) option
(** The registered chunk (any class) whose bytes — prologue included —
    cover this pool offset. fsck's media-fault attribution. *)

val mirror_bytes : t -> int
(** DRAM bytes of the bitmap mirror: whole 64-byte lines of 8-byte
    words, one word per chunk ever registered at once. *)

val repair_header :
  t -> Chunk.cls -> chunk:int -> [ `Intact | `Hint_rewritten | `Bitmap_restored ]
(** fsck's header repair: if the chunk's PM header is not the one its
    bitmap mirror implies, store and persist that one. [`Hint_rewritten]:
    only the hint/full byte was wrong. [`Bitmap_restored]: the PM bitmap
    itself differed — a stray write changed it since the allocator last
    stored it (right after {!attach} the mirror is the PM bitmap, so
    this needs a live store).
    @raise Not_found if [chunk] is not a registered chunk of the class. *)

val chunk_count : t -> Chunk.cls -> int
val iter_chunks : t -> Chunk.cls -> (int -> unit) -> unit
(** Walk the class's chunk list in PM order. *)

val live_objects : t -> Chunk.cls -> int
(** Total set bits across the class's chunks. *)

val iter_live_objs : t -> Chunk.cls -> (obj:int -> unit) -> unit

val check_invariants : t -> unit
(** Registry/list agreement, registry order, each chunk's predecessor
    link against the list, head mirrors, each registered chunk's bitmap
    mirror against its PM bitmap, reservation sanity. Raises [Failure]
    on violation. Test use. *)
