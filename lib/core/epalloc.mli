(** EPallocator — the enhanced persistent memory allocator (§III-A.4/6).

    EPallocator amortises expensive PM allocation by carving objects out
    of 56-slot {!Chunk}s, one singly linked chunk list per object class,
    with list heads and micro-logs in a persistent root block. Its leak
    freedom comes from ordering: an object's bitmap bit is set only
    {e after} the object is fully linked into the index, so a crash
    between allocation and commit leaves a free bit and the slot is
    simply handed out again later. A free leaf slot whose [p_value]
    names a committed value owns it (a deleted key's slot, or a crashed
    insertion's): Algorithm 2's reuse point hands that value to the next
    key, and only recycling lets go of it otherwise.

    Volatile acceleration (rebuilt by {!attach} after a crash): a mirror
    of the list heads, a per-class registry resolving object offsets to
    their chunks ([MemChunkOf]), a DRAM mirror of every registered
    chunk's occupancy bitmap, each chunk's predecessor in its list (so
    {!eprecycle} finds Algorithm 6's [PPrev] without walking the list),
    a per-chunk reservation mask preventing double hand-out of
    uncommitted slots, a per-leaf-chunk mask of the free slots that own
    a value, and a cache of chunks known to have free slots so the
    common allocation touches no full chunk.

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

    [bad_lines] are the lines the device ECC flags; one under the root
    scalars or a chunk prologue refuses the mount. Passing [~report]
    switches on quarantine mode for media-damaged pools: every log slot
    on a [bad_lines] line or failing its CRC goes through
    {!scrub_log_slot} before replay, so replay never reads it; replay
    is guarded (a record whose pointers do not resolve is discarded and
    reported); and the free-leaf-slot ownership sweep is skipped — the
    caller must follow with [Hart]'s deferred scan, which decides each
    slot's ownership against the live keys' values ({!set_owner}),
    since a forged [p_value] could alias a live key's value object.

    Outside quarantine mode the sweep reads every free leaf slot's
    [p_value]: a slot naming a committed value becomes its owner with
    no PM write; any other non-null pointer is severed (stored 0 and
    persisted).

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

val value_objs_per_chunk : int
(** 55: the objects {!epmalloc} hands out of one value chunk. It never
    takes a value chunk's last free slot, the {e spare}: only
    {!epmalloc_update} may, so an update's new value can share the old
    one's chunk and header. The old slot's hold ends at its log slot's
    next record, which gives the spare back. Leaf chunks keep no spare. *)

val epmalloc : t -> Chunk.cls -> int
(** Algorithm 2: return the offset of a free value object, reserving it
    (volatile) against concurrent hand-out, never a chunk's spare. The
    object's bit is {e not} set.
    @raise Invalid_argument for [Leaf_c]: a leaf slot may own a value,
    so leaves come only from {!epmalloc_leaf}. *)

val epmalloc_update : t -> Chunk.cls -> old:int -> int
(** The new value object of an update whose current value is [old]: a
    free slot of [old]'s chunk, the spare included, when [old] is of
    class [cls]; otherwise, or if that chunk has no free slot,
    {!epmalloc}. Reserved like {!epmalloc}'s. *)

val epmalloc_leaf : t -> int * bool
(** Algorithm 2 for a leaf slot, reserved like {!epmalloc}'s, and whether the slot owns the value its
    [p_value] names (a deleted key's slot, see {!free_leaf}). The owner
    takes that value over — Algorithm 2's reuse point, lines 12–16 — by
    rewriting it in place, or by freeing it with {!reset_obj_bit_hold}
    and releasing the hold once the leaf's pointer is overwritten. A
    slot that owns nothing needs no PM read: non-owning free slots name
    no value. The test costs nothing beyond the reservation: it reads
    the owned mark in the same locked section. *)

val set_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Commit the object: set and persist its bitmap bit, release the
    reservation. *)

val reset_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Clear and persist the object's bit, making the slot reusable. *)

val free_leaf : t -> leaf:int -> unit
(** Algorithm 5's free, with one persist: clear and persist the leaf's
    bit and mark the free slot as the owner of the value its [p_value]
    still names. That value keeps its bit until an insertion takes the
    slot over ({!epmalloc_leaf}) or {!eprecycle} lets go of it. Then
    recycle the leaf's chunk if it emptied. *)

val reset_obj_bit_hold : t -> Chunk.cls -> obj:int -> unit
(** Like {!reset_obj_bit}, but keep the slot reserved so no domain can
    be handed it while a durable reference still names the object (an
    update record's POldV, a free leaf slot's [p_value]). Release with
    {!release_hold}. Same PM traffic as {!reset_obj_bit}. *)

val commit_update : t -> Chunk.cls -> obj:int -> old:int -> bool
(** An update's bit commit: set [obj]'s bit and reset [old]'s, holding
    [old] as {!reset_obj_bit_hold} does. When the two share a chunk
    both change in one header store and persist; otherwise [obj]'s
    header is persisted first. Returns whether [old] is a value object
    (held); if not, only [obj]'s bit is set. *)

val obj_bit : t -> Chunk.cls -> obj:int -> bool
(** Whether the object is committed, read from the bitmap mirror (one
    DRAM access, no PM read). Lock-free. *)

val cancel_reservation : t -> Chunk.cls -> obj:int -> unit
(** Release a reservation without committing (an aborted operation). *)

type mutation =
  | No_reservation_hold
      (** {!reset_obj_bit_hold} and {!commit_update} reset without a
          hold: a freed value can be given to another key while a
          durable reference still names it. *)
  | P_value_before_bits
      (** [Hart]'s update stores the leaf's [p_value] before
          {!commit_update}: a crash in between leaves a key naming a
          value whose bit is clear. *)
  | Own_uncommitted
      (** {!attach}'s sweep makes a free slot the owner of the value its
          [p_value] names even when that value's bit is clear. *)
  | Ignore_owned
      (** [Hart.insert] overwrites an owning slot's [p_value] as if the
          slot owned nothing, leaking the owned value. *)
  | Unlink_before_reset
      (** {!eprecycle} unlinks a leaf chunk before the resets of its
          owned values are durable. *)
  | Release_before_sever
      (** An abandoned leaf-chunk recycle ends its values' holds before
          it severs the slots that named them. *)
(** Test-only fault injection into the ownership, hold and update
    protocols (DESIGN.md §6 items 1–3): each reinstates one bug the crash
    explorers must catch. *)

val unsafe_mutation : mutation option ref
(** The mutation in force; [None] (always, outside the fault tests). *)

val mutated : mutation -> bool

val recycles_abandoned : unit -> int
(** Leaf-chunk recycles abandoned so far in this process because
    another domain reserved, or committed and deleted, a slot of the
    chunk while its owned values were being reset (DESIGN.md §6 item 2).
    Lets a test show that its schedules reach that path. *)

val release_hold : t -> Chunk.cls -> obj:int -> unit
(** End the hold {!reset_obj_bit_hold} placed once the object's durable
    reference is gone: {!cancel_reservation}, then {!eprecycle} its
    chunk. *)

val release_held : t -> int -> unit
(** {!release_hold} for the value object at this offset, whatever its
    class; nothing for an offset in no value chunk (0, say): the POldV a
    log slot hands back. *)

val scrub_log_slot :
  t -> report:(Hart_error.finding -> unit) -> string * int * int -> unit
(** The repair for a log slot, given as a [(kind, slot, offset)] triple,
    that sits on a corrupt media line or fails its word CRC
    ({!Microlog.slots_overlapping}, {!Microlog.verify}): discard the
    record ({!Microlog.discard_slot}), {!release_held} the POldV a kept
    record held, and [report] one [Log_slot] finding. A record that held
    nothing is [Quarantined] (treated as never committed); an idle or
    kept slot is [Repaired]. Shared by {!attach}'s quarantine mode and
    [Hart.fsck]. *)

val set_owner : t -> leaf:int -> bool -> unit
(** Set or drop a free leaf slot's owned mark. For a quarantining
    recovery, which decides ownership itself, and for fsck when it
    severs or reclaims. Quiesced callers only. *)

val value_committed : t -> int -> bool
(** Whether the offset is an object of a registered value chunk whose
    bit is set (read from the mirror). *)

val iter_owned : t -> (leaf:int -> unit) -> unit
(** Visit every owning free leaf slot, in offset order. *)

val eprecycle : t -> Chunk.cls -> chunk:int -> unit
(** Algorithm 6: if the chunk holds no used or reserved object, unlink it
    from its list under the recycle log and return its space to the
    pool. Safe to call on any chunk, including already-recycled ones.
    [PPrev] comes from the chunk's volatile predecessor link, so the
    cost does not depend on the length of the list. A leaf chunk whose
    free slots own values first takes those slots (reserved), durably
    resets the values' bits under holds, then unlinks, then ends the
    holds; if a domain reserved one of its slots meanwhile, the chunk
    stays and the taken slots are severed before the holds end. *)

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

val spares : t -> Chunk.cls -> int
(** Value chunks whose only free, unreserved slot is the kept spare
    (see {!value_objs_per_chunk}); 0 for [Leaf_c]. Quiesced callers. *)

val iter_live_objs : t -> Chunk.cls -> (obj:int -> unit) -> unit

val check_invariants : t -> unit
(** Registry/list agreement, registry order, each chunk's predecessor
    link against the list, head mirrors, each registered chunk's bitmap
    mirror against its PM bitmap, reservation sanity. Raises [Failure]
    on violation. Test use. *)
