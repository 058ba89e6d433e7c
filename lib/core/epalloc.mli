(** EPallocator — the enhanced persistent memory allocator (§III-A.4/6).

    EPallocator amortises expensive PM allocation by carving objects out
    of 56-slot {!Chunk}s, one singly linked chunk list per object class,
    with list heads and micro-logs in a persistent root block. Its leak
    freedom comes from ordering: a leaf's bitmap bit is set only
    {e after} the leaf is written, so a crash before it leaves a free
    bit. Value bits are not durable: recovery commits the values that
    committed leaves and owning free slots name ({!settle_values}). A
    free leaf slot whose [p_value] names a value owns it until an
    insertion takes the slot over or recycling lets go of it.

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
    bit commits, recycling's emptiness test and {!obj_bit} read it. A
    leaf chunk's header is stored and persisted in the stripe-locked
    call that updates its mirror word; a value chunk's word is the only
    copy of its bitmap, and its PM header is never read. The mirror is
    a dense DRAM array of 8-byte words, 8 per line, metered as DRAM and
    counted in {!mirror_bytes}.

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
(** Bytes of the root block: one line of scalars + the log region
    ({!Microlog.region_bytes}). *)

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
    validated — alignment, bounds, acyclicity), then replay the recycle
    log. Value mirrors start empty: the caller names every live value
    and runs {!settle_values}.

    [bad_lines] are the lines the device ECC flags; one under the root
    scalars or a chunk prologue refuses the mount. Passing [~report]
    switches on quarantine mode for media-damaged pools: every log slot
    on a [bad_lines] line or failing its CRC goes through
    {!scrub_log_slot} before replay, so replay never reads it; and
    replay is guarded (a record whose pointers do not resolve is
    discarded and reported).

    Attach reads no leaf slot: every slot starts owning nothing. The
    caller's recovery scan reads each free slot's [p_value] and settles
    its ownership ({!set_owner}).

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
    one's chunk and mirror word. The store that commits the update
    frees the old slot, which gives the spare back. Leaf chunks keep no
    spare. *)

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
(** Algorithm 2 for a leaf slot, reserved like {!epmalloc}'s, and
    whether the slot owns the value its [p_value] names (a deleted key's
    slot, see {!free_leaf}). The owner takes that value over — Algorithm
    2's reuse point, lines 12–16 — by rewriting it in place, or, for a
    value of another class, by letting it go with {!release_value} once
    the leaf's pointer names the new value. The owned mark is read in
    the reservation's locked section, with no PM read. *)

val set_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Commit the object: set its bit (persisted for a leaf), release the
    reservation. *)

val reset_obj_bit : t -> Chunk.cls -> obj:int -> unit
(** Clear the object's bit (persisted for a leaf). *)

val free_leaf : t -> leaf:int -> unit
(** Algorithm 5's free, with one persist: clear and persist the leaf's
    bit and mark the free slot as the owner of the value its [p_value]
    still names, until an insertion takes the slot over
    ({!epmalloc_leaf}) or {!eprecycle} lets go of it. Then recycle the
    leaf's chunk if it emptied. *)

val release_value : t -> Chunk.cls -> obj:int -> unit
(** Free a committed value once nothing durable names it any more:
    {!reset_obj_bit}, then {!eprecycle} its chunk if that emptied it. *)

val commit_update : t -> Chunk.cls -> obj:int -> old:int -> unit
(** An update's bit commit, once its leaf's [p_value] names [obj]: set
    [obj]'s mirror bit and reset [old]'s (one store when they share a
    chunk), with no persist, then recycle [old]'s chunk if that emptied
    it. If [old] is no value object, only [obj]'s bit is set. *)

val obj_bit : t -> Chunk.cls -> obj:int -> bool
(** Whether the object is committed, read from the bitmap mirror (one
    DRAM access, no PM read). Lock-free. *)

type mutation =
  | Free_before_unname
      (** An owned value is freed while its free leaf slot still names
          it: [Hart.insert]'s class-mismatch take-over frees the old
          value before [Leaf.init], and {!eprecycle} frees an owning
          leaf chunk's values before the unlink. Another key can then be
          given the value, and a crash before the slot stops naming it
          makes the slot a second owner. *)
  | Bits_before_p_value
      (** [Hart]'s update runs {!commit_update} before it stores the
          leaf's [p_value]: the old value is free while the leaf still
          names it, so another domain can be given it and overwrite it
          before a crash. *)
  | No_liveness_pass
      (** {!settle_values} applies no named run: recovered keys name
          uncommitted values. *)
  | Ignore_owned
      (** [Hart.insert] overwrites an owning slot's [p_value] as if the
          slot owned nothing, leaking the owned value. *)
(** Test-only fault injection into the ownership, update and liveness
    protocols (DESIGN.md §6 items 1–3): each reinstates one bug the
    crash explorers must catch. *)

val unsafe_mutation : mutation option ref
(** The mutation in force; [None] (always, outside the fault tests). *)

val mutated : mutation -> bool

val scrub_log_slot :
  t ->
  report:(Hart_error.finding -> unit) ->
  before_replay:bool ->
  int * int ->
  unit
(** The repair for a recycle slot, given as a [(slot, offset)] pair,
    that sits on a corrupt media line or fails its word CRC
    ({!Microlog.verify}): rewrite its line without trusting its words
    ({!Microlog.reclaim}) and [report] one [Log_slot] finding. With
    [before_replay] (the quarantining mount, before it replays the log),
    a slot that holds a record or whose line cannot be read is
    [Quarantined]: the recycle is treated as never committed. Every
    other slot is [Repaired]. Never raises [Media_poisoned]. Shared by
    {!attach}'s quarantine mode and [Hart.fsck]. *)

val repair_root_line :
  t -> report:(Hart_error.finding -> unit) -> before_replay:bool -> int -> unit
(** The repair for a corrupt media line of the root block past its
    scalars: a recycle slot's line goes through {!scrub_log_slot}; a
    reserved line is zeroed, resealed and reported [Repaired] at its
    [Pool_line] site. Shared by {!attach}'s quarantine mode and
    [Hart.fsck]. *)

(** {1 Value liveness (recovery)} *)

type runs
(** One domain's cursor over the named values' chunks: the value chunk
    of the current run and a mask of its named objects. *)

val runs : unit -> runs

val name_value : t -> runs -> int -> unit
(** Mark the value at this offset as live: named by a committed leaf or
    an owning free slot. Consecutive values in one value chunk extend
    the run with a register compare; any other value closes it and looks
    up its chunk. An offset that is no object of a registered value
    chunk names nothing. Lock-free and PM-free; one cursor per domain. *)

val settle_values : t -> runs list -> unit
(** Recovery's liveness pass (DESIGN.md §6 item 3), after every live
    value — each committed leaf's and each owning free slot's — went
    through {!name_value} on one of these cursors: each run is ored into
    its chunk's mirror word (one metered write), then one read per
    mirror line refills the avail cache and recycles the chunks nothing
    names. Both mounts run it. Serial, quiesced. *)

val set_owner : t -> leaf:int -> bool -> unit
(** Set or drop a free leaf slot's owned mark, with no PM write. For
    recovery, which settles every free slot's ownership after its scan,
    and for fsck when it severs or reclaims. Quiesced callers only. *)

val is_value_obj : t -> int -> bool
val value_committed : t -> int -> bool
(** Whether the offset is an object of a registered value chunk, and
    whether that object's mirror bit is set. *)

val iter_owned : t -> (leaf:int -> unit) -> unit
(** Visit every owning free leaf slot, in offset order. *)

val eprecycle : t -> Chunk.cls -> chunk:int -> unit
(** Algorithm 6: if the chunk holds no used or reserved object, unlink it
    from its list under the recycle log and return its space to the
    pool. Safe to call on any chunk, including already-recycled ones.
    [PPrev] comes from the chunk's volatile predecessor link, so the
    cost does not depend on the length of the list. A leaf chunk whose
    free slots own values is unlinked in the locked section that finds
    it empty, reading the owning slots' [p_value]s there; then, with no
    leaf lock held, each value is let go with {!release_value}. *)

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

val repair_header : t -> chunk:int -> [ `Intact | `Hint_rewritten | `Bitmap_restored ]
(** fsck's leaf-chunk header repair: if its PM header is not the one its
    bitmap mirror implies, store and persist that one. [`Hint_rewritten]:
    only the hint/full byte was wrong. [`Bitmap_restored]: the PM bitmap
    itself differed — a stray write changed it since the allocator last
    stored it (right after {!attach} the mirror is the PM bitmap, so
    this needs a live store).
    @raise Not_found if [chunk] is not a registered leaf chunk. *)

val chunk_count : t -> Chunk.cls -> int
val iter_chunks : t -> Chunk.cls -> (int -> unit) -> unit
(** Walk the class's chunk list as the allocator's DRAM registry holds
    it: from the head mirror, each chunk's successor by its mirrored
    chain pointer. No PM read, so a chain pointer clobbered on a live
    store cannot lead it astray. Quiesced callers: fsck, [Hart.iter],
    the statistics helpers below, tests. *)

val iter_chain : t -> Chunk.cls -> (int -> unit) -> unit
(** The same list as PM holds it, following {!Chunk.pnext}: each chain
    pointer is a metered PM read. Recovery's leaf scan, whose cost model
    charges the chain walk a real recovery makes, and
    {!check_invariants}, which compares the two. *)

val committed_bits : t -> Chunk.cls -> chunk:int -> int
(** A registered chunk's committed slots: a leaf chunk's PM bitmap, a
    value chunk's mirror word. *)

val live_objects : t -> Chunk.cls -> int
(** Total {!committed_bits} across the class's chunks. *)

val spares : t -> Chunk.cls -> int
(** Value chunks whose only free, unreserved slot is the kept spare
    (see {!value_objs_per_chunk}); 0 for [Leaf_c]. Quiesced callers. *)

val iter_live_objs : t -> Chunk.cls -> (obj:int -> unit) -> unit

val check_invariants : t -> unit
(** Registry/list agreement, registry order, each chunk's predecessor
    and successor links against the PM chain, head mirrors, each registered leaf chunk's
    bitmap mirror against its PM bitmap, reservation sanity. Raises [Failure]
    on violation. Test use. *)
