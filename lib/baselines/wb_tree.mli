(** wB+-Tree (Chen & Jin, VLDB 2015) — extra baseline from the paper's
    §II-C: a write-atomic B+-tree for pure PM.

    Every node (inner and leaf) lives on PM and keeps its entries
    {e unsorted}, with sorted order restored through an indirection
    {e slot array} and occupancy through a bitmap; a small insert then
    commits with entry-write → slot-array write → atomic bitmap flip
    (three ordered persists), no logging. The cost the HART paper quotes
    ("requires expensive logging or CoW for a node split") appears on
    splits: a redo log guards the multi-node rearrangement.

    Leaves are {e byte-stored}: the occupancy bitmap (the atomic commit
    word), a next pointer and the 64-byte entries (inline values ≤ 31
    bytes) are real durable bytes, and the leaves form a chain headed
    by a root block (the pool's first allocation). The slot arrays and
    the inner nodes ({!Bptree_inner}) stay charge-modelled at real pool
    addresses (DESIGN.md) — recovery re-sorts each leaf by key and
    rebuilds the inner levels from the chain, so neither is needed
    after a crash, and a crash returns the inner nodes' blocks to the
    pool. An inner node charges a slot-array read plus one entry read
    per probe, a small insert per added separator (at slot 0 for a new
    root), the redo-logged split, and a whole-node write when recovery
    rebuilds it.
    Value updates are out-of-place: the new entry is persisted into a
    free slot and one 8-byte bitmap store retires the old and commits
    the new atomically. Splits are crash-safe in the FPTree style:
    build the right leaf off-chain, link it with one persisted pointer
    store, shrink the left bitmap last; {!recover} resolves the
    duplicate window in favour of the right copy. *)


include Hart_core.Index_intf.S

val node_cap : int

val recover : Hart_pmem.Pmem.t -> t
(** Reattach to a crashed pool: validate the root block, repair any
    torn split (clear the left twin's duplicate bits), walk the leaf
    chain rebuilding the sorted views, unlink-and-free emptied leaves
    and rebuild the inner levels bottom-up. *)

val height : t -> int

val dram_bytes : t -> int
(** 0: pure-PM tree. *)

val check_integrity : t -> unit
(** Volatile/durable correspondence (bitmaps, entries, next chain) plus
    the sorted-chain and routing invariants. *)
