(** NV-Tree (Yang et al., FAST 2015) — extra baseline from the paper's
    §II-C: the first selective-consistency tree, kept here to complete
    the B+-tree lineage the radix trees were measured against.

    Design, as the HART paper summarises it: leaf nodes on PM use an
    {e append-only} update strategy — every insert, update or delete
    appends an entry (deletes append a negation marker) and commits by
    persisting a single entry counter; internal nodes are
    {e inconsistent by design} (DRAM-rebuildable, no persistence cost).
    Its known weakness, quoted by the paper: "each split of the parent
    of the leaf node leads to the reconstruction of the entire internal
    nodes, which incurs a high overhead" — reproduced literally: a leaf
    split here rebuilds the whole DRAM index over the leaves.

    Entries carry the value inline (≤ 31 bytes). Pure-PM leaves +
    volatile inner nodes. The leaves form a durable singly-linked chain
    headed by a root block (the pool's first allocation): a split builds
    and persists its replacement leaves off-chain and commits with a
    single 8-byte pointer swing, so {!recover} can rebuild the DRAM
    index by walking the chain after a crash at any flush boundary. *)


include Hart_core.Index_intf.S

val leaf_cap : int
(** Entries per PM leaf (including appended tombstones). *)

val recover : Hart_pmem.Pmem.t -> t
(** Reattach to a crashed pool: validate the root block, walk the leaf
    chain and rebuild the DRAM index. Leaves holding only dead history
    are unlinked and freed (each unlink is one atomic persisted pointer
    swing, so recovery is idempotent and itself crash-tolerant). *)

val rebuild_count : t -> int
(** How many full inner-index reconstructions splits have caused. *)
