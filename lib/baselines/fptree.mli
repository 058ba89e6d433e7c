(** FPTree — Fingerprinting Persistent Tree (Oukid et al., SIGMOD 2016),
    the paper's hybrid DRAM-PM competitor (§II-C).

    Selective persistence like HART: sorted B+-tree inner nodes live in
    DRAM; leaf nodes live on PM, byte-serialized, unsorted, each carrying
    a one-byte {e fingerprint} per entry so a search probes (in
    expectation) a single in-leaf key. Leaf layout:

    {v
    offset 0    bitmap : u64   entry occupancy
    offset 8    pnext  : u64   next leaf (chain is key-ordered)
    offset 16   fingerprints : LEAF_CAP bytes
    offset 16+CAP   entries, 64 B each:
                    key_len u8, key 24 B, val_len u8, value 31 B, pad
    v}

    Updates are out-of-place within the leaf (write a free slot, then
    flip both bitmap bits with one atomic persisted u64). Splits persist
    the new leaf before relinking. Deletion only clears a bitmap bit:
    leaves are never coalesced, which is why FPTree's PM consumption is
    the largest in Fig. 10b. The inner levels are {!Bptree_inner},
    charged one DRAM line read per level descended and one DRAM write
    per separator added; {!recover} rebuilds them, balanced, by walking
    the persistent leaf chain (Fig. 10c). *)


include Hart_core.Index_intf.S

val leaf_cap : int

val fingerprint : string -> int
(** The one-byte fingerprint of a key (exposed so tests can construct
    colliding keys deliberately). *)

val create : Hart_pmem.Pmem.t -> t
(** Format a fresh pool (must be empty) with the FPTree root block and
    one empty anchor leaf. *)

val recover : Hart_pmem.Pmem.t -> t
(** Rebuild the inner nodes from the leaf chain after a crash/reboot. *)

val range : t -> lo:string -> hi:string -> (string -> string -> unit) -> unit
(** Leaf-chain scan — FPTree's strong suit (Fig. 10a). *)

val iter : t -> (string -> string -> unit) -> unit
(** Visit every binding in key order (full leaf-chain scan). *)

val height : t -> int

val check_integrity : t -> unit
(** Inner-node separators agree with leaf contents, chain is key-ordered,
    count matches live bits. Raises [Failure] on violation. *)
