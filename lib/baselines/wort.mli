(** WORT — Write Optimal Radix Tree (Lee et al., FAST 2017).

    The third radix-based persistent tree of the paper's §II-C lineage
    (WORT / WOART / ART+CoW). The HART paper benchmarks only WOART ("the
    best of the three in most cases"); WORT is provided here as an
    optional extra baseline, exercised by the ablation section.

    Structure: a {e non-adaptive} radix tree over 4-bit nibbles — every
    inner node has exactly 16 child slots — with path compression. Its
    write-optimality claim: every structural insertion commits with a
    single 8-byte atomic pointer store, and a path-compression split
    commits with a single 8-byte atomic header update, so no logging or
    CoW is ever needed. The cost is depth: two levels per key byte and
    16-way nodes mean deeper descents and a bigger PM footprint than
    WOART's adaptive nodes — which is why WOART superseded it.

    Same storage conventions as WOART ({!Pm_art}): leaves and value objects are
    byte-stored on the pool; node contents are charge-modelled at real
    pool addresses (DESIGN.md). Keys that are prefixes of other keys are
    handled with ends-here slots, as in {!Hart_art.Art}. *)


include Hart_core.Index_intf.S

val recover : Hart_pmem.Pmem.t -> t
(** Reattach to a crashed pool: validate the registry root block
    ({!Pm_registry}) and rebuild the volatile radix structure by
    re-linking every registered leaf. Read-only on PM. *)

val height : t -> int
(** Nodes on the longest descent (≈ 2 × key bytes minus compression). *)

val dram_bytes : t -> int
(** 0: pure-PM tree. *)

val check_integrity : t -> unit
(** Structural invariants plus exact tree/registry correspondence. *)
