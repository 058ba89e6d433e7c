(** CDDS B-Tree (Venkataraman et al., FAST 2011) — the last tree of the
    paper's §II-C inventory: a {e multi-version} B-tree for PM.

    Consistency through versioning instead of logging: every entry
    carries a [start, end) version interval; a mutation writes new
    versioned entries and commits by atomically persisting the global
    version counter — a crash simply falls back to the last committed
    version. The side effect the HART paper quotes: "it could generate
    many dead entries and dead nodes" — reproduced here: updates and
    deletes only end-date entries, so leaves fill with dead versions
    until a split garbage-collects the live ones, and searches pay to
    skip the corpses ({!dead_entries} exposes the growth).

    Leaves are {e byte-stored}: 80-byte entries (inline values ≤ 31
    bytes, [start, end) stamps as real u64 fields) in a durable chain
    headed by a root block that also holds the committed global
    version. Splits are versioned too: the live entries are copied
    into fresh leaves stamped V+1, the old lives are end-dated V+1,
    and the single 8-byte version persist swaps old for new
    atomically — so {!recover} only has to discard entries started
    after the committed version, resurrect end-dates beyond it and
    garbage-collect all-dead leaves. Inner nodes ({!Bptree_inner}) stay
    charge-modelled at pool addresses like wB+Tree's (DESIGN.md), are
    rebuilt from the chain, and go back to the pool at a crash. An inner
    node charges a header read plus one entry read per probe, an entry
    write+persist per added separator, and a whole-node write+persist
    when it is created by a split, as a new root or by recovery. *)


include Hart_core.Index_intf.S

val leaf_cap : int

val recover : Hart_pmem.Pmem.t -> t
(** Reattach to a crashed pool: validate the root block, roll
    uncommitted version stamps back (zero future starts, reset future
    end-dates to live), GC all-dead leaves from the chain and rebuild
    the inner levels. Each repair is one atomic 8-byte persist, so
    recovery is idempotent and itself crash-tolerant. *)

val height : t -> int

val version : t -> int
(** The committed global version (one bump per mutation). *)

val dead_entries : t -> int
(** Versioned corpses currently occupying leaf slots. *)
