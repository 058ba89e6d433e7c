(** The pure-PM adaptive radix trees of Lee et al. (FAST 2017), the
    paper's radix competitors (§II-C). One index body serves both; they
    differ only in the failure-atomicity protocol that
    {!Hart_art.Pm_nodes} charges for each mutation of an inner node.

    Every node, leaf and value object lives on the simulated PM pool.
    Leaves and value objects are byte-stored (real loads, stores and
    flushes); inner nodes are a {!Hart_art.Art} whose node addresses
    come from the pool, charge-modelled by the protocol. Being pure-PM
    trees they keep no DRAM structures ([dram_bytes] is 0, Fig. 10b),
    but every descent step is a PM read — exactly the trade-off Figs.
    4–8 explore. The durable leaf set is a {!Pm_registry}: [recover]
    validates its root block and rebuilds the ART by re-inserting every
    registered leaf, read-only on PM. Like the paper's versions they
    have no allocation log, so they do not prevent persistent leaks.
    [check_integrity] is the ART invariants plus an exact tree/registry
    correspondence. *)

module Woart : Hart_core.Index_intf.S
(** WOART — Write Optimal Adaptive Radix Tree, the paper's strongest
    radix competitor: {!Hart_art.Pm_nodes.Write_optimal}. *)

module Art_cow : Hart_core.Index_intf.S
(** ART+CoW — an ART made persistent through copy-on-write:
    {!Hart_art.Pm_nodes.Copy_on_write}. The copy cost is what makes it
    the slowest writer in most of Figs. 4, 6 and 7. *)
