(** WOART — Write Optimal Adaptive Radix Tree (Lee et al., FAST 2017),
    the paper's strongest radix-tree competitor (§II-C).

    A pure-PM ART: every node, leaf and value object lives on the
    simulated PM pool. Leaves and value objects are byte-stored (real
    loads, stores and flushes); internal nodes reuse the {!Hart_art.Art}
    engine with PM-space addresses drawn from the pool, each structural
    mutation charged according to WOART's failure-atomicity protocol:

    - new/expanded node: whole-node store + persist, then an 8-byte
      atomic parent-pointer persist;
    - child entry added in place: one 8-byte slot persist plus one
      header/key-byte persist;
    - child pointer replaced or removed: a single 8-byte atomic persist;
    - path-compression header change: one 16-byte header persist.

    Being a pure-PM tree it needs no rebuild after a crash (§IV-F) and
    keeps no DRAM structures, but every descent step is a PM read —
    exactly the trade-off Figs. 4–8 explore. Like the paper's version it
    has no allocation log, so it does not prevent persistent leaks. *)

type t

val create : Hart_pmem.Pmem.t -> t

val recover : Hart_pmem.Pmem.t -> t
(** Reattach to a crashed pool: validate the registry root block
    ({!Pm_registry}) and rebuild the volatile ART by re-inserting every
    registered leaf. Read-only on PM. *)

val check_integrity : t -> unit
(** ART invariants plus exact tree/registry correspondence. *)

val insert : t -> key:string -> value:string -> unit
val search : t -> string -> string option
val update : t -> key:string -> value:string -> bool
val delete : t -> string -> bool
val range : t -> lo:string -> hi:string -> (string -> string -> unit) -> unit
val count : t -> int
val dram_bytes : t -> int
(** 0: WOART keeps nothing in DRAM (Fig. 10b). *)

val pm_bytes : t -> int
module S : Hart_core.Index_intf.S with type t = t
(** Uniform index-signature conformance (shard metadata included), for
    [Hart_core.Striped_mt.Make] and the generic harness/fault layers. *)
