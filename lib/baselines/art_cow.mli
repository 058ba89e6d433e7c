(** ART+CoW — an ART made persistent through copy-on-write (Lee et al.,
    FAST 2017; the paper's third radix baseline).

    Pure-PM layout like {!Woart}, but consistency comes from copying:
    every structural mutation of an inner node is modelled as writing a
    fresh copy of the whole node, persisting it, and swapping the
    parent's 8-byte pointer — the copy cost is what makes ART+CoW the
    slowest writer in most of Figs. 4, 6 and 7 (a NODE256 copy alone is
    33 cache-line flushes). Reads are plain PM descents. *)

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
(** 0: pure PM tree. *)

val pm_bytes : t -> int
module S : Hart_core.Index_intf.S with type t = t
(** Uniform index-signature conformance (shard metadata included), for
    [Hart_core.Striped_mt.Make] and the generic harness/fault layers. *)
