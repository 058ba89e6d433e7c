(** Persistent leaf registry: the crash-discoverable ground truth of the
    charge-modelled radix baselines (WORT, WOART, ART+CoW). A root block
    at the pool's first allocation heads a chain of 512-byte slot
    chunks; each live 32-byte leaf occupies one 8-byte slot. Registering
    (one persisted word store) is the insert commit point; deregistering
    (persisted zero) strictly precedes freeing the leaf. *)

type t

val create : Hart_pmem.Pmem.t -> magic:int64 -> t
(** Allocate and persist the root block. Must be the pool's first
    allocation (offset 64), like FPTree's root block. *)

val attach : Hart_pmem.Pmem.t -> magic:int64 -> t
(** Reattach to a crashed pool: validate the magic and rebuild the
    volatile slot map from the durable chain. Read-only. *)

val register : t -> int -> unit
(** Persist a leaf offset into a free slot (growing the chain if
    needed). The single 8-byte slot persist is the commit. *)

val deregister : t -> int -> unit
(** Persist a zero over the leaf's slot. Call {e before} freeing the
    leaf. *)

val iter : t -> (int -> unit) -> unit
(** Every registered leaf offset, read from the durable chain. *)

val cardinal : t -> int
val registered : t -> int -> bool

val check : t -> unit
(** Verify the volatile map against the durable chain (no duplicate
    slots, exact correspondence). Raises [Failure] on mismatch. *)
