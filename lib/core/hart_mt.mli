(** Concurrent front end to {!Hart} (§III-A.3, §IV-G).

    The paper's protocol: one reader/writer lock per ART; writes to
    distinct ARTs proceed in parallel, reads on the same ART share its
    lock, and at most one writer works on an ART at a time. This module
    is [Striped_mt.Make] applied to HART — a fixed stripe array of
    {!Rwlock}s indexed by the hash key's directory hash — every key of
    one ART maps to one stripe, and a stripe collision between distinct
    ARTs only adds conservative exclusion.

    There is no global serialisation point: the layers below are
    domain-safe (per-domain meter cells, a locked pool allocator, striped
    chunk bitmaps with per-domain active chunks, lock-free directory
    reads, mutex-guarded micro-log masks), so operations on distinct
    stripes run truly in parallel. Wall-clock scaling is measured by
    [Hart_harness.Exp_parallel]; the calibrated discrete-event model in
    [Hart_harness.Mt_sim] still reproduces Fig. 10d under the paper's
    latency regime (see DESIGN.md §9 for when to trust which). *)

module S : Index_intf.S with type t = Hart.t
(** HART as a uniform index: the shard id is the directory hash of the
    key's hash prefix, and the domain-safe layers below make it
    [volatile_domain_safe]. *)

module M : Index_intf.MT with type index = Hart.t
(** The functor instantiation itself, for consumers generic over
    [Index_intf.MT] (the concurrent crash explorer, the cross-index
    scalability sweep). *)

type t = M.t

val create : ?kh:int -> Hart_pmem.Pmem.t -> t
val recover : Hart_pmem.Pmem.t -> t

val of_hart : Hart.t -> t
(** Wrap an already-built (or already-recovered) HART in the striped
    front end — the KV server's path from a loaded store file. *)

val insert : t -> key:string -> value:string -> unit
val search : t -> string -> string option
val update : t -> key:string -> value:string -> bool
val delete : t -> string -> bool

val rmw : t -> key:string -> (string option -> string) -> unit
(** Atomic read-modify-write: runs the function on the key's current
    value and stores the result, all under the key's ART write lock, so
    concurrent [rmw]s on the same key never lose updates. *)

val apply_batch : t -> Index_intf.batch_op list -> bool array
(** Pipelined writes grouped by ART: one write-lock acquisition per
    touched stripe, per-op results in submission order (see
    {!Index_intf.MT.apply_batch}). *)

val count : t -> int
(** Live keys (atomic counter read; no locking). *)

val underlying : t -> Hart.t
(** The wrapped single-threaded HART — only safe to use once all domains
    performing operations have quiesced. *)

val art_lock : t -> string -> Rwlock.t
(** The reader/writer lock stripe guarding the ART of this key's hash
    prefix. Exposed for lock-protocol tests. *)
