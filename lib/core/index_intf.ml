(** The index layer's shared module types.

    Three views of one persistent index, in increasing strength:

    - {!ops} — a first-class record of closures over an already-built
      instance, used by the benchmark harness to drive every §II index
      through identical code paths;
    - {!S} — the full single-threaded module signature, including the
      lifecycle ([create]/[recover]) and the concurrency metadata
      ({!S.stripe_of_key}, {!S.restructures}, {!S.volatile_domain_safe})
      that {!Striped_mt} needs to build a lock front end;
    - {!MT} — the concurrent front end produced by [Striped_mt (I)]:
      the paper's per-ART reader/writer admission protocol (§III-A.3,
      §IV-G) generalised to any index that can name its commuting
      shards.

    The {e commuting contract} (DESIGN.md §11): two mutating operations
    for which {!S.restructures} is [false] and whose
    {!S.stripe_of_key} values differ must commute — both volatilely and
    in their durable effects, under any interleaving of their persist
    points. [Striped_mt] serialises everything else (same stripe, or
    any restructuring operation), so this contract is the only thing an
    index must get right to inherit crash-checked parallelism. *)

(** One write of a pipelined batch (see {!MT.apply_batch}): an upsert
    or a delete, identified by key. *)
type batch_op = Bset of string * string | Bdel of string

type ops = {
  name : string;
  insert : key:string -> value:string -> unit;
  search : string -> string option;
  update : key:string -> value:string -> bool;  (** false when absent *)
  delete : string -> bool;  (** false when absent *)
  range : lo:string -> hi:string -> (string -> string -> unit) -> unit;
  count : unit -> int;
  dram_bytes : unit -> int;  (** modelled DRAM footprint (Fig. 10b) *)
  pm_bytes : unit -> int;  (** live PM pool bytes (Fig. 10b) *)
}

(** A single-threaded persistent index, plus the sharding metadata the
    striped concurrency functor needs. All eight §II indexes implement
    this uniformly. *)
module type S = sig
  type t

  val name : string
  (** Lower-case identifier; also names the concurrent fault target
      ([<name>-mt@Nd]). *)

  val create : Hart_pmem.Pmem.t -> t
  val recover : Hart_pmem.Pmem.t -> t

  val insert : t -> key:string -> value:string -> unit
  val search : t -> string -> string option
  val update : t -> key:string -> value:string -> bool
  val delete : t -> string -> bool
  val range : t -> lo:string -> hi:string -> (string -> string -> unit) -> unit

  val iter : t -> (string -> string -> unit) -> unit
  (** Every live binding, in unspecified order. *)

  val count : t -> int
  val dram_bytes : t -> int
  val pm_bytes : t -> int

  val check_integrity : t -> unit
  (** Structural integrity, the same rule before and after a crash.
      @raise Failure on any broken invariant. *)

  val stripe_of_key : t -> string -> int
  (** The key's commuting-shard id — HART hashes the directory prefix
      (one ART = one shard), FPTree uses the leaf the key routes to,
      WOART a radix prefix. Two non-restructuring mutations on distinct
      shards must commute durably; the functor folds this id onto its
      stripe array, and a stripe collision between distinct shards only
      adds conservative exclusion. When [volatile_domain_safe] is
      [false] the id is only meaningful while the structure is stable,
      and the functor only calls it under the shared structure lock. *)

  val volatile_domain_safe : bool
  (** [true] when the index's volatile layers are safe under real
      concurrent domains on distinct shards (HART: domain-safe
      directory, allocator and log). The functor then uses stripe locks
      alone — [stripe_of_key] must be a pure function of the key. When
      [false], a shared structure lock brackets every operation:
      readers and non-restructuring writers hold it shared,
      restructuring writers exclusively. *)

  val restructures : t -> op:[ `Insert | `Update | `Delete ] -> key:string -> bool
  (** Predicts whether this mutation may reshape shared structure (leaf
      split, node growth, shared free-list manipulation) and therefore
      needs the exclusive structure lock. Consulted only when
      [volatile_domain_safe] is [false]; may err towards [true]
      (conservative serialisation), never towards [false]. The
      prediction is re-checked under the stripe lock and the operation
      retried exclusively if it went stale. *)
end

(** A concurrent front end over an {!S}: one striped reader/writer lock
    per commuting shard, writes to distinct shards in parallel, at most
    one writer per shard. Produced by [Striped_mt.Make]. *)
module type MT = sig
  type index
  (** The wrapped single-threaded index. *)

  type t

  val name : string

  val create : Hart_pmem.Pmem.t -> t
  val recover : Hart_pmem.Pmem.t -> t
  val of_index : index -> t

  val underlying : t -> index
  (** Only safe once all domains performing operations have quiesced. *)

  val insert : t -> key:string -> value:string -> unit
  val search : t -> string -> string option
  val update : t -> key:string -> value:string -> bool
  val delete : t -> string -> bool

  val rmw : t -> key:string -> (string option -> string) -> unit
  (** Atomic read-modify-write under the key's write admission, so
      concurrent [rmw]s on the same key never lose updates. *)

  val apply_batch : t -> batch_op list -> bool array
  (** Apply a batch of writes, returning per-op results in submission
      order ([Bset] → [true]; [Bdel] → whether the key was present).
      When the index is [volatile_domain_safe] the ops are grouped by
      stripe and each group runs under {e one} write-lock acquisition —
      the pipelined server's amortisation of lock traffic. Same-key ops
      share a stripe, so per-key order is submission order; ops on
      distinct stripes commute by the sharding contract, so the
      stripe-major application order is unobservable. Each op still
      commits individually ([Mt_hook] fires once per op, and an op's
      persists all land before the next op in its group starts), so a
      crash mid-batch leaves a clean per-op frontier, not a torn batch.
      Indexes needing the shared structure lock fall back to per-op
      {!insert}/{!delete}. *)

  val count : t -> int
  (** No locking; exact only when quiesced. *)

  val iter : t -> (string -> string -> unit) -> unit
  (** Quiesced-only. *)

  val check_integrity : t -> unit
  (** Quiesced-only. *)

  val stripe_lock : t -> string -> Rwlock.t
  (** The reader/writer stripe guarding this key's shard. Exposed for
      lock-protocol tests. *)
end
