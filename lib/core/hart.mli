(** HART — the hash-assisted adaptive radix tree (the paper's
    contribution, §III).

    A HART instance is a DRAM hash directory mapping the first [kh] bytes
    of each key (the {e hash key}) to an ART indexed by the remaining
    bytes (the {e ART key}); ART leaves and value objects live on
    simulated PM, managed by {!Epalloc}. The implementation follows the
    paper's algorithms:

    - insertion — Algorithm 1 (value, then leaf: the leaf's length byte,
      stored after its key, is the commit point; two persists);
    - allocation — Algorithm 2 (inside {!Epalloc.epmalloc});
    - update — Algorithm 3 (out-of-place, without its update log: the
      new value, then the leaf's [p_value], two persists, then both
      value bits in DRAM);
    - search — Algorithm 4 (the found leaf validated by its own length
      byte and key, read with it in one line);
    - deletion — Algorithm 5 (the leaf's length byte zeroed, with one
      persist: the free slot owns its value until an insertion takes
      the slot over or its chunk is recycled; empty ARTs freed);
    - chunk recycling — Algorithm 6 (inside {!Epalloc.eprecycle});
    - recovery — Algorithm 7 ({!recover} rebuilds the directory and all
      internal nodes from the PM leaf chunks alone).

    The point operations never split a key: they pass it whole, with
    the hash key's length as an offset, to the directory
    ({!Hash_dir.find_prefix}) and to the ART ({!Hart_art.Art.find} and
    friends), and validate the leaf on PM in place ({!Leaf.lookup}). An
    insertion descends its ART once: {!Hart_art.Art.insert} makes the
    PM leaf at the insertion point. A search hit allocates only its
    result, and an update or an insertion of a bound key nothing.

    Keys are 1–24 bytes, values 0–31 bytes ({!Leaf.max_key_len},
    {!Chunk.value_class_for}). This module is single-threaded; use
    {!Hart_mt} for the paper's per-ART-locked concurrent front end. *)

type t

type internal_nodes = [ `Dram | `Pm ]
(** Where ART internal nodes live. [`Dram] is HART as published
    (selective persistence, §III-A.2). [`Pm] is an ablation that places
    internal nodes on PM under a WOART-style persistence protocol,
    isolating what selective persistence buys. *)

val create :
  ?kh:int ->
  ?checksums:bool ->
  ?dir_buckets:int ->
  ?internal_nodes:internal_nodes ->
  Hart_pmem.Pmem.t ->
  t
(** Format the pool (must be fresh) and return an empty HART. [kh] is
    the hash-key length in bytes, default 2 as in the paper's
    evaluation. [checksums] (default false) formats the pool with
    CRC-32 trailers on leaf keys, value objects and micro-log words
    (recorded durably; a re-opened pool self-describes). The trailers
    ride inside bytes the objects already occupy, so flush counts are
    unchanged. [internal_nodes] defaults to [`Dram]. *)

val recover : ?quarantine:bool -> Hart_pmem.Pmem.t -> t
(** Algorithm 7: adopt a pool after a crash or reboot — replay the
    recycle log, then rebuild the hash table and every ART internal node
    by scanning the leaf chunk list. Updates keep no log: the scan names
    every committed leaf's value, and a serial liveness pass sets the
    bit of each named value and clears every other (DESIGN.md §6
    item 3).

    With [~quarantine:true] the mount tolerates media faults: the
    pool's line-ECC table is scrubbed first, log records on corrupt
    lines (or failing their CRCs) are discarded instead of replayed,
    every committed leaf is validated (media lines, key length, CRCs,
    value resolution) before the index accepts it, and
    duplicate keys resolve deterministically (lower leaf offset wins).
    Value objects of excised leaves are freed only when provably
    unshared (a corrupt pointer may alias a live key's value). After
    the liveness pass, every flagged line that still fails its ECC
    holds nothing live and is zeroed, which reseals it; a line that
    fails even then is stuck media, reported [Detected]. Everything
    found is reported in {!quarantines}. Without [quarantine] (the
    default) the mount assumes a crash-consistent, media-clean image
    and raises on anomalies.

    Both mounts settle free leaf slots alike, after the scan: a free
    slot naming a committed value owns it, and every other is severed
    (its [p_value] stored 0; quarantining, a slot whose pointer cannot
    be read is zeroed whole). The quarantining mount also refuses a
    value that a kept leaf or a lower slot names, since a media fault
    can forge a pointer, and frees (and reports) a value on a flagged
    line. Both then run the same liveness pass, which
    frees every value nothing names with no finding: crash residue is
    not reported, and a quarantined key's finding already reports its
    value.

    @raise Hart_error.Error on an unmountable pool (bad root block,
    corrupt chunk chain; in non-quarantine mode also a duplicate leaf,
    naming the higher offset, or a committed leaf whose key length is
    outside 1..24, both as [Leaf_slot]). *)

val recover_parallel : ?domains:int -> ?quarantine:bool -> Hart_pmem.Pmem.t -> t
(** {!recover} cut into [domains] partitions (default
    [Domain.recommended_domain_count ()]); {!recover} is
    [recover_parallel ~domains:1]. Every mode and domain count runs one
    pipeline:

    - the serial preamble replays the recycle log (quarantining: after
      the ECC scrub, in guarded mode);
    - [domains] workers scan slices of the leaf chunk list, reading
      every slot once: its length byte says whether it is live and sets
      its chunk's DRAM occupancy word; a live leaf's key and value
      pointer (quarantining: validating the leaf) and a free slot's
      value pointer come with it. Each live leaf probes the directory
      once for its hash key and appends a 16-byte entry to its own
      gather buffer there; a hash key falls into a partition by its
      directory hash;
    - quarantining only, a serial merge applies the keep-lower-offset
      duplicate rule and then every quarantine PM write;
    - a serial step settles the free leaf slots the scan found naming
      a value: owners are marked, the rest severed;
    - the serial liveness pass sets the value chunks' DRAM words from
      the named values and recycles the value chunks nothing names;
    - quarantining only, a serial step zeroes the flagged lines that
      still fail their ECC and reports the stuck ones — with the merge,
      the free-slot step and the liveness pass, the only PM writes
      after the preamble, all on the calling domain;
    - each worker builds each ART of its own partition once: it sorts
      the ART's entries and writes every inner node once, at its final
      class ({!Hart_art.Art.of_sorted}). Partitions own disjoint hash
      keys, so each ART is built wholly by one worker.

    The rules are order-independent, so the bindings, the findings and
    the structural statistics do not depend on [domains], and equal
    those of a store that only ever inserted the same keys. With
    [~domains:1] nothing is spawned.
    @raise Invalid_argument if [domains < 1]. *)

val quarantines : t -> Hart_error.finding list
(** Findings accumulated by a quarantining recovery of this instance
    (empty for instances from {!create} or plain recovery). *)

val checksums : t -> bool
(** Whether the pool uses the checksummed object format. *)

val fsck : ?deep:bool -> t -> Hart_error.finding list
(** Self-healing integrity check of the mounted store: the quarantining
    run of {!recover}[ ~quarantine:true], on one domain, over the same
    pool. The store must be quiesced: no other operation may run until
    fsck returns. The run takes each class's chunk list and the root
    scalars from the live allocator's DRAM registry, not from PM chain
    pointers, and the live index tells it more than a pool at rest
    would (DESIGN.md §15 lists the cases): a flagged root-scalar line or
    chunk prologue line is rewritten instead of refusing; no log slot
    may hold a record; a free slot on a flagged line is zeroed, not
    quarantined; and on a clean line a slot whose length byte or key
    disagrees with the index (a stray write the ECC cannot see) is
    restored from it — a live leaf's key with its own value pointer, a
    free slot's length byte cleared.

    Before it installs the rebuilt allocator state and directory in
    [t], fsck compares the rebuilt bindings with the live index: every
    key the rebuild drops, rebinds or adds is named by the finding at
    its leaf, or by a finding of its own. [~deep:true], the default,
    also checks the checksummed format's key, value and log-word CRCs.

    Returns this run's findings — empty on a healthy store; a second
    run reports nothing but stuck lines. Repairs are durable (persisted)
    as they are made.
    @raise Invalid_argument on a store built with [~internal_nodes:`Pm],
    whose ART nodes live on PM and would not be rebuilt. *)

val scrub : t -> Hart_error.finding list
(** {!fsck} without the checksum checks. *)

val kh : t -> int
val pool : t -> Hart_pmem.Pmem.t
val alloc : t -> Epalloc.t
val count : t -> int
(** Number of live keys. O(1). *)

val art_count : t -> int
(** Number of ARTs the hash table currently manages (= max concurrent
    writers, §III-A.3). *)

val split_key : t -> string -> string * string
(** [(hash_key, art_key)] for a key, per §III-A.1, as copies. The point
    operations do not use it: they address both halves in place. *)

val insert : t -> key:string -> value:string -> unit
(** Algorithm 1, in one ART descent. Updates in place (via Algorithm 3)
    when the key already exists.
    @raise Invalid_argument on over-long key or value. *)

val search : t -> string -> string option
(** Algorithm 4. *)

val update : t -> key:string -> value:string -> bool
(** Algorithm 3 directly; [false] when the key does not exist (no
    insertion). *)

val delete : t -> string -> bool
(** Algorithm 5; [false] when the key does not exist. *)

val range : t -> lo:string -> hi:string -> (string -> string -> unit) -> unit
(** Visit every binding with [lo <= key <= hi] in key order: qualifying
    ARTs are selected through the directory and scanned with per-leaf
    validation, the multi-ART analogue of the paper's
    search-per-key range query (§IV-D). *)

val iter : t -> (string -> string -> unit) -> unit
(** Visit all bindings (ARTs in unspecified order, keys in order within
    each ART). *)

val fold : t -> init:'a -> f:('a -> string -> string -> 'a) -> 'a
(** Fold over all bindings in {!iter} order. *)

val min_binding : t -> (string * string) option
(** Smallest key in byte-lexicographic order, across all ARTs. *)

val max_binding : t -> (string * string) option

val iter_arts : t -> (string -> int Hart_art.Art.t -> unit) -> unit
(** Visit the directory: hash key and that prefix's ART (whose values
    are PM leaf offsets). Read-only introspection for statistics and
    tests. *)

val dir_bytes : t -> int
(** Modelled DRAM bytes of the hash directory's bucket array. *)

val dram_bytes : t -> int
(** Modelled DRAM consumption: hash directory + ART inner nodes
    (Fig. 10b) + the allocator's bitmap mirror
    ({!Epalloc.mirror_bytes}). *)

val pm_bytes : t -> int
(** PM consumption: live pool bytes (chunks, root block). *)

val check_integrity : t -> unit
(** Full cross-check of DRAM structures against the PM image: every ART
    leaf points at a committed PM leaf whose stored key (of a valid
    length) matches its tree position and whose value object is
    committed; every committed PM leaf is reachable from exactly one
    ART; every committed value object is named by exactly one live leaf
    or owning free leaf slot (DESIGN.md §6 item 1), and a free slot that
    owns nothing names no committed value. A set bit named by nothing
    is a leak. Raises [Failure] on violation. *)
