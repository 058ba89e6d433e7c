(** Simulated byte-addressable persistent memory pool.

    The pool models the PM device of the paper's hybrid system:

    - a flat byte-addressable space; "persistent pointers" are integer
      byte offsets into the pool ([0] is the null pointer);
    - CPU stores land in a volatile view and only reach the durable image
      when the covering 64-byte cache line is flushed ({!persist}, the
      paper's [persistent()] = MFENCE/CLFLUSH/MFENCE) or written back by a
      simulated background eviction ({!evict_random});
    - a simulated power failure ({!crash}) discards every unflushed line,
      leaving exactly the durable image — the state a recovery procedure
      must cope with;
    - every load, store, flush and fence is charged to the pool's
      {!Meter.t}.

    Failure injection: {!arm_crash} raises {!Crash_injected} out of a
    chosen [persistent()] call, which is how the crash-consistency tests
    explore the torn states discussed for Algorithms 1–6. *)

type t

exception Crash_injected
(** Raised by {!persist} when an armed crash point triggers. The pool is
    crashed (volatile view discarded) before the exception propagates. *)

exception Out_of_memory_pm
(** Raised by {!alloc} when the pool cannot grow (capped pools). *)

exception Media_poisoned of { off : int; line : int }
(** Raised by the load accessors when the access touches a line marked
    {!Poison_line} — the simulated machine-check of an uncorrectable
    media read. [off] is the offset the caller asked for, [line] the
    poisoned 64-byte line. *)

val line_bytes : int
(** Size of a cache/media line (64). Media faults, the line ECC and
    flush granularity all work on these units. *)

val create : ?capacity:int -> ?max_capacity:int -> Meter.t -> t
(** [create meter] makes an empty pool (default initial capacity 1 MiB,
    growing by doubling up to [max_capacity], default 1 GiB). *)

val clone : t -> t
(** Deep copy of the pool's durable and volatile state (cache, shadow,
    dirty map, allocator metadata, armed crash point). The meter is
    {e shared} with the original. Used by the fault explorer to snapshot
    a crash state and replay recovery from it many times without
    re-executing the workload prefix. *)

val meter : t -> Meter.t

(** {1 Allocation}

    This is the "existing PM allocator" the paper builds EPallocator on
    top of (§III-A.4): a plain first-fit free-list + bump allocator whose
    own metadata is assumed durable. EPallocator's chunking amortises
    calls to it. *)

val alloc : ?publish_at:int -> t -> int -> int
(** [alloc t size] returns the offset of [size] fresh bytes, 64-byte
    aligned, zero-filled in both views. With [~publish_at], until
    {!published} a crash frees the allocation unless the 8-byte word at
    that offset reached PM naming it (an atomic allocate-and-publish). Domain-safe: allocator metadata is
    guarded by an internal mutex. If the allocation forces the pool to
    grow, the backing buffers are replaced — concurrent accesses in other
    domains would race with the swap, so multi-domain users must pre-size
    the pool ([~capacity] or {!reserve}) such that growth never fires
    while other domains are active. *)

val free : t -> off:int -> len:int -> unit
(** Return a region to the allocator's free list ([pfree] in Alg. 6).
    Domain-safe. *)

val published : t -> off:int -> unit
(** The caller persisted the pointer [alloc ~publish_at] named: the
    allocation at [off] is durable. *)

val is_free : t -> off:int -> len:int -> bool
(** Whether the region is on the allocator's free list. *)

val reserve : t -> int -> unit
(** [reserve t bytes] grows the pool now (while the caller is quiesced)
    so that at least [bytes] of capacity exist, ensuring later [alloc]s
    up to that point never trigger a buffer-swapping grow mid-run. *)

val live_bytes : t -> int
(** Currently allocated PM bytes (Fig. 10b accounting). *)

val capacity : t -> int

(** {1 Loads and stores}

    All offsets are bounds-checked against allocated space. Stores touch
    only the volatile view and mark the covering lines dirty. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

val set_int : t -> int -> int -> unit
(** [set_u64] of [Int64.of_int v]: an 8-byte store whose top bit copies
    bit 62. A hot path's store of a word it holds as an int, which
    allocates nothing, where an [int64] handed to {!set_u64} is boxed. *)

val get_u32 : t -> int -> int
(** Little-endian 32-bit load, returned in \[0, 2{^32}). Used for the
    optional CRC-32 trailers on persisted objects. *)

val set_u32 : t -> int -> int -> unit

val get_string : t -> off:int -> len:int -> string
val set_string : t -> off:int -> string -> unit

(** {2 Loads without a copy}

    [get_string] is {!fetch} then {!peek_string}. A hot path that only
    compares or decodes the bytes it loads calls {!fetch} once, the
    load's bounds check, poison check, metered access and read trace,
    then reads them with the [peek] functions, which do none of these
    and allocate nothing but a {!peek_string}'s result. A [peek] reads
    only bytes the caller has just fetched. *)

val fetch : t -> off:int -> len:int -> unit
val peek_u8 : t -> int -> int

val peek_int : t -> int -> int
(** The little-endian 64-bit word at the offset, less its top bit. *)

val peek_string : t -> off:int -> len:int -> string

val peek_equal : t -> off:int -> string -> bool
(** Whether the bytes at [off] spell the string, compared in place. *)

val read_shadow_u64 : t -> int -> int64
(** Read the durable image directly, bypassing the volatile view and the
    meter. Test-only: lets assertions distinguish "written" from
    "persisted". *)

(** {1 Read tracing}

    The fault explorer's directed torn mode needs to know which PM lines
    a recovery pass actually reads, so it can re-crash with exactly those
    lines torn-evicted ({!Torn_lines}). While a trace is active, every
    {!get_u8}/{!get_u64}/{!get_string} records the 64-byte lines it
    touches. Off by default; costs one hash-table insert per read while
    active. Shadow reads ({!read_shadow_u64}) are never traced — they
    bypass the simulated device. *)

val read_trace_start : t -> unit
(** Start (or restart, discarding any open trace) recording the set of
    lines read through the volatile view. *)

val read_trace_stop : t -> int list
(** Stop tracing and return the distinct line numbers read since
    {!read_trace_start}, sorted ascending. Returns [[]] if no trace was
    active. *)

val store_trace_start : t -> unit
(** Start (or restart) recording every store to the volatile view. A
    test that builds crash images by hand uses the record to know which
    bytes a protocol stored, in which order. Off by default. *)

val store_trace_stop : t -> (int * string) list
(** Stop recording and return the stores since {!store_trace_start} in
    program order, each as its offset and the bytes it stored. *)

(** {1 Persistence} *)

val persist : t -> off:int -> len:int -> unit
(** The paper's [persistent()]: fence, CLFLUSH each dirty line overlapping
    [\[off, off+len)] into the durable image, fence. *)

val persist_all : t -> unit
(** Flush every dirty line (used by tests and by build phases whose
    flush traffic is not under measurement). *)

val dirty_line_count : t -> int

val flush_count : t -> int
(** Lifetime count of protocol line flushes (CLFLUSH via {!persist} /
    {!persist_all}); background evictions are not counted. Unlike the
    meter's counter this one survives [Meter.reset], so the fault
    explorer can index crash schedules by flush ordinal. *)

(** {1 Failure simulation} *)

type crash_mode =
  | Clean  (** power failure: exactly the flushed lines survive *)
  | Torn of { seed : int64; fraction : float }
      (** before the failure, the hardware had additionally written back a
          pseudo-random [fraction] of the dirty lines (deterministic in
          [seed]) — the eviction-reordering states {!evict_random} models.
          A correct persistence protocol must recover from any such
          superset of the flushed image. *)
  | Torn_commit
      (** adversarial torn crash: the hardware wrote back exactly the
          line whose flush the injected crash interrupted — i.e. the
          protocol's suspected commit-point line (bitmap word, micro-log
          slot, chain pointer) lands durably while every other dirty
          line is lost. The single worst targeted eviction subset a
          random {!Torn} draw only sometimes finds. *)
  | Torn_lines of int list
      (** directed torn crash: the hardware wrote back exactly the listed
          lines (intersected with the dirty set at crash time), and every
          other dirty line is lost. The fault explorer's directed
          adversarial pass collects the lines a schedule's recovery
          actually reads (via {!read_trace_start}) and replays the crash
          with precisely those lines durable. *)

val crash : t -> unit
(** Simulate a power failure: every unflushed store is lost, the volatile
    view is reset to the durable image, and the simulated cache is
    invalidated (cold restart). Honours the armed {!crash_mode}. *)

val arm_crash : ?mode:crash_mode -> t -> after_flushes:int -> unit
(** Arm a crash point: the [after_flushes]-th subsequent line flush
    completes and then {!Crash_injected} is raised from inside that
    [persist] call (later lines of the same call are lost). Pass [0] to
    crash before the next flush. [mode] defaults to {!Clean}. *)

val disarm_crash : t -> unit

val crash_fired : t -> bool
(** [true] from the moment an armed crash fires until the next
    {!arm_crash}/{!disarm_crash}. The concurrent crash explorer uses
    this to ignore lock-release events fired while fibers unwind from
    {!Crash_injected}, and to stop context-switching once the pool has
    crashed. *)

(** {1 Pool images}

    The durable image (plus the allocator metadata the simulation treats
    as durable) can be written to a host file and re-opened later, so a
    "PM device" outlives the process — {!Hart_core.Hart.recover} then
    plays the role of mounting after a reboot. *)

val save : t -> string -> unit
(** [save t path] writes the durable image. Unflushed stores are NOT
    included — saving is a power-off, not a sync. *)

val load : ?max_capacity:int -> Meter.t -> string -> t
(** Re-open a saved image (cold cache, clean dirty map). The image is
    validated before being adopted: magic, a supported format version, a
    line-aligned [brk] within [max_capacity], a sane live-byte count, a
    free list whose every region is a positive line-aligned span inside
    the pool with no two regions overlapping, and a whole-image CRC-32
    trailer that must match the preceding header + pool bytes. Truncated
    files and trailing garbage are rejected.
    @raise Failure on a malformed or corrupt image file. *)

val evict_random : t -> Hart_util.Rng.t -> fraction:float -> unit
(** Write back a random [fraction] of dirty lines, free of charge — the
    hardware is allowed to evict any dirty line at any time, so crash
    states must be correct under any such subset. Used by property
    tests. *)

(** {1 Media faults}

    Beyond torn flushes, real PM suffers media faults: bit rot, whole
    lines returning garbage, cells that stop accepting writes, and
    uncorrectable reads. The pool models them deterministically, and
    pairs them with a per-line CRC-32 — the simulation's stand-in for
    the DIMM's per-line ECC. Every legitimate write-back (flush,
    background eviction, torn-crash eviction, allocator scrub) reseals
    a line's ECC; injected faults mutate the durable image {e without}
    resealing it. {!media_verify} is therefore a ground-truth-free
    detector: it reports exactly the lines whose durable content no
    legitimate write produced.

    The ECC is sealed at injection. A line no fault has touched holds
    the bytes its ECC describes, so only the exceptions are stored: a
    content fault records the CRC of the line's durable bytes before its
    first mutation, a write-back to a stuck line records the CRC of the
    dropped data, and a normal write-back, scrub or {!load} forgets the
    line's record. A fault-free write-back therefore computes no CRC.
    The records are volatile metadata and cost nothing on the simulated
    clock (DESIGN.md §15).

    Faults are injected while the pool is quiesced: no other domain may
    be loading, storing or persisting. Write-backs from any domain then
    update the fault tables under an internal mutex. *)

type media_fault =
  | Flip_bit of { off : int; bit : int }
      (** flip bit [bit land 7] of the durable byte at [off] *)
  | Flip_bits of { seed : int64; flips : int }
      (** [flips] independent single-bit flips at seeded pseudo-random
          offsets in \[0, brk) *)
  | Clobber_line of { line : int; seed : int64 }
      (** overwrite the whole 64-byte line with seeded garbage *)
  | Stuck_line of { line : int }
      (** the line silently drops all future write-backs: flushes report
          success (and seal the ECC of the intended data, which is what
          makes the loss detectable) but the durable image keeps its old
          content *)
  | Poison_line of { line : int }
      (** uncorrectable: any load touching the line raises
          {!Media_poisoned} until a full-line write-back replaces its
          contents *)

type media_report = { corrupt_lines : int list; poisoned_lines : int list }
(** [corrupt_lines]: lines whose durable content disagrees with their
    ECC, ascending. [poisoned_lines]: lines currently raising on
    load. The two are disjoint (a poisoned line cannot be checksummed —
    it cannot be read at all). *)

val inject_media_fault : t -> media_fault -> unit
(** Apply one fault to the durable image (and, for content faults, to
    the volatile view — a subsequent cold read returns the corrupted
    line). Bounds-checked against [brk].
    @raise Invalid_argument for out-of-pool coordinates. *)

val media_verify : t -> media_report
(** Scrub pass over the pool: every line below [brk] whose durable
    bytes disagree with its ECC, and every poisoned line. Only sealed
    lines can disagree, so the pass recomputes one CRC per sealed line,
    not one per pool line. Free on the simulated clock (the
    device-internal scrubber the simulation assumes). *)

val touches_lines : int list -> int -> int -> bool
(** [touches_lines lines off len]: does the span \[[off], [off + len])
    share a line with [lines] (a {!media_verify} result, say)? Apply it
    to the list once and reuse the predicate: the lines are hashed on
    the first application. *)

val pp_stats : Format.formatter -> t -> unit
