(** Memory-event meter and simulated clock.

    Every memory access performed by the index structures — DRAM node
    visits, PM loads/stores, cache-line flushes, fences — is reported to a
    meter, which maintains event counters, a simulated direct-mapped
    last-level cache, and a simulated clock charged according to a
    {!Latency.config}. Benchmarks report the simulated clock, which is the
    paper's own emulation methodology (§IV-A): wall-clock time on
    DRAM-only hardware cannot express a 600 ns PM write.

    A single meter is shared by a PM pool and by all the DRAM-side
    structures of the trees built over that pool, so DRAM cache pressure
    (e.g. HART's larger footprint, Fig. 5 discussion) and the cache
    invalidations caused by CLFLUSH (§II-B) are both modelled.

    The meter is domain-safe without locking: counters and the simulated
    clock are sharded into per-domain cells (each domain mutates only its
    own cell; {!counters} and {!sim_ns} merge the cells on read), and the
    DRAM accounting uses atomics. The simulated LLC tag array is shared
    and intentionally racy — under concurrent domains the cache model is
    an approximation; in single-domain runs (all figure benchmarks) it is
    exact and deterministic, identical to the pre-sharding meter. *)

type space = Dram | Pm

type t

type counters = {
  pm_reads : int;
  pm_writes : int;
  dram_reads : int;
  dram_writes : int;
  pm_read_misses : int;
  dram_read_misses : int;
  flushes : int;
  fences : int;
  persist_calls : int;
  evictions : int;
  pm_allocs : int;
  pm_frees : int;
  sim_ns : float;
}

val create : ?llc_bytes:int -> Latency.config -> t
(** [create config] makes a meter with a simulated direct-mapped LLC of
    [llc_bytes] (default 20 MiB, the paper's Xeon E5-2640 v3 L3),
    rounded down to a power of two of lines (20 MiB gives 16 MiB). A
    line's set is its encoded line ([line * 2] for PM, [line * 2 + 1]
    for DRAM), so each space has half the sets: 8 MiB by default. *)

val config : t -> Latency.config

val access : t -> space -> addr:int -> write:bool -> unit
(** Report one memory access at byte address [addr]. Reads that miss the
    simulated LLC are charged [dram_ns] or [pm_read_ns]; hits and writes
    are charged [llc_hit_ns]. Writes allocate the line in the cache. *)

val access_range : t -> space -> addr:int -> len:int -> write:bool -> unit
(** Report an access per 64-byte cache line overlapping
    [\[addr, addr+len)]. *)

val flush_line : t -> addr:int -> unit
(** Report a CLFLUSH of the line containing [addr]: charges
    [pm_write_ns], counts a flush, and invalidates the line in the
    simulated cache (the cache-miss side effect of CLFLUSH). *)

val fence : t -> unit
(** Report an MFENCE: charges [fence_ns]. *)

val persist_call : t -> unit
(** Count one [persistent()] invocation (the MFENCE/CLFLUSH/MFENCE
    sequence); the member fences and flushes are reported separately. *)

val persist_range : t -> addr:int -> len:int -> unit
(** A modelled [persistent()] over [\[addr, addr+len)]: fence, one
    CLFLUSH per overlapping cache line, fence. Used by structures whose
    contents are charge-modelled rather than byte-stored in a pool (the
    WOART / ART+CoW node protocols); byte-stored data uses
    {!Pmem.persist}, which flushes only dirty lines. *)

val write_range : t -> space -> addr:int -> len:int -> unit
(** Report a modelled bulk store (one write access per overlapping
    line). *)

val eviction : t -> unit
(** Count a background write-back (free: no latency charge). *)

val pm_alloc : t -> unit
(** Charge one underlying-PM-allocator allocation (§III-A.4): two ordered
    metadata persists plus bookkeeping. Reported automatically by
    {!Pmem.alloc}. *)

val pm_free : t -> unit
(** Charge one underlying-PM-allocator free (one metadata persist).
    Reported automatically by {!Pmem.free}. *)

val charge_ns : t -> float -> unit
(** Add raw nanoseconds to the simulated clock (used for modelled CPU
    work that has no memory-event representation). *)

val dram_alloc : t -> int -> int
(** [dram_alloc t size] returns a fresh synthetic DRAM address for a
    structure of [size] bytes and adds it to the live-byte count. The
    address is only used for cache simulation and footprint accounting. *)

val dram_free : t -> addr:int -> size:int -> unit
(** Return [size] bytes at [addr] to the accounted-free state. *)

val dram_live_bytes : t -> int
(** Currently live synthetic DRAM bytes (Fig. 10b accounting). *)

val counters : t -> counters
(** Snapshot of all counters, merged across domain cells. *)

val sim_ns : t -> float
(** Simulated clock, in nanoseconds, merged across domain cells. *)

val diff : counters -> counters -> counters
(** [diff before after] is the per-field difference. *)

val reset : t -> unit
(** Zero the counters and clock (cache contents and DRAM accounting are
    kept: resetting between measurement phases must not warm or cool the
    cache). *)

val invalidate_cache : t -> unit
(** Drop all simulated cache contents (used on simulated power failure:
    the machine reboots with a cold cache). *)

val pp_counters : Format.formatter -> counters -> unit
