(** The DRAM hash table that manages HART's per-prefix ARTs (Fig. 1).

    Maps a hash key — the first [kh] bytes of a record key — to an
    arbitrary payload (in HART: an ART root plus its reader/writer lock).
    Open addressing with linear probing and backward-shift deletion;
    FNV-1a hashing; doubling at 70 % load.

    The table is volatile and rebuilt by recovery. When created with a
    meter, each probe is reported as a DRAM access so the table's cache
    footprint participates in the simulation (the paper attributes HART's
    300/100 search loss to exactly this footprint).

    Concurrency: {!find} is lock-free — it probes a snapshot of the
    atomically published bucket array, retrying only across the short
    seqlock window of a concurrent {!remove} (whose backward-shift
    transiently breaks probe chains). {!insert} and {!remove} serialise
    on an internal writer mutex; a resize builds the new array off-line
    and publishes it atomically. {!iter}/{!fold} snapshot the array and
    are only consistent when writers are quiesced. *)

type 'a t

val create : ?meter:Hart_pmem.Meter.t -> ?initial_buckets:int -> unit -> 'a t
(** [initial_buckets] defaults to 1024 and is rounded up to a power of
    two. *)

val length : 'a t -> int

val hash : string -> int
(** The table's FNV-1a key hash, folded to the positive int range.
    Exposed so callers can stripe auxiliary state (e.g. lock arrays) the
    same way the directory buckets its keys. Allocation-free. *)

val hash_prefix : string -> int -> int
(** [hash_prefix key n] is [hash] of the first [min n (String.length
    key)] bytes of [key], without copying them out. *)

val find : 'a t -> string -> 'a option
(** A hit allocates nothing: each slot keeps its [Some payload]. *)

val find_prefix : 'a t -> string -> int -> 'a option
(** [find_prefix t key n] is {!find} of the first [min n (String.length
    key)] bytes of [key], hashed with {!hash_prefix} and compared in
    place: the same probe, with no copy of the prefix. *)

val insert : 'a t -> string -> 'a -> unit
(** Bind the hash key, replacing any previous binding. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add t key make] is [key]'s payload, binding it to [make ()]
    first when absent. Atomic under concurrent callers: [make] runs
    under the writer mutex, at most once per key. Metered as {!find}
    followed, on a miss, by {!insert}. *)

val remove : 'a t -> string -> unit
(** Remove the binding if present (used when an ART becomes empty,
    Algorithm 5 lines 15–16). *)

val iter : 'a t -> (string -> 'a -> unit) -> unit
val fold : 'a t -> init:'b -> f:('b -> string -> 'a -> 'b) -> 'b

val map : 'a t -> ('a -> 'b) -> 'b t
(** [map t f] is [t] with every payload passed through [f]: the same
    keys in the same buckets at the same modelled address, so no probe
    is repeated and nothing is metered (a C table would store into the
    payloads in place). [t] must not be used afterwards, and writers
    must be quiesced. *)

val footprint_bytes : 'a t -> int
(** Modelled C footprint: buckets × (8-byte key slot + 8-byte pointer). *)

val check_invariants : 'a t -> unit
(** Every stored key is findable and the occupancy counter is exact.
    Raises [Failure] on violation. Test use. *)
