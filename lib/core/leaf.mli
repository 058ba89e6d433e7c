(** Persistent leaf-node codec.

    A HART leaf node lives in a PM leaf chunk and stores the {e complete}
    key (hash-key prefix included, "for the purpose of failure recovery",
    §III-A.2) plus a persistent pointer to its out-of-leaf value object
    (Fig. 3). Layout, 40 bytes:

    {v
    offset 0   p_value : u64   pool offset of the value object (0 = none)
    offset 8   key_len : u8    0..24
    offset 9   key     : 24 B  key bytes, zero-padded
    offset 33  padding
    offset 34  key_crc : u32   optional CRC-32 (checksummed pools only)
    offset 38  padding to 40
    v}

    The maximal key length is 24 bytes, as in the paper. The optional
    CRC covers the length byte plus the [key_len] live key bytes only
    (leaf slots are recycled unscrubbed, so fixed-width coverage would
    checksum a previous occupant's stale tail bytes). *)

val max_key_len : int

val size : int
(** Bytes per leaf slot (40). *)

val p_value : Hart_pmem.Pmem.t -> leaf:int -> int
val set_p_value : Hart_pmem.Pmem.t -> leaf:int -> int -> unit
(** Store and persist the value pointer (Algorithm 1 line 13 /
    Algorithm 3 line 8 commit point). *)

val read : Hart_pmem.Pmem.t -> leaf:int -> (int * string, int) result
(** [Ok (p_value, key)] in one pass over the leaf — the leaf key
    comparison a C implementation performs at the end of an ART descent.
    One access reads [[leaf, min (leaf + 33, end of the line holding
    leaf + 8))], a second only the key bytes past that line, so each
    line of [[leaf, leaf + 9 + key_len)] is charged once and no other.
    [Error len] when the stored length byte is outside
    [1..]{!max_key_len} (a corrupt or never-written leaf); no key byte
    is read then, and nothing past the slot ever is. *)

val read_key : Hart_pmem.Pmem.t -> leaf:int -> (string, int) result
(** {!read} without the value pointer: starts at the length byte, so it
    charges the lines of [[leaf + 8, leaf + 9 + key_len)] only (what a
    recovery scan needs). *)

val key : Hart_pmem.Pmem.t -> leaf:int -> string
(** The key of {!read_key}.
    @raise Invalid_argument on an out-of-range length byte. *)

val write_key : ?crc:bool -> Hart_pmem.Pmem.t -> leaf:int -> string -> unit
(** Store and persist key and key length (Algorithm 1 lines 15–16).
    With [~crc:true] also stores the CRC-32 trailer (same persist call;
    the trailer shares the leaf's cache lines, so flush counts are
    unchanged).
    @raise Invalid_argument if the key exceeds {!max_key_len}. *)

val init : ?crc:bool -> Hart_pmem.Pmem.t -> leaf:int -> p_value:int -> string -> unit
(** Store the value pointer and the key (and, with [~crc:true], its
    trailer), then persist them with one call — Algorithm 1 lines 13–16
    with the two leaf persists merged. The leaf is still free (its bit
    unset) when this runs, so no recovery state depends on the order of
    the two stores.
    @raise Invalid_argument if the key exceeds {!max_key_len}. *)

val key_crc_ok : Hart_pmem.Pmem.t -> leaf:int -> string -> bool
(** [key_crc_ok pool ~leaf key]: does the stored CRC trailer match
    [key], as returned by {!read}? Reads the 4-byte trailer only
    (checksummed pools only; meaningless on plain pools). *)

val clear : Hart_pmem.Pmem.t -> leaf:int -> unit
(** Zero the whole leaf without persisting (used when repairing a slot
    that a crashed insertion left half-written). *)
