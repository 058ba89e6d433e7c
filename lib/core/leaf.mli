(** Persistent leaf-node codec.

    A HART leaf node lives in a PM leaf chunk and stores the {e complete}
    key (hash-key prefix included, "for the purpose of failure recovery",
    §III-A.2) plus a persistent pointer to its out-of-leaf value object
    (Fig. 3). Layout, 32 bytes, 32-aligned in a leaf chunk so a leaf
    never straddles a cache line:

    {v
    offset 0   head    : u64   bits  0..39 p_value (pool offset of the value, 0 = none)
                               bits 40..55 key CRC-16 (checksummed pools; 0 otherwise)
                               bits 56..63 key_len, 0..24
    offset 8   key     : 24 B  key bytes (only [key_len] are meaningful)
    v}

    The maximal key length is 24 bytes, as in the paper. The length byte
    is the leaf's commit point: a slot is live when it is non-zero and
    free when it is zero. An insert stores the key bytes, then the head,
    and persists the slot once; a prefix of those stores that lacks the
    head leaves the slot free. A free slot keeps its [p_value], and a
    free slot that names a value owns it (DESIGN.md §6 item 1).

    The optional CRC is the low 16 bits of a CRC-32 over the length byte
    plus the [key_len] live key bytes (slots are recycled unscrubbed, so
    fixed-width coverage would checksum a previous occupant's stale tail
    bytes). Pool offsets must stay below 2{^40}. *)

val max_key_len : int

val key_fits : string -> bool
(** Whether [key] is 1..{!max_key_len} bytes: the key limit HART and
    the byte-stored baselines share. *)

val size : int
(** Bytes per leaf slot (32). *)

type slot =
  | Free of int  (** length 0; the value pointer it still holds, 0 for none *)
  | Live of int * string  (** value pointer and key *)
  | Corrupt of int  (** a length byte outside [0..]{!max_key_len} *)

val slot : Hart_pmem.Pmem.t -> leaf:int -> slot
(** The slot as recovery sees it, in one metered access of its 32
    bytes (one line). *)

val read : Hart_pmem.Pmem.t -> leaf:int -> (int * string, int) result
(** [Ok (p_value, key)] of a live slot in one access of its one line —
    the leaf key comparison a C implementation performs at the end of an
    ART descent. [Error len] when the length byte is outside
    [1..]{!max_key_len}: 0 for a free slot, anything else for a corrupt
    one. *)

val lookup : Hart_pmem.Pmem.t -> leaf:int -> string -> int
(** [lookup pool ~leaf key] is the value pointer of a live slot storing
    [key], and 0 for any other slot: {!read}'s one access, with the key
    compared in place and nothing allocated. *)

val key : Hart_pmem.Pmem.t -> leaf:int -> string
(** The key of {!read}.
    @raise Invalid_argument on a free slot or an out-of-range length. *)

val head : Hart_pmem.Pmem.t -> leaf:int -> int64
(** The head word (one 8-byte read). *)

val head_len : int64 -> int
val head_p_value : int64 -> int

val p_value : Hart_pmem.Pmem.t -> leaf:int -> int
(** [head_p_value (head pool ~leaf)], in the same one access, with no
    boxed word. *)

val set_p_value : Hart_pmem.Pmem.t -> leaf:int -> head:int64 -> int -> unit
(** Store [head] with its value pointer replaced — one 8-byte store that
    keeps the length and CRC bits — and persist it (Algorithm 3's commit
    point). [head] is the word the caller read. *)

val repoint : Hart_pmem.Pmem.t -> leaf:int -> int -> unit
(** {!set_p_value} of a live slot's own head, with no boxed word: the
    pointer replaced in the head as the slot holds it (read unmetered,
    the caller having read it with {!p_value}), stored and persisted.
    The slot must be live. *)

val init :
  ?crc:bool ->
  ?head_first:bool ->
  Hart_pmem.Pmem.t ->
  leaf:int ->
  p_value:int ->
  string ->
  unit
(** Commit a key into a free slot (Algorithm 1 lines 13–18): store the
    key bytes, then the head (with [~crc:true] carrying the key CRC),
    then persist the slot once. [~head_first:true] reverses the two
    stores: test-only, the order {!Epalloc.Head_before_key} reinstates.
    @raise Invalid_argument if the key is not 1..{!max_key_len} bytes or
    [p_value] is no offset below 2{^40}. *)

val write_key : Hart_pmem.Pmem.t -> leaf:int -> string -> int64
(** {!init} with a null value pointer and no CRC; returns the head it
    stored, for a following {!set_p_value}. The baselines' leaf
    protocol (key, then value, then pointer). *)

val free : Hart_pmem.Pmem.t -> leaf:int -> unit
(** Store and persist a zero length byte: the slot is free and keeps
    its value pointer (Algorithm 5's commit point). *)

val sever : Hart_pmem.Pmem.t -> leaf:int -> unit
(** Store and persist a zero head: the slot is free and names nothing. *)

val key_crc_ok : Hart_pmem.Pmem.t -> leaf:int -> string -> bool
(** Does the head's CRC match [key], as returned by {!read}? Reads the
    head only (checksummed pools only; meaningless on plain pools). *)
