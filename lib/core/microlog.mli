(** Persistent recycle log of Algorithm 6 (chunk recycling).

    A recycle writes its record only while it holds its object class's
    lock ({!Epalloc}), so at most one record per class is ever in
    flight, and each class writes one fixed slot: its class id (leaf 0,
    val8 1, val16 2, val32 3). Whoever holds a class's lock holds its
    slot. The paper gives each writer thread a log of its own
    ([GetMicroLog]); DESIGN.md §6 item 4. The region is exactly those
    four slots; recovery replays a record in any of them.

    A slot is a triple of 8-byte persistent words at the start of its
    own 64-byte line: [PPrev], [PCurrent], [meta] (low bits: object
    class of the chunk being unlinked). The zero word marks an unused
    field, so crash recovery can classify how far an interrupted unlink
    progressed purely from the durable image.

    A record is written whole: its three words are stored in a fixed
    order and persisted by one single-line flush ({!record}). Because a
    slot never spans two lines, any durable state of the line is either
    the whole record or a prefix of its stores that lacks the last word
    ([PCurrent]), which recovery discards without replaying anything
    (DESIGN.md §6 item 4). A record is reclaimed with one single-line
    flush.

    When the pool is formatted with checksums, every non-zero log word
    carries a CRC-32 of its 32-bit payload in its upper half — the
    values logged are pool offsets and class tags, all below 2{^32}, so
    the trailer rides in the same 8-byte store and changes no flush
    counts. A word whose trailer fails raises a typed
    {!Hart_error.Error} at its [Log_slot] site; the quarantining mount
    discards such records (an unverifiable log record is treated as
    never written). *)

type t

val n_slots : int
(** 4 recycle slots, one per object class. *)

val slot_bytes : int
(** Bytes of a slot's record (three 8-byte words). Slots are laid out
    one per line ({!Hart_pmem.Pmem.line_bytes} apart). *)

val region_bytes : int
(** Bytes of the region after the root-block scalars: [n_slots] lines,
    one slot each. *)

val create : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** [create pool ~base] formats (zeroes and persists) the region
    starting at pool offset [base]. [checksummed] (default false)
    enables the in-word CRC trailers.
    @raise Invalid_argument unless [base] is line-aligned. *)

val attach : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** Adopt an existing region after a crash without reading or modifying
    it. [checksummed] must match the flag the pool was formatted with
    (the caller reads it from the root block). *)

(** A slot is named by its index in \[0, n_slots). *)

val record : t -> slot:int -> pprev:int -> cls:Chunk.cls -> pcurrent:int -> unit
(** Store [PPrev] (0 when the chunk is the list head), the object class
    and [PCurrent] in that order and persist them with one flush, before
    the unlink starts. The class tells recovery which list to repair. *)

val pprev : t -> slot:int -> int
val pcurrent : t -> slot:int -> int
val cls : t -> slot:int -> Chunk.cls

val reclaim : t -> slot:int -> unit
(** Zero the slot's three words without reading them and persist them,
    which reseals the covering line. This ends a replayed or completed
    recycle, and it is the repair for a slot that fails verification or
    sits on a corrupt media line: discarding a record is the torn-record
    treatment, the logged recycle is deemed never to have committed. *)

val iter_pending : t -> (slot:int -> unit) -> unit
(** Every slot whose [PCurrent] is set, in slot order. *)

(** {1 Quarantining-mount hooks} *)

val occupied : t -> slot:int -> bool
(** Whether the slot's [PCurrent] word is non-zero or its line cannot be
    read: the slot may hold a record. Never raises. *)

val verify : t -> (int * int) list
(** Check every non-zero log word's CRC trailer (checksummed logs only;
    [[]] otherwise). Returns the slots containing at least one corrupt
    or unreadable word as [(slot, offset)] pairs. Read-only; never
    raises. *)

val slots_overlapping : t -> lines:int list -> (int * int) list
(** The slots whose 24 bytes overlap any of the given pool lines, as
    [(slot, offset)] pairs — the blast radius of a media fault on a log
    line. *)

val slot_offset : t -> slot:int -> int
(** Pool offset of the slot's first word. *)
