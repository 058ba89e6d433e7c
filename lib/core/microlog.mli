(** Persistent micro-log of Algorithm 6 (chunk recycling).

    The root block reserves [n_slots] recycle slots so that concurrent
    writers on distinct ARTs can each hold a log ([GetMicroLog] in the
    paper). A slot is a triple of 8-byte persistent words at the start
    of its own 64-byte line; the zero word marks an unused field, so
    crash recovery can classify how far an interrupted unlink progressed
    purely from the durable image.

    Recycle-log slot: [PPrev], [PCurrent], [meta] (low bits: object
    class of the chunk being unlinked).

    A record is written whole: its three words are stored in a fixed
    order and persisted by one single-line flush ([Recycle.record]).
    Because a slot never spans two lines, any durable state of the line
    is either the whole record or a prefix of its stores that lacks the
    last word ([PCurrent]), which recovery discards without replaying
    anything (DESIGN.md §6 item 4). A record is reclaimed with one
    single-line flush.

    The region keeps the v02 layout: [n_slots] lines of update-log slots
    come first. Updates no longer log (DESIGN.md §6 item 3), so nothing
    reads or writes them, apart from media repair, which reseals a
    damaged line; a record an older image left there is ignored.

    When the pool is formatted with checksums, every non-zero log word
    carries a CRC-32 of its 32-bit payload in its upper half — the
    values logged are pool offsets and class tags, all below 2{^32}, so
    the trailer rides in the same 8-byte store and changes no flush
    counts. A word whose trailer fails raises a typed
    {!Hart_error.Error} at its [Log_slot] site; fsck discards such
    records (an unverifiable log record is treated as never written).

    Slot acquisition is tracked by a volatile bitmask (no PM traffic)
    guarded by a mutex, so domains can acquire and release slots
    concurrently; after a crash, {!attach} marks every slot that still
    carries a record as busy until recovery replays and reclaims it. *)

type t

val n_slots : int
(** 8 of each kind — an upper bound on concurrent writers per HART. *)

val slot_bytes : int
(** Bytes of a slot's record (three 8-byte words). Slots are laid out
    one per line ({!Hart_pmem.Pmem.line_bytes} apart). *)

val region_bytes : int
(** Bytes the two slot arrays of the v02 layout occupy after the
    root-block scalars: [2 * n_slots] lines. *)

val create : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** [create pool ~base] formats (zeroes and persists) the region
    starting at pool offset [base]. [checksummed] (default false)
    enables the in-word CRC trailers.
    @raise Invalid_argument unless [base] is line-aligned. *)

val attach : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** Adopt existing slot arrays after a crash without modifying them.
    Every recycle slot carrying a record, or whose line cannot be read,
    is busy until recovery reclaims or discards it. [checksummed] must
    match the flag the pool was formatted with (the
    caller reads it from the root block). *)

val checksummed : t -> bool

val in_use : t -> slot:int -> bool
(** Whether the recycle slot is out of the volatile free set: held by a
    recycle in flight, or, after {!attach}, because its line held a
    record or could not be read. Reads no PM. *)

val set_acquire_timeout : t -> float option -> unit
(** Bound on how long {!Recycle.acquire} may block
    when every slot is busy. [None] (the default) blocks forever on the
    condition variable — the historical behavior. [Some seconds] turns
    slot-pool exhaustion into a typed {!Hart_error.Error} whose
    [Log_stall] site dumps the held slots and their owner domains, so a
    wedged holder is diagnosable instead of a silent hang. *)

(** {1 fsck hooks} *)

val verify : t -> (string * int * int) list
(** Check every non-zero log word's CRC trailer (checksummed logs only;
    [[]] otherwise). Returns the slots containing at least one corrupt
    or unreadable word as [(kind, slot, offset)] triples, [kind] being
    ["update"] or ["recycle"]. Read-only; never raises. *)

val slots_overlapping : t -> lines:int list -> (string * int * int) list
(** The slots whose 24 bytes overlap any of the given pool lines, as
    [(kind, slot, offset)] triples — the blast radius of a media fault
    on a log line. *)

val slot_offset : t -> kind:string -> slot:int -> int
(** Pool offset of the slot's first word. *)

val discard_slot : t -> kind:string -> slot:int -> unit
(** Zero the slot's three words without reading them, persist them
    (resealing the covering line), and return a recycle slot to the
    volatile free set — the repair for a slot that fails verification or
    sits on a corrupt media line. Discarding a record is the torn-record
    treatment: the logged operation is deemed never to have
    committed. *)

(** A slot is named by its index in \[0, n_slots). *)

module Recycle : sig
  val acquire : t -> int
  val record : t -> slot:int -> pprev:int -> cls:Chunk.cls -> pcurrent:int -> unit
  (** Store [PPrev] (0 when the chunk is the list head), the object class
      and [PCurrent] in that order and persist them with one flush, before
      the unlink starts. The class tells recovery which list to repair. *)

  val pprev : t -> slot:int -> int
  val pcurrent : t -> slot:int -> int
  val cls : t -> slot:int -> Chunk.cls
  val reclaim : t -> slot:int -> unit
  val iter_pending : t -> (slot:int -> unit) -> unit
end
