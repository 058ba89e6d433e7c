(** Persistent micro-logs (update log of Algorithm 3, recycle log of
    Algorithm 6).

    The root block reserves [n_slots] slots of each kind so that
    concurrent writers on distinct ARTs can each hold a log
    ([GetMicroLog] in the paper). A slot is a triple of 8-byte persistent
    words at the start of its own 64-byte line; the zero word marks an
    unused field, so crash recovery can classify how far an interrupted
    operation progressed purely from the durable image.

    Update-log slot: [PLeaf], [POldV], [PNewV].
    Recycle-log slot: [PPrev], [PCurrent], [meta] (low bits: object
    class of the chunk being unlinked).

    A record is written whole: its three words are stored in a fixed
    order and persisted by one single-line flush ([record]). The paper's
    Algorithm 3 persists the words one by one; because a slot never
    spans two lines, any durable state of the line is either the whole
    record or a prefix of its stores that lacks the last word (PNewV,
    resp. PCurrent), which recovery discards without replaying anything
    (DESIGN.md §"deviations").

    A completed update does not reclaim its record: it returns the slot
    to the volatile free set and leaves the record on PM, keeping the
    record's POldV reserved ({!Update.release}) until the slot's next
    record has durably overwritten it ({!Update.record}). While a record
    is durable its POldV is therefore never reallocated, which is what
    lets recovery tell an update in flight from a completed one by the
    leaf alone (DESIGN.md §6). A recycle record is reclaimed with one
    single-line flush.

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
    carries data as busy until the recovery protocol reclaims or keeps
    its record. *)

type t

val n_slots : int
(** 8 of each kind — an upper bound on concurrent writers per HART. *)

val slot_bytes : int
(** Bytes of a slot's record (three 8-byte words). Slots are laid out
    one per line ({!Hart_pmem.Pmem.line_bytes} apart). *)

val region_bytes : int
(** Bytes the two slot arrays occupy after the root-block scalars:
    [2 * n_slots] lines. *)

val create : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** [create pool ~base] formats (zeroes and persists) both slot arrays
    starting at pool offset [base]. [checksummed] (default false)
    enables the in-word CRC trailers.
    @raise Invalid_argument unless [base] is line-aligned. *)

val attach : ?checksummed:bool -> Hart_pmem.Pmem.t -> base:int -> t
(** Adopt existing slot arrays after a crash without modifying them.
    Every slot carrying a record, kept or in flight, is busy until
    recovery reclaims it or keeps it with {!Update.release}.
    [checksummed] must match the flag the pool was formatted with (the
    caller reads it from the root block). *)

val checksummed : t -> bool

val set_acquire_timeout : t -> float option -> unit
(** Bound on how long {!Update.acquire}/{!Recycle.acquire} may block
    when every slot is busy. [None] (the default) blocks forever on the
    condition variable — the historical behavior. [Some seconds] turns
    slot-pool exhaustion into a typed {!Hart_error.Error} whose
    [Log_stall] site dumps the held slots and their owner domains, so a
    wedged holder is diagnosable instead of a silent hang. *)

(** {1 fsck hooks} *)

val verify : t -> (string * int * int) list
(** Check every non-zero log word's CRC trailer (checksummed logs only;
    [[]] otherwise). Returns the slots containing at least one corrupt
    word as [(kind, slot, offset)] triples, [kind] being ["update"] or
    ["recycle"]. Read-only; never raises. *)

val slots_overlapping : t -> line_bytes:int -> lines:int list -> (string * int * int) list
(** The slots whose 24 bytes overlap any of the given pool lines, as
    [(kind, slot, offset)] triples — the blast radius of a media fault
    on a log line. *)

val slot_offset : t -> kind:string -> slot:int -> int
(** Pool offset of the slot's first word. *)

val pending : t -> kind:string -> slot:int -> bool
(** Whether the slot holds a record, in flight or kept (raw non-zero
    key word; does not verify checksums, so safe on corrupt slots). *)

val discard_slot : t -> kind:string -> slot:int -> int
(** Zero the slot's three words, persist them (resealing the covering
    lines), and return the slot to the volatile free set — the repair
    for a slot that fails verification or sits on a corrupt media line.
    Discarding a record is the torn-record treatment: the logged
    operation is deemed never to have committed (a kept record's update
    has completed, so losing it changes nothing). Returns the
    POldV the slot held for a kept update record (0 if none); the
    caller releases its reservation. *)

(** Both sub-modules share the slot-handle convention: a slot is named by
    its index in \[0, n_slots). *)

module Update : sig
  val acquire : t -> int
  (** Claim a free slot; blocks until one is available when all are busy
      (deadlock-free: holders only acquire update→recycle, never the
      reverse, so every held slot is eventually released). Subject to
      {!set_acquire_timeout}. *)

  val record : t -> slot:int -> pleaf:int -> poldv:int -> pnewv:int -> int
  (** Store a zero [PNewV], then [PLeaf], [POldV], [PNewV], and persist
      them with one flush — the commit point of an update. Zeroing
      [PNewV] first means every durable state of the line between the
      kept record it overwrites and the new one lacks [PNewV]. The caller persists the new
      value object first, so a durable record implies a durable value.
      Returns the POldV the slot held for the overwritten record (0 if
      none): that record is durably gone, so the caller releases the
      reservation. *)

  val pleaf : t -> slot:int -> int
  val poldv : t -> slot:int -> int
  val pnewv : t -> slot:int -> int

  val release : t -> slot:int -> held:int -> unit
  (** Return the slot to the volatile free set and keep its record on PM
      — the paper's [LogReclaim], with no PM write. [held] is the record's
      POldV, which the caller has reserved and keeps reserved until
      {!record} returns it (0: nothing held). *)

  val reclaim : t -> slot:int -> unit
  (** Zero the slot, persist, and release it holding nothing: for a
      record that must not outlive its operation (one recovery does not
      keep, or one with no POldV to hold). *)

  val iter_pending : t -> (slot:int -> unit) -> unit
  (** Visit every slot whose [PLeaf] is non-zero (recovery scan). *)
end

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
