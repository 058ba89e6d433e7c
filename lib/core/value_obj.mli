(** Persistent value-object codec.

    A value object occupies one slot of a value chunk (class Val8 / Val16
    / Val32) and stores a 1-byte payload length followed by the payload,
    so the commit granularity is a single slot. HART supports
    variable-size values through these size classes (§III-A.5). *)

val write : crc:bool -> Hart_pmem.Pmem.t -> obj:int -> string -> unit
(** Store payload and length, persist the object (Algorithm 1 line 12 /
    Algorithm 3 line 5). [crc] is a plain label, not an optional one, so
    a caller passing the pool's flag boxes no option. With [~crc:true], a CRC-32 of (length byte +
    payload) is appended when the size class leaves ≥ 4 slack bytes —
    class selection is never changed by the trailer; payloads that fill
    their class rely on the pool's per-line ECC instead.
    @raise Invalid_argument beyond 31 bytes. *)

val read : Hart_pmem.Pmem.t -> obj:int -> string
(** Read the payload back: one access for the object's bytes on its
    first line, a second only for payload bytes past it (a Val32 object
    at an odd slot straddles a line; Val8 and Val16 objects never do).
    Each line of [[obj, obj + 1 + len)] is charged once and no other. *)

val crc_ok : Hart_pmem.Pmem.t -> cls:Chunk.cls -> obj:int -> bool
(** Verify the stored trailer where one fits (vacuously true where none
    does). Also [false] when the stored length byte exceeds the class's
    payload capacity. *)

val cls_for : string -> Chunk.cls
(** The value class that stores this payload. *)
