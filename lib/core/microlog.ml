module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let n_slots = 4
let slot_bytes = 24

(* Each slot owns a whole line, so writing or reclaiming a record is one
   single-line persist and a line holds at most one slot's record. *)
let region_bytes = n_slots * Pmem.line_bytes

type t = {
  pool : Pmem.t;
  base : int;  (* line-aligned: slot 0's line *)
  checksummed : bool;  (* in-word CRC trailers on every log word *)
}

let make pool ~base ~checksummed =
  if base mod Pmem.line_bytes <> 0 then
    invalid_arg "Microlog: the log region must start on a line boundary";
  { pool; base; checksummed }

let create ?(checksummed = false) pool ~base =
  let t = make pool ~base ~checksummed in
  Pmem.set_string pool ~off:base (String.make region_bytes '\000');
  Pmem.persist pool ~off:base ~len:region_bytes;
  t

let attach ?(checksummed = false) pool ~base = make pool ~base ~checksummed
let slot_offset t ~slot = t.base + (slot * Pmem.line_bytes)

(* In-word CRC trailer (opt-in): log values are pool offsets or class
   tags, all well below 2^32, so the upper half of each 8-byte word is
   free to carry the CRC-32 of the lower half. The trailer travels in
   the same word as the value — same stores, same flushes, atomic with
   it at line granularity — so enabling checksums changes no flush
   counts. The all-zero word (the "empty" marker crash recovery keys on)
   stays all-zero. *)
let crc_of_low v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (v land 0xFFFFFFFF));
  Crc32.bytes_sub b ~off:0 ~len:4

let word_get t ~slot off =
  let raw = Pmem.get_u64 t.pool off in
  if raw = 0L then 0
  else if not t.checksummed then Int64.to_int raw
  else begin
    let low = Int64.to_int (Int64.logand raw 0xFFFFFFFFL) in
    let high = Int64.to_int (Int64.shift_right_logical raw 32) in
    if high <> crc_of_low low then
      Hart_error.error (Log_slot { slot; off })
        "log word @%d fails its CRC (stored %08x, computed %08x)" off high
        (crc_of_low low);
    low
  end

(* Store one word without persisting it: a record's words are stored
   and then persisted together. *)
let word_store t off v =
  let raw =
    if v = 0 || not t.checksummed then Int64.of_int v
    else begin
      if v land 0xFFFFFFFF <> v then
        invalid_arg "Microlog: checksummed log word exceeds 32 bits";
      Int64.logor (Int64.of_int v)
        (Int64.shift_left (Int64.of_int (crc_of_low v)) 32)
    end
  in
  Pmem.set_u64 t.pool off raw

let cls_to_int = function
  | Chunk.Leaf_c -> 0
  | Chunk.Val8 -> 1
  | Chunk.Val16 -> 2
  | Chunk.Val32 -> 3

let cls_of_int ~slot ~off = function
  | 0 -> Chunk.Leaf_c
  | 1 -> Chunk.Val8
  | 2 -> Chunk.Val16
  | 3 -> Chunk.Val32
  | n ->
      Hart_error.error (Log_slot { slot; off })
        "bad class tag %d in recycle log (want 0..3)" n

(* PCurrent is the key word, the one [iter_pending] tests: stored after
   PPrev and the class tag, so recovery never sees a chunk pointer
   without its list identity. The words share the slot's line, so the
   persist is one flush; under TSO a line written back early holds a
   prefix of the stores, and every proper prefix lacks PCurrent. *)
let record t ~slot ~pprev ~cls ~pcurrent =
  let off = slot_offset t ~slot in
  word_store t off pprev;
  word_store t (off + 16) (cls_to_int cls);
  word_store t (off + 8) pcurrent;
  Pmem.persist t.pool ~off ~len:slot_bytes

let pprev t ~slot = word_get t ~slot (slot_offset t ~slot)
let pcurrent t ~slot = word_get t ~slot (slot_offset t ~slot + 8)

let cls t ~slot =
  let off = slot_offset t ~slot + 16 in
  cls_of_int ~slot ~off (word_get t ~slot off)

(* Rewrite the slot to zeroes without reading it, and persist it, which
   reseals the line: a stale record must not survive into a later epoch
   where its chunk offset has been reallocated, and one that fails
   verification, or sits on a line that cannot be read, is as good as
   never written — the logged recycle simply did not commit. *)
let reclaim t ~slot =
  let off = slot_offset t ~slot in
  Pmem.set_string t.pool ~off (String.make slot_bytes '\000');
  Pmem.persist t.pool ~off ~len:slot_bytes

let iter_pending t f =
  for slot = 0 to n_slots - 1 do
    if pcurrent t ~slot <> 0 then f ~slot
  done

let occupied t ~slot =
  match Pmem.get_u64 t.pool (slot_offset t ~slot + 8) with
  | 0L -> false
  | _ | (exception Pmem.Media_poisoned _) -> true

let verify t =
  if not t.checksummed then []
  else begin
    let bad = ref [] in
    for slot = n_slots - 1 downto 0 do
      let off = slot_offset t ~slot in
      let slot_bad = ref false in
      for w = 0 to 2 do
        match Pmem.get_u64 t.pool (off + (8 * w)) with
        | 0L -> ()
        | raw ->
            let low = Int64.to_int (Int64.logand raw 0xFFFFFFFFL) in
            let high = Int64.to_int (Int64.shift_right_logical raw 32) in
            if high <> crc_of_low low then slot_bad := true
        | exception Pmem.Media_poisoned _ -> slot_bad := true
      done;
      if !slot_bad then bad := (slot, off) :: !bad
    done;
    !bad
  end

let slots_overlapping t ~lines =
  let on_lines = Pmem.touches_lines lines in
  let hits = ref [] in
  for slot = n_slots - 1 downto 0 do
    let off = slot_offset t ~slot in
    if on_lines off slot_bytes then hits := (slot, off) :: !hits
  done;
  !hits
