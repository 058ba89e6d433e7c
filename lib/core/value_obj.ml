module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let cls_for payload = Chunk.value_class_for (String.length payload)

(* A CRC-32 trailer is appended only when the payload's size class has
   at least 4 slack bytes after the length byte and payload — class
   selection is unchanged (a payload that exactly fills its class would
   otherwise be pushed up a class, changing allocation behaviour between
   checksummed and plain pools). Values too big for a trailer are still
   covered by the pool's per-line ECC table. *)
let crc_fits cls len = Chunk.obj_size cls - 1 - len >= 4

let value_crc payload = Crc32.string (String.make 1 (Char.chr (String.length payload)) ^ payload)

let write ~crc pool ~obj payload =
  let len = String.length payload in
  let cls = Chunk.value_class_for len in
  Pmem.set_u8 pool obj len;
  if len > 0 then Pmem.set_string pool ~off:(obj + 1) payload;
  if crc && crc_fits cls len then begin
    Pmem.set_u32 pool (obj + 1 + len) (value_crc payload);
    Pmem.persist pool ~off:obj ~len:(1 + len + 4)
  end
  else Pmem.persist pool ~off:obj ~len:(1 + len)

(* One access for the object's bytes on its first line (at most the
   largest object, 32 bytes), a second only for payload bytes past that
   line: each line of [obj, obj + 1 + len) is charged once. The payload
   is copied once, into the result. *)
let read pool ~obj =
  let line_end = (obj / Pmem.line_bytes + 1) * Pmem.line_bytes in
  let first = min (Chunk.obj_size Val32) (line_end - obj) in
  Pmem.fetch pool ~off:obj ~len:first;
  let len = Pmem.peek_u8 pool obj in
  let have = first - 1 in
  if len > have then Pmem.fetch pool ~off:(obj + 1 + have) ~len:(len - have);
  Pmem.peek_string pool ~off:(obj + 1) ~len

let crc_ok pool ~cls ~obj =
  let len = Pmem.get_u8 pool obj in
  len <= Chunk.obj_size cls - 1
  && ((not (crc_fits cls len))
     ||
     let payload =
       if len = 0 then "" else Pmem.get_string pool ~off:(obj + 1) ~len
     in
     Pmem.get_u32 pool (obj + 1 + len) = value_crc payload)
