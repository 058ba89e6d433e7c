module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let max_key_len = 24
let size = 40
let crc_off = 34

let p_value pool ~leaf = Int64.to_int (Pmem.get_u64 pool leaf)

let set_p_value pool ~leaf v =
  Pmem.set_u64 pool leaf (Int64.of_int v);
  Pmem.persist pool ~off:leaf ~len:8

let key_len pool ~leaf = Pmem.get_u8 pool (leaf + 8)

let key pool ~leaf =
  let len = Pmem.get_u8 pool (leaf + 8) in
  if len = 0 then "" else Pmem.get_string pool ~off:(leaf + 9) ~len

(* CRC covers exactly the length byte plus the [len] live key bytes —
   NOT the fixed 24-byte field. Leaf slots are recycled without being
   scrubbed (delete only zeroes p_value), so the tail of the key field
   can hold stale bytes from a previous occupant; a fixed-width CRC
   would go stale with them. *)
let key_crc len k = Crc32.string (String.make 1 (Char.chr len) ^ k)

(* Store the key fields without persisting; returns the end offset
   (relative to [leaf]) of the bytes stored. *)
let store_key ~crc pool ~leaf k =
  let len = String.length k in
  if len > max_key_len then
    invalid_arg
      (Printf.sprintf "key of %d bytes exceeds the %d-byte limit" len max_key_len);
  Pmem.set_u8 pool (leaf + 8) len;
  if len > 0 then Pmem.set_string pool ~off:(leaf + 9) k;
  if crc then begin
    Pmem.set_u32 pool (leaf + crc_off) (key_crc len k);
    crc_off + 4
  end
  else 9 + len

let write_key ?(crc = false) pool ~leaf k =
  let stop = store_key ~crc pool ~leaf k in
  Pmem.persist pool ~off:(leaf + 8) ~len:(stop - 8)

let init ?(crc = false) pool ~leaf ~p_value k =
  Pmem.set_u64 pool leaf (Int64.of_int p_value);
  let stop = store_key ~crc pool ~leaf k in
  Pmem.persist pool ~off:leaf ~len:stop

let key_crc_ok pool ~leaf =
  let len = Pmem.get_u8 pool (leaf + 8) in
  len <= max_key_len
  &&
  let k = if len = 0 then "" else Pmem.get_string pool ~off:(leaf + 9) ~len in
  Pmem.get_u32 pool (leaf + crc_off) = key_crc len k

let clear pool ~leaf =
  Pmem.set_string pool ~off:leaf (String.make size '\000')
