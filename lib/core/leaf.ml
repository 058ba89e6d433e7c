module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let max_key_len = 24
let size = 40
let crc_off = 34

let p_value pool ~leaf = Int64.to_int (Pmem.get_u64 pool leaf)

let set_p_value pool ~leaf v =
  Pmem.set_u64 pool leaf (Int64.of_int v);
  Pmem.persist pool ~off:leaf ~len:8

(* One metered access covers [leaf + from] (0: from the value pointer,
   8: from the length byte) through every key byte on the line holding
   the length byte; a second access fetches the key bytes past that
   line, if any. So the lines charged are exactly those of
   [leaf + from, leaf + 9 + len), each once, and nothing past the key
   field (inside the 40-byte slot) is read. A length byte outside
   1..max_key_len is rejected before any key byte is trusted. *)
let read_from pool ~leaf ~from =
  let line_end = ((leaf + 8) / Pmem.line_bytes + 1) * Pmem.line_bytes in
  let off = leaf + from in
  let stop = min (leaf + 9 + max_key_len) line_end in
  let head = Pmem.get_string pool ~off ~len:(stop - off) in
  let len = Char.code head.[8 - from] in
  if len < 1 || len > max_key_len then Error len
  else
    let have = String.length head - (9 - from) in
    let key =
      if len <= have then String.sub head (9 - from) len
      else
        String.sub head (9 - from) have
        ^ Pmem.get_string pool ~off:(leaf + 9 + have) ~len:(len - have)
    in
    Ok (head, key)

let read pool ~leaf =
  Result.map
    (fun (head, key) -> (Int64.to_int (String.get_int64_le head 0), key))
    (read_from pool ~leaf ~from:0)

let read_key pool ~leaf = Result.map snd (read_from pool ~leaf ~from:8)

let key pool ~leaf =
  match read_key pool ~leaf with
  | Ok k -> k
  | Error len ->
      invalid_arg (Printf.sprintf "Leaf.key: leaf %d stores key length %d" leaf len)

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

let key_crc_ok pool ~leaf k =
  Pmem.get_u32 pool (leaf + crc_off) = key_crc (String.length k) k

let clear pool ~leaf =
  Pmem.set_string pool ~off:leaf (String.make size '\000')
