module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let max_key_len = 24

let key_fits key =
  let n = String.length key in
  n >= 1 && n <= max_key_len

let size = 32
let key_off = 8
let pv_mask = (1 lsl 40) - 1
let hi_mask = 0xFFFFFF0000000000L (* length and CRC bits *)

type slot = Free of int | Live of int * string | Corrupt of int

(* One metered access covers the whole 32-byte slot, which sits on one
   line; a length byte outside 1..max_key_len is rejected before any key
   byte is trusted. *)
let get pool ~leaf = Pmem.get_string pool ~off:leaf ~len:size
let len_of s = Char.code s.[7]
let pv_of s = Int64.to_int (String.get_int64_le s 0) land pv_mask

let slot pool ~leaf =
  let s = get pool ~leaf in
  match len_of s with
  | 0 -> Free (pv_of s)
  | len when len <= max_key_len -> Live (pv_of s, String.sub s key_off len)
  | len -> Corrupt len

let read pool ~leaf =
  let s = get pool ~leaf in
  let len = len_of s in
  if len < 1 || len > max_key_len then Error len
  else Ok (pv_of s, String.sub s key_off len)

let lookup pool ~leaf key =
  Pmem.fetch pool ~off:leaf ~len:size;
  let len = String.length key in
  if len > 0 && Pmem.peek_u8 pool (leaf + 7) = len && Pmem.peek_equal pool ~off:(leaf + key_off) key
  then Pmem.peek_int pool leaf land pv_mask
  else 0

let key pool ~leaf =
  match read pool ~leaf with
  | Ok (_, k) -> k
  | Error len ->
      invalid_arg (Printf.sprintf "Leaf.key: leaf %d stores key length %d" leaf len)

let head pool ~leaf = Pmem.get_u64 pool leaf
let head_len h = Int64.to_int (Int64.shift_right_logical h 56)
let head_p_value h = Int64.to_int h land pv_mask
(* [head]'s one 8-byte access, with no boxed word *)
let p_value pool ~leaf =
  Pmem.fetch pool ~off:leaf ~len:8;
  Pmem.peek_int pool leaf land pv_mask

let set_p_value pool ~leaf ~head v =
  Pmem.set_u64 pool leaf (Int64.logor (Int64.logand head hi_mask) (Int64.of_int v));
  Pmem.persist pool ~off:leaf ~len:8

(* A live head's length byte is at most [max_key_len], so its top bit
   is clear and the word fits an int: [set_int] stores it back exactly. *)
let repoint pool ~leaf v =
  if v land lnot pv_mask <> 0 then
    invalid_arg (Printf.sprintf "Leaf: value pointer %d needs more than 40 bits" v);
  Pmem.set_int pool leaf (Pmem.peek_int pool leaf land lnot pv_mask lor v);
  Pmem.persist pool ~off:leaf ~len:8

(* The CRC covers exactly the length byte plus the [len] live key bytes,
   NOT the fixed 24-byte field: slots are recycled without being
   scrubbed, so the tail of the key field can hold a previous occupant's
   stale bytes. *)
let key_crc len k = Crc32.string (String.make 1 (Char.chr len) ^ k) land 0xFFFF

let make_head ~crc ~p_value k =
  let len = String.length k in
  if len < 1 || len > max_key_len then
    invalid_arg
      (Printf.sprintf "key of %d bytes is outside 1..%d" len max_key_len);
  if p_value land lnot pv_mask <> 0 then
    invalid_arg (Printf.sprintf "Leaf: value pointer %d needs more than 40 bits" p_value);
  let crc = if crc then key_crc len k else 0 in
  Int64.of_int ((len lsl 56) lor (crc lsl 40) lor p_value)

let store ~head_first pool ~leaf k head =
  if head_first then Pmem.set_u64 pool leaf head;
  Pmem.set_string pool ~off:(leaf + key_off) k;
  if not head_first then Pmem.set_u64 pool leaf head;
  Pmem.persist pool ~off:leaf ~len:size

let init ?(crc = false) ?(head_first = false) pool ~leaf ~p_value k =
  store ~head_first pool ~leaf k (make_head ~crc ~p_value k)

let write_key pool ~leaf k =
  let head = make_head ~crc:false ~p_value:0 k in
  store ~head_first:false pool ~leaf k head;
  head

let free pool ~leaf =
  Pmem.set_u8 pool (leaf + 7) 0;
  Pmem.persist pool ~off:leaf ~len:8

let sever pool ~leaf =
  Pmem.set_u64 pool leaf 0L;
  Pmem.persist pool ~off:leaf ~len:8

let key_crc_ok pool ~leaf k =
  Int64.to_int (Int64.shift_right_logical (head pool ~leaf) 40) land 0xFFFF
  = key_crc (String.length k) k
