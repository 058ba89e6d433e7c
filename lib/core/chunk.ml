module Pmem = Hart_pmem.Pmem
module Bits = Hart_util.Bits

type cls = Leaf_c | Val8 | Val16 | Val32

let pp_cls ppf = function
  | Leaf_c -> Format.pp_print_string ppf "leaf"
  | Val8 -> Format.pp_print_string ppf "val8"
  | Val16 -> Format.pp_print_string ppf "val16"
  | Val32 -> Format.pp_print_string ppf "val32"

let all_classes = [ Leaf_c; Val8; Val16; Val32 ]
let objs_per_chunk = 56
let obj_size = function Leaf_c -> 40 | Val8 -> 8 | Val16 -> 16 | Val32 -> 32
let chunk_bytes cls = 16 + (objs_per_chunk * obj_size cls)

let value_class_for len =
  if len <= 7 then Val8
  else if len <= 15 then Val16
  else if len <= 31 then Val32
  else invalid_arg (Printf.sprintf "value of %d bytes exceeds the 31-byte limit" len)

let alloc ?publish_at pool cls =
  let chunk = Pmem.alloc ?publish_at pool (chunk_bytes cls) in
  (* fresh space is zeroed: bitmap empty, hint 0, indicator available,
     PNext null — persist the prologue so the chunk is recoverable *)
  Pmem.persist pool ~off:chunk ~len:16;
  chunk

let release pool cls ~chunk = Pmem.free pool ~off:chunk ~len:(chunk_bytes cls)
let obj_off cls ~chunk ~idx = chunk + 16 + (idx * obj_size cls)

let idx_of_obj cls ~chunk ~obj =
  let idx = (obj - chunk - 16) / obj_size cls in
  if idx < 0 || idx >= objs_per_chunk || obj_off cls ~chunk ~idx <> obj then
    invalid_arg "Chunk.idx_of_obj: offset is not an object of this chunk";
  idx

let header pool ~chunk = Pmem.get_u64 pool chunk
let bitmap_of_header h = Int64.logand h 0xFFFFFFFFFFFFFFL
let bitmap pool ~chunk = bitmap_of_header (header pool ~chunk)

let header_of_bitmap bitmap =
  let hint =
    match Bits.lowest_zero bitmap ~width:objs_per_chunk with
    | Some i -> i
    | None -> 0
  in
  let full = if Bits.popcount bitmap = objs_per_chunk then 1 else 0 in
  let top = Int64.of_int ((full lsl 6) lor hint) in
  Int64.logor bitmap (Int64.shift_left top 56)

let full_mask = (1 lsl objs_per_chunk) - 1
let full_flag = Int64.shift_left 1L 62

(* [header_of_bitmap] on a native-int bitmap: the next-free hint is the
   lowest set bit of the free mask, found 32 bits at a time *)
let header_of_bits bits =
  let free = lnot bits land full_mask in
  if free = 0 then Int64.logor (Int64.of_int bits) full_flag
  else
    let lo = free land 0xFFFF_FFFF in
    let hint = if lo <> 0 then Bits.ctz_w lo else 32 + Bits.ctz_w (free lsr 32) in
    Int64.of_int (bits lor (hint lsl 56))

let write_header pool ~chunk bits =
  Pmem.set_u64 pool chunk (header_of_bits bits);
  Pmem.persist pool ~off:chunk ~len:8

let test_bit pool ~chunk ~idx = Bits.test (bitmap pool ~chunk) idx

let set_bit pool ~chunk ~idx =
  write_header pool ~chunk (Int64.to_int (bitmap pool ~chunk) lor (1 lsl idx))

let reset_bit pool ~chunk ~idx =
  write_header pool ~chunk (Int64.to_int (bitmap pool ~chunk) land lnot (1 lsl idx))

let is_empty pool ~chunk = bitmap pool ~chunk = 0L
let is_full pool ~chunk = Bits.popcount (bitmap pool ~chunk) = objs_per_chunk

let next_free_hint pool ~chunk =
  Int64.to_int (Int64.shift_right_logical (header pool ~chunk) 56) land 0x3F

let full_indicator pool ~chunk =
  Int64.to_int (Int64.shift_right_logical (header pool ~chunk) 62) land 0x3

let pnext pool ~chunk = Int64.to_int (Pmem.get_u64 pool (chunk + 8))

let set_pnext pool ~chunk next =
  Pmem.set_u64 pool (chunk + 8) (Int64.of_int next);
  Pmem.persist pool ~off:(chunk + 8) ~len:8

let iter_slots pool cls ~chunk f =
  let bm = bitmap pool ~chunk in
  for idx = 0 to objs_per_chunk - 1 do
    f ~idx ~obj:(obj_off cls ~chunk ~idx) ~live:(Bits.test bm idx)
  done
