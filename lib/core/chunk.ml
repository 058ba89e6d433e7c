module Pmem = Hart_pmem.Pmem

type cls = Leaf_c | Val8 | Val16 | Val32

let pp_cls ppf = function
  | Leaf_c -> Format.pp_print_string ppf "leaf"
  | Val8 -> Format.pp_print_string ppf "val8"
  | Val16 -> Format.pp_print_string ppf "val16"
  | Val32 -> Format.pp_print_string ppf "val32"

let all_classes = [ Leaf_c; Val8; Val16; Val32 ]
let objs_per_chunk = 56
let obj_size = function Leaf_c -> 32 | Val8 -> 8 | Val16 -> 16 | Val32 -> 32
let prologue = function Leaf_c -> 32 | Val8 | Val16 -> 16 | Val32 -> 96
let chunk_bytes cls = prologue cls + (objs_per_chunk * obj_size cls)

let value_class_for len =
  if len <= 7 then Val8
  else if len <= 15 then Val16
  else if len <= 31 then Val32
  else invalid_arg (Printf.sprintf "value of %d bytes exceeds the 31-byte limit" len)

let alloc ?publish_at pool cls =
  let chunk = Pmem.alloc ?publish_at pool (chunk_bytes cls) in
  (* fresh space is zeroed: PNext null, every leaf slot free — persist
     the prologue so the chunk is recoverable *)
  Pmem.persist pool ~off:chunk ~len:16;
  chunk

let release pool cls ~chunk = Pmem.free pool ~off:chunk ~len:(chunk_bytes cls)
let obj_off cls ~chunk ~idx = chunk + prologue cls + (idx * obj_size cls)

let idx_of_obj cls ~chunk ~obj =
  let idx = (obj - chunk - prologue cls) / obj_size cls in
  if idx < 0 || idx >= objs_per_chunk || obj_off cls ~chunk ~idx <> obj then
    invalid_arg "Chunk.idx_of_obj: offset is not an object of this chunk";
  idx

let pnext pool ~chunk = Int64.to_int (Pmem.get_u64 pool (chunk + 8))

let set_pnext pool ~chunk next =
  Pmem.set_u64 pool (chunk + 8) (Int64.of_int next);
  Pmem.persist pool ~off:(chunk + 8) ~len:8

let iter_slots cls ~chunk f =
  for idx = 0 to objs_per_chunk - 1 do
    f ~idx ~obj:(obj_off cls ~chunk ~idx)
  done
