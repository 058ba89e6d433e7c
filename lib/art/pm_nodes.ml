module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter

type protocol = Write_optimal | Copy_on_write

(* Node contents are charge-modelled (see DESIGN.md): stores and flushes
   are reported to the meter at the node's PM address. *)
let store_persist meter ~addr ~len =
  Meter.write_range meter Pm ~addr ~len;
  Meter.persist_range meter ~addr ~len

(* a fresh node (or a fresh copy): whole-node store + persist, then the
   8-byte atomic link into its parent *)
let write_node meter ~addr ~bytes =
  store_persist meter ~addr ~len:bytes;
  Meter.persist_range meter ~addr ~len:8

let write_optimal meter = function
  | Art.Node_created { addr; bytes } -> write_node meter ~addr ~bytes
  | Art.Node_freed _ -> ()
  | Art.Child_added { addr; slot_off; kind = _ } ->
      (* pointer slot first, then the key/index byte *)
      store_persist meter ~addr:(addr + slot_off) ~len:8;
      store_persist meter ~addr ~len:1
  | Art.Child_replaced { addr; slot_off; kind = _ }
  | Art.Child_removed { addr; slot_off; kind = _ } ->
      store_persist meter ~addr:(addr + slot_off) ~len:8
  | Art.Prefix_changed { addr } -> store_persist meter ~addr ~len:16
  | Art.Here_changed { addr } -> store_persist meter ~addr ~len:8

(* A single aligned 8-byte store is failure-atomic by itself; anything
   wider (the sorted NODE4/16 arrays, NODE48's two locations, the path
   header) is made atomic by copying the node, priced by its size. *)
let copy_on_write meter =
  let node_size = Hashtbl.create 256 in
  let copy_node addr =
    let bytes = Option.value (Hashtbl.find_opt node_size addr) ~default:8 in
    write_node meter ~addr ~bytes
  and atomic_word addr off = store_persist meter ~addr:(addr + off) ~len:8 in
  function
  | Art.Node_created { addr; bytes } ->
      Hashtbl.replace node_size addr bytes;
      write_node meter ~addr ~bytes
  | Art.Node_freed { addr; _ } -> Hashtbl.remove node_size addr
  | Art.Child_added { addr; slot_off; kind } ->
      if kind = 256 || kind = 0 then atomic_word addr slot_off else copy_node addr
  | Art.Child_removed { addr; slot_off; kind } ->
      (* NODE4/16 removals shift the sorted arrays: multi-word *)
      if kind = 4 || kind = 16 then copy_node addr else atomic_word addr slot_off
  | Art.Child_replaced { addr; slot_off; kind = _ } -> atomic_word addr slot_off
  | Art.Prefix_changed { addr } -> copy_node addr
  | Art.Here_changed { addr } -> atomic_word addr 8

let charges = function
  | Write_optimal -> write_optimal
  | Copy_on_write -> copy_on_write

let create ?(count_bytes = ignore) protocol pool =
  let meter = Pmem.meter pool in
  Art.create ~meter ~space:Pm
    ~alloc_node:(fun size ->
      count_bytes (Pmem.block_bytes size);
      Pmem.alloc pool size)
    ~free_node:(fun ~addr ~size ->
      count_bytes (-Pmem.block_bytes size);
      Pmem.free pool ~off:addr ~len:size)
    ~on_event:(charges protocol meter) ()
