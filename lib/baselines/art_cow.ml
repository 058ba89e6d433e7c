module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Art = Hart_art.Art
module Leaf = Hart_core.Leaf

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  art : int Art.t;
  node_size : (int, int) Hashtbl.t;  (* PM addr -> node bytes, for copies *)
  reg : Pm_registry.t;  (* durable leaf set: the recovery ground truth *)
}

let magic = 0x41525443_4F575231L (* "ARTCOWR1" *)


(* Copy-on-write protocol: a mutation that needs more than one 8-byte
   word (inserting into the sorted NODE4/NODE16 arrays, the two-location
   NODE48 insert, path-header changes) copies the whole node — store +
   persist + 8-byte parent-pointer swap. Mutations that are a single
   aligned word (any pointer overwrite/removal, a NODE256 insert, the
   ends-here slot) are already failure-atomic and need one persist. *)
let protocol t =
  let copy_node addr =
    let bytes =
      match Hashtbl.find_opt t.node_size addr with Some b -> b | None -> 8
    in
    Meter.write_range t.meter Pm ~addr ~len:bytes;
    Meter.persist_range t.meter ~addr ~len:bytes;
    (* swap the parent's pointer to the fresh copy *)
    Meter.persist_range t.meter ~addr ~len:8
  and atomic_word addr off =
    Meter.write_range t.meter Pm ~addr:(addr + off) ~len:8;
    Meter.persist_range t.meter ~addr:(addr + off) ~len:8
  in
  function
  | Art.Node_created { addr; bytes } ->
      Hashtbl.replace t.node_size addr bytes;
      Meter.write_range t.meter Pm ~addr ~len:bytes;
      Meter.persist_range t.meter ~addr ~len:bytes;
      Meter.persist_range t.meter ~addr ~len:8
  | Art.Node_freed { addr; _ } -> Hashtbl.remove t.node_size addr
  | Art.Child_added { addr; slot_off; kind } ->
      if kind = 256 || kind = 0 then atomic_word addr slot_off else copy_node addr
  | Art.Child_removed { addr; slot_off; kind } ->
      (* NODE4/16 removals shift the sorted arrays: multi-word *)
      if kind = 4 || kind = 16 then copy_node addr else atomic_word addr slot_off
  | Art.Child_replaced { addr; slot_off; kind = _ } -> atomic_word addr slot_off
  | Art.Prefix_changed { addr } -> copy_node addr
  | Art.Here_changed { addr } -> atomic_word addr 8

let make ~reg pool =
  let meter = Pmem.meter pool in
  (* the protocol closure only needs the meter and size table, which lets
     the ART be built after them without a reference cycle *)
  let shell =
    { pool; meter; art = Art.create (); node_size = Hashtbl.create 256; reg }
  in
  let art =
    Art.create ~meter ~space:Pm
      ~alloc_node:(fun size -> Pmem.alloc pool size)
      ~free_node:(fun ~addr ~size -> Pmem.free pool ~off:addr ~len:size)
      ~on_event:(protocol shell) ()
  in
  { shell with art }

let create pool = make ~reg:(Pm_registry.create pool ~magic) pool

let update_leaf t ~leaf value = Pm_value.update_leaf t.pool ~leaf value

let insert t ~key ~value =
  match Art.find t.art key with
  | Some leaf -> update_leaf t ~leaf value
  | None -> (
      (* leaf + value are fully persisted by [new_leaf]; the registry
         slot persist is this insert's durable commit point *)
      let leaf = Pm_value.new_leaf t.pool ~key ~payload:value in
      Pm_registry.register t.reg leaf;
      match Art.insert t.art key leaf with
      | `Inserted -> ()
      | `Replaced _ -> assert false)

let read_leaf t ~leaf key = Pm_value.read_leaf t.pool ~leaf key

let search t key =
  match Art.find t.art key with
  | None -> None
  | Some leaf -> read_leaf t ~leaf key

let update t ~key ~value =
  match Art.find t.art key with
  | None -> false
  | Some leaf ->
      update_leaf t ~leaf value;
      true

let delete t key =
  match Art.delete t.art key with
  | None -> false
  | Some leaf ->
      (* deregistration commits the delete before the leaf's space can
         be recycled by a later allocation *)
      Pm_registry.deregister t.reg leaf;
      Pm_value.free_leaf t.pool ~leaf;
      true

let range t ~lo ~hi f =
  Art.range t.art ~lo ~hi (fun key leaf ->
      match read_leaf t ~leaf key with Some v -> f key v | None -> ())

let count t = Art.count t.art
let dram_bytes _ = 0
let pm_bytes t = Pmem.live_bytes t.pool

(* CoW inner nodes are charge-modelled, so recovery re-links every leaf
   the durable registry names into a fresh ART. Read-only on PM. *)
let recover pool =
  let reg = Pm_registry.attach pool ~magic in
  let t = make ~reg pool in
  Pm_registry.iter reg (fun leaf ->
      match Art.insert t.art (Hart_core.Leaf.key t.pool ~leaf) leaf with
      | `Inserted -> ()
      | `Replaced _ -> failwith "Art_cow.recover: duplicate key in registry");
  t

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  Art.check_invariants t.art;
  Pm_registry.check t.reg;
  if Pm_registry.cardinal t.reg <> Art.count t.art then
    fail "Art_cow: registry holds %d leaves but ART has %d"
      (Pm_registry.cardinal t.reg) (Art.count t.art);
  Art.iter t.art (fun key leaf ->
      if not (Pm_registry.registered t.reg leaf) then
        fail "Art_cow: leaf %d (%S) missing from registry" leaf key;
      if not (String.equal (Hart_core.Leaf.key t.pool ~leaf) key) then
        fail "Art_cow: leaf %d key disagrees with ART key %S" leaf key)

(* Index_intf.S conformance, conservative: this baseline has no
   concurrency story in the paper, so it declares a single shard
   (stripe 0) and classifies every mutation as a restructure — the
   functor serialises all writers on the exclusive structure lock and
   readers share it, which is trivially correct. *)
module S : Hart_core.Index_intf.S with type t = t = struct
  type nonrec t = t

  let name = "art-cow"
  let create = create
  let recover = recover
  let insert = insert
  let search = search
  let update = update
  let delete = delete
  let range = range
  let iter t f = range t ~lo:"" ~hi:(String.make 25 '\xff') f
  let count = count
  let dram_bytes = dram_bytes
  let pm_bytes = pm_bytes
  let check_integrity t = check_integrity t
  let stripe_of_key _ _ = 0
  let volatile_domain_safe = false
  let restructures _ ~op:_ ~key:_ = true
end
