module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Art = Hart_art.Art
module Leaf = Hart_core.Leaf

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  art : int Art.t;  (* full key -> PM leaf offset *)
  reg : Pm_registry.t;  (* durable leaf set: the recovery ground truth *)
}

let magic = 0x574F4152_54524731L (* "WOARTRG1" *)


(* WOART's per-mutation consistency protocol, driven by ART structural
   events. Node contents are charge-modelled (see DESIGN.md): stores and
   flushes are reported to the meter at the node's PM address. *)
let protocol meter = function
  | Art.Node_created { addr; bytes } ->
      Meter.write_range meter Pm ~addr ~len:bytes;
      Meter.persist_range meter ~addr ~len:bytes;
      (* 8-byte atomic link of the node into its parent *)
      Meter.persist_range meter ~addr ~len:8
  | Art.Node_freed _ -> ()
  | Art.Child_added { addr; slot_off; kind = _ } ->
      (* pointer slot first, then the key/index byte: two ordered
         8-byte-or-less persists *)
      Meter.write_range meter Pm ~addr:(addr + slot_off) ~len:8;
      Meter.persist_range meter ~addr:(addr + slot_off) ~len:8;
      Meter.write_range meter Pm ~addr ~len:1;
      Meter.persist_range meter ~addr ~len:1
  | Art.Child_replaced { addr; slot_off; kind = _ }
  | Art.Child_removed { addr; slot_off; kind = _ } ->
      Meter.write_range meter Pm ~addr:(addr + slot_off) ~len:8;
      Meter.persist_range meter ~addr:(addr + slot_off) ~len:8
  | Art.Prefix_changed { addr } ->
      Meter.write_range meter Pm ~addr ~len:16;
      Meter.persist_range meter ~addr ~len:16
  | Art.Here_changed { addr } ->
      Meter.write_range meter Pm ~addr ~len:8;
      Meter.persist_range meter ~addr ~len:8

let make_art pool meter =
  Art.create ~meter ~space:Pm
    ~alloc_node:(fun size -> Pmem.alloc pool size)
    ~free_node:(fun ~addr ~size -> Pmem.free pool ~off:addr ~len:size)
    ~on_event:(protocol meter) ()

let create pool =
  let meter = Pmem.meter pool in
  let reg = Pm_registry.create pool ~magic in
  { pool; meter; art = make_art pool meter; reg }

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

(* Inner ART nodes are charge-modelled, so recovery re-links every leaf
   the durable registry names into a fresh ART. Read-only on PM; old
   node blocks leak (the paper's accepted log-less radix leak, §IV-F). *)
let recover pool =
  let meter = Pmem.meter pool in
  let reg = Pm_registry.attach pool ~magic in
  let t = { pool; meter; art = make_art pool meter; reg } in
  Pm_registry.iter reg (fun leaf ->
      match Art.insert t.art (Hart_core.Leaf.key t.pool ~leaf) leaf with
      | `Inserted -> ()
      | `Replaced _ -> failwith "Woart.recover: duplicate key in registry");
  t

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  Art.check_invariants t.art;
  Pm_registry.check t.reg;
  if Pm_registry.cardinal t.reg <> Art.count t.art then
    fail "Woart: registry holds %d leaves but ART has %d"
      (Pm_registry.cardinal t.reg) (Art.count t.art);
  Art.iter t.art (fun key leaf ->
      if not (Pm_registry.registered t.reg leaf) then
        fail "Woart: leaf %d (%S) missing from registry" leaf key;
      if not (String.equal (Hart_core.Leaf.key t.pool ~leaf) key) then
        fail "Woart: leaf %d key disagrees with ART key %S" leaf key)

let iter t f =
  Art.iter t.art (fun key leaf ->
      match read_leaf t ~leaf key with Some v -> f key v | None -> ())

(* Index_intf.S conformance. WOART's radix nodes are one shared
   (charge-modelled) structure and [Pm_registry.grow] manipulates a
   shared free list — two concurrent registrations that both observe an
   empty free list would link chunks to the same head and the second
   head swing unlinks the first, losing a committed insert — so every
   insert of a new key and every delete is a restructure and runs
   exclusively. Value updates are leaf-local out-of-place swaps
   ([Pm_value.update_leaf]): new object, 8-byte pointer commit, old
   object freed, with allocation serialised below — they commute across
   distinct keys, so they ride the shared/stripe path. The shard id is
   a short radix prefix, mirroring the subtree granularity. *)
module S : Hart_core.Index_intf.S with type t = t = struct
  type nonrec t = t

  let name = "woart"
  let create = create
  let recover = recover
  let insert = insert
  let search = search
  let update = update
  let delete = delete
  let range = range
  let iter = iter
  let count = count
  let dram_bytes = dram_bytes
  let pm_bytes = pm_bytes
  let check_integrity t = check_integrity t

  let stripe_of_key _ key =
    Hashtbl.hash (String.sub key 0 (min 2 (String.length key)))

  let volatile_domain_safe = false

  let restructures t ~op ~key =
    match op with
    | `Update -> false
    | `Delete -> true
    | `Insert -> Art.find t.art key = None (* new key: node + registry slot *)
end
