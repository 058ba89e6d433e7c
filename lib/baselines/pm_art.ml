module Pmem = Hart_pmem.Pmem
module Art = Hart_art.Art
module Pm_nodes = Hart_art.Pm_nodes

module Make (P : sig
  val name : string
  val magic : int64  (* the registry root block's *)
  val protocol : Pm_nodes.protocol
end) : Hart_core.Index_intf.S = struct
  type t = {
    pool : Pmem.t;
    art : int Art.t;  (* full key -> PM leaf offset *)
    reg : Pm_registry.t;  (* durable leaf set: the recovery ground truth *)
  }

  let name = P.name
  let make pool reg = { pool; art = Pm_nodes.create P.protocol pool; reg }
  let create pool = make pool (Pm_registry.create pool ~magic:P.magic)

  let insert t ~key ~value =
    match Art.find t.art key ~off:0 with
    | Some leaf -> Pm_value.update_leaf t.pool ~leaf value
    | None -> (
        (* leaf + value are fully persisted by [new_leaf]; the registry
           slot persist is this insert's durable commit point *)
        let leaf = Pm_value.new_leaf t.pool ~key ~payload:value in
        Pm_registry.register t.reg leaf;
        match Art.insert t.art key ~off:0 (fun _ leaf -> leaf) leaf with
        | None -> ()
        | Some _ -> assert false)

  let search t key =
    match Art.find t.art key ~off:0 with
    | None -> None
    | Some leaf -> Pm_value.read_leaf t.pool ~leaf key

  let update t ~key ~value =
    match Art.find t.art key ~off:0 with
    | None -> false
    | Some leaf ->
        Pm_value.update_leaf t.pool ~leaf value;
        true

  let delete t key =
    match Art.delete t.art key ~off:0 with
    | None -> false
    | Some leaf ->
        (* deregistration commits the delete before the leaf's space can
           be recycled by a later allocation *)
        Pm_registry.deregister t.reg leaf;
        Pm_value.free_leaf t.pool ~leaf;
        true

  let with_value t f key leaf =
    match Pm_value.read_leaf t.pool ~leaf key with Some v -> f key v | None -> ()

  let range t ~lo ~hi f = Art.range t.art ~lo ~hi (with_value t f)
  let iter t f = Art.iter t.art (with_value t f)
  let count t = Art.count t.art
  let dram_bytes _ = 0
  let pm_bytes t = Pmem.live_bytes t.pool

  (* Inner ART nodes are charge-modelled, so recovery re-links every
     leaf the durable registry names into a fresh ART. Read-only on PM;
     old node blocks leak (the paper's accepted log-less radix leak,
     §IV-F). *)
  let recover pool =
    let t = make pool (Pm_registry.attach pool ~magic:P.magic) in
    Pm_registry.iter t.reg (fun leaf ->
        let key = Hart_core.Leaf.key t.pool ~leaf in
        match Art.insert t.art key ~off:0 (fun _ leaf -> leaf) leaf with
        | None -> ()
        | Some _ -> failwith (P.name ^ ".recover: duplicate key in registry"));
    t

  let check_integrity t =
    let fail fmt = Printf.ksprintf failwith ("%s: " ^^ fmt) P.name in
    Art.check_invariants t.art;
    Pm_registry.check t.reg;
    if Pm_registry.cardinal t.reg <> Art.count t.art then
      fail "registry holds %d leaves but ART has %d" (Pm_registry.cardinal t.reg)
        (Art.count t.art);
    Art.iter t.art (fun key leaf ->
        if not (Pm_registry.registered t.reg leaf) then
          fail "leaf %d (%S) missing from registry" leaf key;
        if not (String.equal (Hart_core.Leaf.key t.pool ~leaf) key) then
          fail "leaf %d key disagrees with ART key %S" leaf key)

  (* The commuting shards. The radix nodes are one shared
     (charge-modelled) structure and [Pm_registry.grow] manipulates a
     shared free list — two concurrent registrations that both observe
     an empty free list would link chunks to the same head and the
     second head swing unlinks the first, losing a committed insert — so
     every insert of a new key and every delete is a restructure and
     runs exclusively. Value updates are leaf-local out-of-place swaps
     ([Pm_value.update_leaf]): new object, 8-byte pointer commit, old
     object freed, with allocation serialised below — they commute
     across distinct keys, so they ride the shared/stripe path. The
     shard id is a short radix prefix, mirroring the subtree
     granularity. These answers hold for both instances: their bodies
     are this one, and the protocols differ only in meter charges.
     (ART+CoW has no concurrent front end, so only WOART's are
     crash-checked.) *)
  let stripe_of_key _ key = Hashtbl.hash (String.sub key 0 (min 2 (String.length key)))
  let volatile_domain_safe = false

  let restructures t ~op ~key =
    match op with
    | `Update -> false
    | `Delete -> true
    | `Insert -> Art.find t.art key ~off:0 = None (* new key: node + registry slot *)
end

module Woart = Make (struct
  let name = "woart"
  let magic = 0x574F4152_54524731L (* "WOARTRG1" *)
  let protocol = Pm_nodes.Write_optimal
end)

module Art_cow = Make (struct
  let name = "art-cow"
  let magic = 0x41525443_4F575231L (* "ARTCOWR1" *)
  let protocol = Pm_nodes.Copy_on_write
end)
