module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter

(* A node: an 8-byte header (depth + compressed nibble path, updated
   atomically per WORT's protocol) and 16 child slots. *)
let node_bytes = 8 + (16 * 8)

type child = CEmpty | CNode of node | CLeaf of int (* leaf pool offset *)

and node = {
  mutable prefix : int array;  (* compressed path, nibble values 0-15 *)
  mutable here : int;  (* leaf whose key ends at this node; 0 = none *)
  kids : child array;  (* 16 *)
  mutable nkids : int;
  addr : int;
}

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  reg : Pm_registry.t;  (* durable leaf set: the recovery ground truth *)
  mutable root : child;
  mutable count : int;
}

let magic = 0x574F5254_52454731L (* "WORTREG1" *)

let create pool =
  {
    pool;
    meter = Pmem.meter pool;
    reg = Pm_registry.create pool ~magic;
    root = CEmpty;
    count = 0;
  }
let count t = t.count
let dram_bytes _ = 0
let pm_bytes t = Pmem.live_bytes t.pool

(* ------------------------------------------------------------------ *)
(* Nibbles                                                             *)

let total_nibbles key = 2 * String.length key

let nibble key i =
  let b = Char.code key.[i / 2] in
  if i land 1 = 0 then b lsr 4 else b land 0xF

(* common length of [prefix] and the key's nibbles starting at [d] *)
let common_prefix_len prefix key d =
  let limit = min (Array.length prefix) (total_nibbles key - d) in
  let rec go i = if i < limit && prefix.(i) = nibble key (d + i) then go (i + 1) else i in
  go 0

(* ------------------------------------------------------------------ *)
(* Charged node operations                                             *)

let touch t addr = Meter.access t.meter Pm ~addr ~write:false
let slot_addr n c = n.addr + 8 + (c * 8)

let persist_slot t n c =
  Meter.write_range t.meter Pm ~addr:(slot_addr n c) ~len:8;
  Meter.persist_range t.meter ~addr:(slot_addr n c) ~len:8

(* WORT's single 8-byte atomic header (depth + path) update *)
let persist_header t n =
  Meter.write_range t.meter Pm ~addr:n.addr ~len:8;
  Meter.persist_range t.meter ~addr:n.addr ~len:8

let new_node t ~prefix =
  let addr = Pmem.alloc t.pool node_bytes in
  Meter.write_range t.meter Pm ~addr ~len:node_bytes;
  Meter.persist_range t.meter ~addr ~len:node_bytes;
  { prefix; here = 0; kids = Array.make 16 CEmpty; nkids = 0; addr }

let free_node t n = Pmem.free t.pool ~off:n.addr ~len:node_bytes

let set_kid t n c child =
  (match (n.kids.(c), child) with
  | CEmpty, CEmpty -> ()
  | CEmpty, _ -> n.nkids <- n.nkids + 1
  | _, CEmpty -> n.nkids <- n.nkids - 1
  | _, _ -> ());
  n.kids.(c) <- child;
  persist_slot t n c

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let find_leaf t key =
  let nk = total_nibbles key in
  let rec go child d =
    match child with
    | CEmpty -> 0
    | CLeaf leaf -> leaf (* validated by the caller's PM key compare *)
    | CNode n ->
        touch t n.addr;
        let m = common_prefix_len n.prefix key d in
        if m < Array.length n.prefix then 0
        else
          let d = d + m in
          if d = nk then n.here
          else begin
            let c = nibble key d in
            touch t (slot_addr n c);
            go n.kids.(c) (d + 1)
          end
  in
  go t.root 0

let search t key =
  if String.length key = 0 then None
  else
    match find_leaf t key with
    | 0 -> None
    | leaf -> Pm_value.read_leaf t.pool ~leaf key

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

let sub_nibbles key d len = Array.init len (fun i -> nibble key (d + i))

(* join an existing leaf (with [lkey]) and a fresh leaf for [key], both
   diverging at nibble [d] *)
let join_leaves t ~lkey ~leaf ~key ~new_leaf d =
  let m =
    let limit = min (total_nibbles lkey) (total_nibbles key) - d in
    let rec go i =
      if i < limit && nibble lkey (d + i) = nibble key (d + i) then go (i + 1) else i
    in
    go 0
  in
  let n = new_node t ~prefix:(sub_nibbles key d m) in
  let d' = d + m in
  let place k l =
    if total_nibbles k = d' then n.here <- l
    else begin
      let c = nibble k d' in
      n.kids.(c) <- (match n.kids.(c) with CEmpty -> n.nkids <- n.nkids + 1; CLeaf l | _ -> assert false)
    end
  in
  place lkey leaf;
  place key new_leaf;
  CNode n

(* Structural insertion of an existing PM leaf under [key] — shared by
   the insert hot path and registry-driven recovery. *)
let link_leaf t ~key new_leaf =
  let nk = total_nibbles key in
      let rec go child d : child =
        match child with
        | CEmpty -> CLeaf new_leaf
        | CLeaf leaf ->
            let lkey = Hart_core.Leaf.key t.pool ~leaf in
            join_leaves t ~lkey ~leaf ~key ~new_leaf d
        | CNode n ->
            let plen = Array.length n.prefix in
            let m = common_prefix_len n.prefix key d in
            if m < plen then begin
              (* split the compressed path: a fresh parent, then one
                 atomic header update shortens the old node's path *)
              let parent = new_node t ~prefix:(Array.sub n.prefix 0 m) in
              let old_c = n.prefix.(m) in
              n.prefix <- Array.sub n.prefix (m + 1) (plen - m - 1);
              persist_header t n;
              parent.kids.(old_c) <- CNode n;
              parent.nkids <- 1;
              let d' = d + m in
              if d' = nk then parent.here <- new_leaf
              else begin
                parent.kids.(nibble key d') <- CLeaf new_leaf;
                parent.nkids <- parent.nkids + 1
              end;
              CNode parent
            end
            else begin
              let d = d + plen in
              if d = nk then begin
                (* the ends-here slot commits with one pointer store *)
                n.here <- new_leaf;
                persist_slot t n 0;
                child
              end
              else begin
                let c = nibble key d in
                let sub = go n.kids.(c) (d + 1) in
                if
                  match (sub, n.kids.(c)) with
                  | CNode a, CNode b -> a != b
                  | CLeaf a, CLeaf b -> a <> b
                  | CEmpty, CEmpty -> false
                  | _, _ -> true
                then set_kid t n c sub;
                child
              end
            end
      in
  let root' = go t.root 0 in
  (match (root', t.root) with
  | CNode a, CNode b when a == b -> ()
  | _ ->
      t.root <- root';
      (* root pointer is an 8-byte persistent word *)
      Meter.persist_range t.meter ~addr:0 ~len:8);
  t.count <- t.count + 1

let insert t ~key ~value =
  if not (Hart_core.Leaf.key_fits key) then
    invalid_arg "Wort.insert: key must be 1..24 bytes";
  match find_leaf t key with
  | leaf when leaf <> 0 && String.equal (Hart_core.Leaf.key t.pool ~leaf) key ->
      Pm_value.update_leaf t.pool ~leaf value
  | _ ->
      (* leaf + value object are fully persisted by [new_leaf]; the
         registry slot persist is the durable commit of this insert *)
      let leaf = Pm_value.new_leaf t.pool ~key ~payload:value in
      Pm_registry.register t.reg leaf;
      link_leaf t ~key leaf

(* ------------------------------------------------------------------ *)
(* Update / delete                                                     *)

let update t ~key ~value =
  match find_leaf t key with
  | 0 -> false
  | leaf ->
      if String.equal (Hart_core.Leaf.key t.pool ~leaf) key then begin
        Pm_value.update_leaf t.pool ~leaf value;
        true
      end
      else false

let delete t key =
  let found = ref 0 in
  let nk = total_nibbles key in
  let rec go child d : child =
    match child with
    | CEmpty -> child
    | CLeaf leaf ->
        if String.equal (Hart_core.Leaf.key t.pool ~leaf) key then begin
          found := leaf;
          CEmpty
        end
        else child
    | CNode n ->
        let plen = Array.length n.prefix in
        let m = common_prefix_len n.prefix key d in
        if m < plen then child
        else begin
          let d = d + plen in
          (if d = nk then begin
             if n.here <> 0 then begin
               let leaf = n.here in
               if String.equal (Hart_core.Leaf.key t.pool ~leaf) key then begin
                 found := leaf;
                 n.here <- 0;
                 persist_slot t n 0
               end
             end
           end
           else
             let c = nibble key d in
             let sub = go n.kids.(c) (d + 1) in
             if
               match (sub, n.kids.(c)) with
               | CNode a, CNode b -> a != b
               | CLeaf a, CLeaf b -> a <> b
               | CEmpty, CEmpty -> false
               | _, _ -> true
             then set_kid t n c sub);
          (* restore path-compression minimality *)
          if !found <> 0 then begin
            if n.nkids = 0 && n.here = 0 then begin
              free_node t n;
              CEmpty
            end
            else if n.nkids = 1 && n.here = 0 then begin
              let only = ref (-1) in
              Array.iteri (fun c k -> if k <> CEmpty && !only < 0 then only := c) n.kids;
              match n.kids.(!only) with
              | CNode m2 ->
                  m2.prefix <- Array.concat [ n.prefix; [| !only |]; m2.prefix ];
                  persist_header t m2;
                  free_node t n;
                  CNode m2
              | CLeaf l ->
                  free_node t n;
                  CLeaf l
              | CEmpty -> assert false
            end
            else child
          end
          else child
        end
  in
  let root' = go t.root 0 in
  if !found <> 0 then begin
    (match (root', t.root) with
    | CNode a, CNode b when a == b -> ()
    | CLeaf a, CLeaf b when a = b -> ()
    | _ ->
        t.root <- root';
        Meter.persist_range t.meter ~addr:0 ~len:8);
    (* deregistration (persisted zero slot) commits the delete before
       the leaf's space can be recycled *)
    Pm_registry.deregister t.reg !found;
    Pm_value.free_leaf t.pool ~leaf:!found;
    t.count <- t.count - 1;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Ordered traversal                                                   *)

let iter_leaves t f =
  let rec go child =
    match child with
    | CEmpty -> ()
    | CLeaf leaf -> f leaf
    | CNode n ->
        if n.here <> 0 then f n.here;
        Array.iter go n.kids
  in
  go t.root

let range t ~lo ~hi f =
  (* in-order leaf walk with early stop; keys come from PM leaves *)
  let exception Done in
  (try
     iter_leaves t (fun leaf ->
         let key = Hart_core.Leaf.key t.pool ~leaf in
         if key > hi then raise Done
         else if key >= lo then
           match Pm_value.read_leaf t.pool ~leaf key with
           | Some v -> f key v
           | None -> ())
   with Done -> ())

let height t =
  let rec go child =
    match child with
    | CEmpty -> 0
    | CLeaf _ -> 1
    | CNode n -> 1 + Array.fold_left (fun acc k -> max acc (go k)) 0 n.kids
  in
  go t.root

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaves = ref 0 in
  let rec go child path =
    match child with
    | CEmpty -> ()
    | CLeaf leaf ->
        incr leaves;
        let key = Hart_core.Leaf.key t.pool ~leaf in
        let nk = total_nibbles key in
        if nk < List.length path then fail "leaf key %S shorter than its path" key;
        List.iteri
          (fun i nib ->
            if nibble key i <> nib then fail "leaf key %S disagrees with path" key)
          (List.rev (List.rev path));
        ()
    | CNode n ->
        let path = path @ Array.to_list n.prefix in
        let pop = n.nkids in
        let real = Array.fold_left (fun a k -> if k = CEmpty then a else a + 1) 0 n.kids in
        if pop <> real then fail "nkids %d but %d populated slots" pop real;
        if real = 0 && n.here = 0 then fail "empty node survived";
        if real = 1 && n.here = 0 then fail "non-minimal path compression";
        if n.here <> 0 then begin
          incr leaves;
          let key = Hart_core.Leaf.key t.pool ~leaf:n.here in
          if total_nibbles key <> List.length path then
            fail "ends-here leaf %S does not end at its node" key
        end;
        Array.iteri (fun c k -> go k (path @ [ c ])) n.kids
  in
  go t.root [];
  if !leaves <> t.count then fail "count %d but %d leaves" t.count !leaves;
  if Pm_registry.cardinal t.reg <> t.count then
    fail "registry holds %d leaves but tree has %d"
      (Pm_registry.cardinal t.reg) t.count;
  iter_leaves t (fun leaf ->
      if not (Pm_registry.registered t.reg leaf) then
        fail "tree leaf %d missing from registry" leaf);
  Pm_registry.check t.reg

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* The inner radix nodes are charge-modelled (no durable bytes), so
   recovery rebuilds the whole node graph by re-linking every leaf the
   durable registry names. Read-only on PM: nested crash-during-recovery
   has nothing to tear. The old node blocks' pool space is not
   reclaimed — the same persistent-leak class the paper accepts for the
   log-less radix trees (§IV-F). *)
let recover pool =
  let reg = Pm_registry.attach pool ~magic in
  let t = { pool; meter = Pmem.meter pool; reg; root = CEmpty; count = 0 } in
  Pm_registry.iter reg (fun leaf ->
      link_leaf t ~key:(Hart_core.Leaf.key t.pool ~leaf) leaf);
  t

let name = "wort"
let iter t f = range t ~lo:"" ~hi:(String.make 25 '\xff') f

(* Commuting shards (Index_intf.S). Like WOART, WORT's value updates are
   leaf-local out-of-place swaps ([Pm_value.update_leaf]: new object,
   8-byte pointer commit, old object freed, allocation serialised in the
   pool) — they touch no radix node and no registry slot, so they
   commute across distinct keys and ride the shared/stripe path. An
   insert of an {e existing} key is exactly such an update
   ([insert] falls into [Pm_value.update_leaf] when [find_leaf] lands on
   a matching PM key), so it is non-restructuring too. New-key inserts
   and deletes rewrite radix nodes and the shared registry free list and
   stay exclusive. The shard id is a short key prefix, mirroring the
   radix subtree granularity. *)
let stripe_of_key _ key =
  Hashtbl.hash (String.sub key 0 (min 2 (String.length key)))

let volatile_domain_safe = false

let key_present t key =
  match find_leaf t key with
  | 0 -> false
  | leaf -> String.equal (Hart_core.Leaf.key t.pool ~leaf) key

let restructures t ~op ~key =
  match op with
  | `Update -> false
  | `Delete -> true
  | `Insert -> not (key_present t key) (* new key: node + registry slot *)
