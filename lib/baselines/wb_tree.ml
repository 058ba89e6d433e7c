module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Inner = Bptree_inner

let node_cap = Inner.cap
let entry_bytes = 64

(* Node layout: 8-byte bitmap, 8-byte next pointer (leaves only; it
   occupies the head of the slot-array region), the rest of the
   node_cap-byte slot array, then node_cap 64-byte entries.

   Leaves are byte-stored: the bitmap, the next pointer and the entries
   are real durable bytes; the slot array (sorted indirection) stays
   charge-modelled — recovery re-sorts by key, so the indirection is
   never needed after a crash. Inner nodes ({!Bptree_inner}) are fully
   charge-modelled in the same layout (real pool addresses, metered
   persists, no durable bytes) and are rebuilt from the leaf chain by
   {!recover}. *)
let node_bytes = 8 + node_cap + (node_cap * entry_bytes)
let bitmap_off = 0
let next_off = 8
let slots_off = 8
let entry_off i = 8 + node_cap + (i * entry_bytes)

(* Entry encoding inside its 64 bytes: key_len u8 @0, key @1 (<= 24),
   val_len u8 @25, value @26 (<= 31). *)
let e_key = 1
let e_vlen = 25
let e_val = 26

type leaf = {
  mutable l_keys : string array;  (* sorted logical view *)
  mutable l_vals : string array;
  mutable l_slot : int array;  (* sorted pos -> physical entry slot *)
  mutable l_bitmap : int;  (* volatile mirror of the durable bitmap *)
  mutable l_n : int;
  mutable l_next : leaf option;
  l_addr : int;
}

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  inner : Inner.charges;
  mutable root : leaf Inner.node;
  mutable first_leaf : leaf;
  mutable count : int;
}

(* Root block: the pool's first allocation. *)
let magic = 0x57425452_45453031L (* "WBTREE01" *)
let root_off = 64
let root_bytes = 16
let head pool = Int64.to_int (Pmem.get_u64 pool (root_off + 8))

(* ------------------------------------------------------------------ *)
(* Charged write protocol (the parts that stay modelled)               *)

let touch t addr = Meter.access t.meter Pm ~addr ~write:false

(* slot-array rewrite: part of every small update, modelled only *)
let charge_slots meter addr =
  Meter.write_range meter Pm ~addr:(addr + slots_off) ~len:node_cap;
  Meter.persist_range meter ~addr:(addr + slots_off) ~len:node_cap

(* small update on a charge-modelled inner node: entry write,
   slot-array write, atomic bitmap flip *)
let charge_small_insert meter addr slot =
  Meter.write_range meter Pm ~addr:(addr + entry_off slot) ~len:entry_bytes;
  Meter.persist_range meter ~addr:(addr + entry_off slot) ~len:entry_bytes;
  charge_slots meter addr;
  Meter.write_range meter Pm ~addr:(addr + bitmap_off) ~len:8;
  Meter.persist_range meter ~addr:(addr + bitmap_off) ~len:8

let charge_node meter addr =
  Meter.write_range meter Pm ~addr ~len:node_bytes;
  Meter.persist_range meter ~addr ~len:node_bytes

(* "expensive logging for a node split": redo-log writes guarding the
   rearrangement; for inner splits also the full new node and the old
   header (leaf splits write those bytes for real) *)
let charge_log_begin meter = Meter.persist_range meter ~addr:8 ~len:24
let charge_log_commit meter = Meter.persist_range meter ~addr:8 ~len:8

let charge_split meter ~left ~right =
  charge_log_begin meter;
  charge_node meter right;
  Meter.write_range meter Pm ~addr:(left + bitmap_off) ~len:(8 + node_cap);
  Meter.persist_range meter ~addr:(left + bitmap_off) ~len:(8 + node_cap);
  charge_log_commit meter

(* The inner nodes' charges: a descent reads the slot array, then one
   entry per binary-search probe; an added separator is a small
   insert, at slot 0 for a new root; a split is redo-logged; recovery
   writes each rebuilt node whole. *)
let pm_inner pool meter =
  let touch addr = Meter.access meter Pm ~addr ~write:false in
  {
    (* no pointer ever publishes an inner node (the root block's first
       word is the magic), so a crash returns every one to the pool *)
    Inner.alloc = (fun () -> Pmem.alloc pool node_bytes ~publish_at:root_off);
    enter = (fun addr -> touch (addr + slots_off));
    probe = (fun addr i -> touch (addr + entry_off i));
    added = charge_small_insert meter;
    split = charge_split meter;
    rooted = (fun addr -> charge_small_insert meter addr 0);
    built = charge_node meter;
  }

(* Fresh pool space is durably zero in both views: a new leaf's bitmap
   and next pointer need no store at all. *)
let new_leaf pool =
  {
    l_keys = Array.make node_cap "";
    l_vals = Array.make node_cap "";
    l_slot = Array.make node_cap 0;
    l_bitmap = 0;
    l_n = 0;
    l_next = None;
    l_addr = Pmem.alloc pool node_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Durable leaf bytes                                                  *)

(* Write one entry into physical slot [phys] and persist it. Always
   ordered strictly before the bitmap flip that commits it. *)
let write_entry t l phys key value =
  let base = l.l_addr + entry_off phys in
  Pmem.set_u8 t.pool base (String.length key);
  Pmem.set_string t.pool ~off:(base + e_key) key;
  Pmem.set_u8 t.pool (base + e_vlen) (String.length value);
  if value <> "" then Pmem.set_string t.pool ~off:(base + e_val) value;
  Pmem.persist t.pool ~off:base ~len:entry_bytes

let read_entry pool addr phys =
  let base = addr + entry_off phys in
  let klen = Pmem.get_u8 pool base in
  let vlen = Pmem.get_u8 pool (base + e_vlen) in
  let k = Pmem.get_string pool ~off:(base + e_key) ~len:klen in
  let v = Pmem.get_string pool ~off:(base + e_val) ~len:vlen in
  (k, v)

(* The atomic commit: one 8-byte bitmap store + persist. *)
let commit_bitmap t l bm =
  l.l_bitmap <- bm;
  Pmem.set_u64 t.pool (l.l_addr + bitmap_off) (Int64.of_int bm);
  Pmem.persist t.pool ~off:(l.l_addr + bitmap_off) ~len:8

let set_next t l next_addr =
  Pmem.set_u64 t.pool (l.l_addr + next_off) (Int64.of_int next_addr);
  Pmem.persist t.pool ~off:(l.l_addr + next_off) ~len:8

let leaf_next pool addr = Int64.to_int (Pmem.get_u64 pool (addr + next_off))

(* First free physical slot; the caller guarantees one exists. *)
let free_phys l =
  let rec go i =
    if i >= node_cap then invalid_arg "Wb_tree: leaf has no free slot"
    else if l.l_bitmap land (1 lsl i) = 0 then i
    else go (i + 1)
  in
  go 0

let create pool =
  let off = Pmem.alloc pool root_bytes in
  if off <> root_off then
    invalid_arg "Wb_tree.create: the root block must be the pool's first allocation";
  let leaf = new_leaf pool in
  Pmem.set_u64 pool root_off magic;
  Pmem.set_u64 pool (root_off + 8) (Int64.of_int leaf.l_addr);
  Pmem.persist pool ~off:root_off ~len:16;
  let meter = Pmem.meter pool in
  {
    pool;
    meter;
    inner = pm_inner pool meter;
    root = Inner.Leaf leaf;
    first_leaf = leaf;
    count = 0;
  }

(* ------------------------------------------------------------------ *)
(* Descent                                                             *)

let find_leaf t key = Inner.find_leaf t.inner t.root key

(* The indirect binary search: one slot-array read, then one entry-key
   read per probed position — each a PM access at the probed slot's real
   address, so locality is what the layout gives, not an artefact. *)

let leaf_find t l key =
  touch t (l.l_addr + slots_off);
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      touch t (l.l_addr + entry_off mid);
      let c = String.compare l.l_keys.(mid) key in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
    end
  in
  go 0 l.l_n

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

(* New key into a leaf with room: entry persist -> (charged) slot
   rewrite -> atomic bitmap flip commits. *)
let leaf_insert_at t l pos key value =
  let phys = free_phys l in
  write_entry t l phys key value;
  charge_slots t.meter l.l_addr;
  Array.blit l.l_keys pos l.l_keys (pos + 1) (l.l_n - pos);
  Array.blit l.l_vals pos l.l_vals (pos + 1) (l.l_n - pos);
  Array.blit l.l_slot pos l.l_slot (pos + 1) (l.l_n - pos);
  l.l_keys.(pos) <- key;
  l.l_vals.(pos) <- value;
  l.l_slot.(pos) <- phys;
  l.l_n <- l.l_n + 1;
  commit_bitmap t l (l.l_bitmap lor (1 lsl phys))

(* Out-of-place value rewrite: write the new entry into a free slot,
   then one bitmap store clears the old slot and sets the new one —
   atomic by the 8-byte store. Needs a free physical slot; a full leaf
   is split first (see [ins]). *)
let leaf_update_at t l i value =
  let phys = free_phys l in
  write_entry t l phys l.l_keys.(i) value;
  charge_slots t.meter l.l_addr;
  let old = l.l_slot.(i) in
  l.l_vals.(i) <- value;
  l.l_slot.(i) <- phys;
  commit_bitmap t l (l.l_bitmap land lnot (1 lsl old) lor (1 lsl phys))

let lower_bound keys n key =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if keys.(mid) < key then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* Crash-safe leaf split, FPTree-style, plus the paper's redo-log
   charges for the (modelled) slot-array rearrangement:
   1. build the right leaf entirely off-chain: entries, bitmap and
      next = left's old successor, each persisted;
   2. link it: one persisted 8-byte store of left.next — from here the
      upper half is reachable twice (left still holds it);
   3. shrink left: one persisted 8-byte bitmap store commits.
   A crash between 2 and 3 leaves adjacent duplicates, which
   [recover] resolves in favour of the right copy. A crash before 2
   leaks the unreachable right leaf (the usual accepted window). *)
let split_leaf t l =
  charge_log_begin t.meter;
  let right = new_leaf t.pool in
  let mid = l.l_n / 2 in
  for j = mid to l.l_n - 1 do
    let phys = j - mid in
    write_entry t right phys l.l_keys.(j) l.l_vals.(j);
    right.l_keys.(phys) <- l.l_keys.(j);
    right.l_vals.(phys) <- l.l_vals.(j);
    right.l_slot.(phys) <- phys
  done;
  right.l_n <- l.l_n - mid;
  right.l_bitmap <- (1 lsl right.l_n) - 1;
  right.l_next <- l.l_next;
  Pmem.set_u64 t.pool (right.l_addr + bitmap_off) (Int64.of_int right.l_bitmap);
  Pmem.set_u64 t.pool (right.l_addr + next_off)
    (Int64.of_int (leaf_next t.pool l.l_addr));
  (* bitmap and next share the node's first line: one persist *)
  Pmem.persist t.pool ~off:right.l_addr ~len:16;
  charge_slots t.meter right.l_addr;
  set_next t l right.l_addr;
  l.l_next <- Some right;
  let keep = ref 0 in
  for j = 0 to mid - 1 do
    keep := !keep lor (1 lsl l.l_slot.(j))
  done;
  l.l_n <- mid;
  charge_slots t.meter l.l_addr;
  commit_bitmap t l !keep;
  charge_log_commit t.meter;
  right

(* Returns the separator and right leaf when [l] splits. *)
let rec leaf_ins t l key value =
  let hit = leaf_find t l key in
  (* a full leaf splits for new keys and for out-of-place value
     rewrites alike: both need a free physical slot *)
  if l.l_n >= node_cap then begin
    let right = split_leaf t l in
    let sep = right.l_keys.(0) in
    let target = if key < sep then l else right in
    (match leaf_ins t target key value with None -> () | Some _ -> assert false);
    Some (sep, right)
  end
  else
    match hit with
    | Some i ->
        leaf_update_at t l i value;
        None
    | None ->
        leaf_insert_at t l (lower_bound l.l_keys l.l_n key) key value;
        t.count <- t.count + 1;
        None

let check_limits key value =
  if not (Hart_core.Leaf.key_fits key) then
    invalid_arg "Wb_tree: keys must be 1..24 bytes";
  if String.length value > 31 then invalid_arg "Wb_tree: values must be <= 31 bytes"

let insert t ~key ~value =
  check_limits key value;
  t.root <- Inner.insert t.inner t.root key (fun l -> leaf_ins t l key value)

(* ------------------------------------------------------------------ *)
(* Search / update / delete / range                                    *)

let search t key =
  if not (Hart_core.Leaf.key_fits key) then None
  else
    let l = find_leaf t key in
    match leaf_find t l key with None -> None | Some i -> Some (l.l_vals.(i))

let update t ~key ~value =
  check_limits key value;
  let l = find_leaf t key in
  match leaf_find t l key with
  | None -> false
  | Some i ->
      (* a full leaf has no free slot for the out-of-place write: go
         through the insert path, which splits and re-routes *)
      if l.l_n >= node_cap then insert t ~key ~value else leaf_update_at t l i value;
      true

let delete t key =
  if not (Hart_core.Leaf.key_fits key) then false
  else
    let l = find_leaf t key in
    match leaf_find t l key with
    | None -> false
    | Some i ->
        charge_slots t.meter l.l_addr;
        let phys = l.l_slot.(i) in
        Array.blit l.l_keys (i + 1) l.l_keys i (l.l_n - i - 1);
        Array.blit l.l_vals (i + 1) l.l_vals i (l.l_n - i - 1);
        Array.blit l.l_slot (i + 1) l.l_slot i (l.l_n - i - 1);
        l.l_n <- l.l_n - 1;
        (* the bitmap flip alone commits the deletion *)
        commit_bitmap t l (l.l_bitmap land lnot (1 lsl phys));
        t.count <- t.count - 1;
        true

let range t ~lo ~hi f =
  let rec walk (l : leaf option) =
    match l with
    | None -> ()
    | Some l ->
        let stop = ref false in
        for i = 0 to l.l_n - 1 do
          let k = l.l_keys.(i) in
          if k > hi then stop := true else if k >= lo then f k l.l_vals.(i)
        done;
        if not !stop then walk l.l_next
  in
  walk (Some (find_leaf t lo))

let count t = t.count

let height t = Inner.height t.root

let dram_bytes _ = 0
let pm_bytes t = Pmem.live_bytes t.pool

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Decode a leaf's live entries from its durable bytes, sorted by key. *)
let decode_leaf pool addr =
  let bm = Int64.to_int (Pmem.get_u64 pool (addr + bitmap_off)) in
  let live = ref [] in
  for phys = node_cap - 1 downto 0 do
    if bm land (1 lsl phys) <> 0 then
      let k, v = read_entry pool addr phys in
      live := (k, v, phys) :: !live
  done;
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !live

let recover pool =
  if Pmem.get_u64 pool root_off <> magic then
    failwith "Wb_tree.recover: pool has no wB+Tree root block";
  (* Pass 1 — repair torn splits: a crash between the chain link and
     the left bitmap shrink leaves the moved upper half live in two
     adjacent leaves. The right copy was committed first, so clear the
     left's duplicate bits (one persisted 8-byte bitmap store per
     affected leaf: itself atomic, so this pass is idempotent). *)
  let rec repair addr =
    let nxt = leaf_next pool addr in
    if nxt <> 0 then begin
      let here = decode_leaf pool addr in
      let there = decode_leaf pool nxt in
      let dup =
        List.fold_left
          (fun acc (k, _, phys) ->
            if List.exists (fun (k', _, _) -> k' = k) there then acc lor (1 lsl phys)
            else acc)
          0 here
      in
      if dup <> 0 then begin
        let bm = Int64.to_int (Pmem.get_u64 pool (addr + bitmap_off)) in
        Pmem.set_u64 pool (addr + bitmap_off) (Int64.of_int (bm land lnot dup));
        Pmem.persist pool ~off:(addr + bitmap_off) ~len:8
      end;
      repair nxt
    end
  in
  repair (head pool);
  (* Pass 2 — walk the chain rebuilding volatile leaves; unlink and
     free emptied leaves (each unlink is one atomic persisted pointer
     swing, so recovery itself is crash-tolerant). The head leaf is
     kept even when empty so the tree always has a first leaf. *)
  let leaves = ref [] and count = ref 0 in
  let rec walk pred addr =
    if addr <> 0 then begin
      let nxt = leaf_next pool addr in
      let live = decode_leaf pool addr in
      if live = [] && pred <> 0 then begin
        Pmem.set_u64 pool (pred + next_off) (Int64.of_int nxt);
        Pmem.persist pool ~off:(pred + next_off) ~len:8;
        Pmem.free pool ~off:addr ~len:node_bytes;
        walk pred nxt
      end
      else begin
        let n = List.length live in
        let l =
          {
            l_keys = Array.make node_cap "";
            l_vals = Array.make node_cap "";
            l_slot = Array.make node_cap 0;
            l_bitmap = Int64.to_int (Pmem.get_u64 pool (addr + bitmap_off));
            l_n = n;
            l_next = None;
            l_addr = addr;
          }
        in
        List.iteri
          (fun i (k, v, phys) ->
            l.l_keys.(i) <- k;
            l.l_vals.(i) <- v;
            l.l_slot.(i) <- phys)
          live;
        (match !leaves with [] -> () | prev :: _ -> prev.l_next <- Some l);
        leaves := l :: !leaves;
        count := !count + n;
        walk addr nxt
      end
    end
  in
  walk 0 (head pool);
  match List.rev !leaves with
  | [] -> failwith "Wb_tree.recover: empty leaf chain"
  | first :: _ as leaves ->
      (* Pass 3 — rebuild the inner levels bottom-up from each leaf's
         smallest key; they hold no durable bytes, so each node is
         charged as a full node write. *)
      let meter = Pmem.meter pool in
      let inner = pm_inner pool meter in
      let root = Inner.build inner (List.map (fun l -> (l.l_keys.(0), l)) leaves) in
      { pool; meter; inner; root; first_leaf = first; count = !count }

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let seen = ref 0 in
  let rec chain (l : leaf option) prev =
    match l with
    | None -> ()
    | Some l ->
        seen := !seen + l.l_n;
        let durable = Int64.to_int (Pmem.get_u64 t.pool (l.l_addr + bitmap_off)) in
        if durable <> l.l_bitmap then
          fail "leaf %d: durable bitmap %x but cached %x" l.l_addr durable l.l_bitmap;
        let pop = ref 0 in
        for i = 0 to node_cap - 1 do
          if durable land (1 lsl i) <> 0 then incr pop
        done;
        if !pop <> l.l_n then fail "leaf %d: %d live bits but l_n %d" l.l_addr !pop l.l_n;
        let durable_next = leaf_next t.pool l.l_addr in
        (match l.l_next with
        | None -> if durable_next <> 0 then fail "leaf %d: stale durable next" l.l_addr
        | Some r ->
            if durable_next <> r.l_addr then
              fail "leaf %d: durable next %d but cached %d" l.l_addr durable_next r.l_addr);
        let p = ref prev in
        for i = 0 to l.l_n - 1 do
          if l.l_keys.(i) <= !p then
            fail "leaf chain unsorted at %S (prev %S)" l.l_keys.(i) !p;
          p := l.l_keys.(i);
          let k, v = read_entry t.pool l.l_addr l.l_slot.(i) in
          if k <> l.l_keys.(i) || v <> l.l_vals.(i) then
            fail "leaf %d slot %d: durable entry %S=%S but cached %S=%S" l.l_addr
              l.l_slot.(i) k v l.l_keys.(i) l.l_vals.(i);
          let routed = find_leaf t l.l_keys.(i) in
          if routed != l then fail "index does not route %S home" l.l_keys.(i)
        done;
        chain l.l_next !p
  in
  if head t.pool <> t.first_leaf.l_addr then
    fail "root block head does not point at first leaf";
  chain (Some t.first_leaf) "";
  if !seen <> t.count then fail "count %d but %d chained entries" t.count !seen

let name = "wb-tree"
let iter t f = range t ~lo:"" ~hi:(String.make 25 '\xff') f

(* Commuting shards (Index_intf.S), conservative: this baseline has no
   concurrency story in the paper, so it declares a single shard
   (stripe 0) and classifies every mutation as a restructure — the
   functor serialises all writers on the exclusive structure lock and
   readers share it, which is trivially correct. *)
let stripe_of_key t key =
  (* hash the leaf's PM address, not the leaf record: records carry
     the l_next chain and DRAM mirrors, which [Hashtbl.hash] would
     wander into *)
  Hashtbl.hash (find_leaf t key).l_addr

let volatile_domain_safe = false

let restructures t ~op ~key =
  match op with
  | `Delete ->
      (* always leaf-local: DRAM blits plus one bitmap flip; leaves
         never merge *)
      false
  | `Insert | `Update ->
      (* the bitmap-popcount invariant keeps a free physical slot
         exactly while l_n < node_cap, so a non-full leaf absorbs the
         out-of-place write locally; a full leaf splits, rewiring the
         leaf chain and the DRAM inners. Out-of-range keys are
         rejected by check_limits before touching anything. *)
      Hart_core.Leaf.key_fits key && (find_leaf t key).l_n >= node_cap
