module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter

let leaf_cap = 64
let entry_bytes = 64

(* Leaf layout (byte-stored on PM):
   offset 0   n_entries : u64   the append cursor — persisting it is the
                                commit of the appended entry
   offset 8   next : u64        chain pointer to the right sibling; the
                                chain (headed by the root block) is what
                                recovery walks
   offset 16  entries, 64 B each:
                flag u8 (1 = insert/update, 0 = delete marker)
                key_len u8, key 24 B, val_len u8, value ≤31 B       *)
let leaf_bytes = 16 + (leaf_cap * entry_bytes)

(* Root block: the pool's first allocation. magic u64, head-leaf u64. *)
let magic = 0x4E565452_45453031L (* "NVTREE01" *)
let root_off = 64

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  (* volatile index over the leaves: parallel sorted arrays of leaf
     minimal keys and leaf offsets; rebuilt wholesale on splits *)
  mutable seps : string array;  (* seps.(i) = min key of leaves.(i), i>0 *)
  mutable leaves : int array;
  mutable index_addr : int;
  mutable count : int;
  mutable rebuilds : int;
}

let n_entries t leaf = Int64.to_int (Pmem.get_u64 t.pool leaf)
let leaf_next t leaf = Int64.to_int (Pmem.get_u64 t.pool (leaf + 8))

let set_next t leaf next =
  Pmem.set_u64 t.pool (leaf + 8) (Int64.of_int next);
  Pmem.persist t.pool ~off:(leaf + 8) ~len:8

let head t = Int64.to_int (Pmem.get_u64 t.pool (root_off + 8))

let set_head t leaf =
  Pmem.set_u64 t.pool (root_off + 8) (Int64.of_int leaf);
  Pmem.persist t.pool ~off:(root_off + 8) ~len:8

let entry_off leaf i = leaf + 16 + (i * entry_bytes)

let entry_flag t leaf i = Pmem.get_u8 t.pool (entry_off leaf i)

let entry_key t leaf i =
  let off = entry_off leaf i in
  let len = Pmem.get_u8 t.pool (off + 1) in
  if len = 0 then "" else Pmem.get_string t.pool ~off:(off + 2) ~len

let entry_value t leaf i =
  let off = entry_off leaf i in
  let len = Pmem.get_u8 t.pool (off + 26) in
  if len = 0 then "" else Pmem.get_string t.pool ~off:(off + 27) ~len

(* The append-only commit: write the entry, persist it, then persist the
   bumped counter — the single-8-byte-atomic commit point. *)
let append t leaf ~flag ~key ~value =
  let n = n_entries t leaf in
  assert (n < leaf_cap);
  let off = entry_off leaf n in
  Pmem.set_u8 t.pool off flag;
  Pmem.set_u8 t.pool (off + 1) (String.length key);
  Pmem.set_string t.pool ~off:(off + 2) key;
  Pmem.set_u8 t.pool (off + 26) (String.length value);
  if String.length value > 0 then Pmem.set_string t.pool ~off:(off + 27) value;
  Pmem.persist t.pool ~off ~len:entry_bytes;
  Pmem.set_u64 t.pool leaf (Int64.of_int (n + 1));
  Pmem.persist t.pool ~off:leaf ~len:8

(* Scan backwards: the latest entry for the key wins. *)
let leaf_lookup t leaf key =
  let rec go i =
    if i < 0 then None
    else if String.equal (entry_key t leaf i) key then
      if entry_flag t leaf i = 1 then Some (entry_value t leaf i) else None
    else go (i - 1)
  in
  go (n_entries t leaf - 1)

(* Live bindings of a leaf, latest-wins, sorted by key. *)
let leaf_live t leaf =
  let latest = Hashtbl.create 32 in
  for i = 0 to n_entries t leaf - 1 do
    let k = entry_key t leaf i in
    if entry_flag t leaf i = 1 then Hashtbl.replace latest k (entry_value t leaf i)
    else Hashtbl.remove latest k
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) latest [])

let alloc_leaf t =
  (* fresh/recycled pool space is durably zero: counter and next start
     committed at 0 without any flush *)
  Pmem.alloc t.pool leaf_bytes

let create pool =
  let meter = Pmem.meter pool in
  let off = Pmem.alloc pool 16 in
  if off <> root_off then
    invalid_arg "Nv_tree.create: the root block must be the pool's first allocation";
  Pmem.set_u64 pool root_off magic;
  let t =
    {
      pool;
      meter;
      seps = [| "" |];
      leaves = [| 0 |];
      index_addr = 0;
      count = 0;
      rebuilds = 0;
    }
  in
  t.leaves.(0) <- alloc_leaf t;
  Pmem.set_u64 pool (root_off + 8) (Int64.of_int t.leaves.(0));
  Pmem.persist pool ~off:root_off ~len:16;
  t.index_addr <- Meter.dram_alloc meter 32;
  t

(* ------------------------------------------------------------------ *)
(* Volatile index                                                      *)

let index_bytes t = Array.length t.leaves * 16

(* binary search: greatest i with seps.(i) <= key (seps.(0) = "") *)
let leaf_index t key =
  Meter.access t.meter Dram ~addr:t.index_addr ~write:false;
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = ((lo + hi) / 2) + 1 in
      if t.seps.(mid) <= key then go mid hi else go lo (mid - 1)
  in
  go 0 (Array.length t.seps - 1)

(* The NV-Tree weakness the paper quotes: rebuild the whole inner
   structure after a split. Modelled as rewriting the full DRAM index. *)
let rebuild_index t entries =
  t.rebuilds <- t.rebuilds + 1;
  let n = List.length entries in
  Meter.dram_free t.meter ~addr:t.index_addr ~size:(index_bytes t);
  t.seps <- Array.make n "";
  t.leaves <- Array.make n 0;
  List.iteri
    (fun i (sep, leaf) ->
      t.seps.(i) <- (if i = 0 then "" else sep);
      t.leaves.(i) <- leaf)
    entries;
  t.index_addr <- Meter.dram_alloc t.meter (n * 16);
  Meter.write_range t.meter Dram ~addr:t.index_addr ~len:(n * 16)

(* Split a full leaf: two fresh leaves take the lower/upper halves of
   the live bindings (dead appended history is garbage-collected by the
   copy), then the whole index is rebuilt.

   Crash-safe ordering: the replacements are fully built and persisted
   — entries, counters, their own next pointers — while still
   unreachable; one 8-byte pointer swing (the predecessor's next, or
   the root block's head) then links them in as the commit; only after
   that is the old leaf freed, so its space cannot be recycled into the
   replacements while the chain still reaches it. A crash before the
   swing leaves the old chain plus leaked replacements; after it, the
   new chain plus a leaked old leaf — both recoverable. *)
let split_leaf t idx =
  let leaf = t.leaves.(idx) in
  let live = leaf_live t leaf in
  let n = List.length live in
  let old_next = leaf_next t leaf in
  let link_first, replacement =
    if n < 2 then begin
      (* the history was almost all dead: compact into one fresh leaf *)
      let fresh = alloc_leaf t in
      List.iter (fun (k, v) -> append t fresh ~flag:1 ~key:k ~value:v) live;
      if old_next <> 0 then set_next t fresh old_next;
      (fresh, fun i -> [ (t.seps.(i), fresh) ])
    end
    else begin
      let mid = n / 2 in
      let left = alloc_leaf t and right = alloc_leaf t in
      List.iteri
        (fun i (k, v) ->
          append t (if i < mid then left else right) ~flag:1 ~key:k ~value:v)
        live;
      if old_next <> 0 then set_next t right old_next;
      set_next t left right;
      let sep = fst (List.nth live mid) in
      (left, fun i -> [ (t.seps.(i), left); (sep, right) ])
    end
  in
  (* the commit point *)
  if idx = 0 then set_head t link_first
  else set_next t t.leaves.(idx - 1) link_first;
  Pmem.free t.pool ~off:leaf ~len:leaf_bytes;
  let entries =
    List.concat
      (List.mapi
         (fun i l -> if i = idx then replacement i else [ (t.seps.(i), l) ])
         (Array.to_list t.leaves))
  in
  rebuild_index t entries

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

let check_key key =
  if not (Hart_core.Leaf.key_fits key) then
    invalid_arg "Nv_tree: keys must be 1..24 bytes";
  ()

let rec insert t ~key ~value =
  check_key key;
  if String.length value > 31 then invalid_arg "Nv_tree: values must be <= 31 bytes";
  let idx = leaf_index t key in
  let leaf = t.leaves.(idx) in
  if n_entries t leaf >= leaf_cap then begin
    split_leaf t idx;
    insert t ~key ~value
  end
  else begin
    let existed = leaf_lookup t leaf key <> None in
    append t leaf ~flag:1 ~key ~value;
    if not existed then t.count <- t.count + 1
  end

let search t key =
  if not (Hart_core.Leaf.key_fits key) then None
  else leaf_lookup t t.leaves.(leaf_index t key) key

let update t ~key ~value =
  if search t key = None then false
  else begin
    insert t ~key ~value;
    true
  end

let rec delete t key =
  if not (Hart_core.Leaf.key_fits key) then false
  else begin
    let idx = leaf_index t key in
    let leaf = t.leaves.(idx) in
    match leaf_lookup t leaf key with
    | None -> false
    | Some _ ->
        if n_entries t leaf >= leaf_cap then begin
          (* no room for the tombstone: split first, then retry *)
          split_leaf t idx;
          delete t key
        end
        else begin
          append t leaf ~flag:0 ~key ~value:"";
          t.count <- t.count - 1;
          true
        end
  end

let range t ~lo ~hi f =
  let start = leaf_index t lo in
  let stop = ref false in
  let i = ref start in
  while (not !stop) && !i < Array.length t.leaves do
    if !i > start && t.seps.(!i) > hi then stop := true
    else
      List.iter
        (fun (k, v) -> if lo <= k && k <= hi then f k v)
        (leaf_live t t.leaves.(!i));
    incr i
  done

let count t = t.count
let rebuild_count t = t.rebuilds
let dram_bytes t = index_bytes t
let pm_bytes t = Pmem.live_bytes t.pool

(* ------------------------------------------------------------------ *)
(* Recovery: rebuild the DRAM index from the durable leaf chain        *)

let recover pool =
  if Pmem.get_u64 pool root_off <> magic then
    failwith "Nv_tree.recover: no valid NV-Tree root block in this pool";
  let meter = Pmem.meter pool in
  let t =
    {
      pool;
      meter;
      seps = [| "" |];
      leaves = [| 0 |];
      index_addr = 0;
      count = 0;
      rebuilds = 0;
    }
  in
  (* Walk the chain. A leaf whose history is all dead cannot be routed
     to (a separator needs a minimal live key), so recovery garbage-
     collects it: unlink with the usual single-pointer swing, then
     free. Those persisted swings are the writes the nested
     crash-during-recovery sweep exercises; each one is independently
     atomic, so recovery is idempotent. The last such leaf is kept if
     it would leave the chain empty (a tree keeps >= 1 leaf). *)
  let rec walk pred leaf acc =
    if leaf = 0 then List.rev acc
    else
      let live = leaf_live t leaf in
      let nxt = leaf_next t leaf in
      if live = [] && not (pred = 0 && nxt = 0 && acc = []) then begin
        if pred = 0 then set_head t nxt else set_next t pred nxt;
        Pmem.free t.pool ~off:leaf ~len:leaf_bytes;
        walk pred nxt acc
      end
      else walk leaf nxt ((leaf, live) :: acc)
  in
  let chain = walk 0 (head t) [] in
  let n = List.length chain in
  t.seps <- Array.make n "";
  t.leaves <- Array.make n 0;
  List.iteri
    (fun i (leaf, live) ->
      (* live is sorted, so its head is the leaf's minimal key — a valid
         separator: every live key of leaf i-1 sorts strictly below it *)
      t.seps.(i) <- (if i = 0 then "" else fst (List.hd live));
      t.leaves.(i) <- leaf;
      t.count <- t.count + List.length live)
    chain;
  t.index_addr <- Meter.dram_alloc meter (n * 16);
  Meter.write_range meter Dram ~addr:t.index_addr ~len:(n * 16);
  t

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if Array.length t.seps <> Array.length t.leaves then fail "index arrays diverge";
  (* the durable chain and the volatile index must agree exactly *)
  let rec chain_check leaf i =
    if leaf = 0 then begin
      if i <> Array.length t.leaves then
        fail "chain has %d leaves but index has %d" i (Array.length t.leaves)
    end
    else begin
      if i >= Array.length t.leaves then fail "chain longer than index";
      if t.leaves.(i) <> leaf then
        fail "chain leaf %d at position %d but index says %d" leaf i t.leaves.(i);
      chain_check (leaf_next t leaf) (i + 1)
    end
  in
  chain_check (head t) 0;
  let seen = ref 0 in
  Array.iteri
    (fun i leaf ->
      let live = leaf_live t leaf in
      seen := !seen + List.length live;
      List.iter
        (fun (k, _) ->
          if i > 0 && k < t.seps.(i) then
            fail "key %S below its leaf separator %S" k t.seps.(i);
          if i + 1 < Array.length t.seps && k >= t.seps.(i + 1) then
            fail "key %S beyond the next separator" k;
          if leaf_index t k <> i then fail "index does not route %S home" k)
        live)
    t.leaves;
  if !seen <> t.count then fail "count %d but %d live bindings" t.count !seen

let name = "nv-tree"
let iter t f = range t ~lo:"" ~hi:(String.make 25 '\xff') f

(* Commuting shards (Index_intf.S), conservative: this baseline has no
   concurrency story in the paper, so it declares a single shard
   (stripe 0) and classifies every mutation as a restructure — the
   functor serialises all writers on the exclusive structure lock and
   readers share it, which is trivially correct. *)
let stripe_of_key _ _ = 0
let volatile_domain_safe = false
let restructures _ ~op:_ ~key:_ = true
