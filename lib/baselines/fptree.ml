module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter

let leaf_cap = 32
let entry_bytes = 64
let max_key = 24
let max_val = 31
let leaf_bytes = 16 + leaf_cap + (leaf_cap * entry_bytes)
let inner_cap = 32 (* separators per DRAM inner node *)
let inner_model_bytes = 16 + (inner_cap * 16) (* separator word + child ptr *)
let magic = 0x46505452_45453031L (* "FPTREE01" *)
let root_off = 64

type node = LeafN of int (* pool offset *) | InnerN of inner

and inner = {
  keys : string array;  (* inner_cap + 1, slack slot for pre-split overflow *)
  kids : node array;  (* inner_cap + 2 *)
  mutable n : int;  (* separators in use *)
  addr : int;
}

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  mutable root : node;
  mutable count : int;
  mutable inner_count : int;
  head : int;  (* anchor leaf, first in the chain *)
}

(* ------------------------------------------------------------------ *)
(* Persistent leaf accessors                                           *)

let bitmap t leaf = Pmem.get_u64 t.pool leaf

let set_bitmap t leaf bm =
  Pmem.set_u64 t.pool leaf bm;
  Pmem.persist t.pool ~off:leaf ~len:8

let pnext t leaf = Int64.to_int (Pmem.get_u64 t.pool (leaf + 8))

let set_pnext t leaf next =
  Pmem.set_u64 t.pool (leaf + 8) (Int64.of_int next);
  Pmem.persist t.pool ~off:(leaf + 8) ~len:8

let fingerprints t leaf = Pmem.get_string t.pool ~off:(leaf + 16) ~len:leaf_cap
let entry_off leaf slot = leaf + 16 + leaf_cap + (slot * entry_bytes)

let fp_hash key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  Int64.to_int !h land 0xff

let fingerprint = fp_hash

let entry_key t leaf slot =
  let off = entry_off leaf slot in
  let len = Pmem.get_u8 t.pool off in
  if len = 0 then "" else Pmem.get_string t.pool ~off:(off + 1) ~len

let entry_value t leaf slot =
  let off = entry_off leaf slot in
  let len = Pmem.get_u8 t.pool (off + 25) in
  if len = 0 then "" else Pmem.get_string t.pool ~off:(off + 26) ~len

(* Write entry + fingerprint, persist both; the bitmap flip that commits
   them is separate. *)
let write_entry t leaf slot key value =
  let off = entry_off leaf slot in
  Pmem.set_u8 t.pool off (String.length key);
  Pmem.set_string t.pool ~off:(off + 1) key;
  Pmem.set_u8 t.pool (off + 25) (String.length value);
  if String.length value > 0 then Pmem.set_string t.pool ~off:(off + 26) value;
  Pmem.persist t.pool ~off ~len:entry_bytes;
  Pmem.set_u8 t.pool (leaf + 16 + slot) (fp_hash key);
  Pmem.persist t.pool ~off:(leaf + 16 + slot) ~len:1

(* Fingerprint-guided in-leaf lookup: probe only slots whose fingerprint
   matches, which in expectation is a single key comparison. *)
let leaf_find t leaf key =
  let fp = fp_hash key in
  let fps = fingerprints t leaf in
  let bm = bitmap t leaf in
  let rec go slot =
    if slot >= leaf_cap then None
    else if
      Hart_util.Bits.test bm slot
      && Char.code fps.[slot] = fp
      && String.equal (entry_key t leaf slot) key
    then Some slot
    else go (slot + 1)
  in
  go 0

let free_slot t leaf =
  Hart_util.Bits.lowest_zero (bitmap t leaf) ~width:leaf_cap

let live_entries t leaf =
  let bm = bitmap t leaf in
  let out = ref [] in
  for slot = leaf_cap - 1 downto 0 do
    if Hart_util.Bits.test bm slot then out := (entry_key t leaf slot, slot) :: !out
  done;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !out

let alloc_leaf t =
  let leaf = Pmem.alloc t.pool leaf_bytes in
  Pmem.persist t.pool ~off:leaf ~len:16;
  leaf

(* ------------------------------------------------------------------ *)
(* DRAM inner nodes                                                    *)

let touch t addr = Meter.access t.meter Dram ~addr ~write:false

let alloc_inner t =
  t.inner_count <- t.inner_count + 1;
  {
    keys = Array.make (inner_cap + 1) "";
    kids = Array.make (inner_cap + 2) (LeafN 0);
    n = 0;
    addr = Meter.dram_alloc t.meter inner_model_bytes;
  }

(* child index for [key]: number of separators <= key *)
let child_index t inn key =
  touch t inn.addr;
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if inn.keys.(mid) <= key then go (mid + 1) hi else go lo mid
  in
  go 0 inn.n

let rec find_leaf t node key =
  match node with
  | LeafN leaf -> leaf
  | InnerN inn -> find_leaf t inn.kids.(child_index t inn key) key

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create pool =
  let meter = Pmem.meter pool in
  let off = Pmem.alloc pool 16 in
  if off <> root_off then
    invalid_arg "Fptree.create: the root block must be the pool's first allocation";
  Pmem.set_u64 pool root_off magic;
  let t =
    { pool; meter; root = LeafN 0; count = 0; inner_count = 0; head = 0 }
  in
  let head = alloc_leaf t in
  Pmem.set_u64 pool (root_off + 8) (Int64.of_int head);
  Pmem.persist pool ~off:root_off ~len:16;
  { t with root = LeafN head; head }

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

(* Move the upper half of [leaf] to a fresh leaf, persist it, relink the
   chain, shrink the old bitmap. Returns (separator, right leaf). *)
let split_leaf t leaf =
  let entries = live_entries t leaf in
  let n = List.length entries in
  let sep_idx = n / 2 in
  let sep = fst (List.nth entries sep_idx) in
  let right = alloc_leaf t in
  let right_bm = ref 0L in
  List.iteri
    (fun i (k, slot) ->
      if i >= sep_idx then begin
        let dst = i - sep_idx in
        write_entry t right dst k (entry_value t leaf slot);
        right_bm := Hart_util.Bits.set !right_bm dst
      end)
    entries;
  (* chain relink order: right fully persisted before it becomes
     reachable, old bitmap shrink is the commit *)
  Pmem.set_u64 t.pool (right + 8) (Int64.of_int (pnext t leaf));
  Pmem.set_u64 t.pool right !right_bm;
  Pmem.persist t.pool ~off:right ~len:leaf_bytes;
  set_pnext t leaf right;
  let keep = ref (bitmap t leaf) in
  List.iteri
    (fun i (_, slot) -> if i >= sep_idx then keep := Hart_util.Bits.clear !keep slot)
    entries;
  set_bitmap t leaf !keep;
  (sep, right)

let rec ins t node key value : (string * node) option =
  match node with
  | LeafN leaf -> ins_leaf t leaf key value
  | InnerN inn -> (
      let i = child_index t inn key in
      match ins t inn.kids.(i) key value with
      | None -> None
      | Some (sep, right) ->
          (* shift separators/children right of position i *)
          for j = inn.n downto i + 1 do
            inn.keys.(j) <- inn.keys.(j - 1);
            inn.kids.(j + 1) <- inn.kids.(j)
          done;
          inn.keys.(i) <- sep;
          inn.kids.(i + 1) <- right;
          inn.n <- inn.n + 1;
          Meter.access t.meter Dram ~addr:inn.addr ~write:true;
          if inn.n <= inner_cap then None
          else begin
            (* split the inner node, promoting the median separator *)
            let mid = inn.n / 2 in
            let promoted = inn.keys.(mid) in
            let rinn = alloc_inner t in
            let rn = inn.n - mid - 1 in
            Array.blit inn.keys (mid + 1) rinn.keys 0 rn;
            Array.blit inn.kids (mid + 1) rinn.kids 0 (rn + 1);
            rinn.n <- rn;
            inn.n <- mid;
            Some (promoted, InnerN rinn)
          end)

and ins_leaf t leaf key value =
  match (leaf_find t leaf key, free_slot t leaf) with
  | Some old_slot, Some slot ->
      (* out-of-place in-leaf update: both bitmap bits flip in one
         atomic persisted u64 *)
      write_entry t leaf slot key value;
      let bm = Hart_util.Bits.set (Hart_util.Bits.clear (bitmap t leaf) old_slot) slot in
      set_bitmap t leaf bm;
      None
  | None, Some slot ->
      write_entry t leaf slot key value;
      set_bitmap t leaf (Hart_util.Bits.set (bitmap t leaf) slot);
      t.count <- t.count + 1;
      None
  | _, None ->
      let sep, right = split_leaf t leaf in
      let target = if key < sep then leaf else right in
      (match ins_leaf t target key value with
      | None -> ()
      | Some _ -> assert false (* both halves have free slots *));
      Some (sep, LeafN right)

let check_limits key value =
  if String.length key < 1 || String.length key > max_key then
    invalid_arg (Printf.sprintf "FPTree keys must be 1..%d bytes" max_key);
  if String.length value > max_val then
    invalid_arg (Printf.sprintf "FPTree values must be at most %d bytes" max_val)

let insert t ~key ~value =
  check_limits key value;
  match ins t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let inn = alloc_inner t in
      inn.keys.(0) <- sep;
      inn.kids.(0) <- t.root;
      inn.kids.(1) <- right;
      inn.n <- 1;
      t.root <- InnerN inn

(* ------------------------------------------------------------------ *)
(* Search / update / delete                                            *)

let search t key =
  if String.length key < 1 || String.length key > max_key then None
  else
    let leaf = find_leaf t t.root key in
    match leaf_find t leaf key with
    | None -> None
    | Some slot -> Some (entry_value t leaf slot)

let update t ~key ~value =
  if search t key = None then false
  else begin
    insert t ~key ~value;
    true
  end

let delete t key =
  if String.length key < 1 || String.length key > max_key then false
  else
    let leaf = find_leaf t t.root key in
    match leaf_find t leaf key with
    | None -> false
    | Some slot ->
        set_bitmap t leaf (Hart_util.Bits.clear (bitmap t leaf) slot);
        t.count <- t.count - 1;
        true

(* ------------------------------------------------------------------ *)
(* Range: the ordered leaf chain                                       *)

let range t ~lo ~hi f =
  let rec walk leaf =
    if leaf <> 0 then begin
      let entries = live_entries t leaf in
      let stop = ref false in
      List.iter
        (fun (k, slot) ->
          if k > hi then stop := true
          else if k >= lo then f k (entry_value t leaf slot))
        entries;
      if not !stop then walk (pnext t leaf)
    end
  in
  walk (find_leaf t t.root lo)

let iter t f =
  let rec walk leaf =
    if leaf <> 0 then begin
      List.iter (fun (k, slot) -> f k (entry_value t leaf slot)) (live_entries t leaf);
      walk (pnext t leaf)
    end
  in
  walk t.head

(* ------------------------------------------------------------------ *)
(* Recovery: rebuild the DRAM inner nodes from the leaf chain          *)

let recover pool =
  if Pmem.get_u64 pool root_off <> magic then
    failwith "Fptree.recover: no valid FPTree root block in this pool";
  let head = Int64.to_int (Pmem.get_u64 pool (root_off + 8)) in
  let meter = Pmem.meter pool in
  let t = { pool; meter; root = LeafN head; count = 0; inner_count = 0; head } in
  (* Repair a torn split: a crash between the chain relink and the left
     leaf's bitmap shrink leaves the moved entries live in both leaves.
     The right leaf was fully persisted before it became reachable, so
     completing the shrink (clearing the left copies) finishes the split
     exactly as the protocol intended. Idempotent: a second recovery
     finds no duplicates. *)
  let rec repair leaf =
    if leaf <> 0 then begin
      let nxt = pnext t leaf in
      if nxt <> 0 then begin
        let theirs = List.map fst (live_entries t nxt) in
        let dups =
          List.filter (fun (k, _) -> List.mem k theirs) (live_entries t leaf)
        in
        if dups <> [] then
          set_bitmap t leaf
            (List.fold_left
               (fun bm (_, slot) -> Hart_util.Bits.clear bm slot)
               (bitmap t leaf) dups)
      end;
      repair nxt
    end
  in
  repair head;
  (* collect non-empty leaves in chain order with their minimal keys *)
  let rec walk leaf acc =
    if leaf = 0 then List.rev acc
    else
      let entries = live_entries t leaf in
      t.count <- t.count + List.length entries;
      let acc =
        match entries with [] -> acc | (mink, _) :: _ -> (mink, LeafN leaf) :: acc
      in
      walk (pnext t leaf) acc
  in
  let leaves = walk head [] in
  (* bulk-load one level at a time *)
  let rec build level =
    match level with
    | [] -> LeafN head
    | [ (_, only) ] -> only
    | _ ->
        let groups = ref [] and current = ref [] in
        List.iter
          (fun item ->
            current := item :: !current;
            if List.length !current > inner_cap then begin
              groups := List.rev !current :: !groups;
              current := []
            end)
          level;
        if !current <> [] then groups := List.rev !current :: !groups;
        let parents =
          List.rev_map
            (fun group ->
              let inn = alloc_inner t in
              List.iteri
                (fun i (mink, node) ->
                  if i = 0 then inn.kids.(0) <- node
                  else begin
                    inn.keys.(i - 1) <- mink;
                    inn.kids.(i) <- node;
                    inn.n <- inn.n + 1
                  end)
                group;
              (fst (List.hd group), InnerN inn))
            !groups
        in
        build parents
  in
  { t with root = build leaves }

(* ------------------------------------------------------------------ *)
(* Accounting, integrity                                               *)

let count t = t.count
let dram_bytes t = 16 + (t.inner_count * inner_model_bytes)
let pm_bytes t = Pmem.live_bytes t.pool

let height t =
  let rec go = function LeafN _ -> 1 | InnerN inn -> 1 + go inn.kids.(0) in
  go t.root

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  (* every live entry is findable through the index and fingerprinted *)
  let seen = ref 0 in
  let rec walk leaf prev_max =
    if leaf = 0 then ()
    else begin
      let entries = live_entries t leaf in
      (match entries with
      | (mink, _) :: _ when mink < prev_max ->
          fail "leaf chain out of order: %S after %S" mink prev_max
      | _ -> ());
      let fps = fingerprints t leaf in
      List.iter
        (fun (k, slot) ->
          incr seen;
          if Char.code fps.[slot] <> fp_hash k then
            fail "stale fingerprint for key %S" k;
          let found = find_leaf t t.root k in
          if found <> leaf then fail "index does not route %S to its leaf" k)
        entries;
      let mx = List.fold_left (fun acc (k, _) -> max acc k) prev_max entries in
      walk (pnext t leaf) mx
    end
  in
  walk t.head "";
  if !seen <> t.count then fail "count %d but %d live entries" t.count !seen

let name = "fptree"

(* The commuting shard (Index_intf.S) is the leaf a key routes to:
   two writers in one leaf race on the same free slot (the bitmap flip
   that would exclude a slot is the *commit*, well after the slot was
   chosen), so same-leaf mutations must serialise, while
   mutations on distinct leaves touch disjoint PM lines and commute.
   The DRAM inner nodes are unsynchronised, so FPTree is not
   [volatile_domain_safe]: the routing (and with it the shard id) is
   only stable under the functor's shared structure lock, and anything
   that may split — an insert or update into a leaf with no free slot —
   must take it exclusively. Delete only clears a bitmap bit and never
   coalesces, so it is always leaf-local. *)
let in_range key =
  String.length key >= 1 && String.length key <= max_key

let stripe_of_key t key =
  (* leaf offsets are multiples of the leaf size; hash them so the
     low stripe bits are not all aligned *)
  Hashtbl.hash (find_leaf t t.root key)

let volatile_domain_safe = false

let restructures t ~op ~key =
  match op with
  | `Delete -> false
  | `Insert | `Update ->
      (* a full leaf splits on the way in, mutating the leaf chain and
         the DRAM inners; out-of-range keys are rejected before they
         touch anything, so either path is safe for them *)
      in_range key && free_slot t (find_leaf t t.root key) = None
