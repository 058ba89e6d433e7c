module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter

let leaf_cap = 32

(* Byte-stored entry: key_len u8 @0, key @1 (<= 24), val_len u8 @25,
   value @26 (<= 31), e_start u64 @64, e_end u64 @72. *)
let entry_bytes = 80
let e_key = 1
let e_vlen = 25
let e_val = 26
let e_start_off = 64
let e_end_off = 72

(* Node: next pointer u64 @0, 8 reserved bytes, then leaf_cap entries.
   Leaves are byte-stored; inner nodes are charge-modelled at real pool
   addresses (DESIGN.md) and rebuilt from the leaf chain on recovery. *)
let node_bytes = 16 + (leaf_cap * entry_bytes)
let next_off = 0
let entry_off i = 16 + (i * entry_bytes)
let live_version = max_int

(* Root block: the pool's first allocation. The committed global
   version lives here — persisting it is every mutation's commit. *)
let magic = 0x43444453_30303031L (* "CDDS0001" *)
let root_off = 64
let root_bytes = 24
let version_off = root_off + 16

type entry = {
  e_key : string;
  e_value : string;
  e_start : int;
  mutable e_end : int;  (* [live_version] while current *)
}

type node = LeafC of leafc | InnerC of innerc

and leafc = {
  mutable entries : entry array;  (* append-ordered, leaf_cap slots *)
  mutable l_n : int;
  mutable l_next : leafc option;
  mutable l_addr : int;  (* replaced wholesale by versioned splits *)
}

and innerc = {
  mutable i_keys : string array;
  mutable i_kids : node array;
  mutable i_n : int;
  i_addr : int;
}

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  mutable root : node;
  mutable first_leaf : leafc;
  mutable version : int;  (* mirror of the durable committed version *)
  mutable count : int;
}

(* ------------------------------------------------------------------ *)
(* Durable protocol. Every mutation writes entries stamped with
   version V+1 and commits by atomically persisting the global version
   counter: recovery discards entries started after the committed
   version and resurrects entries end-dated after it, so a crash at
   any flush boundary falls back to the last committed state. *)

let touch t addr = Meter.access t.meter Pm ~addr ~write:false

let write_entry t l slot (e : entry) =
  let base = l.l_addr + entry_off slot in
  Pmem.set_u8 t.pool base (String.length e.e_key);
  Pmem.set_string t.pool ~off:(base + e_key) e.e_key;
  Pmem.set_u8 t.pool (base + e_vlen) (String.length e.e_value);
  if e.e_value <> "" then Pmem.set_string t.pool ~off:(base + e_val) e.e_value;
  Pmem.set_u64 t.pool (base + e_start_off) (Int64.of_int e.e_start);
  Pmem.set_u64 t.pool (base + e_end_off) (Int64.of_int e.e_end);
  Pmem.persist t.pool ~off:base ~len:entry_bytes

let read_entry pool addr slot =
  let base = addr + entry_off slot in
  let klen = Pmem.get_u8 pool base in
  let vlen = Pmem.get_u8 pool (base + e_vlen) in
  {
    e_key = Pmem.get_string pool ~off:(base + e_key) ~len:klen;
    e_value = Pmem.get_string pool ~off:(base + e_val) ~len:vlen;
    e_start = Int64.to_int (Pmem.get_u64 pool (base + e_start_off));
    e_end = Int64.to_int (Pmem.get_u64 pool (base + e_end_off));
  }

(* end-dating an entry is one atomic 8-byte field persist *)
let stamp_end t l slot v =
  l.entries.(slot).e_end <- v;
  let a = l.l_addr + entry_off slot + e_end_off in
  Pmem.set_u64 t.pool a (Int64.of_int v);
  Pmem.persist t.pool ~off:a ~len:8

let commit_version t =
  t.version <- t.version + 1;
  Pmem.set_u64 t.pool version_off (Int64.of_int t.version);
  Pmem.persist t.pool ~off:version_off ~len:8

let set_next t addr next =
  Pmem.set_u64 t.pool (addr + next_off) (Int64.of_int next);
  Pmem.persist t.pool ~off:(addr + next_off) ~len:8

let leaf_next pool addr = Int64.to_int (Pmem.get_u64 pool (addr + next_off))
let head t = Int64.to_int (Pmem.get_u64 t.pool (root_off + 8))

let set_head t addr =
  Pmem.set_u64 t.pool (root_off + 8) (Int64.of_int addr);
  Pmem.persist t.pool ~off:(root_off + 8) ~len:8

let charge_new_node t addr =
  Meter.write_range t.meter Pm ~addr ~len:node_bytes;
  Meter.persist_range t.meter ~addr ~len:node_bytes

let charge_inner_entry t addr slot =
  Meter.write_range t.meter Pm ~addr:(addr + entry_off slot) ~len:entry_bytes;
  Meter.persist_range t.meter ~addr:(addr + entry_off slot) ~len:entry_bytes

let dummy_entry = { e_key = ""; e_value = ""; e_start = 0; e_end = 0 }

(* fresh pool space is durably zero: empty slots read e_start = 0 *)
let new_leaf t =
  {
    entries = Array.make leaf_cap dummy_entry;
    l_n = 0;
    l_next = None;
    l_addr = Pmem.alloc t.pool node_bytes;
  }

let new_inner t =
  {
    i_keys = Array.make (leaf_cap + 1) "";
    i_kids =
      Array.make (leaf_cap + 2)
        (LeafC { entries = [||]; l_n = 0; l_next = None; l_addr = 0 });
    i_n = 0;
    i_addr = Pmem.alloc t.pool node_bytes;
  }

let create pool =
  let meter = Pmem.meter pool in
  let off = Pmem.alloc pool root_bytes in
  if off <> root_off then
    invalid_arg "Cdds_btree.create: the root block must be the pool's first allocation";
  let dummy = { entries = [||]; l_n = 0; l_next = None; l_addr = 0 } in
  let t = { pool; meter; root = LeafC dummy; first_leaf = dummy; version = 0; count = 0 } in
  let leaf = new_leaf t in
  Pmem.set_u64 pool root_off magic;
  Pmem.set_u64 pool (root_off + 8) (Int64.of_int leaf.l_addr);
  Pmem.set_u64 pool version_off 0L;
  Pmem.persist pool ~off:root_off ~len:root_bytes;
  t.root <- LeafC leaf;
  t.first_leaf <- leaf;
  t

(* ------------------------------------------------------------------ *)
(* Descent                                                             *)

let inner_child_index t inn key =
  touch t inn.i_addr;
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      touch t (inn.i_addr + entry_off mid);
      if inn.i_keys.(mid) <= key then go (mid + 1) hi else go lo mid
  in
  go 0 inn.i_n

let rec find_leaf t node key =
  match node with
  | LeafC l -> l
  | InnerC inn -> find_leaf t inn.i_kids.(inner_child_index t inn key) key

(* scan the append-ordered entries, skipping dead versions: the cost of
   multi-versioning the paper points at *)
let leaf_find_live t l key =
  let found = ref None in
  for i = 0 to l.l_n - 1 do
    touch t (l.l_addr + entry_off i);
    let e = l.entries.(i) in
    if e.e_end = live_version && String.equal e.e_key key then found := Some i
  done;
  !found

let live_count l =
  let n = ref 0 in
  for i = 0 to l.l_n - 1 do
    if l.entries.(i).e_end = live_version then incr n
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)

let append_entry t l key value =
  let e = { e_key = key; e_value = value; e_start = t.version + 1; e_end = live_version } in
  write_entry t l l.l_n e;
  l.entries.(l.l_n) <- e;
  l.l_n <- l.l_n + 1

(* The volatile predecessor of [l] in the leaf chain, or None when [l]
   heads it. Splits need it for the durable link swing. *)
let chain_pred t l =
  let rec go p = match p.l_next with Some n when n == l -> Some p | Some n -> go n | None -> None in
  if t.first_leaf == l then None else go t.first_leaf

(* Versioned split. The live entries are copied into one (compaction)
   or two (split) fresh leaves whose entries all start at version V+1;
   the old leaf's live entries are end-dated V+1; one persisted bump
   of the global version counter then retires the old copies and
   activates the new ones atomically. Durable ordering:
   1. build the replacements off-chain, last one's next = the OLD leaf;
   2. swing pred.next (or the head) to the first replacement — before
      the commit the replacements hold only future entries, which
      recovery discards, so the old leaf (still chained behind them)
      keeps the committed state readable;
   3. end-date the old lives, commit the version bump;
   4. unlink the old corpse and free it (a crash between 3 and 4
      leaves an all-dead leaf in the chain; recovery GCs it).
   Dead versions are finally collected here — until a split they keep
   occupying slots, the space behaviour the paper criticises. Returns
   the separator, or [None] when compaction freed enough room that no
   split was needed. *)
let split_leaf t l =
  let live =
    List.sort
      (fun a b -> String.compare a.e_key b.e_key)
      (List.filter
         (fun e -> e.e_end = live_version)
         (Array.to_list (Array.sub l.entries 0 l.l_n)))
  in
  let n = List.length live in
  let old_addr = l.l_addr and old_n = l.l_n in
  let old_entries = l.entries in
  let old_next = leaf_next t.pool old_addr in
  let fill leaf es =
    List.iter
      (fun e ->
        let copy = { e with e_start = t.version + 1; e_end = live_version } in
        write_entry t leaf leaf.l_n copy;
        leaf.entries.(leaf.l_n) <- copy;
        leaf.l_n <- leaf.l_n + 1)
      es
  in
  let link_in first_addr =
    match chain_pred t l with
    | None -> set_head t first_addr
    | Some p -> set_next t p.l_addr first_addr
  in
  let retire_old tail_addr =
    (* end-date the old lives (uncommitted until the version bump) *)
    Array.iteri
      (fun i e ->
        if i < old_n && e.e_end = live_version then begin
          let a = old_addr + entry_off i + e_end_off in
          Pmem.set_u64 t.pool a (Int64.of_int (t.version + 1));
          Pmem.persist t.pool ~off:a ~len:8
        end)
      old_entries;
    commit_version t;
    (* the corpse must leave the durable chain before its space can be
       reused: one atomic pointer swing, then the free *)
    set_next t tail_addr old_next;
    Pmem.free t.pool ~off:old_addr ~len:node_bytes
  in
  if n < leaf_cap / 2 then begin
    (* mostly corpses: compact into one fresh versioned leaf *)
    let fresh = new_leaf t in
    fill fresh live;
    set_next t fresh.l_addr old_addr;
    link_in fresh.l_addr;
    retire_old fresh.l_addr;
    (* the same volatile record now fronts the fresh durable leaf, so
       the parent's child pointer stays valid *)
    l.entries <- fresh.entries;
    l.l_n <- fresh.l_n;
    l.l_addr <- fresh.l_addr;
    None
  end
  else begin
    let left = new_leaf t and right = new_leaf t in
    let mid = n / 2 in
    let lower = List.filteri (fun i _ -> i < mid) live in
    let upper = List.filteri (fun i _ -> i >= mid) live in
    fill left lower;
    fill right upper;
    set_next t right.l_addr old_addr;
    set_next t left.l_addr right.l_addr;
    link_in left.l_addr;
    retire_old right.l_addr;
    l.entries <- left.entries;
    l.l_n <- left.l_n;
    l.l_addr <- left.l_addr;
    right.l_next <- l.l_next;
    l.l_next <- Some right;
    Some (right.entries.(0).e_key, right)
  end

let rec ins t node key value : (string * node) option =
  match node with
  | LeafC l -> (
      match leaf_find_live t l key with
      | Some i when l.l_n < leaf_cap ->
          (* update: end-date the old version, append the new one; both
             stamps carry V+1, so the commit swaps them atomically *)
          stamp_end t l i (t.version + 1);
          append_entry t l key value;
          commit_version t;
          None
      | None when l.l_n < leaf_cap ->
          append_entry t l key value;
          commit_version t;
          t.count <- t.count + 1;
          None
      | _ -> (
          match split_leaf t l with
          | None ->
              (* compaction made room: retry in place *)
              ins t node key value
          | Some (sep, right) ->
              let target = if key < sep then l else right in
              (match ins t (LeafC target) key value with
              | None -> ()
              | Some _ -> assert false);
              Some (sep, LeafC right)))
  | InnerC inn -> (
      let i = inner_child_index t inn key in
      match ins t inn.i_kids.(i) key value with
      | None -> None
      | Some (sep, right) ->
          for j = inn.i_n downto i + 1 do
            inn.i_keys.(j) <- inn.i_keys.(j - 1);
            inn.i_kids.(j + 1) <- inn.i_kids.(j)
          done;
          inn.i_keys.(i) <- sep;
          inn.i_kids.(i + 1) <- right;
          inn.i_n <- inn.i_n + 1;
          charge_inner_entry t inn.i_addr (inn.i_n - 1);
          if inn.i_n <= leaf_cap then None
          else begin
            let rinn = new_inner t in
            charge_new_node t rinn.i_addr;
            let mid = inn.i_n / 2 in
            let promoted = inn.i_keys.(mid) in
            let rn = inn.i_n - mid - 1 in
            Array.blit inn.i_keys (mid + 1) rinn.i_keys 0 rn;
            Array.blit inn.i_kids (mid + 1) rinn.i_kids 0 (rn + 1);
            rinn.i_n <- rn;
            inn.i_n <- mid;
            Some (promoted, InnerC rinn)
          end)

let check_limits key value =
  if String.length key < 1 || String.length key > 24 then
    invalid_arg "Cdds_btree: keys must be 1..24 bytes";
  if String.length value > 31 then
    invalid_arg "Cdds_btree: values must be <= 31 bytes"

let insert t ~key ~value =
  check_limits key value;
  match ins t t.root key value with
  | None -> ()
  | Some (sep, right) ->
      let inn = new_inner t in
      charge_new_node t inn.i_addr;
      inn.i_keys.(0) <- sep;
      inn.i_kids.(0) <- t.root;
      inn.i_kids.(1) <- right;
      inn.i_n <- 1;
      t.root <- InnerC inn

let search t key =
  if String.length key < 1 || String.length key > 24 then None
  else
    let l = find_leaf t t.root key in
    match leaf_find_live t l key with
    | Some i -> Some l.entries.(i).e_value
    | None -> None

let update t ~key ~value =
  if search t key = None then false
  else begin
    insert t ~key ~value;
    true
  end

let delete t key =
  if String.length key < 1 || String.length key > 24 then false
  else
    let l = find_leaf t t.root key in
    match leaf_find_live t l key with
    | None -> false
    | Some i ->
        stamp_end t l i (t.version + 1);
        commit_version t;
        t.count <- t.count - 1;
        true

let range t ~lo ~hi f =
  let rec walk (l : leafc option) =
    match l with
    | None -> ()
    | Some l ->
        let live =
          List.sort
            (fun a b -> String.compare a.e_key b.e_key)
            (List.filter
               (fun e -> e.e_end = live_version)
               (Array.to_list (Array.sub l.entries 0 l.l_n)))
        in
        let stop = ref false in
        List.iter
          (fun e ->
            if e.e_key > hi then stop := true
            else if e.e_key >= lo then f e.e_key e.e_value)
          live;
        if not !stop then walk l.l_next
  in
  walk (Some (find_leaf t t.root lo))

let count t = t.count
let version t = t.version

let dead_entries t =
  let n = ref 0 in
  let rec walk (l : leafc option) =
    match l with
    | None -> ()
    | Some l ->
        n := !n + (l.l_n - live_count l);
        walk l.l_next
  in
  walk (Some t.first_leaf);
  !n

let dram_bytes _ = 0
let pm_bytes t = Pmem.live_bytes t.pool

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover pool =
  let meter = Pmem.meter pool in
  if Pmem.get_u64 pool root_off <> magic then
    failwith "Cdds_btree.recover: pool has no CDDS root block";
  let v = Int64.to_int (Pmem.get_u64 pool version_off) in
  let dummy = { entries = [||]; l_n = 0; l_next = None; l_addr = 0 } in
  let t = { pool; meter; root = LeafC dummy; first_leaf = dummy; version = v; count = 0 } in
  (* Pass 1 — version rollback. A slot started after the committed
     version was never committed: zero its start stamp so no later
     version bump can resurrect it (the slot reads free again and the
     next append overwrites it). An end-date after the committed
     version was an uncommitted retirement: reset it to the live
     sentinel. Both repairs are single persisted 8-byte stores, so
     this pass is idempotent and crash-tolerant. *)
  let rollback addr =
    for i = 0 to leaf_cap - 1 do
      let base = addr + entry_off i in
      let s = Int64.to_int (Pmem.get_u64 pool (base + e_start_off)) in
      if s > v then begin
        Pmem.set_u64 pool (base + e_start_off) 0L;
        Pmem.persist pool ~off:(base + e_start_off) ~len:8
      end
      else if s <> 0 then begin
        let e = Int64.to_int (Pmem.get_u64 pool (base + e_end_off)) in
        if e > v && e <> live_version then begin
          Pmem.set_u64 pool (base + e_end_off) (Int64.of_int live_version);
          Pmem.persist pool ~off:(base + e_end_off) ~len:8
        end
      end
    done
  in
  let rec roll addr =
    if addr <> 0 then begin
      rollback addr;
      roll (leaf_next pool addr)
    end
  in
  roll (head t);
  (* Pass 2 — walk the chain rebuilding volatile leaves; unlink and
     free all-dead corpses (split leftovers and fully-retired leaves),
     each unlink one atomic persisted pointer swing. The head leaf is
     kept even when dead so the tree always has a first leaf. *)
  let leaves = ref [] in
  let rec walk pred addr =
    if addr <> 0 then begin
      let nxt = leaf_next pool addr in
      let entries = ref [] and n = ref 0 in
      (let stop = ref false in
       for i = 0 to leaf_cap - 1 do
         if not !stop then begin
           let e = read_entry pool addr i in
           if e.e_start = 0 then stop := true
           else begin
             entries := e :: !entries;
             incr n
           end
         end
       done);
      let entries = Array.of_list (List.rev !entries) in
      let any_live = Array.exists (fun e -> e.e_end = live_version) entries in
      if (not any_live) && pred <> 0 then begin
        Pmem.set_u64 pool (pred + next_off) (Int64.of_int nxt);
        Pmem.persist pool ~off:(pred + next_off) ~len:8;
        Pmem.free pool ~off:addr ~len:node_bytes;
        walk pred nxt
      end
      else begin
        let l =
          {
            entries =
              Array.init leaf_cap (fun i -> if i < !n then entries.(i) else dummy_entry);
            l_n = !n;
            l_next = None;
            l_addr = addr;
          }
        in
        (match !leaves with [] -> () | prev :: _ -> prev.l_next <- Some l);
        leaves := l :: !leaves;
        t.count <- t.count + live_count l;
        walk addr nxt
      end
    end
  in
  walk 0 (head t);
  let leaves = List.rev !leaves in
  (match leaves with
  | [] -> failwith "Cdds_btree.recover: empty leaf chain"
  | first :: _ -> t.first_leaf <- first);
  (* Pass 3 — rebuild the charge-modelled inner levels bottom-up from
     each leaf's smallest live key, charging the writes. *)
  let min_live l =
    let best = ref None in
    for i = 0 to l.l_n - 1 do
      let e = l.entries.(i) in
      if e.e_end = live_version then
        match !best with
        | Some b when b <= e.e_key -> ()
        | _ -> best := Some e.e_key
    done;
    match !best with Some k -> k | None -> ""
  in
  let build_inner kids seps =
    let inn = new_inner t in
    Array.blit (Array.of_list seps) 0 inn.i_keys 0 (List.length seps);
    Array.blit (Array.of_list kids) 0 inn.i_kids 0 (List.length kids);
    inn.i_n <- List.length seps;
    charge_new_node t inn.i_addr;
    InnerC inn
  in
  let rec build level =
    match level with
    | [ (_, one) ] -> one
    | _ ->
        let n = List.length level in
        let fan = leaf_cap + 1 in
        let groups = (n + fan - 1) / fan in
        let base = n / groups and extra = n mod groups in
        let rec take k xs acc =
          if k = 0 then (List.rev acc, xs)
          else
            match xs with
            | [] -> (List.rev acc, [])
            | x :: rest -> take (k - 1) rest (x :: acc)
        in
        let rec go g xs acc =
          if xs = [] then List.rev acc
          else
            let sz = if g < extra then base + 1 else base in
            let grp, rest = take sz xs [] in
            let sep = fst (List.hd grp) in
            let kids = List.map snd grp in
            let seps = List.map fst (List.tl grp) in
            go (g + 1) rest ((sep, build_inner kids seps) :: acc)
        in
        build (go 0 level [])
  in
  let level =
    List.mapi (fun i l -> ((if i = 0 then "" else min_live l), LeafC l)) leaves
  in
  t.root <- build level;
  t

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  if Int64.to_int (Pmem.get_u64 t.pool version_off) <> t.version then
    fail "durable version disagrees with cached %d" t.version;
  if head t <> t.first_leaf.l_addr then fail "root block head does not point at first leaf";
  let seen = ref 0 in
  let rec walk (l : leafc option) prev =
    match l with
    | None -> ()
    | Some l ->
        let durable_next = leaf_next t.pool l.l_addr in
        (match l.l_next with
        | None -> if durable_next <> 0 then fail "leaf %d: stale durable next" l.l_addr
        | Some r ->
            if durable_next <> r.l_addr then
              fail "leaf %d: durable next %d but cached %d" l.l_addr durable_next r.l_addr);
        for i = 0 to l.l_n - 1 do
          let d = read_entry t.pool l.l_addr i in
          let e = l.entries.(i) in
          if d.e_key <> e.e_key || d.e_value <> e.e_value || d.e_start <> e.e_start
             || d.e_end <> e.e_end
          then fail "leaf %d slot %d: durable entry disagrees with cache" l.l_addr i
        done;
        let live =
          List.sort
            (fun a b -> String.compare a.e_key b.e_key)
            (List.filter
               (fun e -> e.e_end = live_version)
               (Array.to_list (Array.sub l.entries 0 l.l_n)))
        in
        seen := !seen + List.length live;
        let p = ref prev in
        List.iter
          (fun e ->
            if e.e_key <= !p then fail "chain unsorted at %S" e.e_key;
            p := e.e_key;
            if find_leaf t t.root e.e_key != l then
              fail "index does not route %S home" e.e_key;
            if e.e_start > t.version then fail "entry from the future";
            ())
          live;
        walk l.l_next !p
  in
  walk (Some t.first_leaf) "";
  if !seen <> t.count then fail "count %d but %d live entries" t.count !seen

let name = "cdds"
let iter t f = range t ~lo:"" ~hi:(String.make 25 '\xff') f

(* Commuting shards (Index_intf.S), conservative: this baseline has no
   concurrency story in the paper, so it declares a single shard
   (stripe 0) and classifies every mutation as a restructure — the
   functor serialises all writers on the exclusive structure lock and
   readers share it, which is trivially correct. *)
let stripe_of_key _ _ = 0
let volatile_domain_safe = false
let restructures _ ~op:_ ~key:_ = true
