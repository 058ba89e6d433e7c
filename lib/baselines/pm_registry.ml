(** Persistent leaf registry for the pure-PM radix baselines (WORT,
    WOART, ART+CoW).

    Those trees keep their {e inner nodes} charge-modelled (DESIGN.md):
    real pool addresses, metered stores and flushes, but no durable
    bytes — so after a crash the node graph cannot be re-walked. Their
    ground truth is the set of 32-byte leaves (Hart_core.Leaf) plus
    value objects ({!Pm_value}), which ARE byte-stored. This module
    makes that leaf set discoverable after a crash: a root block (the
    pool's first allocation, tagged with a per-index magic) heads a
    chain of slot chunks; registering a leaf writes its offset into a
    free slot and persists that single word — the insert's commit point
    — and deregistering zeroes it, strictly {e before} the leaf is
    freed (frees take effect instantly in the simulated allocator, so a
    registered-but-freed leaf would dangle).

    Crash-ordering argument (holds under [Torn]/[Torn_commit] too):
    - register happens only after the leaf line and its value object
      were persisted, so a durable slot always points at a complete
      leaf; a lost slot write merely leaks the leaf (the paper accepts
      exactly this class of leak for WOART, §IV-F);
    - a fresh chunk is durably zero (allocation zero-fills both views),
      and is linked next-pointer-first, head-swing-last — the 8-byte
      head store is the commit;
    - deregister-then-free means a crash between the two leaks nothing
      reachable: the slot is durably zero before the leaf's space can
      ever be reused. *)

module Pmem = Hart_pmem.Pmem

let root_off = 64
let root_bytes = 64
let chunk_bytes = 512
let slots_per_chunk = (chunk_bytes / 8) - 1 (* first word is the next ptr *)

type t = {
  pool : Pmem.t;
  magic : int64;
  slot_of_leaf : (int, int) Hashtbl.t;  (* leaf offset -> slot address *)
  mutable free_slots : int list;
  chunk_of_slot : (int, int) Hashtbl.t;  (* slot address -> chunk base *)
  used : (int, int) Hashtbl.t;  (* chunk base -> live slot count *)
}

let create pool ~magic =
  let off = Pmem.alloc pool root_bytes in
  if off <> root_off then
    invalid_arg "Pm_registry.create: the root block must be the pool's first allocation";
  Pmem.set_u64 pool root_off magic;
  Pmem.set_u64 pool (root_off + 8) 0L;
  Pmem.persist pool ~off:root_off ~len:16;
  {
    pool;
    magic;
    slot_of_leaf = Hashtbl.create 256;
    free_slots = [];
    chunk_of_slot = Hashtbl.create 256;
    used = Hashtbl.create 16;
  }

let head t = Int64.to_int (Pmem.get_u64 t.pool (root_off + 8))

let slot_addr chunk i = chunk + 8 + (8 * i)

(* Walk the durable chunk chain, applying [f slot_addr leaf] to every
   slot ([leaf] = 0 for a free one). *)
let iter_slots t f =
  let rec go chunk =
    if chunk <> 0 then begin
      for i = 0 to slots_per_chunk - 1 do
        let a = slot_addr chunk i in
        f a (Int64.to_int (Pmem.get_u64 t.pool a))
      done;
      go (Int64.to_int (Pmem.get_u64 t.pool chunk))
    end
  in
  go (head t)

let iter t f = iter_slots t (fun _ leaf -> if leaf <> 0 then f leaf)
let cardinal t = Hashtbl.length t.slot_of_leaf
let registered t leaf = Hashtbl.mem t.slot_of_leaf leaf

let grow t =
  let chunk = Pmem.alloc t.pool chunk_bytes in
  (* fresh/recycled pool space is durably zero, so only the link needs
     ordering: next pointer first, then the 8-byte head swing commits *)
  Pmem.set_u64 t.pool chunk (Int64.of_int (head t));
  Pmem.persist t.pool ~off:chunk ~len:8;
  Pmem.set_u64 t.pool (root_off + 8) (Int64.of_int chunk);
  Pmem.persist t.pool ~off:(root_off + 8) ~len:8;
  Hashtbl.replace t.used chunk 0;
  for i = slots_per_chunk - 1 downto 0 do
    let a = slot_addr chunk i in
    Hashtbl.replace t.chunk_of_slot a chunk;
    t.free_slots <- a :: t.free_slots
  done

(* A chunk whose last live slot was just zeroed is unlinked from the
   durable chain (one persisted 8-byte next-pointer swing is the
   commit) and only then freed, so the chain never references
   reusable space. A crash before the swing leaves an all-free chunk
   in the chain (harmless); after it, an unreachable chunk leaks
   until the free — the usual accepted window. *)
let release_chunk t chunk =
  let next = Pmem.get_u64 t.pool chunk in
  if head t = chunk then begin
    Pmem.set_u64 t.pool (root_off + 8) next;
    Pmem.persist t.pool ~off:(root_off + 8) ~len:8
  end
  else begin
    let rec find_pred c =
      if c = 0 then failwith "Pm_registry: chunk missing from chain"
      else
        let n = Int64.to_int (Pmem.get_u64 t.pool c) in
        if n = chunk then c else find_pred n
    in
    let pred = find_pred (head t) in
    Pmem.set_u64 t.pool pred next;
    Pmem.persist t.pool ~off:pred ~len:8
  end;
  t.free_slots <-
    List.filter (fun a -> Hashtbl.find t.chunk_of_slot a <> chunk) t.free_slots;
  for i = 0 to slots_per_chunk - 1 do
    Hashtbl.remove t.chunk_of_slot (slot_addr chunk i)
  done;
  Hashtbl.remove t.used chunk;
  Pmem.free t.pool ~off:chunk ~len:chunk_bytes

let register t leaf =
  if leaf = 0 then invalid_arg "Pm_registry.register: null leaf";
  if Hashtbl.mem t.slot_of_leaf leaf then
    invalid_arg "Pm_registry.register: leaf already registered";
  (match t.free_slots with [] -> grow t | _ -> ());
  match t.free_slots with
  | [] -> assert false
  | slot :: rest ->
      t.free_slots <- rest;
      Pmem.set_u64 t.pool slot (Int64.of_int leaf);
      (* the commit point: one 8-byte persist makes the insert durable *)
      Pmem.persist t.pool ~off:slot ~len:8;
      Hashtbl.replace t.slot_of_leaf leaf slot;
      let chunk = Hashtbl.find t.chunk_of_slot slot in
      Hashtbl.replace t.used chunk (Hashtbl.find t.used chunk + 1)

let deregister t leaf =
  match Hashtbl.find_opt t.slot_of_leaf leaf with
  | None -> invalid_arg "Pm_registry.deregister: leaf not registered"
  | Some slot ->
      Pmem.set_u64 t.pool slot 0L;
      (* deletion commit — must be durable before the caller frees the
         leaf, or the slot could outlive a reallocation of its space *)
      Pmem.persist t.pool ~off:slot ~len:8;
      Hashtbl.remove t.slot_of_leaf leaf;
      t.free_slots <- slot :: t.free_slots;
      let chunk = Hashtbl.find t.chunk_of_slot slot in
      let n = Hashtbl.find t.used chunk - 1 in
      Hashtbl.replace t.used chunk n;
      if n = 0 then release_chunk t chunk

let attach pool ~magic =
  if Pmem.get_u64 pool root_off <> magic then
    failwith "Pm_registry.attach: pool has no registry with this magic";
  let t =
    {
      pool;
      magic;
      slot_of_leaf = Hashtbl.create 256;
      free_slots = [];
      chunk_of_slot = Hashtbl.create 256;
      used = Hashtbl.create 16;
    }
  in
  let rec walk chunk =
    if chunk <> 0 then begin
      Hashtbl.replace t.used chunk 0;
      for i = 0 to slots_per_chunk - 1 do
        let a = slot_addr chunk i in
        Hashtbl.replace t.chunk_of_slot a chunk;
        let leaf = Int64.to_int (Pmem.get_u64 pool a) in
        if leaf = 0 then t.free_slots <- a :: t.free_slots
        else begin
          Hashtbl.replace t.slot_of_leaf leaf a;
          Hashtbl.replace t.used chunk (Hashtbl.find t.used chunk + 1)
        end
      done;
      walk (Int64.to_int (Pmem.get_u64 pool chunk))
    end
  in
  walk (head t);
  t

let check t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let durable = Hashtbl.create 256 in
  iter_slots t (fun a leaf ->
      if leaf <> 0 then begin
        if Hashtbl.mem durable leaf then
          fail "Pm_registry: leaf %d registered twice" leaf;
        Hashtbl.replace durable leaf a
      end);
  if Hashtbl.length durable <> Hashtbl.length t.slot_of_leaf then
    fail "Pm_registry: %d durable slots but %d cached" (Hashtbl.length durable)
      (Hashtbl.length t.slot_of_leaf);
  Hashtbl.iter
    (fun leaf slot ->
      match Hashtbl.find_opt durable leaf with
      | Some s when s = slot -> ()
      | _ -> fail "Pm_registry: cached slot for leaf %d disagrees with pool" leaf)
    t.slot_of_leaf
