module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Bits = Hart_util.Bits

let magic = 0x484152545F763032L (* "HART_v02" *)

(* The v01 root packed the micro-logs right after the scalars (from byte
   48 of the root line, 24-byte stride); its images are refused, never
   replayed at this layout's offsets. *)
let magic_v01 = 0x484152545F763031L (* "HART_v01" *)
let root_off = 64 (* first allocation of a fresh pool *)
let n_classes = 4

let cls_id = function
  | Chunk.Leaf_c -> 0
  | Chunk.Val8 -> 1
  | Chunk.Val16 -> 2
  | Chunk.Val32 -> 3

let cls_of_id = function
  | 0 -> Chunk.Leaf_c
  | 1 -> Chunk.Val8
  | 2 -> Chunk.Val16
  | 3 -> Chunk.Val32
  | _ -> assert false

let cls_name = function
  | Chunk.Leaf_c -> "leaf"
  | Chunk.Val8 -> "val8"
  | Chunk.Val16 -> "val16"
  | Chunk.Val32 -> "val32"

(* Root block layout: magic@0, kh@8, heads@16+8*cls on the first line,
   which the scalars have to themselves; the log region fills the lines
   after it: the reserved lines, then the recycle slots, one per line. *)
let head_field cls = root_off + 16 + (8 * cls_id cls)
let root_scalar_bytes = 16 + (8 * n_classes)
let log_base = root_off + Pmem.line_bytes
let root_bytes = Pmem.line_bytes + Microlog.region_bytes

(* A registered chunk's volatile state. The record is created when the
   chunk is registered and never moves: registry snapshots share it, so
   a lock-free reader holding an old snapshot still reads a coherent
   (if stale) record, and a recycled chunk's record keeps its empty
   bitmap for good.

   [bits] is the DRAM mirror of the chunk's 56-bit occupancy bitmap. A
   leaf chunk's header is stored and persisted with it under the
   stripe lock, and [attach] reads it back; a value chunk's word is the
   only copy, which recovery's liveness pass rebuilds (DESIGN.md §6
   item 3). The mirror is a dense DRAM array of 8-byte words, 8 to a
   line; [addr] is this chunk's word in it, and every read or write of
   [bits] is charged there on the meter.

   [prev] is the chunk before this one in its class list (0 at the
   head): the volatile PPrev of Algorithm 6, so recycling needs no list
   walk. [next] is the one after it (0 at the tail), the DRAM copy of
   the chunk's PM chain pointer, so a quiesced walk of the list reads no
   PM. Both are DRAM metadata next to the registry lookup that reaches
   them, and like that lookup they are not metered. [live] turns false when
   the chunk is recycled; from then on every lookup treats the record as
   unregistered.

   [owned] (leaf chunks only) marks the free slots that own the value
   object their [p_value] still names: a deleted key's slot keeps its
   value committed until an insertion takes the slot over or the chunk
   is recycled. Like [reserved] it is volatile and lives in the word the
   reservation already touches; [attach] rebuilds it. *)
type entry = {
  chunk : int;
  mutable bits : int;  (* stripe lock for writes; reads may race *)
  mutable reserved : int;  (* 56-bit reservation mask; stripe lock *)
  mutable owned : int;  (* 56-bit owning-free-slot mask; stripe lock *)
  slot : int;  (* index in the class's mirror array *)
  addr : int;
  mutable prev : int;  (* class lock *)
  mutable next : int;  (* class lock *)
  mutable live : bool;  (* cleared under the class and stripe locks *)
}

(* The volatile registry that resolves an object offset to its chunk:
   parallel arrays sorted by chunk offset, an unboxed [keys] array for
   the binary search and the records in [entries], with spare capacity
   past [len]. Readers take a snapshot from an [Atomic.t] with no
   locking and never look past its [len]; mutations run under the class
   lock.

   Registration is amortised O(1). [Pmem] hands out fresh space with a
   bump pointer, so a new chunk usually lies above every registered one:
   its cells are written past [len] and a snapshot one longer is
   published. Recycling marks the record dead in place. [Pmem] reuses a
   freed range only for an allocation of the same rounded size, and the
   four chunk classes round to sizes (2304, 512, 960 and 1856 bytes)
   that differ from each other and from every other allocation in a
   HART pool (the root block; the ART nodes of the PM-node ablation, 64
   to 2112 bytes), so a dead record's offset can only come back as a
   chunk of its own class, which takes the cell over. Dead records
   therefore never outnumber the class's chunks on [Pmem]'s free list,
   and the registry never holds more cells than the class's peak chunk
   count: there is nothing to compact. Only a full array (which
   doubles) or a chunk registered below a live one with no dead cell at
   its offset (space freed before a reload) copies. *)
module Registry = struct
  type t = { keys : int array; entries : entry array; len : int }

  let empty = { keys = [||]; entries = [||]; len = 0 }

  let of_sorted entries =
    { keys = Array.map (fun e -> e.chunk) entries; entries; len = Array.length entries }

  (* greatest index below [len] with keys.(i) <= x, or -1 *)
  let find_le r x =
    let keys = r.keys in
    let rec go lo hi =
      if lo > hi then hi
      else
        let mid = (lo + hi) lsr 1 in
        if keys.(mid) <= x then go (mid + 1) hi else go lo (mid - 1)
    in
    go 0 (r.len - 1)

  (* the live record of a registered chunk *)
  let find r chunk =
    let i = find_le r chunk in
    if i >= 0 && r.keys.(i) = chunk && r.entries.(i).live then r.entries.(i)
    else raise Not_found

  let mem r chunk =
    match find r chunk with _ -> true | exception Not_found -> false

  let iter_live f r =
    for i = 0 to r.len - 1 do
      if r.entries.(i).live then f r.entries.(i)
    done

  (* class lock held *)
  let add cell e =
    let r = Atomic.get cell in
    let n = r.len and cap = Array.length r.keys in
    let i = find_le r e.chunk in
    if i >= 0 && r.keys.(i) = e.chunk then begin
      (* the dead record of a recycled chunk at this offset; the
         republication orders the write before later snapshot loads *)
      assert (not r.entries.(i).live);
      r.entries.(i) <- e;
      Atomic.set cell r
    end
    else if i = n - 1 && n < cap then begin
      r.keys.(n) <- e.chunk;
      r.entries.(n) <- e;
      Atomic.set cell { r with len = n + 1 }
    end
    else begin
      let cap = if n < cap then cap else max 16 (2 * n) in
      let keys = Array.make cap 0 and entries = Array.make cap e in
      Array.blit r.keys 0 keys 0 (i + 1);
      Array.blit r.entries 0 entries 0 (i + 1);
      keys.(i + 1) <- e.chunk;
      entries.(i + 1) <- e;
      Array.blit r.keys (i + 1) keys (i + 2) (n - i - 1);
      Array.blit r.entries (i + 1) entries (i + 2) (n - i - 1);
      Atomic.set cell { keys; entries; len = n + 1 }
    end
end

(* One class's slice of the mirror array: the DRAM line backing each
   run of 8 slots, and the slots of recycled chunks awaiting reuse.
   Class lock. *)
type mirror = {
  mutable lines : int array;  (* DRAM address of line [slot / 8] *)
  mutable used : int;  (* slots ever handed out *)
  mutable free_slots : int list;
}

let entries_per_line = Pmem.line_bytes / 8
let mirror_lines m = (m.used + entries_per_line - 1) / entries_per_line

(* A domain's cursor over the value chunks that recovery's liveness pass
   marks (DESIGN.md §6 item 3). Consecutive named values usually share a
   value chunk, so the cursor keeps the current chunk's object range and
   a mask of its named objects, as a C scan would in registers; only a
   value outside the range closes the run and looks up the next chunk.
   [closed] holds the finished runs as (chunk record, mask). *)
type runs = {
  mutable run : entry;  (* [no_entry] when no run is open *)
  mutable lo : int;  (* the run's first object, 0 when none *)
  mutable hi : int;  (* past its last object *)
  mutable size : int;
  mutable mask : int;
  mutable closed : (entry * int) list;
}

let no_entry =
  { chunk = 0; bits = 0; reserved = 0; owned = 0; slot = 0; addr = 0; prev = 0; next = 0;
    live = false }

let runs () =
  { run = no_entry; lo = 0; hi = 0; size = 1; mask = 0; closed = [] }

(* Lock architecture (strict acquisition order, coarse to fine):
     class mutex  →  chunk stripe mutex  →  Pmem alloc
   - A chunk's stripe mutex guards its header stores, its mirror word
     and its reservation mask; the allocation fast path takes only this.
   - A class mutex guards that class's chunk-list structure (PM pnext
     links + head mirror), its recycle-log slot, its avail cache, its
     mirror slots and its registry publication.
   - Paths that hold a stripe and then need the class lock (returning a
     slot to the avail cache) release the stripe first, so the order is
     never reversed. *)
let n_stripes = 64
let stripe_of chunk = (chunk lsr 6) land (n_stripes - 1)
let dom_slots = 64
let dom_slot () = (Domain.self () :> int) land (dom_slots - 1)

type t = {
  pool : Pmem.t;
  meter : Meter.t;
  kh : int;
  checksums : bool;  (* CRC trailers on leaves, values and log words *)
  logs : Microlog.t;
  heads : int array;  (* volatile mirror of the persistent list heads *)
  class_mu : Mutex.t array;  (* one per class *)
  registry : Registry.t Atomic.t array;  (* per class *)
  mirror : mirror array;  (* per class *)
  chunk_mu : Mutex.t array;  (* stripe locks over chunks *)
  avail : (int, unit) Hashtbl.t array;
      (* chunks believed to have a free slot, per class; may contain
         stale (full or recycled) entries, filtered lazily under the
         class lock *)
  active : int array array;  (* class x domain slot: allocation fast path *)
}

let pool t = t.pool
let kh t = t.kh
let checksums t = t.checksums
let logs t = t.logs

let full_mask = (1 lsl Chunk.objs_per_chunk) - 1

(* [Sched_hook.lock] (try-lock/yield under the cooperative crash
   explorer, plain [Mutex.lock] otherwise): persists run under these
   mutexes (e.g. [set_head], bitmap commits), i.e. a fiber can park at a
   flush-boundary yield point while holding one — a blocking lock from
   another fiber would then deadlock the single scheduler thread. *)
let with_lock mu f =
  Hart_util.Sched_hook.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let with_stripe t chunk f = with_lock t.chunk_mu.(stripe_of chunk) f

let read_bits t e =
  Meter.access t.meter Dram ~addr:e.addr ~write:false;
  e.bits

(* Stripe lock held. Only a leaf chunk's header is stored, after the
   mirror, so a lock-free reader sees the new bitmap no later than the
   PM word, even across the persist's yield point. *)
let store_bits t cls e bits =
  e.bits <- bits;
  Meter.access t.meter Dram ~addr:e.addr ~write:true;
  if cls = Chunk.Leaf_c then Chunk.write_header t.pool ~chunk:e.chunk bits

(* The spare rule. Plain allocation never takes a value chunk's last
   free slot: only an update whose old value sits in the chunk may
   ([epmalloc_update]), so its new value shares the old one's mirror
   word and both bits change in one locked store. That store frees the
   old slot, which gives the spare back. Leaf chunks keep no spare. *)
let keeps_spare = function Chunk.Leaf_c -> false | Val8 | Val16 | Val32 -> true

(* [e]'s slots neither committed nor reserved *)
let free_mask e = lnot (e.bits lor e.reserved) land full_mask

(* Stripe lock held, [e]'s mirror word just touched: whether plain
   allocation may take one of its slots. *)
let plain_room cls e =
  let free = free_mask e in
  if keeps_spare cls then free land (free - 1) <> 0 else free <> 0

(* The per-operation lock sections below lock and unlock inline rather
   than through [with_lock], so the commit path allocates no closure. *)
let mark_avail t cls chunk =
  let mu = t.class_mu.(cls_id cls) in
  Hart_util.Sched_hook.lock mu;
  Hashtbl.replace t.avail.(cls_id cls) chunk ();
  Mutex.unlock mu

(* Under the stripe lock, store [e]'s bitmap with [set] raised and
   [clear] dropped; the set bits stop being reserved. Cleared bits go
   back to the avail cache if plain allocation may now use the chunk. *)
let commit_bits t cls e ~set ~clear =
  let mu = t.chunk_mu.(stripe_of e.chunk) in
  Hart_util.Sched_hook.lock mu;
  match store_bits t cls e ((read_bits t e lor set) land lnot clear) with
  | () ->
      e.reserved <- e.reserved land lnot set;
      let freed = clear <> 0 && plain_room cls e in
      Mutex.unlock mu;
      if freed then mark_avail t cls e.chunk
  | exception ex ->
      Mutex.unlock mu;
      raise ex

(* class lock held *)
let mirror_slot t id =
  let m = t.mirror.(id) in
  match m.free_slots with
  | s :: rest ->
      m.free_slots <- rest;
      s
  | [] ->
      let s = m.used in
      let line = s / entries_per_line in
      if s mod entries_per_line = 0 then begin
        if line = Array.length m.lines then
          m.lines <- Array.append m.lines (Array.make (max 4 line) 0);
        m.lines.(line) <- Meter.dram_alloc t.meter Pmem.line_bytes
      end;
      m.used <- s + 1;
      s

(* class lock held; registry mutations are serialised by it *)
let new_entry t id chunk ~bits ~prev =
  let slot = mirror_slot t id in
  let line = t.mirror.(id).lines.(slot / entries_per_line) in
  {
    chunk;
    bits;
    reserved = 0;
    owned = 0;
    slot;
    addr = line + (8 * (slot mod entries_per_line));
    prev;
    next = 0;
    live = true;
  }

(* class and stripe locks held *)
let unregister t id e =
  e.live <- false;
  let m = t.mirror.(id) in
  m.free_slots <- e.slot :: m.free_slots

(* class lock held: [next] (if any) now follows [prev] (if any) in its
   list *)
let link t id ~prev next =
  let reg = Atomic.get t.registry.(id) in
  if next <> 0 then (Registry.find reg next).prev <- prev;
  if prev <> 0 then (Registry.find reg prev).next <- next

let mirror_bytes t =
  Array.fold_left (fun acc m -> acc + (mirror_lines m * Pmem.line_bytes)) 0 t.mirror

let set_head t cls v =
  Pmem.set_u64 t.pool (head_field cls) (Int64.of_int v);
  Pmem.persist t.pool ~off:(head_field cls) ~len:8;
  t.heads.(cls_id cls) <- v

let make pool ~kh ~checksums ~logs =
  {
    pool;
    meter = Pmem.meter pool;
    kh;
    checksums;
    logs;
    heads = Array.make n_classes 0;
    class_mu = Array.init n_classes (fun _ -> Mutex.create ());
    registry = Array.init n_classes (fun _ -> Atomic.make Registry.empty);
    mirror =
      Array.init n_classes (fun _ -> { lines = [||]; used = 0; free_slots = [] });
    chunk_mu = Array.init n_stripes (fun _ -> Mutex.create ());
    avail = Array.init n_classes (fun _ -> Hashtbl.create 64);
    active = Array.init n_classes (fun _ -> Array.make dom_slots 0);
  }

(* The kh word doubles as the pool's feature word: low byte = hash-key
   length, bit 8 = checksummed format. Persisted so a re-opened pool
   self-describes whether its leaves/values/log words carry CRCs. *)
let checksums_flag = 1 lsl 8

let create ?(kh = 2) ?(checksums = false) pool =
  if kh < 1 || kh > 8 then invalid_arg "Epalloc.create: kh must be in [1,8]";
  let off = Pmem.alloc pool root_bytes in
  if off <> root_off then
    invalid_arg "Epalloc.create: the root block must be the pool's first allocation";
  Pmem.set_u64 pool root_off magic;
  Pmem.set_u64 pool (root_off + 8)
    (Int64.of_int (kh lor if checksums then checksums_flag else 0));
  for id = 0 to n_classes - 1 do
    Pmem.set_u64 pool (head_field (cls_of_id id)) 0L
  done;
  Pmem.persist pool ~off:root_off ~len:root_scalar_bytes;
  let logs = Microlog.create ~checksummed:checksums pool ~base:log_base in
  make pool ~kh ~checksums ~logs

(* Lock-free: snapshots the registry. The mirror word is read
   without the stripe lock by [obj_bit] — a word read racing only with
   bit flips of *other* objects, never the queried object's own bit (its
   owner holds the enclosing ART lock). *)
let entry_of_obj t cls obj =
  let reg = Atomic.get t.registry.(cls_id cls) in
  let i = Registry.find_le reg obj in
  if i < 0 then raise Not_found;
  let e = reg.entries.(i) in
  if (not e.live) || obj < e.chunk + 16 || obj >= e.chunk + Chunk.chunk_bytes cls then
    raise Not_found;
  e

let chunk_of_obj t cls obj = (entry_of_obj t cls obj).chunk

(* The value class whose registered chunk holds [obj], with its entry. *)
let value_entry t obj =
  let rec go = function
    | [] -> None
    | cls :: rest -> (
        match entry_of_obj t cls obj with
        | e -> Some (cls, e)
        | exception Not_found -> go rest)
  in
  go [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ]

let class_of_value_obj t obj = Option.map fst (value_entry t obj)

(* Which registered chunk (any class) covers this pool byte — including
   its 16-byte prologue, which [chunk_of_obj] deliberately excludes.
   fsck uses this to attribute a corrupt media line to a structure. *)
let chunk_covering t off =
  let rec go id =
    if id >= n_classes then None
    else
      let cls = cls_of_id id in
      let reg = Atomic.get t.registry.(id) in
      let i = Registry.find_le reg off in
      if i >= 0 && reg.entries.(i).live && off < reg.keys.(i) + Chunk.chunk_bytes cls
      then Some (cls, reg.keys.(i))
      else go (id + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Allocation (Algorithm 2)                                            *)

(* The lowest slot not set in [occupied]: a trailing-zero count of the
   free mask, constant time. *)
let free_slot occupied =
  let free = lnot occupied land full_mask in
  if free = 0 then None else Some (Bits.ctz free)

let value_objs_per_chunk = Chunk.objs_per_chunk - 1

(* Test-only mutations of the protocols DESIGN.md §6 items 1-3 argue.
   Each reinstates one bug that the crash explorers must catch; the
   fault tests set one at a time. Never set outside tests. *)
type mutation =
  | Free_before_unname
  | Bits_before_p_value
  | No_liveness_pass
  | Ignore_owned

let unsafe_mutation : mutation option ref = ref None
let mutated m = match !unsafe_mutation with None -> false | Some m' -> m' == m

(* A reservation packed in one int, so the allocation path allocates
   nothing: the object's offset shifted left by one, with bit 0 set when
   the slot owned a value (the owned mark passes to the caller with the
   slot); [no_slot] when the chunk had none. *)
let no_slot = -1

(* Reserve the lowest free slot of [chunk] if it is still a live chunk
   of [cls] with room: the lowest zero of mirror | reserved, which is
   the slot the persistent next-free hint names whenever that slot is
   unreserved, found without a PM read. The registry re-check under the
   stripe lock is what makes the cached [active] chunk (and stale
   [avail] entries) safe: a chunk recycled — or recycled and
   re-allocated to another class — since the caller last saw it fails
   the check and is skipped. The owned mark is tested in the same
   locked section and mirror access, so a fresh slot costs nothing
   extra. Only [~spare:true] may take a value chunk's last free slot. *)
let try_reserve ?(spare = false) t cls chunk =
  if chunk = 0 then no_slot
  else begin
    let mu = t.chunk_mu.(stripe_of chunk) in
    Hart_util.Sched_hook.lock mu;
    let r =
      match Registry.find (Atomic.get t.registry.(cls_id cls)) chunk with
      | exception Not_found -> no_slot
      | e -> (
          let occupied = read_bits t e lor e.reserved in
          match free_slot occupied with
          | Some idx
            when spare
                 || (not (keeps_spare cls))
                 || occupied lor (1 lsl idx) <> full_mask ->
              let bit = 1 lsl idx in
              let owns = e.owned land bit <> 0 in
              e.reserved <- e.reserved lor bit;
              e.owned <- e.owned land lnot bit;
              (Chunk.obj_off cls ~chunk ~idx lsl 1) lor Bool.to_int owns
          | Some _ | None -> no_slot)
    in
    Mutex.unlock mu;
    r
  end

let reserve t cls =
  let id = cls_id cls in
  let dom = dom_slot () in
  (* fast path: the chunk this domain last allocated from, touched
     without the class lock *)
  let r = try_reserve t cls t.active.(id).(dom) in
  if r <> no_slot then r
  else
    with_lock t.class_mu.(id) (fun () ->
        (* The volatile available-chunk cache replaces Algorithm 2's PM
           list walk (lines 1-7): it is complete — every slot release
           that leaves the chunk room for plain allocation re-adds it —
           so a miss here means no chunk has room. A value chunk down
           to its spare is not re-added, so such chunks cost the scan
           nothing past the one visit that drops them. The paper's walk
           re-scans every full chunk once the head fills, which is
           quadratic over a large store; caching which chunks have room
           is exactly the kind of DRAM acceleration EPallocator exists
           for (§III-A.4). *)
        let stale = ref [] in
        let got = ref no_slot in
        (try
           Hashtbl.iter
             (fun chunk () ->
               let r = try_reserve t cls chunk in
               if r = no_slot then stale := chunk :: !stale
               else begin
                 got := r;
                 t.active.(id).(dom) <- chunk;
                 raise Exit
               end)
             t.avail.(id)
         with Exit -> ());
        List.iter (fun c -> Hashtbl.remove t.avail.(id) c) !stale;
        if !got <> no_slot then !got
        else begin
          (* lines 8-10: grow the list at its head; the chunk is
             allocated durably only when the head naming it is *)
          let chunk = Chunk.alloc t.pool cls ~publish_at:(head_field cls) in
          let next = t.heads.(id) in
          Chunk.set_pnext t.pool ~chunk next;
          set_head t cls chunk;
          Pmem.published t.pool ~off:chunk;
          let e = new_entry t id chunk ~bits:0 ~prev:0 in
          Meter.access t.meter Dram ~addr:e.addr ~write:true;
          Registry.add t.registry.(id) e;
          link t id ~prev:chunk next;
          Hashtbl.replace t.avail.(id) chunk ();
          t.active.(id).(dom) <- chunk;
          let r = try_reserve t cls chunk in
          assert (r <> no_slot) (* fresh chunk, registered, empty *);
          r
        end)

let epmalloc t cls =
  match cls with
  | Chunk.Leaf_c -> invalid_arg "Epalloc.epmalloc: leaf slots come from epmalloc_leaf"
  | Val8 | Val16 | Val32 -> reserve t cls lsr 1

let epmalloc_leaf t =
  let r = reserve t Chunk.Leaf_c in
  (r lsr 1, r land 1 = 1)

let epmalloc_update t cls ~old =
  let r =
    match entry_of_obj t cls old with
    | e -> try_reserve ~spare:true t cls e.chunk
    | exception Not_found -> no_slot
  in
  if r <> no_slot then r lsr 1 else epmalloc t cls

(* ------------------------------------------------------------------ *)
(* Bit commitment                                                      *)

let obj_mask cls e obj = 1 lsl Chunk.idx_of_obj cls ~chunk:e.chunk ~obj

let set_obj_bit t cls ~obj =
  let e = entry_of_obj t cls obj in
  commit_bits t cls e ~set:(obj_mask cls e obj) ~clear:0

let reset_obj_bit t cls ~obj =
  let e = entry_of_obj t cls obj in
  commit_bits t cls e ~set:0 ~clear:(obj_mask cls e obj)

let obj_bit t cls ~obj =
  let e = entry_of_obj t cls obj in
  read_bits t e land obj_mask cls e obj <> 0

let leaf_bit e ~leaf = 1 lsl Chunk.idx_of_obj Chunk.Leaf_c ~chunk:e.chunk ~obj:leaf

let set_owner t ~leaf owns =
  let e = entry_of_obj t Chunk.Leaf_c leaf in
  let bit = leaf_bit e ~leaf in
  with_stripe t e.chunk (fun () ->
      e.owned <- (if owns then e.owned lor bit else e.owned land lnot bit))

let iter_owned t f =
  Registry.iter_live
    (fun e ->
      let o = ref e.owned in
      while !o <> 0 do
        let idx = Bits.ctz !o in
        o := !o land (!o - 1);
        f ~leaf:(Chunk.obj_off Chunk.Leaf_c ~chunk:e.chunk ~idx)
      done)
    (Atomic.get t.registry.(cls_id Chunk.Leaf_c))

(* [v]'s entry and bit if it is an object of a registered value chunk *)
let value_slot t v =
  match value_entry t v with
  | Some (vcls, ve) -> (
      match Chunk.idx_of_obj vcls ~chunk:ve.chunk ~obj:v with
      | idx -> Some (ve, 1 lsl idx)
      | exception Invalid_argument _ -> None)
  | None -> None

let is_value_obj t v = value_slot t v <> None

let value_committed t v =
  match value_slot t v with Some (ve, bit) -> read_bits t ve land bit <> 0 | None -> false

(* fsck: rewrite a leaf chunk header that is not the one its mirror
   implies. Right after [attach] the mirror is the PM bitmap, so only a
   corrupt hint/full byte can differ; later the mirror holds the last
   bitmap the allocator stored, so a bitmap a stray write changed is put
   back. *)
let repair_header t ~chunk =
  let e = Registry.find (Atomic.get t.registry.(cls_id Chunk.Leaf_c)) chunk in
  with_stripe t chunk (fun () ->
      let bits = read_bits t e in
      let h = Chunk.header t.pool ~chunk in
      if h = Chunk.header_of_bits bits then `Intact
      else begin
        store_bits t Chunk.Leaf_c e bits;
        if Int64.to_int h land full_mask = bits then `Hint_rewritten
        else `Bitmap_restored
      end)

(* ------------------------------------------------------------------ *)
(* Recycling (Algorithm 6)                                             *)

(* Class and stripe locks held, [e] empty: unlink it under the recycle
   log and give its space back. *)
let unlink t cls e =
  let id = cls_id cls and chunk = e.chunk in
  (* the class lock is held, so this class has no other record in
     flight: its log slot is its class id *)
  let slot = id and prev = e.prev in
  Microlog.record t.logs ~slot ~pprev:prev ~cls ~pcurrent:chunk;
  let next = Chunk.pnext t.pool ~chunk in
  if prev = 0 then set_head t cls next else Chunk.set_pnext t.pool ~chunk:prev next;
  link t id ~prev next;
  Chunk.release t.pool cls ~chunk;
  (* unregister before dropping the stripe lock so no domain can
     reserve into the freed chunk through a stale active/avail
     reference *)
  unregister t id e;
  Hashtbl.remove t.avail.(id) chunk;
  Microlog.reclaim t.logs ~slot

(* The values the owning slots of leaf chunk [e] name, each with its
   class, highest slot first: one PM read of each slot's p_value. *)
let owned_values t e =
  let values = ref [] and o = ref e.owned in
  while !o <> 0 do
    let idx = Bits.ctz !o in
    o := !o land (!o - 1);
    let v = Leaf.p_value t.pool ~leaf:(Chunk.obj_off Chunk.Leaf_c ~chunk:e.chunk ~idx) in
    match value_entry t v with
    | Some (vcls, _) -> values := (vcls, v) :: !values
    | None -> ()
  done;
  !values

let rec release_value t cls ~obj =
  let e = entry_of_obj t cls obj in
  commit_bits t cls e ~set:0 ~clear:(obj_mask cls e obj);
  eprecycle t cls ~chunk:e.chunk

(* A leaf chunk whose free slots own values (DESIGN.md §6 item 2) is
   unlinked in the same locked section that finds it empty, so it
   cannot change under the recycle; its values are let go afterwards,
   with no leaf lock held, since value-class locks never nest inside
   leaf-class ones; nothing durable names them by then. Under
   [Free_before_unname] the values go first, every slot of the chunk
   reserved meanwhile so that it stays empty. *)
and eprecycle t cls ~chunk =
  let id = cls_id cls in
  let values =
    with_lock t.class_mu.(id) (fun () ->
        with_stripe t chunk (fun () ->
            match Registry.find (Atomic.get t.registry.(id)) chunk with
            | exception Not_found -> []
            | e when read_bits t e <> 0 || e.reserved <> 0 -> []
            | e ->
                let values = owned_values t e in
                if values <> [] && mutated Free_before_unname then
                  e.reserved <- full_mask
                else unlink t cls e;
                values))
  in
  List.iter (fun (vcls, obj) -> release_value t vcls ~obj) values;
  if values <> [] && mutated Free_before_unname then
    with_lock t.class_mu.(id) (fun () ->
        with_stripe t chunk (fun () ->
            unlink t cls (Registry.find (Atomic.get t.registry.(id)) chunk)))

(* Set [obj]'s bit and reset [old]'s, in the mirror alone: one locked
   store when they share a chunk. Otherwise [old]'s word changes first;
   then [old]'s chunk is recycled if that emptied it. Nothing is held:
   the leaf already names [obj]. *)
let commit_update t cls ~obj ~old =
  let e = entry_of_obj t cls obj in
  let set = obj_mask cls e obj in
  match value_entry t old with
  | Some (ocls, oe) when oe == e ->
      commit_bits t cls e ~set ~clear:(obj_mask ocls oe old)
  | Some (ocls, oe) ->
      commit_bits t ocls oe ~set:0 ~clear:(obj_mask ocls oe old);
      commit_bits t cls e ~set ~clear:0;
      eprecycle t ocls ~chunk:oe.chunk
  | None -> commit_bits t cls e ~set ~clear:0

(* Algorithm 5's free: clear and persist the leaf's bit and, in the same
   stripe-locked section, mark the slot as the owner of the value its
   p_value names, so no domain can reserve the slot before it owns; then
   recycle the chunk if that emptied it. *)
let free_leaf t ~leaf =
  let e = entry_of_obj t Chunk.Leaf_c leaf in
  let bit = leaf_bit e ~leaf in
  let mu = t.chunk_mu.(stripe_of e.chunk) in
  Hart_util.Sched_hook.lock mu;
  e.owned <- e.owned lor bit;
  (match store_bits t Chunk.Leaf_c e (read_bits t e land lnot bit) with
  | () -> Mutex.unlock mu
  | exception ex ->
      Mutex.unlock mu;
      raise ex);
  mark_avail t Chunk.Leaf_c e.chunk;
  eprecycle t Chunk.Leaf_c ~chunk:e.chunk

(* ------------------------------------------------------------------ *)
(* Recovery (single-domain: runs before the store is shared)           *)

(* Value liveness: no value bit is durable, so recovery derives it. A
   value named by a committed leaf or an owning free slot is live. *)

let close_run r =
  if r.mask <> 0 then r.closed <- (r.run, r.mask) :: r.closed;
  r.run <- no_entry;
  r.lo <- 0;
  r.hi <- 0;
  r.mask <- 0

(* Mark [v] named. A value in the open run's chunk costs a compare and an
   or; any other closes the run and looks its chunk up in the registry
   (unmetered, like every registry lookup: DESIGN.md §18). An offset
   that is no object of a registered value chunk names nothing. *)
let name_value t r v =
  if v < r.lo || v >= r.hi then begin
    close_run r;
    match value_entry t v with
    | Some (cls, e) ->
        r.run <- e;
        r.lo <- e.chunk + 16;
        r.size <- Chunk.obj_size cls;
        r.hi <- r.lo + (Chunk.objs_per_chunk * r.size)
    | None -> ()
  end;
  if v >= r.lo && v < r.hi && (v - r.lo) mod r.size = 0 then
    r.mask <- r.mask lor (1 lsl ((v - r.lo) / r.size))

(* The liveness pass, serial and quiesced, after every named value went
   through [name_value]: each run ors its mask into its chunk's mirror
   word, which [attach] left empty (one metered write per run); then one
   read per mirror line finds the chunks with room for the avail cache
   and the chunks nothing names, which are recycled. *)
let settle_values t runs =
  List.iter
    (fun r ->
      close_run r;
      if not (mutated No_liveness_pass) then
        List.iter
          (fun (e, mask) ->
            Meter.access t.meter Dram ~addr:e.addr ~write:true;
            e.bits <- e.bits lor mask)
          r.closed;
      r.closed <- [])
    runs;
  List.iter
    (fun cls ->
      let id = cls_id cls in
      let m = t.mirror.(id) in
      for line = 0 to mirror_lines m - 1 do
        Meter.access t.meter Dram ~addr:m.lines.(line) ~write:false
      done;
      let emptied = ref [] in
      Registry.iter_live
        (fun e ->
          if e.bits = 0 then emptied := e.chunk :: !emptied
          else if plain_room cls e then Hashtbl.replace t.avail.(id) e.chunk ())
        (Atomic.get t.registry.(id));
      List.iter (fun chunk -> eprecycle t cls ~chunk) !emptied)
    [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ]

(* The repair for a recycle slot on a corrupt media line or failing its
   word CRC: rewrite its line without reading it. [before_replay] is
   the quarantining mount's scrub: a slot whose line then holds a record
   or cannot be read may have held a recycle in flight, which is lost.
   Any other slot, and every slot of a quiesced live store (fsck), holds
   nothing: the rewrite repairs it. *)
let scrub_log_slot t ~report ~before_replay (slot, off) =
  let lost = before_replay && Microlog.occupied t.logs ~slot in
  Microlog.reclaim t.logs ~slot;
  report
    {
      Hart_error.f_site = Log_slot { slot; off };
      f_action = (if lost then Quarantined else Repaired);
      f_detail =
        (if lost then
           "pending log record on corrupt media discarded (treated as never \
            committed)"
         else "idle log slot rewritten to zero (line resealed)");
      f_keys = [];
      f_capacity = (if lost then 1 else 0);
    }

(* A damaged line of the root block past its scalars: a recycle slot's
   line is scrubbed; any other is one of the reserved lines where v02
   images kept update-log slots, which nothing reads, so it is zeroed
   and resealed. *)
let repair_root_line t ~report ~before_replay line =
  match Microlog.slots_overlapping t.logs ~lines:[ line ] with
  | [] ->
      let off = line * Pmem.line_bytes in
      Pmem.set_string t.pool ~off (String.make Pmem.line_bytes '\000');
      Pmem.persist t.pool ~off ~len:Pmem.line_bytes;
      report
        {
          Hart_error.f_site = Pool_line { line };
          f_action = Repaired;
          f_detail = "reserved root-block line zeroed and resealed";
          f_keys = [];
          f_capacity = 0;
        }
  | slots -> List.iter (scrub_log_slot t ~report ~before_replay) slots

let recover_recycle_log t ~slot =
  let logs = t.logs in
  let chunk = Microlog.pcurrent logs ~slot in
  let cls = Microlog.cls logs ~slot in
  let id = cls_id cls in
  (* the registry holds exactly the chunks the chain walk reached, and
     each replay keeps it so *)
  (match Registry.find (Atomic.get t.registry.(id)) chunk with
  | e ->
      (* still linked: resume the unlink from where it stopped *)
      let logged = Microlog.pprev logs ~slot in
      let prev =
        if t.heads.(id) = chunk then 0 else if logged <> 0 then logged else e.prev
      in
      let next = Chunk.pnext t.pool ~chunk in
      if prev = 0 then set_head t cls next else Chunk.set_pnext t.pool ~chunk:prev next;
      link t id ~prev next;
      Chunk.release t.pool cls ~chunk;
      unregister t id e;
      Hashtbl.remove t.avail.(id) chunk
  | exception Not_found ->
      (* already unlinked: free it, unless it was *)
      let len = Chunk.chunk_bytes cls in
      if not (Pmem.is_free t.pool ~off:chunk ~len) then Pmem.free t.pool ~off:chunk ~len);
  Microlog.reclaim logs ~slot

let attach ?(bad_lines = []) ?report pool =
  let quarantine = report <> None in
  let emit f = match report with Some r -> r f | None -> () in
  let bad_span = Pmem.touches_lines bad_lines in
  (* The root scalars (magic, kh word, list heads) fill the root's first
     line; per-line ECC cannot localise damage below line granularity,
     so a fault here is unrepairable in place — raise (the mount is
     refused, the fault Detected). *)
  if bad_span root_off root_scalar_bytes then
    Hart_error.error (Root_block { off = root_off })
      "media-corrupt line under the root scalars — pool is unmountable";
  (match Pmem.get_u64 pool root_off with
  | m when m = magic -> ()
  | m when m = magic_v01 ->
      Hart_error.error (Root_block { off = root_off })
        "pool formatted as HART_v01, whose micro-logs sit at other offsets \
         — not mountable by this version"
  | m ->
      Hart_error.error (Root_block { off = root_off })
        "bad magic %Lx (want %Lx)" m magic);
  let kh_word = Int64.to_int (Pmem.get_u64 pool (root_off + 8)) in
  let kh = kh_word land 0xFF in
  let checksums = kh_word land checksums_flag <> 0 in
  if kh < 1 || kh > 8 || kh_word land lnot (0xFF lor checksums_flag) <> 0 then
    Hart_error.error (Root_block { off = root_off + 8 })
      "implausible kh/feature word %#x" kh_word;
  let logs = Microlog.attach ~checksummed:checksums pool ~base:log_base in
  let t = make pool ~kh ~checksums ~logs in
  (* Hardened chain walk: every pnext pointer is validated (alignment,
     bounds, acyclicity, no overlap with the root region) before it is
     trusted, and a chunk whose prologue line the ECC flags is refused —
     its bitmap and pnext cannot be trusted, and walking past them could
     silently resurrect or drop keys. Corruption here surfaces as a
     typed error instead of an [assert]/[Failure] deep in the walk. *)
  let seen = Hashtbl.create 64 in
  for id = 0 to n_classes - 1 do
    let cls = cls_of_id id in
    t.heads.(id) <- Int64.to_int (Pmem.get_u64 pool (head_field cls));
    let walked = ref [] in
    let rec walk ~prev chunk =
      if chunk <> 0 then begin
        let site = Hart_error.Chunk_meta { cls = cls_name cls; chunk } in
        if
          chunk land (Pmem.line_bytes - 1) <> 0
          || chunk < root_off + root_bytes
        then
          Hart_error.error site "implausible chunk pointer %d in %s list"
            chunk (cls_name cls);
        if Hashtbl.mem seen chunk then
          Hart_error.error site "chunk list cycle or cross-linked chunk";
        Hashtbl.add seen chunk ();
        if bad_span chunk 16 then
          Hart_error.error site
            "media-corrupt prologue line — bitmap and chain pointer \
             untrustworthy";
        match
          (* a leaf chunk's header rebuilds its mirror word and feeds
             the avail cache; [settle_values] fills a value chunk's *)
          let bits =
            if cls = Chunk.Leaf_c then Int64.to_int (Chunk.bitmap pool ~chunk) else 0
          in
          let e = new_entry t id chunk ~bits ~prev in
          walked := e :: !walked;
          if cls = Chunk.Leaf_c && plain_room cls e then
            Hashtbl.replace t.avail.(id) chunk ();
          e.next <- Chunk.pnext pool ~chunk;
          e.next
        with
        | next -> walk ~prev:chunk next
        | exception Invalid_argument msg ->
            Hart_error.error site "chunk metadata access out of pool: %s" msg
        | exception Pmem.Media_poisoned { line; _ } ->
            Hart_error.error site "chunk metadata on poisoned line %d" line
      end
    in
    walk ~prev:0 t.heads.(id);
    let reg = Array.of_list !walked in
    Array.sort (fun a b -> compare a.chunk b.chunk) reg;
    Atomic.set t.registry.(id) (Registry.of_sorted reg);
    (* filling the mirror writes each of its lines once *)
    let m = t.mirror.(id) in
    for line = 0 to mirror_lines m - 1 do
      Meter.access t.meter Dram ~addr:m.lines.(line) ~write:true
    done
  done;
  (* Scrub the recycle log BEFORE replay: a record sitting on a corrupt
     line, or failing its word CRC, must never be replayed — discarding
     it is the torn-record treatment (the logged operation did not
     commit). Zero+persist also reseals the line's ECC entry. *)
  if quarantine then begin
    let in_log line =
      let off = line * Pmem.line_bytes in
      off >= log_base && off < root_off + root_bytes
    in
    List.iter
      (repair_root_line t ~report:emit ~before_replay:true)
      (List.sort_uniq compare (List.filter in_log bad_lines));
    List.iter
      (fun (slot, off) ->
        if not (bad_span off Microlog.slot_bytes) then
          scrub_log_slot t ~report:emit ~before_replay:true (slot, off))
      (Microlog.verify logs)
  end;
  (* Replay, guarded in quarantine mode: a record whose pointers do not
     resolve to registered chunks is discarded rather than replayed into
     arbitrary pool bytes. Every slot is replayed, not only the four
     this version writes: an image written while slots were handed out
     dynamically may hold a record in any of them. *)
  Microlog.iter_pending logs (fun ~slot ->
      let off = Microlog.slot_offset logs ~slot in
      let site = Hart_error.Log_slot { slot; off } in
      let replay () =
        (if quarantine then
           let prev = Microlog.pprev logs ~slot in
           let cls = Microlog.cls logs ~slot in
           let reg = Atomic.get t.registry.(cls_id cls) in
           if prev <> 0 && not (Registry.mem reg prev) then
             Hart_error.error site "PPrev %d is no registered chunk" prev;
           (* an unlinked PCurrent is freed: it must be a chunk's place *)
           let cur = Microlog.pcurrent logs ~slot in
           if cur land (Pmem.line_bytes - 1) <> 0 || cur < root_off + root_bytes
              || cur + Chunk.chunk_bytes cls > Pmem.capacity pool
              || (chunk_covering t cur <> None && not (Registry.mem reg cur))
           then Hart_error.error site "PCurrent %d is no chunk of its class" cur);
        recover_recycle_log t ~slot
      in
      if not quarantine then replay ()
      else
        try replay () with
        | Hart_error.Error _ | Invalid_argument _ | Not_found
        | Pmem.Media_poisoned _ ->
            Microlog.reclaim logs ~slot;
            emit
              {
                Hart_error.f_site = site;
                f_action = Quarantined;
                f_detail = "unreplayable log record discarded";
                f_keys = [];
                f_capacity = 1;
              });
  t

(* ------------------------------------------------------------------ *)
(* Introspection (quiesced callers)                                    *)

(* The list as the allocator knows it in DRAM: from the head mirror by
   each record's [next]. It reads no PM, so it holds exactly the chunks
   the intact chain had even after a stray write clobbers a chain
   pointer on a live store. *)
let iter_chunks t cls f =
  let reg = Atomic.get t.registry.(cls_id cls) in
  let rec walk chunk =
    if chunk <> 0 then begin
      f chunk;
      walk (Registry.find reg chunk).next
    end
  in
  walk t.heads.(cls_id cls)

(* The list as PM holds it, each chain pointer a metered read. *)
let iter_chain t cls f =
  let rec walk chunk =
    if chunk <> 0 then begin
      f chunk;
      walk (Chunk.pnext t.pool ~chunk)
    end
  in
  walk t.heads.(cls_id cls)

let chunk_count t cls =
  let n = ref 0 in
  iter_chunks t cls (fun _ -> incr n);
  !n

let committed_bits t cls ~chunk =
  if cls = Chunk.Leaf_c then Int64.to_int (Chunk.bitmap t.pool ~chunk)
  else read_bits t (Registry.find (Atomic.get t.registry.(cls_id cls)) chunk)

let live_objects t cls =
  let n = ref 0 in
  iter_chunks t cls (fun chunk ->
      n := !n + Bits.popcount (Int64.of_int (committed_bits t cls ~chunk)));
  !n

let spares t cls =
  let n = ref 0 in
  if keeps_spare cls then
    Registry.iter_live
      (fun e ->
        let free = free_mask e in
        if free <> 0 && free land (free - 1) = 0 then incr n)
      (Atomic.get t.registry.(cls_id cls));
  !n

let iter_live_objs t cls f =
  iter_chunks t cls (fun chunk ->
      let bits = ref (committed_bits t cls ~chunk) in
      while !bits <> 0 do
        let idx = Bits.ctz !bits in
        bits := !bits land (!bits - 1);
        f ~obj:(Chunk.obj_off cls ~chunk ~idx)
      done)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  for id = 0 to n_classes - 1 do
    let cls = cls_of_id id in
    if t.heads.(id) <> Int64.to_int (Pmem.get_u64 t.pool (head_field cls)) then
      fail "head mirror diverged for class %d" id;
    let reg = Atomic.get t.registry.(id) in
    let in_list = Hashtbl.create 16 in
    let prev = ref 0 in
    iter_chain t cls (fun chunk ->
        if Hashtbl.mem in_list chunk then fail "chunk list cycle at %d" chunk;
        Hashtbl.add in_list chunk ();
        (match Registry.find reg chunk with
        | e ->
            if e.prev <> !prev then
              fail "chunk %d links back to %d but follows %d (class %d)" chunk
                e.prev !prev id;
            let pnext = Chunk.pnext t.pool ~chunk in
            if e.next <> pnext then
              fail "chunk %d's successor mirror is %d but its chain pointer %d"
                chunk e.next pnext
        | exception Not_found ->
            fail "chunk %d in list but not in registry (class %d)" chunk id);
        prev := chunk);
    for i = 0 to reg.len - 1 do
      if reg.keys.(i) <> reg.entries.(i).chunk then
        fail "registry key %d names chunk %d" reg.keys.(i) reg.entries.(i).chunk;
      if i > 0 && reg.keys.(i - 1) >= reg.keys.(i) then
        fail "registry out of order at chunk %d (class %d)" reg.keys.(i) id
    done;
    Registry.iter_live
      (fun e ->
        if not (Hashtbl.mem in_list e.chunk) then
          fail "chunk %d in registry but not in list (class %d)" e.chunk id;
        (if cls = Chunk.Leaf_c then
           let pm = Int64.to_int (Chunk.bitmap t.pool ~chunk:e.chunk) in
           if e.bits <> pm then
             fail "bitmap mirror of chunk %d is %#x but its PM bitmap is %#x"
               e.chunk e.bits pm);
        if e.reserved land lnot full_mask <> 0 then
          fail "reservation mask of chunk %d out of range" e.chunk;
        if e.owned land (e.bits lor e.reserved) <> 0 then
          fail "chunk %d marks a committed or reserved slot as an owner"
            e.chunk;
        if e.owned <> 0 && cls <> Chunk.Leaf_c then
          fail "value chunk %d has owning slots" e.chunk)
      reg
  done
