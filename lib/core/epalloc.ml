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
   which the scalars have to themselves; the micro-logs fill the lines
   after it, one slot per line. *)
let head_field cls = root_off + 16 + (8 * cls_id cls)
let root_scalar_bytes = 16 + (8 * n_classes)
let log_base = root_off + Pmem.line_bytes
let root_bytes = Pmem.line_bytes + Microlog.region_bytes

(* A registered chunk's volatile state. The record is created when the
   chunk is registered and never moves: registry snapshots share it, so
   a lock-free reader holding an old snapshot still reads a coherent
   (if stale) record, and a recycled chunk's record keeps its empty
   bitmap for good.

   [bits] is the DRAM mirror of the chunk's 56-bit occupancy bitmap. PM
   stays the only durable copy: every header store computes the new
   bitmap from the mirror, updates the mirror and then stores and
   persists the PM header, all under the chunk's stripe lock, so the two
   never differ outside that call. [attach] rebuilds the mirror from the
   headers its chain walk reads anyway. The mirror is a dense DRAM array
   of 8-byte words, 8 to a line; [addr] is this chunk's word in it, and
   every read or write of [bits] is charged there on the meter.

   [prev] is the chunk before this one in its class list (0 at the
   head): the volatile PPrev of Algorithm 6, so recycling needs no list
   walk. It is DRAM metadata next to the registry lookup that reaches
   it, and like that lookup it is not metered. [live] turns false when
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

(* Lock architecture (strict acquisition order, coarse to fine):
     class mutex  →  chunk stripe mutex  →  (Pmem alloc / Microlog mutex)
   - A chunk's stripe mutex guards its header stores, its mirror word
     and its reservation mask; the allocation fast path takes only this.
   - A class mutex guards that class's chunk-list structure (PM pnext
     links + head mirror), its avail cache, its mirror slots and its
     registry publication.
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

(* Stripe lock held. The mirror is written before the PM store, so a
   lock-free reader sees the new bitmap no later than it would have seen
   the PM word, even across the persist's yield point. *)
let store_bits t e bits =
  e.bits <- bits;
  Meter.access t.meter Dram ~addr:e.addr ~write:true;
  Chunk.write_header t.pool ~chunk:e.chunk bits

(* The spare rule. Plain allocation never takes a value chunk's last
   free slot: only an update whose old value sits in the chunk may
   ([epmalloc_update]), so its new value shares the old one's header and
   both bits commit with one store. The old slot's hold ends at its log
   slot's next record, which gives the spare back. Leaf chunks keep no
   spare. *)
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
   [clear] dropped, then update the reservations: the set bits stop
   being reserved and, with [hold], the cleared ones become reserved.
   Cleared bits not held go back to the avail cache if plain allocation
   may now use the chunk. *)
let commit_bits t cls e ~set ~clear ~hold =
  let mu = t.chunk_mu.(stripe_of e.chunk) in
  Hart_util.Sched_hook.lock mu;
  match store_bits t e ((read_bits t e lor set) land lnot clear) with
  | () ->
      e.reserved <- e.reserved land lnot set lor (if hold then clear else 0);
      let freed = clear <> 0 && (not hold) && plain_room cls e in
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
    live = true;
  }

(* class and stripe locks held *)
let unregister t id e =
  e.live <- false;
  let m = t.mirror.(id) in
  m.free_slots <- e.slot :: m.free_slots

(* class lock held: [chunk] (if any) now follows [prev] in its list *)
let set_prev t id chunk prev =
  if chunk <> 0 then (Registry.find (Atomic.get t.registry.(id)) chunk).prev <- prev

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
  | No_reservation_hold
  | P_value_before_bits
  | Own_uncommitted
  | Ignore_owned
  | Unlink_before_reset
  | Release_before_sever

let unsafe_mutation : mutation option ref = ref None
let mutated m = match !unsafe_mutation with None -> false | Some m' -> m' == m

(* Leaf-chunk recycles abandoned because the chunk changed under them,
   process-wide: lets a test show that its schedules reach that path. *)
let abandoned = Atomic.make 0
let recycles_abandoned () = Atomic.get abandoned

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
          (* lines 8-10: grow the list at its head *)
          let chunk = Chunk.alloc t.pool cls in
          let next = t.heads.(id) in
          Chunk.set_pnext t.pool ~chunk next;
          set_head t cls chunk;
          set_prev t id next chunk;
          let e = new_entry t id chunk ~bits:0 ~prev:0 in
          Meter.access t.meter Dram ~addr:e.addr ~write:true;
          Registry.add t.registry.(id) e;
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
  commit_bits t cls e ~set:(obj_mask cls e obj) ~clear:0 ~hold:false

let reset_obj_bit t cls ~obj =
  let e = entry_of_obj t cls obj in
  commit_bits t cls e ~set:0 ~clear:(obj_mask cls e obj) ~hold:false

(* Durably free the object but keep its slot reserved while a durable
   reference (a free leaf slot's p_value, an update record's POldV)
   still names it, so no domain can be handed the slot first. Release
   with [release_hold]. Identical PM traffic to [reset_obj_bit] — the
   reservation is volatile — so simulated-clock figures are unchanged.
   Under [No_reservation_hold] it degrades to plain [reset_obj_bit]; the
   later release stays safe (unreserving an unreserved slot is a
   no-op). *)
let reset_obj_bit_hold t cls ~obj =
  let e = entry_of_obj t cls obj in
  commit_bits t cls e ~set:0 ~clear:(obj_mask cls e obj)
    ~hold:(not (mutated No_reservation_hold))

(* Set [obj]'s bit and reset [old]'s with a hold: one header store when
   they share a chunk, otherwise [obj]'s header first. Under
   [No_reservation_hold] the reset holds nothing, as in
   [reset_obj_bit_hold]. *)
let commit_update t cls ~obj ~old =
  let e = entry_of_obj t cls obj in
  let set = obj_mask cls e obj in
  let hold = not (mutated No_reservation_hold) in
  match value_entry t old with
  | Some (ocls, oe) when oe == e ->
      commit_bits t cls e ~set ~clear:(obj_mask ocls oe old) ~hold;
      true
  | Some (ocls, oe) ->
      commit_bits t cls e ~set ~clear:0 ~hold:false;
      commit_bits t ocls oe ~set:0 ~clear:(obj_mask ocls oe old) ~hold;
      true
  | None ->
      commit_bits t cls e ~set ~clear:0 ~hold:false;
      false

let obj_bit t cls ~obj =
  let e = entry_of_obj t cls obj in
  read_bits t e land obj_mask cls e obj <> 0

let cancel_reservation t cls ~obj =
  let e = entry_of_obj t cls obj in
  let bit = obj_mask cls e obj in
  let mu = t.chunk_mu.(stripe_of e.chunk) in
  Hart_util.Sched_hook.lock mu;
  e.reserved <- e.reserved land lnot bit;
  let room = plain_room cls e in
  Mutex.unlock mu;
  if room then mark_avail t cls e.chunk

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

(* Whether [v] is a committed object of a registered value chunk. *)
let value_committed t v =
  match value_entry t v with
  | Some (vcls, ve) -> (
      match Chunk.idx_of_obj vcls ~chunk:ve.chunk ~obj:v with
      | idx -> read_bits t ve land (1 lsl idx) <> 0
      | exception Invalid_argument _ -> false)
  | None -> false

(* fsck: rewrite a chunk header that is not the one its mirror implies.
   Right after [attach] the mirror is the PM bitmap, so only a corrupt
   hint/full byte can differ; later the mirror holds the last bitmap the
   allocator stored, so a bitmap a stray write changed is put back. *)
let repair_header t cls ~chunk =
  let e = Registry.find (Atomic.get t.registry.(cls_id cls)) chunk in
  with_stripe t chunk (fun () ->
      let bits = read_bits t e in
      let h = Chunk.header t.pool ~chunk in
      if h = Chunk.header_of_bits bits then `Intact
      else begin
        store_bits t e bits;
        if Int64.to_int h land full_mask = bits then `Hint_rewritten
        else `Bitmap_restored
      end)

(* ------------------------------------------------------------------ *)
(* Recycling (Algorithm 6)                                             *)

(* Class and stripe locks held, [e] empty: unlink it under the recycle
   log and give its space back. *)
let unlink t cls e =
  let id = cls_id cls and chunk = e.chunk in
  let slot = Microlog.Recycle.acquire t.logs in
  let prev = e.prev in
  Microlog.Recycle.record t.logs ~slot ~pprev:prev ~cls ~pcurrent:chunk;
  let next = Chunk.pnext t.pool ~chunk in
  if prev = 0 then set_head t cls next else Chunk.set_pnext t.pool ~chunk:prev next;
  set_prev t id next prev;
  Chunk.release t.pool cls ~chunk;
  (* unregister before dropping the stripe lock so no domain can
     reserve into the freed chunk through a stale active/avail
     reference *)
  unregister t id e;
  Hashtbl.remove t.avail.(id) chunk;
  Microlog.Recycle.reclaim t.logs ~slot

let rec eprecycle t cls ~chunk =
  let id = cls_id cls in
  let taken =
    with_lock t.class_mu.(id) (fun () ->
        with_stripe t chunk (fun () ->
            match Registry.find (Atomic.get t.registry.(id)) chunk with
            | exception Not_found -> None
            | e when read_bits t e <> 0 || e.reserved <> 0 -> None
            | e when e.owned = 0 ->
                unlink t cls e;
                None
            | e ->
                (* take the owning slots, reserved until they name
                   nothing or are unlinked *)
                let o = e.owned in
                e.owned <- 0;
                e.reserved <- o;
                Some (e, o)))
  in
  match taken with Some (e, owners) -> recycle_owning t e owners | None -> ()

(* An empty leaf chunk whose free slots own values (DESIGN.md §6 item
   2). No lock is held here: resetting a value's bit takes value-class
   locks, which never nest inside leaf-class ones. The values' bits are
   reset durably, each held, before the unlink starts, so no crash can
   leave a committed value that nothing names; the holds outlast every
   durable slot naming a value, so no crash can leave a slot naming a
   value another key has since been given. If the chunk changed
   meanwhile — a domain reserved another of its slots, or committed and
   deleted one — it stays linked, and the taken slots are severed
   before the holds end. *)
and recycle_owning t e owners =
  let chunk = e.chunk in
  let leaves = ref [] and o = ref owners in
  while !o <> 0 do
    let idx = Bits.ctz !o in
    o := !o land (!o - 1);
    leaves := Chunk.obj_off Chunk.Leaf_c ~chunk ~idx :: !leaves
  done;
  let values =
    List.filter_map
      (fun leaf ->
        let v = Leaf.p_value t.pool ~leaf in
        Option.map (fun (vcls, _) -> (vcls, v)) (value_entry t v))
      !leaves
  in
  let let_go () = List.iter (fun (vcls, obj) -> reset_obj_bit_hold t vcls ~obj) values in
  if not (mutated Unlink_before_reset) then let_go ();
  let unlinked =
    with_lock t.class_mu.(cls_id Chunk.Leaf_c) (fun () ->
        with_stripe t chunk (fun () ->
            read_bits t e = 0 && e.reserved = owners && e.owned = 0
            && (unlink t Chunk.Leaf_c e;
                true)))
  in
  if mutated Unlink_before_reset then let_go ();
  let end_holds () = List.iter (fun (vcls, obj) -> release_hold t vcls ~obj) values in
  if unlinked then end_holds ()
  else begin
    Atomic.incr abandoned;
    if mutated Release_before_sever then end_holds ();
    List.iter (fun leaf -> Leaf.set_p_value t.pool ~leaf 0) !leaves;
    with_stripe t chunk (fun () -> e.reserved <- e.reserved land lnot owners);
    mark_avail t Chunk.Leaf_c chunk;
    if not (mutated Release_before_sever) then end_holds ();
    (* a slot another domain committed and deleted meanwhile owns its
       value now, and its free_leaf's recycle gave up on our
       reservations: try again *)
    eprecycle t Chunk.Leaf_c ~chunk
  end

and release_hold t cls ~obj =
  cancel_reservation t cls ~obj;
  eprecycle t cls ~chunk:(chunk_of_obj t cls obj)

let release_held t obj =
  match class_of_value_obj t obj with
  | Some cls -> release_hold t cls ~obj
  | None -> ()

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
  (match store_bits t e (read_bits t e land lnot bit) with
  | () -> Mutex.unlock mu
  | exception ex ->
      Mutex.unlock mu;
      raise ex);
  mark_avail t Chunk.Leaf_c e.chunk;
  eprecycle t Chunk.Leaf_c ~chunk:e.chunk

(* ------------------------------------------------------------------ *)
(* Recovery (single-domain: runs before the store is shared)           *)

(* The repair for a log slot on a corrupt media line or failing its
   word CRC: discard the record and end the hold of the POldV a kept
   record held. A record that held nothing may be an operation in
   flight, so it is reported as lost; any other slot only needed the
   rewrite. Before replay no slot holds anything. *)
let scrub_log_slot t ~report (kind, slot, off) =
  let durable = Microlog.pending t.logs ~kind ~slot in
  let held = Microlog.discard_slot t.logs ~kind ~slot in
  release_held t held;
  let lost = durable && held = 0 in
  report
    {
      Hart_error.f_site = Log_slot { kind; slot; off };
      f_action = (if lost then Quarantined else Repaired);
      f_detail =
        (if lost then
           "pending log record on corrupt media discarded (treated as never \
            committed)"
         else "idle log slot rewritten to zero (line resealed)");
      f_keys = [];
      f_capacity = (if lost then 1 else 0);
    }

let recover_recycle_log t ~slot =
  let logs = t.logs in
  let chunk = Microlog.Recycle.pcurrent logs ~slot in
  let cls = Microlog.Recycle.cls logs ~slot in
  let id = cls_id cls in
  (* the registry holds exactly the chunks the chain walk reached, and
     each replay keeps it so *)
  (match Registry.find (Atomic.get t.registry.(id)) chunk with
  | e ->
      (* still linked: resume the unlink from where it stopped *)
      let logged = Microlog.Recycle.pprev logs ~slot in
      let prev =
        if t.heads.(id) = chunk then 0 else if logged <> 0 then logged else e.prev
      in
      let next = Chunk.pnext t.pool ~chunk in
      if prev = 0 then set_head t cls next else Chunk.set_pnext t.pool ~chunk:prev next;
      set_prev t id next prev;
      Chunk.release t.pool cls ~chunk;
      unregister t id e;
      Hashtbl.remove t.avail.(id) chunk
  | exception Not_found ->
      (* already unlinked: the pool free was idempotent at the allocator
         level, so only the log remains to clean *)
      ());
  Microlog.Recycle.reclaim logs ~slot

(* Whether [obj] is an object boundary of a registered leaf chunk whose
   bit is set: a leaf some key owns. *)
let committed_leaf t obj =
  match obj_bit t Chunk.Leaf_c ~obj with
  | live -> live
  | exception (Not_found | Invalid_argument _) -> false

(* A completed update keeps its record, and its POldV stays reserved
   while the record is durable (and again from here on, if kept). So
   POldV was never reallocated, and a committed PLeaf still pointing at
   it proves the update in flight, whether or not its bits were
   committed: the redo's set is idempotent and its reset is guarded by
   the bit. A PLeaf pointing at PNewV proves the update past its leaf
   store, which follows both bit commits. Any other PLeaf belongs to a
   later epoch: the record is stale. Keeping a record writes nothing, so
   recovering a quiescent image is flush-free. *)
let recover_update_log t ~slot =
  let logs = t.logs in
  let pleaf = Microlog.Update.pleaf logs ~slot in
  let poldv = Microlog.Update.poldv logs ~slot in
  let pnewv = Microlog.Update.pnewv logs ~slot in
  let p_value =
    if pleaf <> 0 && poldv <> 0 && pnewv <> 0 && committed_leaf t pleaf then
      Leaf.p_value t.pool ~leaf:pleaf
    else 0
  in
  match value_entry t poldv with
  | Some (vcls, e) when p_value <> poldv && pnewv <> 0 ->
      let bit = 1 lsl Chunk.idx_of_obj vcls ~chunk:e.chunk ~obj:poldv in
      with_stripe t e.chunk (fun () ->
          let bits = read_bits t e in
          (* only an image written when the old bit was reset after
             the leaf store can have crashed in between *)
          if p_value = pnewv && bits land bit <> 0 then store_bits t e (bits land lnot bit);
          e.reserved <- e.reserved lor bit);
      Microlog.Update.release logs ~slot ~held:poldv
  | _ ->
      if p_value <> 0 && p_value = poldv then begin
        (* the crash hit before the leaf store: replay from the bits *)
        (match class_of_value_obj t pnewv with
        | Some vcls -> set_obj_bit t vcls ~obj:pnewv
        | None -> ());
        Leaf.set_p_value t.pool ~leaf:pleaf pnewv;
        match class_of_value_obj t poldv with
        | Some vcls ->
            if obj_bit t vcls ~obj:poldv then reset_obj_bit t vcls ~obj:poldv;
            eprecycle t vcls ~chunk:(chunk_of_obj t vcls poldv)
        | None -> ()
      end;
      (* a torn record (a zero word) changed nothing; one whose POldV is
         in no value chunk has nothing to hold *)
      Microlog.Update.reclaim logs ~slot

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
          (* the header read that rebuilds the mirror also feeds the
             avail cache *)
          let bits = Int64.to_int (Chunk.bitmap pool ~chunk) in
          let e = new_entry t id chunk ~bits ~prev in
          walked := e :: !walked;
          if plain_room cls e then Hashtbl.replace t.avail.(id) chunk ();
          Chunk.pnext pool ~chunk
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
  (* Scrub the micro-logs BEFORE replay: a record sitting on a corrupt
     line, or failing its word CRC, must never be replayed — discarding
     it is the torn-record treatment (the logged operation did not
     commit). Zero+persist also reseals the line's ECC entry. *)
  if quarantine then begin
    let to_scrub = Hashtbl.create 8 in
    List.iter
      (fun (kind, slot, off) -> Hashtbl.replace to_scrub (kind, slot) off)
      (Microlog.slots_overlapping logs ~lines:bad_lines @ Microlog.verify logs);
    Hashtbl.iter
      (fun (kind, slot) off -> scrub_log_slot t ~report:emit (kind, slot, off))
      to_scrub
  end;
  (* Replay, guarded in quarantine mode: a record whose pointers do not
     resolve to registered chunks is discarded rather than replayed into
     arbitrary pool bytes. *)
  let guarded kind ~slot ~off body =
    if not quarantine then body ()
    else
      try body () with
      | Hart_error.Error _ | Invalid_argument _ | Not_found
      | Pmem.Media_poisoned _ ->
          ignore (Microlog.discard_slot logs ~kind ~slot : int);
          emit
            {
              Hart_error.f_site = Log_slot { kind; slot; off };
              f_action = Quarantined;
              f_detail = "unreplayable log record discarded";
              f_keys = [];
              f_capacity = 1;
            }
  in
  Microlog.Recycle.iter_pending logs (fun ~slot ->
      let off = Microlog.slot_offset logs ~kind:"recycle" ~slot in
      guarded "recycle" ~slot ~off (fun () ->
          (if quarantine then
             let prev = Microlog.Recycle.pprev logs ~slot in
             let cls = Microlog.Recycle.cls logs ~slot in
             if
               prev <> 0
               && not (Registry.mem (Atomic.get t.registry.(cls_id cls)) prev)
             then
               Hart_error.error (Log_slot { kind = "recycle"; slot; off })
                 "PPrev %d is no registered chunk" prev);
          recover_recycle_log t ~slot));
  Microlog.Update.iter_pending logs (fun ~slot ->
      let off = Microlog.slot_offset logs ~kind:"update" ~slot in
      (* a kept record's PLeaf may since have been recycled: stale, not
         unreplayable *)
      guarded "update" ~slot ~off (fun () -> recover_update_log t ~slot));
  (* Ownership sweep (DESIGN.md §6 item 2): a free leaf slot whose
     p_value names a committed value owns it, and is marked so without a
     PM write, so a quiescent image still recovers flush-free. Any other
     non-null p_value names a value whose bit is clear: the footprint of
     a crash inside an insertion's class-mismatch window or a recycle's
     window, whose holds kept that value from being given to another key
     before the crash. The slot is severed, so no later reallocation of
     that value can make the slot look like an owner. In quarantine mode
     the sweep is skipped — a media fault can forge a p_value aliasing a
     live key's value, so the caller must run the deferred scan that
     knows the live keys' values ([Hart]'s quarantining recovery). *)
  if not quarantine then begin
    let reg = Atomic.get t.registry.(cls_id Chunk.Leaf_c) in
    let rec sweep chunk =
      if chunk <> 0 then begin
        let e = Registry.find reg chunk in
        (* the sweep never changes this leaf chunk's bitmap, so one
           bitmap read serves the whole chunk *)
        Chunk.iter_slots pool Chunk.Leaf_c ~chunk (fun ~idx ~obj ~live ->
            if not live then
              let v = Leaf.p_value pool ~leaf:obj in
              if v <> 0 then
                if
                  value_committed t v
                  || (mutated Own_uncommitted && value_entry t v <> None)
                then e.owned <- e.owned lor (1 lsl idx)
                else Leaf.set_p_value pool ~leaf:obj 0);
        sweep (Chunk.pnext pool ~chunk)
      end
    in
    sweep t.heads.(cls_id Chunk.Leaf_c)
  end;
  t

(* ------------------------------------------------------------------ *)
(* Introspection (quiesced callers)                                    *)

let iter_chunks t cls f =
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

let live_objects t cls =
  let n = ref 0 in
  iter_chunks t cls (fun chunk ->
      n := !n + Bits.popcount (Chunk.bitmap t.pool ~chunk));
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
      Chunk.iter_live t.pool cls ~chunk (fun ~idx:_ ~obj -> f ~obj))

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  for id = 0 to n_classes - 1 do
    let cls = cls_of_id id in
    if t.heads.(id) <> Int64.to_int (Pmem.get_u64 t.pool (head_field cls)) then
      fail "head mirror diverged for class %d" id;
    let reg = Atomic.get t.registry.(id) in
    let in_list = Hashtbl.create 16 in
    let prev = ref 0 in
    iter_chunks t cls (fun chunk ->
        if Hashtbl.mem in_list chunk then fail "chunk list cycle at %d" chunk;
        Hashtbl.add in_list chunk ();
        (match Registry.find reg chunk with
        | e ->
            if e.prev <> !prev then
              fail "chunk %d links back to %d but follows %d (class %d)" chunk
                e.prev !prev id
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
        let pm = Int64.to_int (Chunk.bitmap t.pool ~chunk:e.chunk) in
        if e.bits <> pm then
          fail "bitmap mirror of chunk %d is %#x but its PM bitmap is %#x"
            e.chunk e.bits pm;
        if e.reserved land lnot full_mask <> 0 then
          fail "reservation mask of chunk %d out of range" e.chunk;
        if e.owned land (e.bits lor e.reserved) <> 0 then
          fail "chunk %d marks a committed or reserved slot as an owner"
            e.chunk;
        if e.owned <> 0 && cls <> Chunk.Leaf_c then
          fail "value chunk %d has owning slots" e.chunk)
      reg
  done
