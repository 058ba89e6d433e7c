module Pmem = Hart_pmem.Pmem
module Crc32 = Hart_util.Crc32

let n_slots = 8
let slot_bytes = 24

(* Each slot owns a whole line, so writing or reclaiming a record is one
   single-line persist and a line holds at most one slot's record. *)
let region_bytes = 2 * n_slots * Pmem.line_bytes

type t = {
  pool : Pmem.t;
  base : int;
      (* line-aligned: update slots at [base], recycle slots after them *)
  checksummed : bool;  (* in-word CRC trailers on every log word *)
  mutable free_update : int;  (* bitmask of free update slots *)
  mutable free_recycle : int;
  (* The free masks are the only cross-domain shared state (a slot's 24
     bytes are owned by the acquirer until reclaim). Acquire blocks on
     [slot_freed] when all slots are busy; this is deadlock-free because
     slot holders only ever acquire in update→recycle order and never the
     reverse, so a recycle-slot holder always runs to completion. *)
  mu : Mutex.t;
  slot_freed : Condition.t;
  mutable acquire_timeout : float option;
      (* None = block forever (the historical behavior); [Some s] bounds
         the wait and turns an exhaustion deadlock into a typed
         [Hart_error] carrying the holder dump *)
  owners_update : int array;  (* slot -> holder domain id, -1 when free *)
  owners_recycle : int array;
  held : int array;
      (* update slot -> POldV of the record kept in it, which the caller
         keeps reserved (0: none); read and written by the slot's holder *)
}

let all_free = (1 lsl n_slots) - 1
let update_off t slot = t.base + (slot * Pmem.line_bytes)
let recycle_off t slot = t.base + ((n_slots + slot) * Pmem.line_bytes)

let make pool ~base ~checksummed =
  if base mod Pmem.line_bytes <> 0 then
    invalid_arg "Microlog: the log region must start on a line boundary";
  {
    pool;
    base;
    checksummed;
    free_update = all_free;
    free_recycle = all_free;
    mu = Mutex.create ();
    slot_freed = Condition.create ();
    acquire_timeout = None;
    owners_update = Array.make n_slots (-1);
    owners_recycle = Array.make n_slots (-1);
    held = Array.make n_slots 0;
  }

let create ?(checksummed = false) pool ~base =
  let t = make pool ~base ~checksummed in
  Pmem.set_string pool ~off:base (String.make region_bytes '\000');
  Pmem.persist pool ~off:base ~len:region_bytes;
  t

let attach ?(checksummed = false) pool ~base =
  let t = make pool ~base ~checksummed in
  for slot = 0 to n_slots - 1 do
    if Pmem.get_u64 pool (update_off t slot) <> 0L then
      t.free_update <- t.free_update land lnot (1 lsl slot);
    if Pmem.get_u64 pool (recycle_off t slot + 8) <> 0L then
      t.free_recycle <- t.free_recycle land lnot (1 lsl slot)
  done;
  t

let checksummed t = t.checksummed
let set_acquire_timeout t timeout = t.acquire_timeout <- timeout

let pick_free mask =
  let rec go i =
    if i >= n_slots then -1 else if mask land (1 lsl i) <> 0 then i else go (i + 1)
  in
  go 0

let owners_of t = function
  | "update" -> t.owners_update
  | _ -> t.owners_recycle

(* mu held *)
let busy_dump_locked t kind =
  let owners = owners_of t kind in
  let busy = ref [] in
  for slot = n_slots - 1 downto 0 do
    if owners.(slot) >= 0 then busy := (slot, owners.(slot)) :: !busy
  done;
  !busy

(* [get] reads the current mask, [clear] removes the chosen slot from it;
   blocks until a slot is available (bounded by [acquire_timeout]). *)
let acquire_slot t ~kind ~get ~clear =
  (* Under the cooperative crash explorer a [Condition.wait] would park
     the only OS thread, so exhaustion spins through the scheduler
     instead (unlock / yield / retry); the real-domain path blocks on
     the condition when no timeout is configured, and polls against the
     deadline otherwise (OCaml's [Condition] has no timed wait). *)
  Hart_util.Sched_hook.lock t.mu;
  let deadline = ref neg_infinity in
  let rec wait () =
    match pick_free (get t) with
    | -1 ->
        (if Hart_util.Sched_hook.active () then begin
           Mutex.unlock t.mu;
           Hart_util.Sched_hook.yield ();
           Hart_util.Sched_hook.lock t.mu
         end
         else
           match t.acquire_timeout with
           | None -> Condition.wait t.slot_freed t.mu
           | Some timeout ->
               let now = Unix.gettimeofday () in
               if !deadline = neg_infinity then deadline := now +. timeout
               else if now >= !deadline then begin
                 let busy = busy_dump_locked t kind in
                 Mutex.unlock t.mu;
                 raise
                   (Hart_error.Error
                      {
                        site = Log_stall { kind; waited = timeout; busy };
                        detail =
                          Printf.sprintf
                            "all %d %s-log slots held for %.3fs without a \
                             reclaim — likely a deadlocked or stalled holder"
                            n_slots kind timeout;
                        keys = [];
                      })
               end
               else begin
                 Mutex.unlock t.mu;
                 Domain.cpu_relax ();
                 Hart_util.Sched_hook.lock t.mu
               end);
        wait ()
    | slot ->
        clear t slot;
        (owners_of t kind).(slot) <- (Domain.self () :> int);
        slot
  in
  let slot = wait () in
  Mutex.unlock t.mu;
  slot

let release_slot t ~kind ~set slot =
  Mutex.lock t.mu;
  set t slot;
  (owners_of t kind).(slot) <- -1;
  Condition.broadcast t.slot_freed;
  Mutex.unlock t.mu

(* In-word CRC trailer (opt-in): log values are pool offsets or class
   tags, all well below 2^32, so the upper half of each 8-byte word is
   free to carry the CRC-32 of the lower half. The trailer travels in
   the same word as the value — same stores, same flushes, atomic with
   it at line granularity — so enabling checksums changes no flush
   counts. The all-zero word (the "empty" marker crash recovery keys on)
   stays all-zero. *)
let crc_of_low v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (v land 0xFFFFFFFF));
  Crc32.bytes_sub b ~off:0 ~len:4

let kind_of_off t off = if off < recycle_off t 0 then "update" else "recycle"

let slot_of_off t off = (off - t.base) / Pmem.line_bytes mod n_slots

let word_get t off =
  let raw = Pmem.get_u64 t.pool off in
  if raw = 0L then 0
  else if not t.checksummed then Int64.to_int raw
  else begin
    let low = Int64.to_int (Int64.logand raw 0xFFFFFFFFL) in
    let high = Int64.to_int (Int64.shift_right_logical raw 32) in
    if high <> crc_of_low low then
      Hart_error.error
        (Log_slot { kind = kind_of_off t off; slot = slot_of_off t off; off })
        "log word @%d fails its CRC (stored %08x, computed %08x)" off high
        (crc_of_low low);
    low
  end

(* Store one word without persisting it: a record's words are stored
   and then persisted together by [commit]. *)
let word_store t off v =
  let raw =
    if v = 0 || not t.checksummed then Int64.of_int v
    else begin
      if v land 0xFFFFFFFF <> v then
        invalid_arg "Microlog: checksummed log word exceeds 32 bits";
      Int64.logor (Int64.of_int v)
        (Int64.shift_left (Int64.of_int (crc_of_low v)) 32)
    end
  in
  Pmem.set_u64 t.pool off raw

(* The record's words share the slot's line, so this is one flush. The
   caller stores last the word without which recovery replays nothing
   (PNewV: an update is redone only when all three words are set;
   PCurrent: the word [Recycle.iter_pending] tests). Under TSO a line
   written back early holds a prefix of the stores, and every proper
   prefix lacks that word. *)
let commit t off = Pmem.persist t.pool ~off ~len:slot_bytes

(* One slot's word offsets, for verification and scrubbing. *)
let slot_off t ~kind ~slot =
  if kind = "update" then update_off t slot else recycle_off t slot

let slot_offset = slot_off

let verify t =
  if not t.checksummed then []
  else begin
    let bad = ref [] in
    List.iter
      (fun kind ->
        for slot = n_slots - 1 downto 0 do
          let off = slot_off t ~kind ~slot in
          let slot_bad = ref false in
          for w = 0 to 2 do
            let raw = Pmem.get_u64 t.pool (off + (8 * w)) in
            if raw <> 0L then begin
              let low = Int64.to_int (Int64.logand raw 0xFFFFFFFFL) in
              let high = Int64.to_int (Int64.shift_right_logical raw 32) in
              if high <> crc_of_low low then slot_bad := true
            end
          done;
          if !slot_bad then bad := (kind, slot, off) :: !bad
        done)
      [ "recycle"; "update" ];
    !bad
  end

let slots_overlapping t ~lines =
  let on_lines = Pmem.touches_lines lines in
  let hits = ref [] in
  List.iter
    (fun kind ->
      for slot = n_slots - 1 downto 0 do
        let off = slot_off t ~kind ~slot in
        if on_lines off slot_bytes then hits := (kind, slot, off) :: !hits
      done)
    [ "recycle"; "update" ];
  !hits

let pending t ~kind ~slot =
  let off = slot_off t ~kind ~slot in
  let key_word = if kind = "update" then off else off + 8 in
  Pmem.get_u64 t.pool key_word <> 0L

(* Discard a slot's record without interpreting it (the torn-record
   treatment: a log record that fails verification is as good as never
   written — the logged operation simply did not commit). Zeroes and
   persists the slot, then returns it to the free set. *)
let discard_slot t ~kind ~slot =
  let off = slot_off t ~kind ~slot in
  Pmem.set_string t.pool ~off (String.make slot_bytes '\000');
  Pmem.persist t.pool ~off ~len:slot_bytes;
  Mutex.lock t.mu;
  let held =
    if kind = "update" then begin
      t.free_update <- t.free_update lor (1 lsl slot);
      let h = t.held.(slot) in
      t.held.(slot) <- 0;
      h
    end
    else begin
      t.free_recycle <- t.free_recycle lor (1 lsl slot);
      0
    end
  in
  (owners_of t kind).(slot) <- -1;
  Condition.broadcast t.slot_freed;
  Mutex.unlock t.mu;
  held

module Update = struct
  let acquire t =
    acquire_slot t ~kind:"update"
      ~get:(fun t -> t.free_update)
      ~clear:(fun t slot -> t.free_update <- t.free_update land lnot (1 lsl slot))

  (* The slot may still hold the complete record of an earlier update,
     so PNewV is zeroed first: every state of the line between the two
     records lacks PNewV, and recovery redoes nothing from it. *)
  let record t ~slot ~pleaf ~poldv ~pnewv =
    let off = update_off t slot in
    word_store t (off + 16) 0;
    word_store t off pleaf;
    word_store t (off + 8) poldv;
    word_store t (off + 16) pnewv;
    commit t off;
    let prev = t.held.(slot) in
    t.held.(slot) <- 0;
    prev

  let pleaf t ~slot = word_get t (update_off t slot)
  let poldv t ~slot = word_get t (update_off t slot + 8)
  let pnewv t ~slot = word_get t (update_off t slot + 16)

  let release t ~slot ~held =
    t.held.(slot) <- held;
    release_slot t ~kind:"update"
      ~set:(fun t slot -> t.free_update <- t.free_update lor (1 lsl slot))
      slot

  (* Zeroes persist: a record nobody keeps has no held POldV, so if it
     survived a crash, recovery could read a reallocated POldV through
     it (DESIGN.md §6). *)
  let reclaim t ~slot =
    let off = update_off t slot in
    Pmem.set_string t.pool ~off (String.make slot_bytes '\000');
    Pmem.persist t.pool ~off ~len:slot_bytes;
    release t ~slot ~held:0

  let iter_pending t f =
    for slot = 0 to n_slots - 1 do
      if pleaf t ~slot <> 0 then f ~slot
    done
end

module Recycle = struct
  let cls_to_int = function
    | Chunk.Leaf_c -> 0
    | Chunk.Val8 -> 1
    | Chunk.Val16 -> 2
    | Chunk.Val32 -> 3

  let cls_of_int ~slot ~off = function
    | 0 -> Chunk.Leaf_c
    | 1 -> Chunk.Val8
    | 2 -> Chunk.Val16
    | 3 -> Chunk.Val32
    | n ->
        Hart_error.error (Log_slot { kind = "recycle"; slot; off })
          "bad class tag %d in recycle log (want 0..3)" n

  let acquire t =
    acquire_slot t ~kind:"recycle"
      ~get:(fun t -> t.free_recycle)
      ~clear:(fun t slot ->
        t.free_recycle <- t.free_recycle land lnot (1 lsl slot))

  let record t ~slot ~pprev ~cls ~pcurrent =
    (* PCurrent is the key word: stored after PPrev and the class tag, so
       recovery never sees a chunk pointer without its list identity *)
    let off = recycle_off t slot in
    word_store t off pprev;
    word_store t (off + 16) (cls_to_int cls);
    word_store t (off + 8) pcurrent;
    commit t off

  let pprev t ~slot = word_get t (recycle_off t slot)
  let pcurrent t ~slot = word_get t (recycle_off t slot + 8)

  let cls t ~slot =
    let off = recycle_off t slot + 16 in
    cls_of_int ~slot ~off (word_get t off)

  (* persisted for the same reason as Update.reclaim: a stale recycle
     log must not survive into a later epoch where its chunk offset has
     been reallocated *)
  let reclaim t ~slot =
    let off = recycle_off t slot in
    Pmem.set_string t.pool ~off (String.make slot_bytes '\000');
    Pmem.persist t.pool ~off ~len:slot_bytes;
    release_slot t ~kind:"recycle"
      ~set:(fun t slot -> t.free_recycle <- t.free_recycle lor (1 lsl slot))
      slot

  let iter_pending t f =
    for slot = 0 to n_slots - 1 do
      if pcurrent t ~slot <> 0 then f ~slot
    done
end
