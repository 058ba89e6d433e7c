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
      (* line-aligned: the v02 layout's update slots at [base], which
         nothing writes any more, then the recycle slots *)
  checksummed : bool;  (* in-word CRC trailers on every log word *)
  mutable free : int;  (* bitmask of free recycle slots *)
  (* The free mask is the only cross-domain shared state (a slot's 24
     bytes are owned by the acquirer until reclaim). Acquire blocks on
     [slot_freed] when all slots are busy; a holder never acquires a
     second slot, so it always runs to completion. *)
  mu : Mutex.t;
  slot_freed : Condition.t;
  mutable acquire_timeout : float option;
      (* None = block forever (the historical behavior); [Some s] bounds
         the wait and turns an exhaustion deadlock into a typed
         [Hart_error] carrying the holder dump *)
  owners : int array;  (* slot -> holder domain id, -1 when free *)
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
    free = all_free;
    mu = Mutex.create ();
    slot_freed = Condition.create ();
    acquire_timeout = None;
    owners = Array.make n_slots (-1);
  }

let create ?(checksummed = false) pool ~base =
  let t = make pool ~base ~checksummed in
  Pmem.set_string pool ~off:base (String.make region_bytes '\000');
  Pmem.persist pool ~off:base ~len:region_bytes;
  t

let attach ?(checksummed = false) pool ~base =
  let t = make pool ~base ~checksummed in
  for slot = 0 to n_slots - 1 do
    (* a slot whose line cannot be read may hold a record: busy until
       the quarantining mount discards it *)
    match Pmem.get_u64 pool (recycle_off t slot + 8) with
    | 0L -> ()
    | _ | (exception Pmem.Media_poisoned _) ->
        t.free <- t.free land lnot (1 lsl slot)
  done;
  t

let checksummed t = t.checksummed
let in_use t ~slot = t.free land (1 lsl slot) = 0
let set_acquire_timeout t timeout = t.acquire_timeout <- timeout

let pick_free mask =
  let rec go i =
    if i >= n_slots then -1 else if mask land (1 lsl i) <> 0 then i else go (i + 1)
  in
  go 0

(* mu held *)
let busy_dump_locked t =
  let busy = ref [] in
  for slot = n_slots - 1 downto 0 do
    if t.owners.(slot) >= 0 then busy := (slot, t.owners.(slot)) :: !busy
  done;
  !busy

(* Blocks until a slot is available (bounded by [acquire_timeout]). *)
let acquire_slot t =
  (* Under the cooperative crash explorer a [Condition.wait] would park
     the only OS thread, so exhaustion spins through the scheduler
     instead (unlock / yield / retry); the real-domain path blocks on
     the condition when no timeout is configured, and polls against the
     deadline otherwise (OCaml's [Condition] has no timed wait). *)
  Hart_util.Sched_hook.lock t.mu;
  let deadline = ref neg_infinity in
  let rec wait () =
    match pick_free t.free with
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
                 let busy = busy_dump_locked t in
                 Mutex.unlock t.mu;
                 raise
                   (Hart_error.Error
                      {
                        site = Log_stall { kind = "recycle"; waited = timeout; busy };
                        detail =
                          Printf.sprintf
                            "all %d recycle-log slots held for %.3fs without a \
                             reclaim — likely a deadlocked or stalled holder"
                            n_slots timeout;
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
        t.free <- t.free land lnot (1 lsl slot);
        t.owners.(slot) <- (Domain.self () :> int);
        slot
  in
  let slot = wait () in
  Mutex.unlock t.mu;
  slot

let release_slot t slot =
  Mutex.lock t.mu;
  t.free <- t.free lor (1 lsl slot);
  t.owners.(slot) <- -1;
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
        (Log_slot { kind = "recycle"; slot = slot_of_off t off; off })
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
   (PCurrent, the word [Recycle.iter_pending] tests). Under TSO a line
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
            match Pmem.get_u64 t.pool (off + (8 * w)) with
            | 0L -> ()
            | raw ->
                let low = Int64.to_int (Int64.logand raw 0xFFFFFFFFL) in
                let high = Int64.to_int (Int64.shift_right_logical raw 32) in
                if high <> crc_of_low low then slot_bad := true
            | exception Pmem.Media_poisoned _ -> slot_bad := true
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

(* Rewrite a slot's line to zeroes without reading it (the torn-record
   treatment: a log record that fails verification, or sits on a line
   that cannot be read, is as good as never written — the logged
   operation simply did not commit), persist it, which reseals the
   line, and return a recycle slot to the free set. *)
let discard_slot t ~kind ~slot =
  let off = slot_off t ~kind ~slot in
  Pmem.set_string t.pool ~off (String.make slot_bytes '\000');
  Pmem.persist t.pool ~off ~len:slot_bytes;
  if kind = "recycle" then release_slot t slot

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

  let acquire = acquire_slot

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

  (* Zeroes persist: a stale recycle log must not survive into a later
     epoch where its chunk offset has been reallocated. *)
  let reclaim t ~slot = discard_slot t ~kind:"recycle" ~slot

  let iter_pending t f =
    for slot = 0 to n_slots - 1 do
      if pcurrent t ~slot <> 0 then f ~slot
    done
end
