exception Crash_injected
exception Out_of_memory_pm
exception Media_poisoned of { off : int; line : int }

let line_bytes = 64

type media_fault =
  | Flip_bit of { off : int; bit : int }
  | Flip_bits of { seed : int64; flips : int }
  | Clobber_line of { line : int; seed : int64 }
  | Stuck_line of { line : int }
  | Poison_line of { line : int }

type media_report = { corrupt_lines : int list; poisoned_lines : int list }

type crash_mode =
  | Clean
  | Torn of { seed : int64; fraction : float }
  | Torn_commit
  | Torn_lines of int list

type t = {
  meter : Meter.t;
  mutable cache : Bytes.t;  (* volatile view seen by loads/stores *)
  mutable shadow : Bytes.t;  (* durable image *)
  mutable dirty : Bytes.t;
      (* one byte per line of [cache]: a byte store touches no other
         line's flag, so domains storing to distinct lines never lose
         each other's dirty marks (a packed bitmap's read-modify-write
         on a shared byte would) *)
  mutable capacity : int;
  max_capacity : int;
  mutable brk : int;
  mutable live : int;
  mutable free_lists : (int, int list ref) Hashtbl.t;  (* size -> offsets *)
  mutable unpublished : (int * int * int) list;
      (* allocations whose publishing pointer is not yet durable:
         (offset, rounded size, offset of the pointer) *)
  alloc_mu : Mutex.t;  (* guards brk/live/free_lists/unpublished/grow *)
  mutable crash_after : int;  (* flushes until injected crash; -1 = off *)
  mutable crash_mode : crash_mode;
  mutable torn_commit_line : int;  (* line whose flush the crash interrupted *)
  mutable crash_fired : bool;  (* a crash happened since the last arm *)
  mutable total_flushes : int;  (* lifetime protocol flushes, survives Meter.reset *)
  mutable read_trace : (int, unit) Hashtbl.t option;  (* lines read while tracing *)
  mutable store_trace : (int * string) list option;  (* stores, newest first *)
  (* Media model. The DIMM's per-line ECC is modelled sparsely: a line
     whose durable bytes are what its last legitimate write left there
     has no entry, because its ECC would just be the CRC of those bytes.
     [expected] holds the ECC of the lines where that can fail — lines a
     fault mutated (sealed with the CRC of the bytes before the first
     mutation) and stuck lines written back (the CRC of the dropped
     data). A legitimate write-back or scrub of the line removes its
     entry. Injected faults happen while the pool is quiesced; the
     write-back path's mutations of the three tables take [media_mu]. *)
  expected : (int, int) Hashtbl.t;  (* line -> ECC of its intended bytes *)
  stuck : (int, unit) Hashtbl.t;  (* lines silently dropping write-backs *)
  poisoned : (int, unit) Hashtbl.t;  (* lines raising on any load *)
  media_mu : Mutex.t;
}

let n_lines cap = (cap + line_bytes - 1) / line_bytes

let create ?(capacity = 1 lsl 20) ?(max_capacity = 1 lsl 30) meter =
  let capacity = max line_bytes capacity in
  {
    meter;
    cache = Bytes.make capacity '\000';
    shadow = Bytes.make capacity '\000';
    dirty = Bytes.make (n_lines capacity) '\000';
    capacity;
    max_capacity;
    brk = line_bytes (* offset 0 is the null persistent pointer *);
    live = 0;
    free_lists = Hashtbl.create 7;
    unpublished = [];
    alloc_mu = Mutex.create ();
    crash_after = -1;
    crash_mode = Clean;
    torn_commit_line = -1;
    crash_fired = false;
    total_flushes = 0;
    read_trace = None;
    store_trace = None;
    expected = Hashtbl.create 4;
    stuck = Hashtbl.create 4;
    poisoned = Hashtbl.create 4;
    media_mu = Mutex.create ();
  }

let clone t =
  let free_lists = Hashtbl.create (max 7 (Hashtbl.length t.free_lists)) in
  Hashtbl.iter (fun size cell -> Hashtbl.add free_lists size (ref !cell)) t.free_lists;
  {
    t with
    cache = Bytes.copy t.cache;
    shadow = Bytes.copy t.shadow;
    dirty = Bytes.copy t.dirty;
    free_lists;
    alloc_mu = Mutex.create ();
    read_trace = None;
    store_trace = None;
    expected = Hashtbl.copy t.expected;
    stuck = Hashtbl.copy t.stuck;
    poisoned = Hashtbl.copy t.poisoned;
    media_mu = Mutex.create ();
  }

let meter t = t.meter
let capacity t = t.capacity
let live_bytes t = t.live

let dirty_get t line = Bytes.get t.dirty line <> '\000'
let dirty_set t line = Bytes.set t.dirty line '\001'
let dirty_clear t line = Bytes.set t.dirty line '\000'

(* Unlocked emptiness tests are the fast path of every write-back and
   scrub (and, on [poisoned] alone, of every load): the tables are only
   filled by fault injection, which runs while the pool is quiesced. *)
let media_faulty t =
  Hashtbl.length t.expected > 0
  || Hashtbl.length t.stuck > 0
  || Hashtbl.length t.poisoned > 0

let with_media t f =
  Mutex.lock t.media_mu;
  match f () with
  | v ->
      Mutex.unlock t.media_mu;
      v
  | exception e ->
      Mutex.unlock t.media_mu;
      raise e

let line_crc bytes line =
  Hart_util.Crc32.bytes_sub bytes ~off:(line * line_bytes) ~len:line_bytes

let grow t needed =
  let rec target cap = if cap >= needed then cap else target (cap * 2) in
  let cap = target t.capacity in
  if cap > t.max_capacity then raise Out_of_memory_pm;
  let cache = Bytes.make cap '\000'
  and shadow = Bytes.make cap '\000'
  and dirty = Bytes.make (n_lines cap) '\000' in
  Bytes.blit t.cache 0 cache 0 t.capacity;
  Bytes.blit t.shadow 0 shadow 0 t.capacity;
  Bytes.blit t.dirty 0 dirty 0 (Bytes.length t.dirty);
  t.cache <- cache;
  t.shadow <- shadow;
  t.dirty <- dirty;
  t.capacity <- cap

(* [alloc]/[free] are domain-safe: brk, live and the free lists are
   mutated only under [alloc_mu]. [grow] replaces the backing Bytes
   buffers, which would invalidate concurrent loads/stores in other
   domains — multi-domain users must pre-size the pool (or call
   {!reserve} while quiesced) so growth never fires mid-run. *)
let block_bytes size = (size + line_bytes - 1) / line_bytes * line_bytes

let alloc ?publish_at t size =
  if size <= 0 then invalid_arg "Pmem.alloc: size must be positive";
  Meter.pm_alloc t.meter;
  let rounded = block_bytes size in
  Mutex.lock t.alloc_mu;
  let off =
    match Hashtbl.find_opt t.free_lists rounded with
    | Some ({ contents = off :: rest } as cell) ->
        cell := rest;
        t.live <- t.live + rounded;
        (* recycled space must read as zero in both views, like fresh space;
           the allocator's scrub is a legitimate media write, so it reseals
           the lines' ECC and clears any read poison on them *)
        Bytes.fill t.cache off rounded '\000';
        Bytes.fill t.shadow off rounded '\000';
        if media_faulty t then
          with_media t (fun () ->
              for line = off / line_bytes to (off + rounded) / line_bytes - 1 do
                Hashtbl.remove t.expected line;
                Hashtbl.remove t.poisoned line
              done);
        off
    | Some { contents = [] } | None ->
        (if t.brk + rounded > t.capacity then
           try grow t (t.brk + rounded)
           with e ->
             Mutex.unlock t.alloc_mu;
             raise e);
        t.live <- t.live + rounded;
        let off = t.brk in
        t.brk <- t.brk + rounded;
        off
  in
  Option.iter (fun at -> t.unpublished <- (off, rounded, at) :: t.unpublished) publish_at;
  Mutex.unlock t.alloc_mu;
  off

let free t ~off ~len =
  Meter.pm_free t.meter;
  let rounded = block_bytes len in
  Mutex.lock t.alloc_mu;
  t.live <- max 0 (t.live - rounded);
  let cell =
    match Hashtbl.find_opt t.free_lists rounded with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.add t.free_lists rounded c;
        c
  in
  cell := off :: !cell;
  Mutex.unlock t.alloc_mu

let published t ~off =
  Mutex.lock t.alloc_mu;
  t.unpublished <- List.filter (fun (o, _, _) -> o <> off) t.unpublished;
  Mutex.unlock t.alloc_mu

let is_free t ~off ~len =
  let rounded = block_bytes len in
  Mutex.lock t.alloc_mu;
  let free =
    match Hashtbl.find_opt t.free_lists rounded with
    | Some cell -> List.mem off !cell
    | None -> false
  in
  Mutex.unlock t.alloc_mu;
  free

let reserve t needed =
  if needed < 0 then invalid_arg "Pmem.reserve";
  Mutex.lock t.alloc_mu;
  (try if needed > t.capacity then grow t needed
   with e ->
     Mutex.unlock t.alloc_mu;
     raise e);
  Mutex.unlock t.alloc_mu

let check t off len op =
  if off < 0 || len < 0 || off + len > t.brk then
    invalid_arg (Printf.sprintf "Pmem.%s: [%d,+%d) outside pool (brk=%d)" op off len t.brk)

let mark_written t off len =
  let first = off / line_bytes and last = (off + len - 1) / line_bytes in
  for line = first to last do
    dirty_set t line
  done;
  Meter.access_range t.meter Pm ~addr:off ~len ~write:true;
  match t.store_trace with
  | None -> ()
  | Some l -> t.store_trace <- Some ((off, Bytes.sub_string t.cache off len) :: l)

let store_trace_start t = t.store_trace <- Some []

let store_trace_stop t =
  let stores = Option.value t.store_trace ~default:[] in
  t.store_trace <- None;
  List.rev stores

let trace_read t off len =
  match t.read_trace with
  | None -> ()
  | Some tbl ->
      for line = off / line_bytes to (off + len - 1) / line_bytes do
        Hashtbl.replace tbl line ()
      done

let read_trace_start t = t.read_trace <- Some (Hashtbl.create 64)

let read_trace_stop t =
  let lines =
    match t.read_trace with
    | None -> []
    | Some tbl -> Hashtbl.fold (fun line () acc -> line :: acc) tbl []
  in
  t.read_trace <- None;
  List.sort_uniq compare lines

(* An uncorrectable media error surfaces as an exception on the load
   itself (a machine-check, in hardware terms). Only checked when poison
   is actually present so the common path stays one hash-table length
   test. *)
let poison_check t off len =
  if Hashtbl.length t.poisoned > 0 then
    let first = off / line_bytes and last = (off + len - 1) / line_bytes in
    let rec find line =
      if line > last then -1
      else if Hashtbl.mem t.poisoned line then line
      else find (line + 1)
    in
    let line = with_media t (fun () -> find first) in
    if line >= 0 then raise (Media_poisoned { off; line })

let get_u8 t off =
  check t off 1 "get_u8";
  poison_check t off 1;
  Meter.access t.meter Pm ~addr:off ~write:false;
  trace_read t off 1;
  Bytes.get_uint8 t.cache off

let set_u8 t off v =
  check t off 1 "set_u8";
  Bytes.set_uint8 t.cache off v;
  mark_written t off 1

let get_u64 t off =
  check t off 8 "get_u64";
  poison_check t off 8;
  Meter.access t.meter Pm ~addr:off ~write:false;
  trace_read t off 8;
  Bytes.get_int64_le t.cache off

let set_u64 t off v =
  check t off 8 "set_u64";
  Bytes.set_int64_le t.cache off v;
  mark_written t off 8

let set_int t off v =
  check t off 8 "set_int";
  Bytes.set_int64_le t.cache off (Int64.of_int v);
  mark_written t off 8

let get_u32 t off =
  check t off 4 "get_u32";
  poison_check t off 4;
  Meter.access t.meter Pm ~addr:off ~write:false;
  trace_read t off 4;
  Int32.to_int (Bytes.get_int32_le t.cache off) land 0xFFFFFFFF

let set_u32 t off v =
  check t off 4 "set_u32";
  Bytes.set_int32_le t.cache off (Int32.of_int v);
  mark_written t off 4

(* A load's checks and charges, with no copy *)
let load t off len op =
  check t off len op;
  poison_check t off len;
  Meter.access_range t.meter Pm ~addr:off ~len ~write:false;
  trace_read t off len

let fetch t ~off ~len = load t off len "fetch"

let peek_u8 t off = Bytes.get_uint8 t.cache off
let peek_int t off = Int64.to_int (Bytes.get_int64_le t.cache off)
let peek_string t ~off ~len = Bytes.sub_string t.cache off len

let rec equal_from cache off s n i =
  i = n || (Bytes.unsafe_get cache (off + i) = String.unsafe_get s i && equal_from cache off s n (i + 1))

let peek_equal t ~off s =
  let n = String.length s in
  off + n <= Bytes.length t.cache && equal_from t.cache off s n 0

let get_string t ~off ~len =
  load t off len "get_string";
  Bytes.sub_string t.cache off len

let set_string t ~off s =
  let len = String.length s in
  check t off len "set_string";
  Bytes.blit_string s 0 t.cache off len;
  mark_written t off len

let read_shadow_u64 t off =
  check t off 8 "read_shadow_u64";
  Bytes.get_int64_le t.shadow off

let blit_line t line =
  Bytes.blit t.cache (line * line_bytes) t.shadow (line * line_bytes) line_bytes

(* One line's worth of data leaving the cache hierarchy for the media —
   the only path by which the durable image legitimately changes after
   init. A stuck line silently drops the data, but the controller still
   reports success and records the ECC of what it MEANT to write, so the
   loss shows up later as an ECC/content mismatch in {!media_verify}.
   A successful full-line write-back reseals the line's ECC (drops its
   [expected] entry) and replaces a poisoned line's cell contents,
   clearing the poison. *)
let writeback_line t line =
  if not (media_faulty t) then blit_line t line
  else
    with_media t (fun () ->
        if Hashtbl.mem t.stuck line then
          Hashtbl.replace t.expected line (line_crc t.cache line)
        else begin
          blit_line t line;
          Hashtbl.remove t.expected line;
          Hashtbl.remove t.poisoned line
        end)

let flush_line t line =
  writeback_line t line;
  dirty_clear t line;
  t.total_flushes <- t.total_flushes + 1;
  Meter.flush_line t.meter ~addr:(line * line_bytes)

let flush_count t = t.total_flushes

let do_crash t =
  (* In [Torn] mode the hardware is assumed to have written back an
     arbitrary subset of dirty lines before power was lost (background
     eviction can persist any dirty line at any time), so the durable
     image the recovery sees includes that subset. *)
  (match t.crash_mode with
  | Clean -> ()
  | Torn { seed; fraction } ->
      let rng = Hart_util.Rng.create seed in
      for line = 0 to (t.brk - 1) / line_bytes do
        if dirty_get t line && Hart_util.Rng.float rng 1.0 < fraction then begin
          writeback_line t line;
          Meter.eviction t.meter
        end
      done
  | Torn_commit ->
      (* Adversarial torn crash: evict exactly the line whose flush the
         injected crash interrupted — for a crash armed at a commit
         store's persist, that IS the commit line (bitmap word,
         micro-log slot, chain pointer), landing durably while every
         other dirty line is lost. This is the worst targeted subset a
         random [Torn] draw only sometimes finds. *)
      let line = t.torn_commit_line in
      if line >= 0 && dirty_get t line then begin
        writeback_line t line;
        Meter.eviction t.meter
      end
  | Torn_lines lines ->
      (* Directed torn crash: the hardware wrote back exactly the listed
         lines (those still dirty at crash time) — used by the directed
         adversarial pass to evict precisely the lines a recovery is
         known to read. *)
      List.iter
        (fun line ->
          if line >= 0 && line <= (t.brk - 1) / line_bytes && dirty_get t line
          then begin
            writeback_line t line;
            Meter.eviction t.meter
          end)
        lines);
  t.crash_mode <- Clean;
  (* an allocation whose publishing pointer never reached PM is lost
     with it *)
  List.iter
    (fun (off, rounded, at) ->
      if Int64.to_int (Bytes.get_int64_le t.shadow at) <> off then begin
        t.live <- t.live - rounded;
        match Hashtbl.find_opt t.free_lists rounded with
        | Some cell -> cell := off :: !cell
        | None -> Hashtbl.add t.free_lists rounded (ref [ off ])
      end)
    t.unpublished;
  t.unpublished <- [];
  Bytes.blit t.shadow 0 t.cache 0 t.capacity;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Meter.invalidate_cache t.meter;
  t.crash_after <- -1;
  t.crash_fired <- true

let crash t = do_crash t

let arm_crash ?(mode = Clean) t ~after_flushes =
  if after_flushes < 0 then invalid_arg "Pmem.arm_crash";
  (match mode with
  | Clean | Torn_commit | Torn_lines _ -> ()
  | Torn { fraction; _ } ->
      if not (fraction >= 0. && fraction <= 1.) then
        invalid_arg "Pmem.arm_crash: torn fraction must be in [0, 1]");
  t.crash_after <- after_flushes;
  t.crash_mode <- mode;
  t.torn_commit_line <- -1;
  t.crash_fired <- false

let disarm_crash t =
  t.crash_after <- -1;
  t.crash_mode <- Clean;
  t.crash_fired <- false

let crash_fired t = t.crash_fired

let persist t ~off ~len =
  (* Flush boundaries are the finest-grained yield points of the
     cooperative concurrent explorer: a fiber parked here has issued
     stores that are not yet durable, exactly the window a crash
     schedule wants to interleave against. No-op outside exploration. *)
  Hart_util.Sched_hook.yield ();
  check t off len "persist";
  Meter.persist_call t.meter;
  Meter.fence t.meter;
  let first = off / line_bytes and last = (off + len - 1) / line_bytes in
  for line = first to last do
    if dirty_get t line then begin
      if t.crash_after = 0 then begin
        t.torn_commit_line <- line;
        do_crash t;
        raise Crash_injected
      end;
      flush_line t line;
      if t.crash_after > 0 then t.crash_after <- t.crash_after - 1
    end
  done;
  if t.crash_after = 0 then begin
    t.torn_commit_line <- last;
    do_crash t;
    raise Crash_injected
  end;
  Meter.fence t.meter

let persist_all t =
  for line = 0 to (t.brk - 1) / line_bytes do
    if dirty_get t line then flush_line t line
  done

let dirty_line_count t =
  let n = ref 0 in
  for line = 0 to (t.brk - 1) / line_bytes do
    if dirty_get t line then incr n
  done;
  !n

(* Image format v2: magic, version, brk, live, free-list table, the
   durable bytes up to brk, then a trailing CRC-32 of everything before
   it. Little-endian 64-bit fields. *)
let image_magic = 0x48415254504F4F4CL (* "HARTPOOL" *)
let image_version = 2L

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let crc = ref 0 in
      let w64_raw v =
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 v;
        output_bytes oc b;
        b
      in
      let w64 v =
        let b = w64_raw v in
        crc := Hart_util.Crc32.update !crc b ~off:0 ~len:8
      in
      w64 image_magic;
      w64 image_version;
      w64 (Int64.of_int t.brk);
      w64 (Int64.of_int t.live);
      let entries =
        Hashtbl.fold
          (fun size cell acc ->
            List.fold_left (fun acc off -> (size, off) :: acc) acc !cell)
          t.free_lists []
      in
      w64 (Int64.of_int (List.length entries));
      List.iter
        (fun (size, off) ->
          w64 (Int64.of_int size);
          w64 (Int64.of_int off))
        entries;
      output_bytes oc (Bytes.sub t.shadow 0 t.brk);
      crc := Hart_util.Crc32.update !crc t.shadow ~off:0 ~len:t.brk;
      ignore (w64_raw (Int64.of_int !crc) : Bytes.t))

let load ?(max_capacity = 1 lsl 30) meter path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let fail fmt = Printf.ksprintf failwith fmt in
      let crc = ref 0 in
      let r64_raw what =
        let b = Bytes.create 8 in
        (try really_input ic b 0 8
         with End_of_file -> fail "Pmem.load: truncated image (in %s)" what);
        Bytes.get_int64_le b 0
      in
      let r64 what =
        let b = Bytes.create 8 in
        (try really_input ic b 0 8
         with End_of_file -> fail "Pmem.load: truncated image (in %s)" what);
        crc := Hart_util.Crc32.update !crc b ~off:0 ~len:8;
        Bytes.get_int64_le b 0
      in
      if r64 "magic" <> image_magic then failwith "Pmem.load: bad magic";
      let version = r64 "version" in
      if version <> image_version then
        fail "Pmem.load: unsupported image version %Ld (want %Ld)" version
          image_version;
      let brk = Int64.to_int (r64 "header") in
      let live = Int64.to_int (r64 "header") in
      let n_free = Int64.to_int (r64 "header") in
      if brk < line_bytes || brk mod line_bytes <> 0 then
        fail "Pmem.load: corrupt brk %d (must be line-aligned and >= %d)" brk
          line_bytes;
      if brk > max_capacity then
        fail "Pmem.load: brk %d exceeds max capacity %d" brk max_capacity;
      if live < 0 || live > brk then
        fail "Pmem.load: corrupt live-byte count %d (brk=%d)" live brk;
      if n_free < 0 || n_free > brk / line_bytes then
        fail "Pmem.load: corrupt free-list entry count %d" n_free;
      let t = create ~capacity:brk ~max_capacity meter in
      (* each free region must be a positive, line-aligned span inside
         [line_bytes, brk), and no two regions may overlap *)
      let free_lines = Bytes.make ((brk / line_bytes / 8) + 1) '\000' in
      for _ = 1 to n_free do
        let size = Int64.to_int (r64 "free list") in
        let off = Int64.to_int (r64 "free list") in
        if size <= 0 || size mod line_bytes <> 0 then
          fail "Pmem.load: corrupt free region size %d" size;
        if off < line_bytes || off mod line_bytes <> 0 || off + size > brk then
          fail "Pmem.load: free region [%d,+%d) outside pool (brk=%d)" off size brk;
        for line = off / line_bytes to (off + size) / line_bytes - 1 do
          let i = line lsr 3 and bit = 1 lsl (line land 7) in
          if Bytes.get_uint8 free_lines i land bit <> 0 then
            fail "Pmem.load: overlapping free regions at offset %d"
              (line * line_bytes);
          Bytes.set_uint8 free_lines i (Bytes.get_uint8 free_lines i lor bit)
        done;
        let cell =
          match Hashtbl.find_opt t.free_lists size with
          | Some c -> c
          | None ->
              let c = ref [] in
              Hashtbl.add t.free_lists size c;
              c
        in
        cell := off :: !cell
      done;
      (try really_input ic t.shadow 0 brk
       with End_of_file -> failwith "Pmem.load: truncated image (in pool data)");
      crc := Hart_util.Crc32.update !crc t.shadow ~off:0 ~len:brk;
      let stored = Int64.to_int (r64_raw "checksum trailer") in
      if stored <> !crc then
        fail "Pmem.load: image checksum mismatch (stored %x, computed %08x)"
          stored !crc;
      if pos_in ic <> in_channel_length ic then
        failwith "Pmem.load: trailing bytes after pool data";
      (* the on-DIMM ECC reseals on mount, so [expected] starts empty:
         image-file integrity is the trailer's job, detection of
         post-mount media faults is the ECC's *)
      Bytes.blit t.shadow 0 t.cache 0 brk;
      t.brk <- brk;
      t.live <- live;
      t)

let evict_random t rng ~fraction =
  for line = 0 to (t.brk - 1) / line_bytes do
    if dirty_get t line && Hart_util.Rng.float rng 1.0 < fraction then begin
      writeback_line t line;
      dirty_clear t line;
      Meter.eviction t.meter
    end
  done

(* ------------------------------------------------------------------ *)
(* Media faults                                                        *)

let refresh_cache_line t line =
  (* a corrupted durable line is what the next cold load returns *)
  Bytes.blit t.shadow (line * line_bytes) t.cache (line * line_bytes) line_bytes;
  dirty_clear t line

let check_line t line op =
  if line < 0 || (line + 1) * line_bytes > t.brk then
    invalid_arg
      (Printf.sprintf "Pmem.%s: line %d outside pool (brk=%d)" op line t.brk)

(* Seal the ECC of a line a fault is about to mutate, unless an earlier
   fault or stuck write-back already did: the DIMM's ECC still describes
   the bytes the last legitimate write left there. *)
let seal t line =
  with_media t (fun () ->
      if not (Hashtbl.mem t.expected line) then
        Hashtbl.replace t.expected line (line_crc t.shadow line))

let inject_media_fault t fault =
  let flip off bit =
    check t off 1 "inject_media_fault";
    seal t (off / line_bytes);
    let b = Bytes.get_uint8 t.shadow off in
    Bytes.set_uint8 t.shadow off (b lxor (1 lsl (bit land 7)));
    refresh_cache_line t (off / line_bytes)
  in
  match fault with
  | Flip_bit { off; bit } -> flip off bit
  | Flip_bits { seed; flips } ->
      let rng = Hart_util.Rng.create seed in
      for _ = 1 to flips do
        (* bit before offset: the draw order of the seeded fault sites *)
        let bit = Hart_util.Rng.int rng 8 in
        let off = Hart_util.Rng.int rng t.brk in
        flip off bit
      done
  | Clobber_line { line; seed } ->
      check_line t line "inject_media_fault";
      seal t line;
      let rng = Hart_util.Rng.create seed in
      for i = 0 to line_bytes - 1 do
        Bytes.set_uint8 t.shadow ((line * line_bytes) + i)
          (Hart_util.Rng.int rng 256)
      done;
      refresh_cache_line t line
  | Stuck_line { line } ->
      check_line t line "inject_media_fault";
      with_media t (fun () -> Hashtbl.replace t.stuck line ())
  | Poison_line { line } ->
      check_line t line "inject_media_fault";
      with_media t (fun () -> Hashtbl.replace t.poisoned line ())

(* Every line without an [expected] entry holds what its ECC describes,
   so only the sealed lines need a CRC. *)
let media_verify t =
  with_media t (fun () ->
      let poisoned = Hashtbl.fold (fun line () acc -> line :: acc) t.poisoned [] in
      let corrupt =
        Hashtbl.fold
          (fun line crc acc ->
            if Hashtbl.mem t.poisoned line || line_crc t.shadow line = crc then acc
            else line :: acc)
          t.expected []
      in
      { corrupt_lines = List.sort compare corrupt;
        poisoned_lines = List.sort compare poisoned })

let touches_lines lines =
  let flagged = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace flagged l ()) lines;
  fun off len ->
    let last = (off + len - 1) / line_bytes in
    let rec go l = l <= last && (Hashtbl.mem flagged l || go (l + 1)) in
    go (off / line_bytes)

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>pool: capacity=%d brk=%d live=%d dirty_lines=%d@ %a@]"
    t.capacity t.brk t.live (dirty_line_count t) Meter.pp_counters
    (Meter.counters t.meter)
