type space = Dram | Pm

type counters = {
  pm_reads : int;
  pm_writes : int;
  dram_reads : int;
  dram_writes : int;
  pm_read_misses : int;
  dram_read_misses : int;
  flushes : int;
  fences : int;
  persist_calls : int;
  evictions : int;
  pm_allocs : int;
  pm_frees : int;
  sim_ns : float;
}

(* One mutable counter cell per domain slot. Sharding the counters (and
   the simulated clock) across domains removes the meter as a
   serialisation point: each domain only ever mutates its own cell, and
   [counters]/[sim_ns] merge the cells on read. A single-domain run uses
   exactly one cell, so its merged numbers are bit-identical to the old
   single-record implementation. *)
type cell = {
  mutable c_pm_reads : int;
  mutable c_pm_writes : int;
  mutable c_dram_reads : int;
  mutable c_dram_writes : int;
  mutable c_pm_read_misses : int;
  mutable c_dram_read_misses : int;
  mutable c_flushes : int;
  mutable c_fences : int;
  mutable c_persist_calls : int;
  mutable c_evictions : int;
  mutable c_pm_allocs : int;
  mutable c_pm_frees : int;
  c_sim_ns : float array;
      (* one element: the cell's simulated clock, kept unboxed so a
         charge is a plain float store ([mutable] float in this mixed
         record would box a fresh float on every charge) *)
}

let n_cells = 64 (* power of two; domains hash into cells by id *)

let fresh_cell () =
  {
    c_pm_reads = 0;
    c_pm_writes = 0;
    c_dram_reads = 0;
    c_dram_writes = 0;
    c_pm_read_misses = 0;
    c_dram_read_misses = 0;
    c_flushes = 0;
    c_fences = 0;
    c_persist_calls = 0;
    c_evictions = 0;
    c_pm_allocs = 0;
    c_pm_frees = 0;
    c_sim_ns = [| 0. |];
  }

type t = {
  config : Latency.config;
  cells : cell array;
  (* Direct-mapped LLC: tags.(set) holds the encoded line address resident
     in that set, or -1 when empty. Lines from the PM and DRAM address
     spaces are distinguished by the low tag bit. The array is shared by
     all domains — concurrent updates are benign races on immediate ints
     (the cache model degrades gracefully to an approximation under
     contention, and stays exact in single-domain runs). *)
  tags : int array;
  set_mask : int;
  dram_brk : int Atomic.t;
  dram_live : int Atomic.t;
}

let zero =
  {
    pm_reads = 0;
    pm_writes = 0;
    dram_reads = 0;
    dram_writes = 0;
    pm_read_misses = 0;
    dram_read_misses = 0;
    flushes = 0;
    fences = 0;
    persist_calls = 0;
    evictions = 0;
    pm_allocs = 0;
    pm_frees = 0;
    sim_ns = 0.;
  }

let line_bytes = 64

let create ?(llc_bytes = 20 * 1024 * 1024) config =
  let lines = max 64 (llc_bytes / line_bytes) in
  (* round down to a power of two so [land] can select the set *)
  let rec pow2 acc = if acc * 2 > lines then acc else pow2 (acc * 2) in
  let lines = pow2 64 in
  {
    config;
    cells = Array.init n_cells (fun _ -> fresh_cell ());
    tags = Array.make lines (-1);
    set_mask = lines - 1;
    dram_brk = Atomic.make line_bytes;
    dram_live = Atomic.make 0;
  }

let config t = t.config

let cell t = t.cells.((Domain.self () :> int) land (n_cells - 1))

let encode space addr =
  let line = addr / line_bytes in
  match space with Dram -> (line * 2) + 1 | Pm -> line * 2

let charge c ns = c.c_sim_ns.(0) <- c.c_sim_ns.(0) +. ns [@@inline]
let charge_ns t ns = charge (cell t) ns

let access t space ~addr ~write =
  let enc = encode space addr in
  let set = enc land t.set_mask in
  let hit = t.tags.(set) = enc in
  let c = cell t in
  if write then begin
    t.tags.(set) <- enc;
    (match space with
    | Pm -> c.c_pm_writes <- c.c_pm_writes + 1
    | Dram -> c.c_dram_writes <- c.c_dram_writes + 1);
    charge c t.config.llc_hit_ns
  end
  else begin
    (match space with
    | Pm -> c.c_pm_reads <- c.c_pm_reads + 1
    | Dram -> c.c_dram_reads <- c.c_dram_reads + 1);
    if hit then charge c t.config.llc_hit_ns
    else begin
      t.tags.(set) <- enc;
      match space with
      | Pm ->
          c.c_pm_read_misses <- c.c_pm_read_misses + 1;
          charge c t.config.pm_read_ns
      | Dram ->
          c.c_dram_read_misses <- c.c_dram_read_misses + 1;
          charge c t.config.dram_ns
    end
  end

let access_range t space ~addr ~len ~write =
  if len > 0 then begin
    let first = addr / line_bytes and last = (addr + len - 1) / line_bytes in
    for line = first to last do
      access t space ~addr:(line * line_bytes) ~write
    done
  end

let flush_line t ~addr =
  let enc = encode Pm addr in
  let set = enc land t.set_mask in
  if t.tags.(set) = enc then t.tags.(set) <- -1;
  let c = cell t in
  c.c_flushes <- c.c_flushes + 1;
  charge c t.config.pm_write_ns

let fence t =
  let c = cell t in
  c.c_fences <- c.c_fences + 1;
  charge c t.config.fence_ns

let persist_call t =
  let c = cell t in
  c.c_persist_calls <- c.c_persist_calls + 1

(* Underlying-PM-allocator cost model (§III-A.4: "existing persistent
   memory allocators exhibit poor performance when allocating numerous
   small objects"): an allocation persists its metadata — two ordered PM
   writes plus bookkeeping; a free persists one. EPallocator pays this
   once per 56-object chunk; the baselines pay it per object. *)
let pm_alloc t =
  let c = cell t in
  c.c_pm_allocs <- c.c_pm_allocs + 1;
  charge c ((2. *. t.config.pm_write_ns) +. 100.)

let pm_free t =
  let c = cell t in
  c.c_pm_frees <- c.c_pm_frees + 1;
  charge c (t.config.pm_write_ns +. 50.)

let persist_range t ~addr ~len =
  persist_call t;
  fence t;
  if len > 0 then begin
    let first = addr / line_bytes and last = (addr + len - 1) / line_bytes in
    for line = first to last do
      flush_line t ~addr:(line * line_bytes)
    done
  end;
  fence t

let write_range t space ~addr ~len = access_range t space ~addr ~len ~write:true

let eviction t =
  let c = cell t in
  c.c_evictions <- c.c_evictions + 1

let dram_alloc t size =
  (* keep distinct structures on distinct lines, as malloc would *)
  let rounded = (size + line_bytes - 1) / line_bytes * line_bytes in
  let addr = Atomic.fetch_and_add t.dram_brk rounded in
  ignore (Atomic.fetch_and_add t.dram_live size : int);
  addr

let dram_free t ~addr:_ ~size =
  ignore (Atomic.fetch_and_add t.dram_live (-size) : int)

let dram_live_bytes t = max 0 (Atomic.get t.dram_live)

let counters t =
  Array.fold_left
    (fun acc c ->
      {
        pm_reads = acc.pm_reads + c.c_pm_reads;
        pm_writes = acc.pm_writes + c.c_pm_writes;
        dram_reads = acc.dram_reads + c.c_dram_reads;
        dram_writes = acc.dram_writes + c.c_dram_writes;
        pm_read_misses = acc.pm_read_misses + c.c_pm_read_misses;
        dram_read_misses = acc.dram_read_misses + c.c_dram_read_misses;
        flushes = acc.flushes + c.c_flushes;
        fences = acc.fences + c.c_fences;
        persist_calls = acc.persist_calls + c.c_persist_calls;
        evictions = acc.evictions + c.c_evictions;
        pm_allocs = acc.pm_allocs + c.c_pm_allocs;
        pm_frees = acc.pm_frees + c.c_pm_frees;
        sim_ns = acc.sim_ns +. c.c_sim_ns.(0);
      })
    zero t.cells

let sim_ns t = Array.fold_left (fun acc c -> acc +. c.c_sim_ns.(0)) 0. t.cells

let reset t =
  Array.iter
    (fun c ->
      c.c_pm_reads <- 0;
      c.c_pm_writes <- 0;
      c.c_dram_reads <- 0;
      c.c_dram_writes <- 0;
      c.c_pm_read_misses <- 0;
      c.c_dram_read_misses <- 0;
      c.c_flushes <- 0;
      c.c_fences <- 0;
      c.c_persist_calls <- 0;
      c.c_evictions <- 0;
      c.c_pm_allocs <- 0;
      c.c_pm_frees <- 0;
      c.c_sim_ns.(0) <- 0.)
    t.cells

let invalidate_cache t = Array.fill t.tags 0 (Array.length t.tags) (-1)

let diff before after =
  {
    pm_reads = after.pm_reads - before.pm_reads;
    pm_writes = after.pm_writes - before.pm_writes;
    dram_reads = after.dram_reads - before.dram_reads;
    dram_writes = after.dram_writes - before.dram_writes;
    pm_read_misses = after.pm_read_misses - before.pm_read_misses;
    dram_read_misses = after.dram_read_misses - before.dram_read_misses;
    flushes = after.flushes - before.flushes;
    fences = after.fences - before.fences;
    persist_calls = after.persist_calls - before.persist_calls;
    evictions = after.evictions - before.evictions;
    pm_allocs = after.pm_allocs - before.pm_allocs;
    pm_frees = after.pm_frees - before.pm_frees;
    sim_ns = after.sim_ns -. before.sim_ns;
  }

let pp_counters ppf c =
  Format.fprintf ppf
    "@[<v>pm_reads=%d (misses=%d) pm_writes=%d@ dram_reads=%d (misses=%d) \
     dram_writes=%d@ flushes=%d fences=%d persists=%d evictions=%d \
     allocs=%d frees=%d@ sim=%.0f ns@]"
    c.pm_reads c.pm_read_misses c.pm_writes c.dram_reads c.dram_read_misses
    c.dram_writes c.flushes c.fences c.persist_calls c.evictions c.pm_allocs
    c.pm_frees c.sim_ns
