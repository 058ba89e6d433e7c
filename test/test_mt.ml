(* Multi-domain tests: the concurrency layer under real [Domain.spawn]
   parallelism — a differential stress against per-domain Map oracles,
   the Rwlock admission protocol (writer preference, no reader
   starvation), lock-free Hash_dir reads racing a remover, and
   concurrent EPallocator traffic.

   The stress tests partition the keyspace: each domain owns its keys
   and is the only writer of them, so each domain's oracle is exact and
   the merged oracle must equal the final tree. Cross-domain searches
   race by design and only assert well-formedness. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Chunk = Hart_core.Chunk
module Epalloc = Hart_core.Epalloc
module Hash_dir = Hart_core.Hash_dir
module Hart = Hart_core.Hart
module Hart_mt = Hart_core.Hart_mt
module Rwlock = Hart_core.Rwlock
module SMap = Map.Make (String)

(* pre-sized so [Pmem.grow] never fires while domains run (growth swaps
   the backing buffers; multi-domain pools must be pre-sized) *)
let fresh_mt () =
  let pool =
    Pmem.create ~capacity:(1 lsl 26) ~max_capacity:(1 lsl 27)
      (Meter.create Latency.c300_100)
  in
  Hart_mt.create pool

(* ------------------------------------------------------------------ *)
(* Differential stress: N domains of random ops vs per-domain oracles  *)

let n_domains = 4
let ops_per_domain = 25_000 (* 4 x 25k = 1e5 ops minimum, per ISSUE *)

let stress_once ~seed ~with_foreign_reads =
  let t = fresh_mt () in
  let keys_per_domain = 2_000 in
  let key d i = Printf.sprintf "k%d_%04d" d i in
  let oracles =
    Array.init n_domains (fun d ->
        ignore d;
        ref SMap.empty)
  in
  (* Worker-side assertions must not go through [Alcotest.check]: its
     success-path logging formats through a shared [Format] state,
     which is not domain-safe (racing workers can crash the pretty-
     printer's internal queue). Raise a plain exception instead —
     built with [Printf], which allocates nothing shared — and let the
     joining main domain report it. *)
  let require cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt in
  let worker d () =
    let rng = Rng.create (Int64.of_int (seed + d)) in
    let oracle = oracles.(d) in
    for _ = 1 to ops_per_domain do
      let k = key d (Rng.int rng keys_per_domain) in
      match Rng.int rng (if with_foreign_reads then 5 else 4) with
      | 0 ->
          let v = Printf.sprintf "v%d" (Rng.int rng 1_000_000) in
          Hart_mt.insert t ~key:k ~value:v;
          oracle := SMap.add k v !oracle
      | 1 ->
          let v = Printf.sprintf "u%d" (Rng.int rng 1_000_000) in
          let updated = Hart_mt.update t ~key:k ~value:v in
          require
            (updated = SMap.mem k !oracle)
            "update of %s hit=%b disagrees with oracle" k updated;
          if updated then oracle := SMap.add k v !oracle
      | 2 ->
          let deleted = Hart_mt.delete t k in
          require
            (deleted = SMap.mem k !oracle)
            "delete of %s hit=%b disagrees with oracle" k deleted;
          oracle := SMap.remove k !oracle
      | 3 ->
          let got = Hart_mt.search t k in
          require
            (got = SMap.find_opt k !oracle)
            "search of %s disagrees with owner oracle" k
      | _ ->
          (* foreign read: races with the owner, only well-formedness *)
          let other = (d + 1 + Rng.int rng (n_domains - 1)) mod n_domains in
          let fk = key other (Rng.int rng keys_per_domain) in
          (match Hart_mt.search t fk with
          | None -> ()
          | Some v ->
              require
                (String.length v > 0 && (v.[0] = 'v' || v.[0] = 'u'))
                "foreign read returned garbage %S" v)
    done
  in
  let domains =
    Array.init (n_domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  worker 0 ();
  Array.iter Domain.join domains;
  (* merged oracle must equal the quiesced tree exactly *)
  let merged =
    Array.fold_left
      (fun acc o -> SMap.union (fun _ _ _ -> assert false) acc !o)
      SMap.empty oracles
  in
  let hart = Hart_mt.underlying t in
  Hart.check_integrity hart;
  let dumped = ref SMap.empty in
  Hart.iter hart (fun k v -> dumped := SMap.add k v !dumped);
  Alcotest.(check int) "count matches oracle" (SMap.cardinal merged)
    (Hart_mt.count t);
  Alcotest.(check (list (pair string string)))
    "bindings match merged oracle" (SMap.bindings merged)
    (SMap.bindings !dumped)

let test_stress_partitioned () = stress_once ~seed:42 ~with_foreign_reads:false
let test_stress_foreign_reads () = stress_once ~seed:1337 ~with_foreign_reads:true

(* ------------------------------------------------------------------ *)
(* Rwlock admission protocol                                           *)

(* While a writer waits, incoming readers must block (writer
   preference); once the writer exits, the blocked readers must all get
   in (no starvation). *)
let test_rwlock_writer_preference () =
  let l = Rwlock.create () in
  let writer_in = Atomic.make false and reader2_in = Atomic.make false in
  Rwlock.read_lock l;
  let writer =
    Domain.spawn (fun () ->
        Rwlock.write_lock l;
        Atomic.set writer_in true;
        Unix.sleepf 0.05;
        Rwlock.write_unlock l)
  in
  (* give the writer time to queue up on the held read lock *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "writer blocked by reader" false (Atomic.get writer_in);
  let reader2 =
    Domain.spawn (fun () ->
        Rwlock.read_lock l;
        Atomic.set reader2_in true;
        (* the waiting writer must have been admitted first *)
        let writer_went_first = Atomic.get writer_in in
        Rwlock.read_unlock l;
        writer_went_first)
  in
  Unix.sleepf 0.05;
  Alcotest.(check bool)
    "late reader blocked while writer waits" false (Atomic.get reader2_in);
  Rwlock.read_unlock l;
  Domain.join writer;
  Alcotest.(check bool)
    "writer admitted before the late reader" true (Domain.join reader2);
  Alcotest.(check bool) "late reader admitted after writer exit" true
    (Atomic.get reader2_in)

(* Hammer the lock from reader and writer domains; every reader must
   complete (no starvation) and the protected counter must show no lost
   updates (mutual exclusion). *)
let test_rwlock_no_starvation () =
  let l = Rwlock.create () in
  let shared = ref 0 in
  let n_writers = 2 and n_readers = 4 and rounds = 2_000 in
  let reads_done = Atomic.make 0 in
  let writers =
    Array.init n_writers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              Rwlock.with_write l (fun () -> incr shared)
            done))
  in
  let readers =
    Array.init n_readers (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              Rwlock.with_read l (fun () ->
                  let v = !shared in
                  if v < 0 || v > n_writers * rounds then
                    Alcotest.failf "torn counter read %d" v);
              Atomic.incr reads_done
            done))
  in
  Array.iter Domain.join writers;
  Array.iter Domain.join readers;
  Alcotest.(check int) "no lost writer updates" (n_writers * rounds) !shared;
  Alcotest.(check int)
    "every reader round completed" (n_readers * rounds)
    (Atomic.get reads_done);
  Alcotest.(check int) "lock drained" 0 (Rwlock.readers l);
  Alcotest.(check bool) "no writer left" false (Rwlock.writer_active l)

(* ------------------------------------------------------------------ *)
(* Hash_dir: lock-free readers racing inserts and backward-shift       *)
(* removes                                                             *)

let test_hash_dir_readers_vs_remover () =
  let d = Hash_dir.create ~initial_buckets:64 () in
  let n_keys = 200 in
  let key i = Printf.sprintf "hk%03d" i in
  for i = 0 to (n_keys / 2) - 1 do
    Hash_dir.insert d (key i) i
  done;
  let stop = Atomic.make false in
  let readers =
    Array.init 2 (fun r ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (7 + r)) in
            let n = ref 0 in
            while not (Atomic.get stop) do
              let i = Rng.int rng n_keys in
              (match Hash_dir.find d (key i) with
              | None -> ()
              | Some v ->
                  if v <> i then
                    Alcotest.failf "reader saw %d under key %d" v i);
              incr n
            done;
            !n))
  in
  (* single writer: grow past several resizes, then churn removes and
     re-inserts so readers cross many backward-shift windows *)
  for i = n_keys / 2 to n_keys - 1 do
    Hash_dir.insert d (key i) i
  done;
  let rng = Rng.create 99L in
  for _ = 1 to 20_000 do
    let i = Rng.int rng n_keys in
    if Rng.int rng 2 = 0 then Hash_dir.remove d (key i)
    else Hash_dir.insert d (key i) i
  done;
  Atomic.set stop true;
  let reads = Array.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  Alcotest.(check bool) "readers made progress" true (reads > 0);
  Hash_dir.check_invariants d

(* An absent key's probe ends on an empty slot, which a concurrent fresh
   insert can fill without bumping the seqlock version; [find] must
   decide from the slot it probed, never read the slot again. Readers
   look up only keys that are never inserted, so any [Some] is another
   key's payload. *)
let test_hash_dir_absent_keys_vs_churn () =
  let d = Hash_dir.create ~initial_buckets:64 () in
  let n_keys = 40 in
  let key i = Printf.sprintf "hk%03d" i in
  for i = 0 to n_keys - 1 do
    Hash_dir.insert d (key i) i
  done;
  let stop = Atomic.make false in
  let readers =
    Array.init 2 (fun r ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (11 + r)) in
            let wrong = ref 0 in
            while not (Atomic.get stop) do
              match Hash_dir.find d (Printf.sprintf "absent%03d" (Rng.int rng 500)) with
              | None -> ()
              | Some _ -> incr wrong
            done;
            !wrong))
  in
  let rng = Rng.create 5L in
  for _ = 1 to 400_000 do
    let i = Rng.int rng n_keys in
    Hash_dir.remove d (key i);
    Hash_dir.insert d (key i) i
  done;
  Atomic.set stop true;
  let wrong = Array.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  Alcotest.(check int) "absent keys never found" 0 wrong;
  Hash_dir.check_invariants d

(* ------------------------------------------------------------------ *)
(* EPallocator: concurrent alloc/commit/free traffic                   *)

let test_epalloc_concurrent () =
  let pool =
    Pmem.create ~capacity:(1 lsl 24) ~max_capacity:(1 lsl 25)
      (Meter.create Latency.c300_100)
  in
  let ep = Epalloc.create pool in
  let per_domain = 3_000 in
  let worker d () =
    let rng = Rng.create (Int64.of_int (100 + d)) in
    let held = ref [] in
    for _ = 1 to per_domain do
      if Rng.int rng 3 < 2 || !held = [] then begin
        (* allocate and commit a value object *)
        let cls = if Rng.int rng 2 = 0 then Chunk.Val8 else Chunk.Val16 in
        let obj = Epalloc.epmalloc ep cls in
        Epalloc.set_obj_bit ep cls ~obj;
        held := (cls, obj) :: !held
      end
      else begin
        match !held with
        | (cls, obj) :: rest ->
            held := rest;
            Epalloc.reset_obj_bit ep cls ~obj;
            (* opportunistic recycling is safe on any chunk *)
            if Rng.int rng 8 = 0 then
              Epalloc.eprecycle ep cls ~chunk:(Epalloc.chunk_of_obj ep cls obj)
        | [] -> ()
      end
    done;
    List.length !held
  in
  let domains =
    Array.init (n_domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  let held0 = worker 0 () in
  let held_rest = Array.fold_left (fun a d -> a + Domain.join d) 0 domains in
  Epalloc.check_invariants ep;
  let live =
    Epalloc.live_objects ep Chunk.Val8 + Epalloc.live_objects ep Chunk.Val16
  in
  Alcotest.(check int) "live objects = committed minus freed"
    (held0 + held_rest) live

(* Lock-free registry readers against a registry writer. The main
   domain churns Val8 chunks: it allocates and commits (appending
   registry cells past the published length, doubling the arrays), frees
   and recycles (marking records dead) and allocates again (recycled
   offsets come back and take their dead cells over). Another domain
   resolves a fixed set of committed Val8 and Val16 objects in a loop;
   [class_of_value_obj] searches the churning Val8 registry first. No
   lookup may miss a live object or name the wrong chunk or class. *)
let test_registry_readers_vs_churn () =
  let pool =
    Pmem.create ~capacity:(1 lsl 24) ~max_capacity:(1 lsl 25)
      (Meter.create Latency.c300_100)
  in
  let ep = Epalloc.create pool in
  let commit cls =
    let obj = Epalloc.epmalloc ep cls in
    Epalloc.set_obj_bit ep cls ~obj;
    obj
  in
  let fixed =
    Array.init (4 * Epalloc.value_objs_per_chunk) (fun i ->
        let cls = if i mod 2 = 0 then Chunk.Val8 else Chunk.Val16 in
        let obj = commit cls in
        (cls, obj, Epalloc.chunk_of_obj ep cls obj))
  in
  let stop = Atomic.make false in
  let reader () =
    let passes = ref 0 in
    while not (Atomic.get stop) do
      Array.iter
        (fun (cls, obj, chunk) ->
          (match Epalloc.chunk_of_obj ep cls obj with
          | c when c = chunk -> ()
          | c -> failwith (Printf.sprintf "object %d resolved to chunk %d, not %d" obj c chunk)
          | exception Not_found -> failwith (Printf.sprintf "object %d lost its chunk" obj));
          if not (Epalloc.obj_bit ep cls ~obj) then
            failwith (Printf.sprintf "object %d reads as free" obj);
          if Epalloc.class_of_value_obj ep obj <> Some cls then
            failwith (Printf.sprintf "object %d resolved to the wrong class" obj))
        fixed;
      incr passes
    done;
    !passes
  in
  let r = Domain.spawn reader in
  let rng = Rng.create 7L in
  let writer () =
    for _ = 1 to 300 do
      let objs =
        Array.init
          ((1 + Rng.int rng 6) * Epalloc.value_objs_per_chunk
          + Rng.int rng Epalloc.value_objs_per_chunk)
          (fun _ -> commit Chunk.Val8)
      in
      Rng.shuffle rng objs;
      Array.iter
        (fun obj ->
          let chunk = Epalloc.chunk_of_obj ep Chunk.Val8 obj in
          Epalloc.reset_obj_bit ep Chunk.Val8 ~obj;
          Epalloc.eprecycle ep Chunk.Val8 ~chunk)
        objs
    done
  in
  (match writer () with
  | () -> Atomic.set stop true
  | exception e ->
      Atomic.set stop true;
      ignore (Domain.join r : int);
      raise e);
  let passes = Domain.join r in
  Alcotest.(check bool) "reader made passes" true (passes > 0);
  Alcotest.(check int) "only the fixed chunks remain" 2
    (Epalloc.chunk_count ep Chunk.Val8);
  Epalloc.check_invariants ep

(* Insert/update/delete churn on 4 domains with values of every class,
   plus racing foreign searches (lock-free mirror reads). Chunks of all
   four classes fill, empty and recycle concurrently; afterwards every
   registered chunk's DRAM bitmap mirror must equal its PM bitmap
   ([check_integrity] runs [Epalloc.check_invariants]) and the tree must
   equal the merged oracle. *)
let test_mirror_churn () =
  let t = fresh_mt () in
  let keys_per_domain = 600 in
  let key d i = Printf.sprintf "mc%d_%03d" d i in
  let oracles = Array.init n_domains (fun _ -> ref SMap.empty) in
  let require cond fmt = Printf.ksprintf (fun s -> if not cond then failwith s) fmt in
  let worker d () =
    let rng = Rng.create (Int64.of_int (700 + d)) in
    let oracle = oracles.(d) in
    for _ = 1 to 4_000 do
      let k = key d (Rng.int rng keys_per_domain) in
      let v () = String.make (1 + Rng.int rng 31) (Char.chr (97 + d)) in
      match Rng.int rng 4 with
      | 0 ->
          let v = v () in
          Hart_mt.insert t ~key:k ~value:v;
          oracle := SMap.add k v !oracle
      | 1 ->
          let v = v () in
          let hit = Hart_mt.update t ~key:k ~value:v in
          require (hit = SMap.mem k !oracle) "update of %s hit=%b" k hit;
          if hit then oracle := SMap.add k v !oracle
      | 2 ->
          let hit = Hart_mt.delete t k in
          require (hit = SMap.mem k !oracle) "delete of %s hit=%b" k hit;
          oracle := SMap.remove k !oracle
      | _ -> (
          let other = (d + 1 + Rng.int rng (n_domains - 1)) mod n_domains in
          match Hart_mt.search t (key other (Rng.int rng keys_per_domain)) with
          | None -> ()
          | Some v ->
              require
                (v <> "" && v.[0] = Char.chr (97 + other))
                "foreign read returned %S" v)
    done
  in
  let domains = Array.init (n_domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  Array.iter Domain.join domains;
  let hart = Hart_mt.underlying t in
  Hart.check_integrity hart;
  let merged =
    Array.fold_left
      (fun acc o -> SMap.union (fun _ _ _ -> assert false) acc !o)
      SMap.empty oracles
  in
  let dumped = ref SMap.empty in
  Hart.iter hart (fun k v -> dumped := SMap.add k v !dumped);
  Alcotest.(check (list (pair string string)))
    "bindings match merged oracle" (SMap.bindings merged)
    (SMap.bindings !dumped)

(* ------------------------------------------------------------------ *)
(* Delete-churn recycler storm: every domain owns a key slice and runs
   waves of insert-everything / delete-everything, so whole leaf and
   value chunks keep emptying and refilling concurrently — the hostile
   case for [Epalloc]'s recycler. Afterwards the structural stats must
   account for exactly the surviving keys (no leaked objects), integrity
   must hold (no double-held objects: a bitmap bit referenced by two
   leaves, or set with no referencing leaf, fails [check_integrity]),
   and the chunk population must stay near the live peak (proof chunks
   were recycled rather than accreted across waves).                    *)

let test_recycler_churn_storm () =
  let t = fresh_mt () in
  let keys_per_domain = 1_500 in
  let waves = 4 in
  let key d i = Printf.sprintf "st%d_%04d" d i in
  let require cond fmt =
    Printf.ksprintf (fun s -> if not cond then failwith s) fmt
  in
  (* odd waves write 15-byte values (Val16), even waves 7-byte (Val8),
     so value chunks of both classes churn through the recycler too *)
  let value w i =
    if w land 1 = 1 then Printf.sprintf "wave%02d-obj%04d" w (i mod 10_000)
    else Printf.sprintf "w%02d%03d" w (i mod 1000)
  in
  let worker d () =
    for w = 1 to waves do
      for i = 0 to keys_per_domain - 1 do
        Hart_mt.insert t ~key:(key d i) ~value:(value w i)
      done;
      if w < waves then
        for i = 0 to keys_per_domain - 1 do
          require (Hart_mt.delete t (key d i))
            "churn wave %d: delete of own key %s missed" w (key d i)
        done
    done
  in
  let domains =
    Array.init (n_domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
  in
  worker 0 ();
  Array.iter Domain.join domains;
  let hart = Hart_mt.underlying t in
  Hart.check_integrity hart;
  Epalloc.check_invariants (Hart.alloc hart);
  let stats = Hart_core.Hart_stats.collect hart in
  let survivors = n_domains * keys_per_domain in
  Alcotest.(check int) "surviving keys" survivors stats.Hart_core.Hart_stats.keys;
  Alcotest.(check int) "live leaves = surviving keys" survivors
    stats.Hart_core.Hart_stats.leaf_class.Hart_core.Hart_stats.live_objects;
  (* final wave is even: all survivors hold Val8 values; every Val16
     from the odd waves must have been freed *)
  Alcotest.(check int) "live Val8 values = surviving keys" survivors
    stats.Hart_core.Hart_stats.val8_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "no leaked Val16 values" 0
    stats.Hart_core.Hart_stats.val16_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "no leaked Val32 values" 0
    stats.Hart_core.Hart_stats.val32_class.Hart_core.Hart_stats.live_objects;
  (* chunks must track the live peak, not the total traffic: [waves]
     full populations were allocated, but capacity must stay within the
     peak of two interleaved populations plus per-domain slack *)
  let max_capacity cls_name (c : Hart_core.Hart_stats.class_stats) =
    let bound = (2 * survivors) + (2 * 56 * n_domains) in
    if c.Hart_core.Hart_stats.capacity > bound then
      Alcotest.failf "%s chunks accreted: capacity %d > bound %d (waves=%d)"
        cls_name c.Hart_core.Hart_stats.capacity bound waves
  in
  max_capacity "leaf" stats.Hart_core.Hart_stats.leaf_class;
  max_capacity "val8" stats.Hart_core.Hart_stats.val8_class;
  max_capacity "val16" stats.Hart_core.Hart_stats.val16_class;
  (* the ART bitmap node layer must survive the same storm: the physical
     census (DESIGN.md §14) has to agree with the modelled histogram,
     and delete churn must not defeat the shrink hysteresis (dense child
     slots at least quarter-occupied) or accrete pool slabs past the
     live population *)
  let p = stats.Hart_core.Hart_stats.art_pools in
  let h = stats.Hart_core.Hart_stats.art_nodes in
  Alcotest.(check int) "bitmap census = modelled histogram"
    (h.Hart_core.Hart_stats.n4 + h.Hart_core.Hart_stats.n16
   + h.Hart_core.Hart_stats.n48 + h.Hart_core.Hart_stats.n256)
    (List.fold_left
       (fun a (_, c) -> a + c)
       0 p.Hart_core.Hart_stats.nodes_by_cap);
  require
    (4 * p.Hart_core.Hart_stats.dense_used
    > p.Hart_core.Hart_stats.dense_reserved)
    "dense occupancy floor violated after churn: used %d, reserved %d"
    p.Hart_core.Hart_stats.dense_used p.Hart_core.Hart_stats.dense_reserved;
  require
    (p.Hart_core.Hart_stats.free_leaf_slots <= survivors)
    "leaf table accreted: %d free slots for %d survivors"
    p.Hart_core.Hart_stats.free_leaf_slots survivors

(* ------------------------------------------------------------------ *)
(* Striped_mt over a toy index: the commuting contract is load-bearing  *)

(* A deliberately fragile PM index: an append-only log at fixed offsets
   whose commit point is a read-modify-write of one shared count word.
   Appends to DIFFERENT keys do not commute — two interleaved appends
   read the same count, write the same slot, and lose one record — so
   declaring its mutations shard-local is a lie the explorer must
   catch, and serialising them (restructures = true) must make the very
   same code pass the same sweep. *)
module Toy_log = struct
  type t = { pool : Pmem.t }

  let hdr = 64 (* first alloc on a fresh pool; recover relies on it *)
  let rec_size = 64
  let max_recs = 192
  let slot i = hdr + 8 + (i * rec_size)
  let log_len t = Int64.to_int (Pmem.get_u64 t.pool hdr)

  let create pool =
    let base = Pmem.alloc pool (8 + (max_recs * rec_size)) in
    assert (base = hdr);
    Pmem.set_u64 pool hdr 0L;
    Pmem.persist pool ~off:hdr ~len:8;
    { pool }

  let recover pool = { pool }

  let append t ~tag ~key ~value =
    let n = log_len t in
    if n >= max_recs then failwith "toy: log full";
    let off = slot n in
    Pmem.set_u8 t.pool off tag;
    Pmem.set_u8 t.pool (off + 1) (String.length key);
    Pmem.set_string t.pool ~off:(off + 2) key;
    Pmem.set_u8 t.pool (off + 28) (String.length value);
    if value <> "" then Pmem.set_string t.pool ~off:(off + 29) value;
    Pmem.persist t.pool ~off ~len:rec_size;
    (* a second persist of the record widens the window between the
       count read above and the count bump below: more yield points for
       the explorer's scheduler to interleave a racing append into *)
    Pmem.persist t.pool ~off ~len:rec_size;
    Pmem.set_u64 t.pool hdr (Int64.of_int (n + 1));
    Pmem.persist t.pool ~off:hdr ~len:8

  let replay t =
    let m = ref SMap.empty in
    for i = 0 to log_len t - 1 do
      let off = slot i in
      let klen = Pmem.get_u8 t.pool (off + 1) in
      let key = Pmem.get_string t.pool ~off:(off + 2) ~len:klen in
      if Pmem.get_u8 t.pool off = 2 then m := SMap.remove key !m
      else
        let vlen = Pmem.get_u8 t.pool (off + 28) in
        m :=
          SMap.add key (Pmem.get_string t.pool ~off:(off + 29) ~len:vlen) !m
    done;
    !m

  let insert t ~key ~value = append t ~tag:1 ~key ~value
  let search t k = SMap.find_opt k (replay t)

  let update t ~key ~value =
    if SMap.mem key (replay t) then (
      append t ~tag:1 ~key ~value;
      true)
    else false

  let delete t k =
    if SMap.mem k (replay t) then (
      append t ~tag:2 ~key:k ~value:"";
      true)
    else false

  let range t ~lo ~hi f =
    SMap.iter (fun k v -> if k >= lo && k <= hi then f k v) (replay t)

  let iter t f = SMap.iter f (replay t)
  let count t = SMap.cardinal (replay t)
  let dram_bytes _ = 0
  let pm_bytes t = 8 + (log_len t * rec_size)

  let check_integrity t =
    let n = log_len t in
    if n < 0 || n > max_recs then failwith "toy: count out of range";
    for i = 0 to n - 1 do
      let off = slot i in
      let tag = Pmem.get_u8 t.pool off in
      if tag <> 1 && tag <> 2 then failwith "toy: bad record tag";
      if Pmem.get_u8 t.pool (off + 1) > 26 then failwith "toy: bad key length"
    done
end

(* The lie: per-key shards, nothing restructures — claims appends to
   distinct keys commute when every append races on the count word. *)
module Toy_bad = struct
  include Toy_log

  let name = "toy-bad"
  let stripe_of_key _ key = Hashtbl.hash key
  let volatile_domain_safe = true
  let restructures _ ~op:_ ~key:_ = false
end

(* The honest classification of the same code: every mutation reshapes
   shared structure, so all of them serialise on the structure lock. *)
module Toy_good = struct
  include Toy_log

  let name = "toy-good"
  let stripe_of_key _ _ = 0
  let volatile_domain_safe = false
  let restructures _ ~op:_ ~key:_ = true
end

module Toy_bad_mt = Hart_core.Striped_mt.Make (Toy_bad)
module Toy_good_mt = Hart_core.Striped_mt.Make (Toy_good)

let toy_scripts ~domains ~ops_per_domain =
  Array.init domains (fun d ->
      List.init ops_per_domain (fun j ->
          Hart_fault.Fault.Insert
            (Printf.sprintf "t%c-%02d" (Char.chr (Char.code 'a' + d)) j,
             Printf.sprintf "v%d.%d" d j)))

(* The explorer's crash-free dry run checks the quiesced state against
   the fire-order linearization model, so the lost update surfaces as a
   Violation before any crash is even injected. *)
let test_toy_bad_rejected () =
  let target = Hart_fault.Fault.of_index (module Toy_bad_mt) in
  let scripts = toy_scripts ~domains:2 ~ops_per_domain:4 in
  let caught = ref 0 in
  for seed = 1 to 5 do
    match
      Hart_fault.Fault_mt.explore ~target ~seed:(Int64.of_int seed) ~domains:2
        ~workload:"toy-bad" scripts
    with
    | _ -> ()
    | exception Hart_fault.Fault.Violation _ -> incr caught
  done;
  Alcotest.(check bool)
    "non-commuting shard claim rejected by the oracle" true (!caught > 0)

(* Same index, honest metadata: the full sweep must pass. *)
let test_toy_good_passes () =
  let target = Hart_fault.Fault.of_index (module Toy_good_mt) in
  let scripts = toy_scripts ~domains:2 ~ops_per_domain:4 in
  let r =
    Hart_fault.Fault_mt.explore ~target ~seed:3L ~domains:2
      ~workload:"toy-good" scripts
  in
  Alcotest.(check bool) "swept some flush boundaries" true (r.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.total_flushes r.schedules;
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool)
    "serialised mutations never overlap" true
    (r.max_in_flight <= 1)

(* ------------------------------------------------------------------ *)
(* WORT's sharpened [restructures]: leaf-local value updates — and
   upserts landing on existing keys — ride the stripe path instead of
   the exclusive structure lock, so an update-heavy workload on
   distinct prefixes genuinely overlaps at crash points, and the full
   sweep still passes the linearization-set oracle. *)

let wort_mt = Option.get (Hart_fault.Fault_mt.find_mt_target "wort")

let test_wort_update_commute () =
  let prefixes = [ "wa"; "wb" ] in
  let setup =
    List.concat_map
      (fun p ->
        List.init 3 (fun j ->
            Hart_fault.Fault.Insert (Printf.sprintf "%s-%02d" p j, "s0")))
      prefixes
  in
  let scripts =
    Array.of_list
      (List.map
         (fun p ->
           List.concat
             (List.init 3 (fun j ->
                  let key = Printf.sprintf "%s-%02d" p j in
                  [
                    Hart_fault.Fault.Update (key, Printf.sprintf "u%d" j);
                    (* upsert onto an existing key: an update in WORT *)
                    Hart_fault.Fault.Insert (key, Printf.sprintf "w%d" j);
                  ])))
         prefixes)
  in
  let r =
    Hart_fault.Fault_mt.explore ~target:wort_mt ~seed:7L
      ~domains:2 ~workload:"wort-update" ~setup scripts
  in
  Alcotest.(check bool) "swept some flush boundaries" true (r.total_flushes > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "updates overlap (commute on WORT)" true
    (r.max_in_flight >= 2)

(* New-key inserts still restructure: single-domain scripts with fresh
   keys must serialise on the structure lock, never overlapping. *)
let test_wort_insert_serializes () =
  let scripts =
    Array.init 2 (fun d ->
        List.init 3 (fun j ->
            Hart_fault.Fault.Insert
              (Printf.sprintf "w%c-%02d" (Char.chr (Char.code 'p' + d)) j, "v")))
  in
  let r =
    Hart_fault.Fault_mt.explore ~target:wort_mt ~seed:9L
      ~domains:2 ~workload:"wort-insert" scripts
  in
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "structural inserts never overlap" true
    (r.max_in_flight <= 1)

(* ------------------------------------------------------------------ *)
(* apply_batch: stripe-grouped writes vs a Map oracle                  *)

(* Semantics: per-op results in submission order (Bset always true,
   Bdel reports presence), per-key order preserved even when grouping
   reorders across stripes. *)
let test_apply_batch_semantics () =
  let module I = Hart_core.Index_intf in
  let t = fresh_mt () in
  let rng = Rng.create 2024L in
  let oracle = ref SMap.empty in
  for round = 0 to 19 do
    let ops =
      List.init 200 (fun i ->
          let k = Printf.sprintf "bk%04d" (Rng.int rng 300) in
          if Rng.int rng 4 = 0 then I.Bdel k
          else I.Bset (k, Printf.sprintf "r%d.%d" round i))
    in
    let expected =
      List.map
        (fun op ->
          match op with
          | I.Bset (k, v) ->
              oracle := SMap.add k v !oracle;
              true
          | I.Bdel k ->
              let present = SMap.mem k !oracle in
              oracle := SMap.remove k !oracle;
              present)
        ops
    in
    let res = Hart_mt.apply_batch t ops in
    Alcotest.(check (array bool))
      (Printf.sprintf "round %d results" round)
      (Array.of_list expected) res
  done;
  SMap.iter
    (fun k v ->
      Alcotest.(check (option string)) ("final " ^ k) (Some v)
        (Hart_mt.search t k))
    !oracle;
  Alcotest.(check int) "final count" (SMap.cardinal !oracle)
    (Hart.count (Hart_mt.underlying t))

(* Domains batching over disjoint key prefixes: the merged oracles must
   equal the final tree, same discipline as the stress tests. *)
let test_apply_batch_parallel () =
  let module I = Hart_core.Index_intf in
  let t = fresh_mt () in
  let domains = 4 in
  let per_domain d =
    let rng = Rng.create (Int64.of_int (7000 + d)) in
    let oracle = ref SMap.empty in
    for round = 0 to 9 do
      let ops =
        List.init 250 (fun i ->
            let k = Printf.sprintf "d%d.%04d" d (Rng.int rng 400) in
            if Rng.int rng 5 = 0 then I.Bdel k
            else I.Bset (k, Printf.sprintf "v%d.%d.%d" d round i))
      in
      List.iter
        (fun op ->
          match op with
          | I.Bset (k, v) -> oracle := SMap.add k v !oracle
          | I.Bdel k -> oracle := SMap.remove k !oracle)
        ops;
      ignore (Hart_mt.apply_batch t ops : bool array)
    done;
    !oracle
  in
  let workers = Array.init domains (fun d -> Domain.spawn (fun () -> per_domain d)) in
  let oracles = Array.map Domain.join workers in
  let merged =
    Array.fold_left (SMap.union (fun _ _ v -> Some v)) SMap.empty oracles
  in
  SMap.iter
    (fun k v ->
      Alcotest.(check (option string)) ("merged " ^ k) (Some v)
        (Hart_mt.search t k))
    merged;
  Alcotest.(check int) "merged count" (SMap.cardinal merged)
    (Hart.count (Hart_mt.underlying t));
  Hart.check_integrity (Hart_mt.underlying t)

(* ------------------------------------------------------------------ *)
(* apply_batch × crash: enumerate a crash at every flush boundary of
   one batch — mid-stripe-group — and assert the recovered image is an
   admissible commit point: every op whose [Mt_hook.fire_batch] ran is
   durably applied, the one op between [batch_start] and [fire_batch]
   is atomically present or absent, nothing else moved, and per-key
   the committed ops form a prefix of submission order. *)

let batch_crash_pool () =
  Pmem.create ~capacity:(1 lsl 21) ~max_capacity:(1 lsl 22)
    (Meter.create Latency.c300_100)

let test_apply_batch_crash_boundaries () =
  let module I = Hart_core.Index_intf in
  let setup = [ ("a1", "a0"); ("c1", "c0"); ("a2", "x0") ] in
  (* repeated keys so per-key order is observable; delete-then-reinsert
     of c1; spread across prefixes so stripe grouping reorders ops *)
  let ops =
    [
      I.Bset ("a1", "A1");
      I.Bset ("b1", "B1");
      I.Bset ("a1", "A2");
      I.Bdel "c1";
      I.Bset ("c2", "C2");
      I.Bset ("b1", "B2");
      I.Bdel "a2";
      I.Bset ("c1", "C3");
      I.Bset ("b2", "B3");
    ]
  in
  let opsa = Array.of_list ops in
  let key_of = function I.Bset (k, _) -> k | I.Bdel k -> k in
  let apply_one m = function
    | I.Bset (k, v) -> SMap.add k v m
    | I.Bdel k -> SMap.remove k m
  in
  let base =
    List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty setup
  in
  let fresh () =
    let pool = batch_crash_pool () in
    let t = Hart_mt.create pool in
    List.iter (fun (k, v) -> Hart_mt.insert t ~key:k ~value:v) setup;
    (pool, t)
  in
  (* dry run: census the batch's flush boundaries and check the
     crash-free endpoint *)
  let pool, t = fresh () in
  let f0 = Pmem.flush_count pool in
  ignore (Hart_mt.apply_batch t ops : bool array);
  let boundaries = Pmem.flush_count pool - f0 in
  Alcotest.(check bool) "batch flushes" true (boundaries > 0);
  let full = List.fold_left apply_one base ops in
  let dump t =
    let m = ref SMap.empty in
    Hart.iter (Hart_mt.underlying t) (fun k v -> m := SMap.add k v !m);
    !m
  in
  Alcotest.(check bool) "dry run reaches the full model" true
    (SMap.equal String.equal full (dump t));
  let in_flight_seen = ref 0 in
  let mode_of = function
    | 0 -> Pmem.Clean
    | i -> Pmem.Torn { seed = Int64.of_int (900 + i); fraction = 0.5 }
  in
  List.iter
    (fun mode_ix ->
      for i = 0 to boundaries - 1 do
        let pool, t = fresh () in
        let fired = ref [] in
        let started = ref None in
        Hart_core.Mt_hook.install_batch
          ~start:(fun j -> started := Some j)
          ~commit:(fun j ->
            started := None;
            fired := j :: !fired);
        Pmem.arm_crash ~mode:(mode_of mode_ix) pool ~after_flushes:i;
        (match Hart_mt.apply_batch t ops with
        | (_ : bool array) ->
            Alcotest.failf "crash %d/%d did not fire" i boundaries
        | exception Hart_pmem.Pmem.Crash_injected -> ());
        Hart_core.Mt_hook.uninstall_batch ();
        let fired_l = List.rev !fired in
        if !started <> None then incr in_flight_seen;
        (* recovery on the (possibly torn) durable image *)
        let t2 = Hart_mt.recover pool in
        Hart.check_integrity (Hart_mt.underlying t2);
        let got = dump t2 in
        let committed =
          List.fold_left (fun m j -> apply_one m opsa.(j)) base fired_l
        in
        let admissible =
          SMap.equal String.equal got committed
          || match !started with
             | None -> false
             | Some j ->
                 SMap.equal String.equal got (apply_one committed opsa.(j))
        in
        if not admissible then
          Alcotest.failf
            "crash %d (mode %d): recovered state is not an admissible \
             commit point (%d committed, in-flight %s)"
            i mode_ix (List.length fired_l)
            (match !started with
            | None -> "none"
            | Some j -> key_of opsa.(j));
        (* per-key: committed ops are a submission-order prefix *)
        List.iter
          (fun k ->
            let on_k = List.filter (fun j -> key_of opsa.(j) = k) in
            let subm = on_k (List.init (Array.length opsa) Fun.id) in
            let comm = on_k fired_l in
            let rec prefix = function
              | [], _ -> true
              | c :: cs, s :: ss when c = s -> prefix (cs, ss)
              | _ -> false
            in
            if not (prefix (comm, subm)) then
              Alcotest.failf
                "crash %d (mode %d): commits on %s are not a \
                 submission-order prefix" i mode_ix k)
          [ "a1"; "b1"; "c1"; "c2"; "a2"; "b2" ]
      done)
    [ 0; 1 ];
  Alcotest.(check bool) "some crashes landed mid-op (in flight)" true
    (!in_flight_seen > 0)

let () =
  Alcotest.run "multi-domain"
    [
      ( "stress",
        [
          Alcotest.test_case "partitioned differential (1e5 ops)" `Slow
            test_stress_partitioned;
          Alcotest.test_case "with racing foreign reads (1e5 ops)" `Slow
            test_stress_foreign_reads;
        ] );
      ( "rwlock",
        [
          Alcotest.test_case "writer preference" `Quick
            test_rwlock_writer_preference;
          Alcotest.test_case "no starvation, no lost updates" `Quick
            test_rwlock_no_starvation;
        ] );
      ( "hash_dir",
        [
          Alcotest.test_case "lock-free readers vs remover" `Quick
            test_hash_dir_readers_vs_remover;
          Alcotest.test_case "absent keys under insert/remove churn" `Quick
            test_hash_dir_absent_keys_vs_churn;
        ] );
      ( "epalloc",
        [
          Alcotest.test_case "concurrent alloc/commit/free" `Quick
            test_epalloc_concurrent;
          Alcotest.test_case "delete-churn recycler storm" `Quick
            test_recycler_churn_storm;
          Alcotest.test_case "insert/update/delete churn keeps the mirror" `Quick
            test_mirror_churn;
          Alcotest.test_case "lock-free registry readers vs chunk churn" `Quick
            test_registry_readers_vs_churn;
        ] );
      ( "striped_functor",
        [
          Alcotest.test_case "oracle rejects a non-commuting toy index" `Quick
            test_toy_bad_rejected;
          Alcotest.test_case "wort: updates commute on stripes" `Quick
            test_wort_update_commute;
          Alcotest.test_case "wort: new-key inserts serialise" `Quick
            test_wort_insert_serializes;
          Alcotest.test_case "same toy index passes when serialised" `Quick
            test_toy_good_passes;
        ] );
      ( "apply_batch",
        [
          Alcotest.test_case "results and per-key order vs oracle" `Quick
            test_apply_batch_semantics;
          Alcotest.test_case "4 domains, disjoint prefixes" `Quick
            test_apply_batch_parallel;
          Alcotest.test_case "crash at every flush boundary" `Quick
            test_apply_batch_crash_boundaries;
        ] );
    ]
