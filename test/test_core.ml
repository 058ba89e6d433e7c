module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Chunk = Hart_core.Chunk
module Hart_error = Hart_core.Hart_error
module Epalloc = Hart_core.Epalloc
module Leaf = Hart_core.Leaf
module Value_obj = Hart_core.Value_obj
module Microlog = Hart_core.Microlog
module Hash_dir = Hart_core.Hash_dir
module Hart = Hart_core.Hart
module Hart_mt = Hart_core.Hart_mt
module Art = Hart_art.Art
module Rwlock = Hart_core.Rwlock
module SMap = Map.Make (String)

let fresh_pool () =
  Pmem.create (Meter.create Latency.c300_100)

let fresh_hart ?kh () =
  let pool = fresh_pool () in
  (Hart.create ?kh pool, pool)

(* ------------------------------------------------------------------ *)
(* Hash_dir                                                            *)

let test_dir_basic () =
  let d = Hash_dir.create () in
  Hash_dir.insert d "aa" 1;
  Hash_dir.insert d "ab" 2;
  Alcotest.(check (option int)) "aa" (Some 1) (Hash_dir.find d "aa");
  Alcotest.(check (option int)) "ab" (Some 2) (Hash_dir.find d "ab");
  Alcotest.(check (option int)) "missing" None (Hash_dir.find d "zz");
  Alcotest.(check int) "length" 2 (Hash_dir.length d);
  Hash_dir.insert d "aa" 3;
  Alcotest.(check (option int)) "replaced" (Some 3) (Hash_dir.find d "aa");
  Alcotest.(check int) "length unchanged" 2 (Hash_dir.length d)

let test_dir_remove () =
  let d = Hash_dir.create () in
  Hash_dir.insert d "k1" 1;
  Hash_dir.insert d "k2" 2;
  Hash_dir.remove d "k1";
  Alcotest.(check (option int)) "removed" None (Hash_dir.find d "k1");
  Alcotest.(check (option int)) "other intact" (Some 2) (Hash_dir.find d "k2");
  Hash_dir.remove d "k1" (* idempotent *);
  Alcotest.(check int) "length" 1 (Hash_dir.length d);
  Hash_dir.check_invariants d

let test_dir_grows () =
  let d = Hash_dir.create ~initial_buckets:16 () in
  for i = 0 to 999 do
    Hash_dir.insert d (Printf.sprintf "key%04d" i) i
  done;
  Alcotest.(check int) "all present" 1000 (Hash_dir.length d);
  for i = 0 to 999 do
    Alcotest.(check (option int)) "find" (Some i)
      (Hash_dir.find d (Printf.sprintf "key%04d" i))
  done;
  Hash_dir.check_invariants d

(* The Int64 FNV-1a the directory used to compute; the native-int hash
   must agree with it bit for bit, or buckets and lock stripes move. *)
let fnv1a_int64 key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    key;
  Int64.to_int !h land max_int

let test_dir_hash_matches_int64 () =
  let check key =
    Alcotest.(check int) (Printf.sprintf "hash %S" key) (fnv1a_int64 key) (Hash_dir.hash key)
  in
  check "";
  for len = 1 to 24 do
    check (String.init len (fun i -> Char.chr (97 + ((i * 7) mod 26))));
    check (String.init len (fun i -> Char.chr (0x80 + ((i * 37) mod 128))));
    check (String.make len '\xff')
  done;
  let rng = Rng.create 19L in
  for _ = 1 to 10_000 do
    check (String.init (Rng.int rng 33) (fun _ -> Char.chr (Rng.int rng 256)))
  done;
  (* the prefix form hashes what [String.sub] would have copied *)
  for _ = 1 to 1000 do
    let key = String.init (Rng.int rng 12) (fun _ -> Char.chr (Rng.int rng 256)) in
    let n = Rng.int rng 16 in
    Alcotest.(check int) "hash_prefix"
      (fnv1a_int64 (String.sub key 0 (min n (String.length key))))
      (Hash_dir.hash_prefix key n)
  done

let qcheck_dir_vs_hashtbl =
  let key_gen = QCheck.Gen.(map (String.make 2) (map Char.chr (int_range 97 102))) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> `Insert (k, v)) key_gen (int_bound 100));
          (2, map (fun k -> `Remove k) key_gen);
          (2, map (fun k -> `Find k) key_gen);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"Hash_dir behaves like Hashtbl"
    (QCheck.make QCheck.Gen.(list_size (int_bound 100) op_gen))
    (fun ops ->
      let d = Hash_dir.create ~initial_buckets:16 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (function
          | `Insert (k, v) ->
              Hash_dir.insert d k v;
              Hashtbl.replace model k v;
              true
          | `Remove k ->
              Hash_dir.remove d k;
              Hashtbl.remove model k;
              true
          | `Find k -> Hash_dir.find d k = Hashtbl.find_opt model k)
        ops
      &&
      (Hash_dir.check_invariants d;
       Hash_dir.length d = Hashtbl.length model))

(* ------------------------------------------------------------------ *)
(* Chunk layout                                                        *)

(* Leaves and Val32 objects are 32-aligned, and the four classes round
   to distinct pool allocation sizes (DESIGN.md §18). *)
let test_chunk_classes () =
  Alcotest.(check int) "leaf size" 32 (Chunk.obj_size Chunk.Leaf_c);
  Alcotest.(check int) "leaf chunk" (32 + (56 * 32)) (Chunk.chunk_bytes Chunk.Leaf_c);
  let rounded cls = (Chunk.chunk_bytes cls + 63) / 64 * 64 in
  Alcotest.(check (list int)) "rounded sizes" [ 1856; 512; 960; 1920 ]
    (List.map rounded Chunk.all_classes);
  List.iter
    (fun cls ->
      for idx = 0 to Chunk.objs_per_chunk - 1 do
        let off = Chunk.obj_off cls ~chunk:0 ~idx in
        Alcotest.(check int)
          (Format.asprintf "%a object %d on one line" Chunk.pp_cls cls idx)
          (off / 64)
          ((off + Chunk.obj_size cls - 1) / 64)
      done)
    Chunk.all_classes;
  Alcotest.(check bool) "val8 for tiny" true (Chunk.value_class_for 7 = Chunk.Val8);
  Alcotest.(check bool) "val16 boundary" true (Chunk.value_class_for 8 = Chunk.Val16);
  Alcotest.(check bool) "val16 top" true (Chunk.value_class_for 15 = Chunk.Val16);
  Alcotest.(check bool) "val32 extension" true (Chunk.value_class_for 31 = Chunk.Val32);
  Alcotest.(check bool) "too big rejected" true
    (match Chunk.value_class_for 32 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_chunk_pnext () =
  let pool = fresh_pool () in
  let a = Chunk.alloc pool Chunk.Val16 and b = Chunk.alloc pool Chunk.Val16 in
  Chunk.set_pnext pool ~chunk:a b;
  Pmem.crash pool;
  Alcotest.(check int) "pnext durable" b (Chunk.pnext pool ~chunk:a)

(* Every slot in index order; a leaf slot's length byte says whether it
   is live. *)
let test_chunk_iter_slots () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Leaf_c in
  List.iter
    (fun idx -> Leaf.init pool ~leaf:(Chunk.obj_off Chunk.Leaf_c ~chunk ~idx) ~p_value:0 "k")
    [ 3; 7; 55 ];
  let seen = ref [] in
  Chunk.iter_slots Chunk.Leaf_c ~chunk (fun ~idx ~obj ->
      Alcotest.(check int) "obj offset" (Chunk.obj_off Chunk.Leaf_c ~chunk ~idx) obj;
      match Leaf.slot pool ~leaf:obj with
      | Leaf.Live _ -> seen := idx :: !seen
      | Leaf.Free _ | Leaf.Corrupt _ -> ());
  Alcotest.(check (list int)) "live indices" [ 55; 7; 3 ] !seen

(* A released chunk's space comes back only to a chunk of its own class:
   each class rounds to its own allocation size, so each keeps its own
   free list. Two classes of one size would swap offsets here. *)
let test_chunk_space_per_class () =
  let pool = fresh_pool () in
  let first = List.map (fun cls -> (cls, Chunk.alloc pool cls)) Chunk.all_classes in
  List.iter (fun (cls, chunk) -> Chunk.release pool cls ~chunk) first;
  List.iter
    (fun (cls, chunk) ->
      Alcotest.(check int)
        (Format.asprintf "%a chunk reuses its own space" Chunk.pp_cls cls)
        chunk (Chunk.alloc pool cls))
    first

(* A recycled leaf chunk's space comes back zeroed in the durable image:
   when it is reused, no free slot names a value of its previous keys,
   so none owns one after a crash. *)
let test_chunk_reused_space_free () =
  let h, pool = fresh_hart () in
  let key i = Printf.sprintf "ru%04d" i in
  let leaf_chunks h =
    let l = ref [] in
    Epalloc.iter_chunks (Hart.alloc h) Chunk.Leaf_c (fun c -> l := c :: !l);
    !l
  in
  for i = 0 to Chunk.objs_per_chunk - 1 do
    Hart.insert h ~key:(key i) ~value:"v"
  done;
  let first = leaf_chunks h in
  Alcotest.(check int) "one full leaf chunk" 1 (List.length first);
  for i = 0 to Chunk.objs_per_chunk - 1 do
    assert (Hart.delete h (key i))
  done;
  Alcotest.(check (list int)) "leaf chunk recycled" [] (leaf_chunks h);
  Hart.insert h ~key:"fresh" ~value:"w";
  Alcotest.(check (list int)) "its space reused" first (leaf_chunks h);
  Pmem.crash pool;
  let h = Hart.recover pool in
  Hart.check_integrity h;
  let owned = ref [] in
  Epalloc.iter_owned (Hart.alloc h) (fun ~leaf -> owned := leaf :: !owned);
  Alcotest.(check (list int)) "no owning slot" [] !owned;
  Chunk.iter_slots Chunk.Leaf_c ~chunk:(List.hd first) (fun ~idx ~obj ->
      match Leaf.slot pool ~leaf:obj with
      | Leaf.Live (_, k) -> Alcotest.(check string) "the one live key" "fresh" k
      | Leaf.Free pv -> Alcotest.(check int) (Printf.sprintf "slot %d names nothing" idx) 0 pv
      | Leaf.Corrupt len -> Alcotest.failf "slot %d: length byte %d" idx len);
  Alcotest.(check int) "keys" 1 (Hart.count h);
  Alcotest.(check (option string)) "fresh" (Some "w") (Hart.search h "fresh")

(* ------------------------------------------------------------------ *)
(* EPallocator                                                         *)

let fresh_alloc () =
  let pool = fresh_pool () in
  (Epalloc.create pool, pool)

let test_epalloc_distinct_objects () =
  let a, _ = fresh_alloc () in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let obj = fst (Epalloc.epmalloc_leaf a) in
    Alcotest.(check bool) "fresh object" false (Hashtbl.mem seen obj);
    Hashtbl.add seen obj ();
    Epalloc.set_obj_bit a Chunk.Leaf_c ~obj
  done;
  Alcotest.(check int) "200 live" 200 (Epalloc.live_objects a Chunk.Leaf_c);
  Alcotest.(check int) "ceil(200/56) chunks" 4 (Epalloc.chunk_count a Chunk.Leaf_c)

let test_epalloc_no_double_handout () =
  (* without set_obj_bit, reservations alone must prevent double hand-out *)
  let a, _ = fresh_alloc () in
  let x = Epalloc.epmalloc a Chunk.Val8 in
  let y = Epalloc.epmalloc a Chunk.Val8 in
  Alcotest.(check bool) "reserved slot not reissued" true (x <> y)

let test_epalloc_slot_reuse_after_reset () =
  let a, _ = fresh_alloc () in
  let x = Epalloc.epmalloc a Chunk.Val16 in
  Epalloc.set_obj_bit a Chunk.Val16 ~obj:x;
  (* fill more so the chunk is not recycled when x is freed *)
  let y = Epalloc.epmalloc a Chunk.Val16 in
  Epalloc.set_obj_bit a Chunk.Val16 ~obj:y;
  Epalloc.reset_obj_bit a Chunk.Val16 ~obj:x;
  let z = Epalloc.epmalloc a Chunk.Val16 in
  Alcotest.(check int) "freed slot handed out again" x z

let test_epalloc_chunk_of_obj () =
  let a, _ = fresh_alloc () in
  let objs = List.init 120 (fun _ ->
      let o = fst (Epalloc.epmalloc_leaf a) in
      Epalloc.set_obj_bit a Chunk.Leaf_c ~obj:o;
      o)
  in
  List.iter
    (fun obj ->
      let chunk = Epalloc.chunk_of_obj a Chunk.Leaf_c obj in
      Alcotest.(check bool) "obj within its chunk" true
        (obj > chunk && obj < chunk + Chunk.chunk_bytes Chunk.Leaf_c))
    objs;
  Alcotest.(check bool) "foreign offset rejected" true
    (match Epalloc.chunk_of_obj a Chunk.Leaf_c 8 with
    | _ -> false
    | exception Not_found -> true)

let test_epalloc_class_of_value_obj () =
  let a, _ = fresh_alloc () in
  let v8 = Epalloc.epmalloc a Chunk.Val8 in
  let v16 = Epalloc.epmalloc a Chunk.Val16 in
  let v32 = Epalloc.epmalloc a Chunk.Val32 in
  Alcotest.(check bool) "v8" true (Epalloc.class_of_value_obj a v8 = Some Chunk.Val8);
  Alcotest.(check bool) "v16" true (Epalloc.class_of_value_obj a v16 = Some Chunk.Val16);
  Alcotest.(check bool) "v32" true (Epalloc.class_of_value_obj a v32 = Some Chunk.Val32);
  let leaf = fst (Epalloc.epmalloc_leaf a) in
  Alcotest.(check bool) "leaf is no value" true
    (Epalloc.class_of_value_obj a leaf = None);
  (* a leaf slot may own a value: only epmalloc_leaf hands one out *)
  Alcotest.(check bool) "epmalloc refuses leaf slots" true
    (match Epalloc.epmalloc a Chunk.Leaf_c with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_eprecycle_returns_space () =
  let a, pool = fresh_alloc () in
  (* commit then free a full chunk's worth of values: 55, the spare
     left free *)
  let objs = List.init Epalloc.value_objs_per_chunk (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Val8 in
      Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
      o)
  in
  Alcotest.(check int) "one chunk" 1 (Epalloc.chunk_count a Chunk.Val8);
  let live_before = Pmem.live_bytes pool in
  List.iter (fun obj -> Epalloc.reset_obj_bit a Chunk.Val8 ~obj) objs;
  Epalloc.eprecycle a Chunk.Val8
    ~chunk:(Epalloc.chunk_of_obj a Chunk.Val8 (List.hd objs));
  Alcotest.(check bool) "pm space released" true (Pmem.live_bytes pool < live_before);
  Alcotest.(check int) "list empty" 0 (Epalloc.chunk_count a Chunk.Val8);
  Epalloc.check_invariants a

let test_eprecycle_middle_of_list () =
  let a, _ = fresh_alloc () in
  (* build three chunks; empty the middle one *)
  let objs = Array.init (3 * Epalloc.value_objs_per_chunk) (fun _ ->
      let o = Epalloc.epmalloc a Chunk.Val8 in
      Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
      o)
  in
  Alcotest.(check int) "three chunks" 3 (Epalloc.chunk_count a Chunk.Val8);
  let chunks = ref [] in
  Epalloc.iter_chunks a Chunk.Val8 (fun c -> chunks := c :: !chunks);
  let middle = List.nth (List.rev !chunks) 1 in
  Array.iter
    (fun obj ->
      if Epalloc.chunk_of_obj a Chunk.Val8 obj = middle then
        Epalloc.reset_obj_bit a Chunk.Val8 ~obj)
    objs;
  Epalloc.eprecycle a Chunk.Val8 ~chunk:middle;
  Alcotest.(check int) "two chunks remain" 2 (Epalloc.chunk_count a Chunk.Val8);
  Epalloc.check_invariants a

let test_eprecycle_refuses_nonempty () =
  let a, _ = fresh_alloc () in
  let o = Epalloc.epmalloc a Chunk.Val8 in
  Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
  let chunk = Epalloc.chunk_of_obj a Chunk.Val8 o in
  Epalloc.eprecycle a Chunk.Val8 ~chunk;
  Alcotest.(check int) "chunk kept" 1 (Epalloc.chunk_count a Chunk.Val8);
  Alcotest.(check bool) "object intact" true (Epalloc.obj_bit a Chunk.Val8 ~obj:o)

(* Registering a chunk costs the same at any registry size: a chunk
   above every registered one is written into spare cells in place. Each
   group of 55 committed allocations registers one Val8 chunk, whose
   56th slot is the spare. Over the
   last 64 of 4160 registrations the median group allocates at most
   twice what it did over the first 64. The median, because the arrays
   double at powers of two and the 4097th registration pays for one
   doubling, amortised over the 2048 before it. A registry copied on
   every registration allocates a word per registered chunk each time,
   about 8 times the bound at 4096 chunks. *)
let test_epalloc_registration_cost () =
  let a, _ = fresh_alloc () in
  let n = 4160 in
  let bytes = Array.make n 0. in
  for c = 0 to n - 1 do
    let before = Gc.allocated_bytes () in
    for _ = 1 to Epalloc.value_objs_per_chunk do
      let obj = Epalloc.epmalloc a Chunk.Val8 in
      Epalloc.set_obj_bit a Chunk.Val8 ~obj
    done;
    bytes.(c) <- Gc.allocated_bytes () -. before
  done;
  Alcotest.(check int) "chunks" n (Epalloc.chunk_count a Chunk.Val8);
  let median lo =
    let w = Array.sub bytes lo 64 in
    Array.sort compare w;
    w.(32)
  in
  let first = median 0 and last = median (n - 64) in
  if last > 2. *. first then
    Alcotest.failf
      "median registration: %.0f bytes over the last 64 of %d, %.0f over the \
       first 64"
      last n first

(* eprecycle takes PPrev from the chunk's volatile link: unlinking the
   tail of a 1000-chunk list reads the same PM as unlinking the tail of
   a 10-chunk list: the chunk's own chain pointer. It persists the
   recycle record, the predecessor's chain pointer and the record's
   reclaim. *)
let test_eprecycle_cost_independent_of_length () =
  let recycle_tail len =
    let a, pool = fresh_alloc () in
    let objs =
      Array.init (len * Epalloc.value_objs_per_chunk) (fun _ ->
          let o = Epalloc.epmalloc a Chunk.Val8 in
          Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
          o)
    in
    (* the list grows at its head, so the first chunk is its tail *)
    let tail = Epalloc.chunk_of_obj a Chunk.Val8 objs.(0) in
    for i = 0 to Epalloc.value_objs_per_chunk - 1 do
      Epalloc.reset_obj_bit a Chunk.Val8 ~obj:objs.(i)
    done;
    let meter = Pmem.meter pool in
    let before = Meter.counters meter in
    Epalloc.eprecycle a Chunk.Val8 ~chunk:tail;
    let d = Meter.diff before (Meter.counters meter) in
    Alcotest.(check int) "tail unlinked" (len - 1) (Epalloc.chunk_count a Chunk.Val8);
    Epalloc.check_invariants a;
    d
  in
  let short = recycle_tail 10 and long = recycle_tail 1000 in
  Alcotest.(check int) "pm reads: the chunk's pnext" 1 short.Meter.pm_reads;
  Alcotest.(check int) "pm reads" short.Meter.pm_reads long.Meter.pm_reads;
  Alcotest.(check int) "flushes, 10 chunks" 3 short.Meter.flushes;
  Alcotest.(check int) "flushes, 1000 chunks" 3 long.Meter.flushes

(* The spare rule: plain allocation hands out 55 slots of a value chunk
   and opens a new chunk rather than take the 56th. An update whose old
   value sits in the chunk takes it, and both bits change with one
   store of the chunk's mirror word and no persist, which frees the old
   slot: that slot is the chunk's spare from then on, and the next
   update in the chunk takes it. *)
let test_epalloc_spare_rule () =
  let a, pool = fresh_alloc () in
  let objs =
    Array.init Epalloc.value_objs_per_chunk (fun _ ->
        let o = Epalloc.epmalloc a Chunk.Val8 in
        Epalloc.set_obj_bit a Chunk.Val8 ~obj:o;
        o)
  in
  let chunk_of o = Epalloc.chunk_of_obj a Chunk.Val8 o in
  let chunk = chunk_of objs.(0) in
  Alcotest.(check int) "the chunk is down to its spare" 1 (Epalloc.spares a Chunk.Val8);
  let plain = Epalloc.epmalloc a Chunk.Val8 in
  Alcotest.(check bool) "plain allocation leaves the spare" true (chunk_of plain <> chunk);
  let old = objs.(7) in
  let fresh = Epalloc.epmalloc_update a Chunk.Val8 ~old in
  Alcotest.(check int) "the update takes the spare" chunk (chunk_of fresh);
  let other16 = Epalloc.epmalloc_update a Chunk.Val16 ~old:objs.(8) in
  Alcotest.(check bool) "a class change allocates in its class" true
    (Epalloc.class_of_value_obj a other16 = Some Chunk.Val16);
  let meter = Pmem.meter pool in
  let before = Meter.counters meter in
  Epalloc.commit_update a Chunk.Val8 ~obj:fresh ~old;
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "both bits, no flush" 0 d.Meter.flushes;
  Alcotest.(check int) "both bits, one mirror store" 1 d.Meter.dram_writes;
  Alcotest.(check bool) "new bit set" true (Epalloc.obj_bit a Chunk.Val8 ~obj:fresh);
  Alcotest.(check bool) "old bit clear" false (Epalloc.obj_bit a Chunk.Val8 ~obj:old);
  Alcotest.(check int) "the freed old slot is the spare" 1
    (Epalloc.spares a Chunk.Val8);
  Alcotest.(check int) "the next update takes it" old
    (Epalloc.epmalloc_update a Chunk.Val8 ~old:objs.(8));
  Epalloc.check_invariants a

(* The slot [epmalloc] picks is the lowest zero of occupied | reserved,
   as a bit-by-bit scan finds it; masks come dense and sparse. *)
let qcheck_free_slot_matches_scan =
  let full = (1 lsl Chunk.objs_per_chunk) - 1 in
  let scan occ =
    let rec go i =
      if i >= Chunk.objs_per_chunk then -1
      else if occ land (1 lsl i) = 0 then i
      else go (i + 1)
    in
    go 0
  in
  QCheck.Test.make ~count:2000 ~name:"free_slot picks the slot a bit scan picks"
    (QCheck.make
       ~print:(Printf.sprintf "%#x")
       QCheck.Gen.(
         oneof
           [
             map (fun x -> x land full) int;
             map (fun k -> full land lnot (1 lsl k)) (int_bound 55);
             map2 (fun x k -> (x lor ((1 lsl k) - 1)) land full) int (int_bound 56);
           ]))
    (fun occ -> Epalloc.free_slot occ = scan occ)

(* Attach rebuilds the chunk lists with every mirror word empty; the
   scan's length bytes refill the leaf words. *)
let test_epalloc_attach_rebuilds () =
  let h, pool = fresh_hart () in
  for i = 0 to 99 do
    Hart.insert h ~key:(Printf.sprintf "k%03d" i) ~value:"v"
  done;
  let leaves = ref [] in
  Hart.iter_arts h (fun _ art -> Art.iter art (fun _ leaf -> leaves := leaf :: !leaves));
  Pmem.crash pool;
  let a = Epalloc.attach (Pmem.clone pool) in
  Alcotest.(check int) "leaf chunks relinked" 2 (Epalloc.chunk_count a Chunk.Leaf_c);
  Alcotest.(check int) "no bit before the scan" 0 (Epalloc.live_objects a Chunk.Leaf_c);
  Alcotest.(check int) "kh recovered" 2 (Epalloc.kh a);
  Epalloc.check_invariants a;
  let a' = Hart.alloc (Hart.recover pool) in
  Alcotest.(check int) "live leaves survive" 100 (Epalloc.live_objects a' Chunk.Leaf_c);
  List.iter
    (fun obj ->
      Alcotest.(check bool) "bit visible" true (Epalloc.obj_bit a' Chunk.Leaf_c ~obj))
    !leaves;
  Epalloc.check_invariants a'

(* No occupancy bit is durable: committing, resetting and an update's
   commit write the DRAM mirror only, so a crash forgets every bit. *)
let test_epalloc_bits_store_no_pm () =
  let a, pool = fresh_alloc () in
  let leaf = fst (Epalloc.epmalloc_leaf a) in
  let v = Epalloc.epmalloc a Chunk.Val8 in
  Epalloc.set_obj_bit a Chunk.Val8 ~obj:v;
  let w = Epalloc.epmalloc_update a Chunk.Val8 ~old:v in
  let f0 = Pmem.flush_count pool in
  Pmem.store_trace_start pool;
  Epalloc.set_obj_bit a Chunk.Leaf_c ~obj:leaf;
  Epalloc.commit_update a Chunk.Val8 ~obj:w ~old:v;
  Epalloc.reset_obj_bit a Chunk.Leaf_c ~obj:leaf;
  Epalloc.set_obj_bit a Chunk.Leaf_c ~obj:leaf;
  Alcotest.(check int) "no PM store" 0 (List.length (Pmem.store_trace_stop pool));
  Alcotest.(check int) "no flush" 0 (Pmem.flush_count pool - f0);
  Alcotest.(check bool) "leaf committed" true (Epalloc.obj_bit a Chunk.Leaf_c ~obj:leaf);
  Alcotest.(check bool) "new value committed" true (Epalloc.obj_bit a Chunk.Val8 ~obj:w);
  Alcotest.(check bool) "old value free" false (Epalloc.obj_bit a Chunk.Val8 ~obj:v);
  Alcotest.(check bool) "one chunk word" true
    (Epalloc.chunk_of_obj a Chunk.Val8 v = Epalloc.chunk_of_obj a Chunk.Val8 w);
  Pmem.crash pool;
  let a' = Epalloc.attach pool in
  List.iter
    (fun cls ->
      Alcotest.(check int)
        (Format.asprintf "%a: no bit after a crash" Chunk.pp_cls cls)
        0 (Epalloc.live_objects a' cls))
    Chunk.all_classes;
  Alcotest.(check int) "chunks survive" 1 (Epalloc.chunk_count a' Chunk.Val8)

(* Recovery rebuilds every chunk's mirror word exactly as the live store
   had it, after churn that leaves owning slots, holes and values of
   every class. *)
let test_epalloc_recovery_rebuilds_words () =
  let h, pool = fresh_hart () in
  let key i = Printf.sprintf "mw%04d" i in
  let value i = String.make (i mod 31) (Char.chr (Char.code 'a' + (i mod 26))) in
  for i = 0 to 299 do
    Hart.insert h ~key:(key i) ~value:(value i)
  done;
  for i = 0 to 299 do
    if i mod 7 = 0 then assert (Hart.update h ~key:(key i) ~value:(value (i + 11)));
    if i mod 3 = 0 then assert (Hart.delete h (key i))
  done;
  let words h =
    let a = Hart.alloc h in
    List.concat_map
      (fun cls ->
        let l = ref [] in
        Epalloc.iter_chunks a cls (fun chunk ->
            l := (chunk, Epalloc.committed_bits a cls ~chunk) :: !l);
        List.sort compare !l)
      Chunk.all_classes
  in
  let owners h =
    let l = ref [] in
    Epalloc.iter_owned (Hart.alloc h) (fun ~leaf -> l := leaf :: !l);
    !l
  in
  let before = words h and owned = owners h in
  Alcotest.(check bool) "deleted keys' slots own values" true (owned <> []);
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Hart.check_integrity h';
  Alcotest.(check (list (pair int int))) "every mirror word" before (words h');
  Alcotest.(check (list int)) "owning slots" owned (owners h')

let test_epalloc_attach_rejects_garbage () =
  let pool = fresh_pool () in
  ignore (Pmem.alloc pool 4096);
  Alcotest.(check bool) "bad magic rejected" true
    (match Epalloc.attach pool with
    | _ -> false
    | exception Hart_error.Error { site = Hart_error.Root_block _; _ } -> true)

let test_epalloc_leaf_repair () =
  (* the Algorithm 1 crash windows: a free leaf slot names a value whose
     bit was set (crash after the value's bit, before the leaf's) or not
     (crash before it). No value bit is durable, so recovery cannot tell
     them apart and need not: each value was reserved for its slot, and
     each slot becomes its value's owner, writing nothing. A slot whose
     pointer names no value object (here, one between two objects) is
     severed. *)
  let a, pool = fresh_alloc () in
  let stage committed =
    let leaf = fst (Epalloc.epmalloc_leaf a) in
    let v = Epalloc.epmalloc a Chunk.Val8 in
    Value_obj.write ~crc:false pool ~obj:v "six";
    Leaf.set_p_value pool ~leaf ~head:0L v;
    if committed then Epalloc.set_obj_bit a Chunk.Val8 ~obj:v;
    (leaf, v)
  in
  let owner, v = stage true in
  let owner', v' = stage false in
  let severed, _ = stage false in
  Leaf.set_p_value pool ~leaf:severed ~head:0L (v + 1);
  (* crash: no leaf was committed *)
  Pmem.crash pool;
  let flushes = Pmem.flush_count pool in
  let a' = Hart.alloc (Hart.recover pool) in
  Alcotest.(check int) "one flush: the sever" 1 (Pmem.flush_count pool - flushes);
  Alcotest.(check int) "recovery keeps both named values" 2
    (Epalloc.live_objects a' Chunk.Val8);
  Alcotest.(check bool) "committed value kept" true
    (Epalloc.obj_bit a' Chunk.Val8 ~obj:v);
  Alcotest.(check bool) "uncommitted value kept" true
    (Epalloc.obj_bit a' Chunk.Val8 ~obj:v');
  Alcotest.(check int) "the slot naming no object severed" 0
    (Leaf.p_value pool ~leaf:severed);
  let owned = ref [] in
  Epalloc.iter_owned a' (fun ~leaf -> owned := leaf :: !owned);
  Alcotest.(check (list int)) "the other slots own them" [ owner'; owner ] !owned;
  Alcotest.(check (pair int bool)) "handed out as an owner" (owner, true)
    (Epalloc.epmalloc_leaf a');
  Alcotest.(check int) "p_value kept" v (Leaf.p_value pool ~leaf:owner);
  Alcotest.(check (pair int bool)) "then the second owner" (owner', true)
    (Epalloc.epmalloc_leaf a');
  Alcotest.(check (pair int bool)) "then the severed slot, owning nothing"
    (severed, false) (Epalloc.epmalloc_leaf a')

(* Allocator model check: random alloc/commit/free/recycle/crash
   sequences against a simple set model. A value bit is not durable, so
   a crash recovers as a mount does: every value the model holds is
   named, and the liveness pass commits exactly those. *)
let qcheck_epalloc_model =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, return `Alloc);
          (3, map (fun i -> `Free i) (int_bound 500));
          (1, return `Crash);
        ])
  in
  QCheck.Test.make ~count:100 ~name:"EPallocator behaves like a set allocator"
    (QCheck.make QCheck.Gen.(list_size (int_bound 120) op_gen))
    (fun script ->
      let pool = fresh_pool () in
      let a = ref (Epalloc.create pool) in
      let live = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Alloc ->
              let obj = Epalloc.epmalloc !a Chunk.Val16 in
              if Hashtbl.mem live obj then
                failwith (Printf.sprintf "double hand-out of %d" obj);
              Epalloc.set_obj_bit !a Chunk.Val16 ~obj;
              Hashtbl.add live obj ();
              order := obj :: !order
          | `Free i -> (
              match List.nth_opt !order (i mod max 1 (List.length !order)) with
              | Some obj when Hashtbl.mem live obj ->
                  Epalloc.reset_obj_bit !a Chunk.Val16 ~obj;
                  Hashtbl.remove live obj;
                  Epalloc.eprecycle !a Chunk.Val16
                    ~chunk:(Epalloc.chunk_of_obj !a Chunk.Val16 obj)
              | Some _ | None -> ())
          | `Crash ->
              Pmem.crash pool;
              a := Epalloc.attach pool;
              let named = Epalloc.runs () in
              Hashtbl.iter (fun obj () -> Epalloc.name_value !a named obj) live;
              Epalloc.settle_values !a [ named ])
        script;
      Epalloc.check_invariants !a;
      Epalloc.live_objects !a Chunk.Val16 = Hashtbl.length live)

(* ------------------------------------------------------------------ *)
(* Leaf and value codecs                                               *)

let test_leaf_codec () =
  let pool = fresh_pool () in
  let leaf = Pmem.alloc pool Leaf.size in
  let head = Leaf.write_key pool ~leaf "hello" in
  Alcotest.(check string) "key roundtrip" "hello" (Leaf.key pool ~leaf);
  Leaf.set_p_value pool ~leaf ~head 4242;
  Alcotest.(check int) "p_value roundtrip" 4242 (Leaf.p_value pool ~leaf);
  Pmem.crash pool;
  Alcotest.(check string) "key durable" "hello" (Leaf.key pool ~leaf);
  Alcotest.(check int) "p_value durable" 4242 (Leaf.p_value pool ~leaf);
  Leaf.free pool ~leaf;
  Pmem.crash pool;
  Alcotest.(check bool) "freed slot keeps its pointer" true
    (Leaf.slot pool ~leaf = Leaf.Free 4242);
  Leaf.sever pool ~leaf;
  Alcotest.(check bool) "severed slot names nothing" true
    (Leaf.slot pool ~leaf = Leaf.Free 0);
  Leaf.init ~crc:true pool ~leaf ~p_value:77 "crc";
  Alcotest.(check bool) "key CRC matches" true (Leaf.key_crc_ok pool ~leaf "crc");
  Alcotest.(check bool) "another key's does not" false (Leaf.key_crc_ok pool ~leaf "crd")

let test_leaf_key_limit () =
  let pool = fresh_pool () in
  let leaf = Pmem.alloc pool Leaf.size in
  ignore (Leaf.write_key pool ~leaf (String.make 24 'x') : int64);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%d bytes rejected" (String.length k))
        true
        (match Leaf.write_key pool ~leaf k with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ String.make 25 'x'; String.make 0 'x' ];
  Alcotest.(check bool) "a pointer past 2^40 rejected" true
    (match Leaf.init pool ~leaf ~p_value:(1 lsl 40) "k" with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_value_codec () =
  let pool = fresh_pool () in
  List.iter
    (fun payload ->
      let obj = Pmem.alloc pool 32 in
      Value_obj.write ~crc:false pool ~obj payload;
      Alcotest.(check string) "roundtrip" payload (Value_obj.read pool ~obj))
    [ ""; "x"; "1234567"; "fifteen-bytes.."; String.make 31 'v' ]

(* Run [f] under the read trace and the meter: its result, the lines
   it read, and the PM reads it was charged. *)
let traced pool f =
  let meter = Pmem.meter pool in
  let before = Meter.counters meter in
  Pmem.read_trace_start pool;
  let r = f () in
  let lines = Pmem.read_trace_stop pool in
  (r, lines, (Meter.diff before (Meter.counters meter)).Meter.pm_reads)

let span_lines ~off ~len =
  let first = off / Pmem.line_bytes and last = (off + len - 1) / Pmem.line_bytes in
  List.init (last - first + 1) (fun i -> first + i)

(* The single-access readers decode what field-by-field reads decode,
   touch the same lines, and are charged one PM read per line. Leaf
   slots are 32-aligned, so slots 0 and 1 cover both phases of a line;
   value slots 0..7 cover every phase of every value class. *)
let test_reader_equivalence () =
  let pool = fresh_pool () in
  let lchunk = Chunk.alloc pool Chunk.Leaf_c in
  let vchunks =
    List.map (fun cls -> (cls, Chunk.alloc pool cls)) Chunk.[ Val8; Val16; Val32 ]
  in
  let check_case ~slot ~klen ~cls ~vidx ~vlen =
    let what =
      Format.asprintf "slot %d klen %d %a[%d] vlen %d" slot klen Chunk.pp_cls cls vidx
        vlen
    in
    let leaf = Chunk.obj_off Chunk.Leaf_c ~chunk:lchunk ~idx:slot in
    let obj = Chunk.obj_off cls ~chunk:(List.assoc cls vchunks) ~idx:vidx in
    let key = String.init klen (fun i -> Char.chr (65 + ((i + klen) mod 26))) in
    let value = String.init vlen (fun i -> Char.chr (97 + (((7 * i) + vlen) mod 26))) in
    Value_obj.write ~crc:false pool ~obj value;
    Leaf.init pool ~leaf ~p_value:obj key;
    let fields, field_lines, _ =
      traced pool (fun () ->
          let head = Pmem.get_u64 pool leaf in
          ( Leaf.head_p_value head,
            Pmem.get_string pool ~off:(leaf + 8) ~len:(Leaf.head_len head) ))
    in
    Alcotest.(check (list int))
      (what ^ ": field lines")
      (span_lines ~off:leaf ~len:(8 + klen))
      field_lines;
    Alcotest.(check (pair int string)) (what ^ ": fields") (obj, key) fields;
    let got, lines, reads = traced pool (fun () -> Leaf.read pool ~leaf) in
    Alcotest.(check (result (pair int string) int))
      (what ^ ": leaf decode") (Ok fields) got;
    Alcotest.(check (list int)) (what ^ ": leaf lines") field_lines lines;
    Alcotest.(check int) (what ^ ": leaf reads") (List.length lines) reads;
    let vfield, vfield_lines, _ =
      traced pool (fun () ->
          let len = Pmem.get_u8 pool obj in
          if len = 0 then "" else Pmem.get_string pool ~off:(obj + 1) ~len)
    in
    let v, vlines, vreads = traced pool (fun () -> Value_obj.read pool ~obj) in
    Alcotest.(check string) (what ^ ": value decode") vfield v;
    Alcotest.(check string) (what ^ ": value") value v;
    Alcotest.(check (list int)) (what ^ ": value lines") vfield_lines vlines;
    Alcotest.(check int) (what ^ ": value reads") (List.length vlines) vreads
  in
  let classes = Array.of_list (List.map fst vchunks) in
  for slot = 0 to 7 do
    for klen = 1 to Leaf.max_key_len do
      let cls = classes.(klen mod 3) in
      check_case ~slot ~klen ~cls ~vidx:slot
        ~vlen:(klen mod Chunk.obj_size cls)
    done
  done;
  Array.iter
    (fun cls ->
      for vidx = 0 to 7 do
        for vlen = 0 to Chunk.obj_size cls - 1 do
          check_case ~slot:vidx ~klen:(1 + (vlen mod Leaf.max_key_len)) ~cls ~vidx ~vlen
        done
      done)
    classes

(* Leaf.read touches exactly one PM line, its slot's, and is charged
   one read, for every slot of a leaf chunk and every key length. *)
let test_leaf_read_one_line () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Leaf_c in
  for idx = 0 to Chunk.objs_per_chunk - 1 do
    let leaf = Chunk.obj_off Chunk.Leaf_c ~chunk ~idx in
    for klen = 1 to Leaf.max_key_len do
      let key = String.init klen (fun i -> Char.chr (65 + ((i + idx) mod 26))) in
      Leaf.init pool ~leaf ~p_value:(64 * (idx + 1)) key;
      let got, lines, reads = traced pool (fun () -> Leaf.read pool ~leaf) in
      let what = Printf.sprintf "slot %d, key length %d" idx klen in
      Alcotest.(check (result (pair int string) int))
        what
        (Ok (64 * (idx + 1), key))
        got;
      Alcotest.(check (list int)) (what ^ ": lines") [ leaf / Pmem.line_bytes ] lines;
      Alcotest.(check int) (what ^ ": reads") 1 reads
    done
  done

(* A length byte outside 1..24 is rejected after the same one access:
   no key byte is trusted, nothing past the slot is read. *)
let test_leaf_read_rejects_bad_length () =
  let pool = fresh_pool () in
  let chunk = Chunk.alloc pool Chunk.Leaf_c in
  for slot = 0 to 7 do
    let leaf = Chunk.obj_off Chunk.Leaf_c ~chunk ~idx:slot in
    Leaf.init pool ~leaf ~p_value:4242 "key";
    List.iter
      (fun bad ->
        Pmem.set_u8 pool (leaf + 7) bad;
        let got, lines, reads = traced pool (fun () -> Leaf.read pool ~leaf) in
        let what = Printf.sprintf "slot %d, length byte %d" slot bad in
        Alcotest.(check (result (pair int string) int)) what (Error bad) got;
        Alcotest.(check (list int))
          (what ^ ": lines") [ leaf / Pmem.line_bytes ] lines;
        Alcotest.(check int) (what ^ ": reads") 1 reads;
        Alcotest.(check bool) (what ^ ": Leaf.key raises") true
          (match Leaf.key pool ~leaf with
          | _ -> false
          | exception Invalid_argument _ -> true))
      [ 0; 25; 30; 200; 255 ]
  done

(* ------------------------------------------------------------------ *)
(* Micro-logs                                                          *)

(* A recycle writes the slot of its object class, the class id. *)
let class_slot = function
  | Chunk.Leaf_c -> 0
  | Chunk.Val8 -> 1
  | Chunk.Val16 -> 2
  | Chunk.Val32 -> 3

let test_microlog_roundtrip () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  List.iter
    (fun cls ->
      let slot = class_slot cls in
      Microlog.record logs ~slot ~pprev:(111 + slot) ~cls ~pcurrent:(333 + slot))
    Chunk.all_classes;
  List.iter
    (fun cls ->
      let slot = class_slot cls in
      Alcotest.(check int) "pprev" (111 + slot) (Microlog.pprev logs ~slot);
      Alcotest.(check int) "pcurrent" (333 + slot) (Microlog.pcurrent logs ~slot))
    Chunk.all_classes;
  Microlog.reclaim logs ~slot:2;
  Alcotest.(check int) "reclaimed" 0 (Microlog.pcurrent logs ~slot:2);
  let pending = ref [] in
  Microlog.iter_pending logs (fun ~slot -> pending := slot :: !pending);
  Alcotest.(check (list int)) "the other classes' records kept" [ 3; 1; 0 ] !pending

(* A store whose next operation, [op], recycles a chunk of class [cls]:
   deleting the one key of the second leaf chunk, or a class-changing
   update of the one value of class [cls]. The other keys must survive
   any crash inside it. *)
let recycle_scenario ~checksums cls =
  let pool = fresh_pool () in
  let h = Hart.create ~checksums pool in
  let value = function
    | Chunk.Val8 -> "v8"
    | Chunk.Val16 -> "a val16 value"
    | _ -> "a value of class val32"
  in
  let other = if cls = Chunk.Val8 then Chunk.Val16 else Chunk.Val8 in
  let model =
    if cls = Chunk.Leaf_c then
      List.init Chunk.objs_per_chunk (fun i -> (Printf.sprintf "k%02d" i, "v"))
    else [ ("bystander", value other) ]
  in
  List.iter (fun (key, value) -> Hart.insert h ~key ~value) model;
  let op =
    if cls = Chunk.Leaf_c then begin
      Hart.insert h ~key:"lone" ~value:"v";
      fun () -> assert (Hart.delete h "lone")
    end
    else begin
      Hart.insert h ~key:"mover" ~value:(value cls);
      fun () -> assert (Hart.update h ~key:"mover" ~value:(value other))
    end
  in
  (pool, model, op)

(* The scenario of [cls] cut by a crash at the first flush that leaves
   its recycle record pending, with the chunk the record names. *)
let crash_in_recycle ~checksums cls =
  let slot = class_slot cls in
  let rec cut k =
    let pool, model, op = recycle_scenario ~checksums cls in
    Pmem.arm_crash pool ~after_flushes:k;
    match op () with
    | () -> Alcotest.failf "no %a record pending after %d flushes" Chunk.pp_cls cls k
    | exception Pmem.Crash_injected ->
        Pmem.disarm_crash pool;
        let logs =
          Microlog.attach ~checksummed:checksums pool
            ~base:(Epalloc.root_off + Pmem.line_bytes)
        in
        if Microlog.pcurrent logs ~slot = 0 then cut (k + 1)
        else (pool, model, logs, Microlog.pcurrent logs ~slot)
  in
  cut 1

(* A crash inside a recycle of each class leaves exactly its class's
   slot pending, and recovery replays and reclaims it. *)
let test_microlog_durability () =
  List.iter
    (fun cls ->
      let pool, _, logs, _ = crash_in_recycle ~checksums:false cls in
      let pending () =
        let slots = ref [] in
        Microlog.iter_pending logs (fun ~slot -> slots := slot :: !slots);
        !slots
      in
      let what = Format.asprintf "%a" Chunk.pp_cls cls in
      Alcotest.(check (list int)) (what ^ ": its class's slot pending") [ class_slot cls ]
        (pending ());
      Hart.check_integrity (Hart.recover pool);
      Alcotest.(check (list int)) (what ^ ": replayed") [] (pending ()))
    Chunk.all_classes

let test_microlog_recycle_class () =
  let pool = fresh_pool () in
  let base = Pmem.alloc pool Microlog.region_bytes in
  let logs = Microlog.create pool ~base in
  let slot = class_slot Chunk.Val16 in
  Microlog.record logs ~slot ~pprev:0 ~cls:Chunk.Val16 ~pcurrent:999;
  Alcotest.(check bool) "class recorded" true
    (Microlog.cls logs ~slot = Chunk.Val16);
  Alcotest.(check int) "pcurrent" 999 (Microlog.pcurrent logs ~slot);
  Alcotest.(check int) "pprev" 0 (Microlog.pprev logs ~slot)

(* Every slot of a formatted HART root sits on its own line: writing a
   record, reclaiming it and repairing its media line each flush
   exactly one line. *)
let test_microlog_one_line_per_record () =
  let h, pool = fresh_hart () in
  let alloc = Hart.alloc h in
  let logs = Epalloc.logs alloc in
  let flushes f =
    let c0 = Pmem.flush_count pool in
    f ();
    Pmem.flush_count pool - c0
  in
  let check what n =
    Alcotest.(check int) (what ^ " flushes one line") 1 n
  in
  for slot = 0 to Microlog.n_slots - 1 do
    let what = Printf.sprintf "recycle slot %d" slot in
    check (what ^ " record")
      (flushes (fun () ->
           Microlog.record logs ~slot ~pprev:(slot + 1) ~cls:Chunk.Val32 ~pcurrent:4));
    check (what ^ " reclaim") (flushes (fun () -> Microlog.reclaim logs ~slot))
  done;
  for slot = 0 to Microlog.n_slots - 1 do
    let off = Microlog.slot_offset logs ~slot in
    let findings = ref [] in
    check
      (Printf.sprintf "slot %d line repair" slot)
      (flushes (fun () ->
           Epalloc.repair_root_line alloc ~before_replay:true
             ~report:(fun f -> findings := f :: !findings)
             (off / Pmem.line_bytes)));
    Alcotest.(check (list string)) "idle slot reported repaired"
      [
        Printf.sprintf
          "[repaired] recycle-log slot %d @%d: idle log slot rewritten to zero (line resealed)"
          slot off;
      ]
      (List.map (Format.asprintf "%a" Hart_error.pp_finding) !findings)
  done

(* Images written while recycle slots were handed out dynamically: a
   record may sit in any slot, whatever its class. Each class's record
   is moved to every slot 0-7 and recovered by every mount. *)
let test_microlog_any_slot_replayed () =
  List.iter
    (fun checksums ->
      List.iter
        (fun cls ->
          let crashed, model, _, chunk = crash_in_recycle ~checksums cls in
          for slot = 0 to Microlog.n_slots - 1 do
            let what =
              Format.asprintf "%a record in slot %d%s" Chunk.pp_cls cls slot
                (if checksums then ", checksummed" else "")
            in
            let image = Pmem.clone crashed in
            let logs =
              Microlog.attach ~checksummed:checksums image
                ~base:(Epalloc.root_off + Pmem.line_bytes)
            in
            let from = class_slot cls in
            let pprev = Microlog.pprev logs ~slot:from in
            Microlog.reclaim logs ~slot:from;
            Microlog.record logs ~slot ~pprev ~cls ~pcurrent:chunk;
            List.iter
              (fun (mount, recover) ->
                let p = Pmem.clone image in
                let h = recover p in
                let pending = ref 0 in
                Microlog.iter_pending (Epalloc.logs (Hart.alloc h)) (fun ~slot:_ ->
                    incr pending);
                Alcotest.(check int) (what ^ ", " ^ mount ^ ": replayed") 0 !pending;
                let linked = ref false in
                Epalloc.iter_chunks (Hart.alloc h) cls (fun c ->
                    if c = chunk then linked := true);
                Alcotest.(check bool)
                  (what ^ ", " ^ mount ^ ": chunk unlinked")
                  false !linked;
                Hart.check_integrity h;
                List.iter
                  (fun (key, value) ->
                    Alcotest.(check (option string)) (what ^ ", " ^ mount ^ ": " ^ key)
                      (Some value) (Hart.search h key))
                  model)
              [
                ("plain mount", fun p -> Hart.recover p);
                ( "quarantining mount",
                  fun p ->
                    let h = Hart.recover ~quarantine:true p in
                    Alcotest.(check int) (what ^ ": no finding") 0
                      (List.length (Hart.quarantines h @ Hart.fsck h));
                    h );
                ("2-domain recovery", fun p -> Hart.recover_parallel ~domains:2 p);
              ]
          done)
        Chunk.all_classes)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Updates without a log (DESIGN.md §6 item 3): the liveness pass
   settles the value bits from what the leaves name.                  *)

(* A committed (leaf, value) pair plus a second "bystander" key whose
   state must never be disturbed by recovery. *)
let setup_update_scenario () =
  let pool = fresh_pool () in
  let h = Hart.create pool in
  Hart.insert h ~key:"bystander" ~value:"bb";
  Hart.insert h ~key:"target" ~value:"OLD";
  (pool, h)

let recovered_value pool =
  let h = Hart.recover pool in
  Hart.check_integrity h;
  Alcotest.(check (option string)) "bystander untouched" (Some "bb")
    (Hart.search h "bystander");
  Hart.search h "target"

let leaf_of h key =
  let found = ref 0 in
  Hart.iter_arts h (fun hk art ->
      Art.iter art (fun ak leaf -> if hk ^ ak = key then found := leaf));
  !found

(* A quiescent image recovers without a flush and leaves no dirty line,
   after updates in place and across classes. *)
let test_updates_quiescent_recovery () =
  let pool, h = setup_update_scenario () in
  assert (Hart.update h ~key:"target" ~value:"NEW");
  assert (Hart.update h ~key:"bystander" ~value:"a 16-byte value");
  assert (Hart.update h ~key:"bystander" ~value:"bb");
  Pmem.crash pool;
  let f0 = Pmem.flush_count pool in
  let h = Hart.recover pool in
  Alcotest.(check int) "recovery flushes" 0 (Pmem.flush_count pool - f0);
  Alcotest.(check int) "dirty lines" 0 (Pmem.dirty_line_count pool);
  Hart.check_integrity h;
  Alcotest.(check (option string)) "value" (Some "NEW") (Hart.search h "target")

(* A crash at an update's p_value store, the last of its two persists,
   in place and across classes: the bit commit that follows it changes
   only the DRAM mirror, so this is also every crash after the update
   returned. Recovery names the new value, commits it and frees the old
   one, and writes nothing. *)
let test_update_p_value_windows () =
  List.iter
    (fun (value, first, last) ->
      for n = first to last do
        let pool, h = setup_update_scenario () in
        (* a Val16 chunk exists, so the class change allocates no chunk *)
        Hart.insert h ~key:"sixteen" ~value:"a 16-byte value";
        Pmem.arm_crash pool ~after_flushes:n;
        (match Hart.update h ~key:"target" ~value with
        | _ -> Alcotest.failf "%S: no crash after %d flushes" value n
        | exception Pmem.Crash_injected -> ());
        Pmem.disarm_crash pool;
        let what = Printf.sprintf "%S, crash after %d flushes" value n in
        let f0 = Pmem.flush_count pool in
        Alcotest.(check (option string)) what (Some value) (recovered_value pool);
        Alcotest.(check int) (what ^ ": recovery writes nothing") 0
          (Pmem.flush_count pool - f0)
      done)
    [ ("NEW", 2, 2); ("a 16-byte value", 2, 2) ]

(* Crash a fresh [scenario] after [n] flushes of [op] on its store,
   where [n] is the flush count of [op] on a dry run of the same
   scenario less [last]; return the crashed pool and what [scenario]
   returned besides. *)
let crash_before_last scenario op ~last =
  let flushes =
    let pool, h, _ = scenario () in
    let f0 = Pmem.flush_count pool in
    op h;
    Pmem.flush_count pool - f0
  in
  let pool, h, x = scenario () in
  Pmem.arm_crash pool ~after_flushes:(flushes - last);
  (match op h with
  | () -> Alcotest.fail "no crash"
  | exception Pmem.Crash_injected -> ());
  Pmem.disarm_crash pool;
  (pool, x)

(* Recover [pool], check it, then crash and recover it again: the first
   recovery's flushes, and the second's, which must be none. *)
let recover_twice pool =
  let f0 = Pmem.flush_count pool in
  let h = Hart.recover pool in
  let first = Pmem.flush_count pool - f0 in
  Hart.check_integrity h;
  Pmem.crash pool;
  let f0 = Pmem.flush_count pool in
  Hart.check_integrity (Hart.recover pool);
  Alcotest.(check int) "second recovery: no flush" 0 (Pmem.flush_count pool - f0);
  (h, first)

(* A delete that empties a leaf chunk whose free slot owns a value
   unlinks the chunk, then resets the value's bit: "lone" sits alone in
   the second leaf chunk, and its value shares a chunk that stays. The
   reset changes only the DRAM mirror, so a crash after the unlink, the
   delete's last persist, leaves the same image whether or not the
   reset ran: a value that nothing names, whose bit attach does not
   know. Recovery's liveness pass leaves it free and writes nothing. *)
let test_recycle_unlink_window () =
  let scenario () =
    let h, pool = fresh_hart () in
    for i = 0 to 55 do
      Hart.insert h ~key:(Printf.sprintf "fl%04d" i) ~value:"v"
    done;
    Hart.insert h ~key:"lone" ~value:"w";
    (pool, h, Leaf.p_value pool ~leaf:(leaf_of h "lone"))
  in
  let op h = assert (Hart.delete h "lone") in
  let pool, v = crash_before_last scenario op ~last:0 in
  let a = Epalloc.attach (Pmem.clone pool) in
  Alcotest.(check int) "leaf chunk unlinked" 1 (Epalloc.chunk_count a Chunk.Leaf_c);
  Alcotest.(check bool) "no value bit before the liveness pass" false
    (Epalloc.value_committed a v);
  let h, flushes = recover_twice pool in
  Alcotest.(check int) "recovery: no flush" 0 flushes;
  Alcotest.(check bool) "unnamed value freed" false
    (Epalloc.value_committed (Hart.alloc h) v);
  Alcotest.(check int) "keys" 56 (Hart.count h)

(* A take-over across classes writes the new value, then the leaf, whose
   length byte commits the heir and whose p_value then names the new
   value, and only then resets the old value's bit, in the mirror. A
   crash at the value's flush leaves the free slot owning the old value
   and nothing naming the new one; a crash at the leaf's flush, the last,
   is every crash after it too: the heir is committed and nothing names
   the old value. Recovery frees the unnamed value and writes nothing. *)
let test_takeover_class_window () =
  let scenario () =
    let h, pool = fresh_hart () in
    (* a Val16 chunk exists, and the old value's chunk stays *)
    Hart.insert h ~key:"bystander" ~value:"a 16-byte value";
    Hart.insert h ~key:"keeper" ~value:"k";
    Hart.insert h ~key:"gone" ~value:"g";
    let leaf = leaf_of h "gone" in
    assert (Hart.delete h "gone");
    (pool, h, (leaf, Leaf.p_value pool ~leaf))
  in
  let op h = Hart.insert h ~key:"heir" ~value:"a 16-byte value" in
  List.iter
    (fun last ->
      let what = Printf.sprintf "crash at flush %d of 2" (2 - last) in
      let pool, (leaf, old_v) = crash_before_last scenario op ~last in
      let named = Leaf.p_value pool ~leaf in
      let h, flushes = recover_twice pool in
      Alcotest.(check int) (what ^ ": recovery: no flush") 0 flushes;
      let alloc = Hart.alloc h in
      let owned = ref [] in
      Epalloc.iter_owned alloc (fun ~leaf -> owned := leaf :: !owned);
      if last = 1 then begin
        Alcotest.(check int) (what ^ ": the slot names the old value") old_v named;
        Alcotest.(check (list int)) (what ^ ": and owns it") [ leaf ] !owned;
        Alcotest.(check (option string)) (what ^ ": heir never committed") None
          (Hart.search h "heir");
        Alcotest.(check int) (what ^ ": keys") 2 (Hart.count h)
      end
      else begin
        Alcotest.(check bool) (what ^ ": the leaf names the new value") true
          (named <> 0 && named <> old_v);
        Alcotest.(check (list int)) (what ^ ": no owner") [] !owned;
        Alcotest.(check bool) (what ^ ": the old value freed") false
          (Epalloc.value_committed alloc old_v);
        Alcotest.(check (option string)) (what ^ ": heir committed")
          (Some "a 16-byte value") (Hart.search h "heir");
        Alcotest.(check int) (what ^ ": keys") 3 (Hart.count h)
      end)
    [ 1; 0 ]

(* A take-over in the owned value's class rewrites that value in place,
   then commits the leaf. A crash at the value's flush leaves the free
   slot owning its value, which now holds the heir's bytes that no key
   reads; a crash at the leaf's flush, the last, commits the heir with
   the same value object. Recovery writes nothing either way. *)
let test_takeover_in_place_window () =
  let scenario () =
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"keeper" ~value:"k";
    Hart.insert h ~key:"gone" ~value:"g";
    let leaf = leaf_of h "gone" in
    assert (Hart.delete h "gone");
    (pool, h, (leaf, Leaf.p_value pool ~leaf))
  in
  let op h = Hart.insert h ~key:"heir" ~value:"h" in
  List.iter
    (fun last ->
      let what = Printf.sprintf "crash at flush %d of 2" (2 - last) in
      let pool, (leaf, old_v) = crash_before_last scenario op ~last in
      Alcotest.(check int) (what ^ ": the slot names the same value") old_v
        (Leaf.p_value pool ~leaf);
      Alcotest.(check string) (what ^ ": rewritten in place") "h"
        (Value_obj.read pool ~obj:old_v);
      let h, flushes = recover_twice pool in
      Alcotest.(check int) (what ^ ": recovery: no flush") 0 flushes;
      let alloc = Hart.alloc h in
      let owned = ref [] in
      Epalloc.iter_owned alloc (fun ~leaf -> owned := leaf :: !owned);
      Alcotest.(check bool) (what ^ ": the value stays committed") true
        (Epalloc.value_committed alloc old_v);
      Alcotest.(check (option string)) (what ^ ": keeper") (Some "k") (Hart.search h "keeper");
      if last = 1 then begin
        Alcotest.(check (list int)) (what ^ ": the slot owns it") [ leaf ] !owned;
        Alcotest.(check (option string)) (what ^ ": heir never committed") None
          (Hart.search h "heir");
        Alcotest.(check int) (what ^ ": keys") 1 (Hart.count h)
      end
      else begin
        Alcotest.(check (list int)) (what ^ ": no owner") [] !owned;
        Alcotest.(check int) (what ^ ": heir in the slot") leaf (leaf_of h "heir");
        Alcotest.(check (option string)) (what ^ ": heir committed") (Some "h")
          (Hart.search h "heir");
        Alcotest.(check int) (what ^ ": keys") 2 (Hart.count h)
      end)
    [ 1; 0 ]

(* Does the durable image hold a pending recycle record? *)
let recycle_pending ~checksums pool =
  let logs =
    Microlog.attach ~checksummed:checksums pool ~base:(Epalloc.root_off + Pmem.line_bytes)
  in
  List.exists
    (fun slot -> Microlog.pcurrent logs ~slot <> 0)
    (List.init Microlog.n_slots Fun.id)

(* A key alone in the second leaf chunk, with a Val16 value alone in its
   value chunk, behind a full first leaf chunk of Val8 values. *)
let lone_scenario () =
  let h, pool = fresh_hart () in
  for i = 0 to Chunk.objs_per_chunk - 1 do
    Hart.insert h ~key:(Printf.sprintf "fl%04d" i) ~value:"v"
  done;
  Hart.insert h ~key:"lone" ~value:"a 16-byte value";
  (h, pool)

(* The flushes of deleting "lone", which recycles both its chunks. *)
let lone_delete_flushes () =
  let h, pool = lone_scenario () in
  let chunks () =
    let a = Hart.alloc h in
    (Epalloc.chunk_count a Chunk.Leaf_c, Epalloc.chunk_count a Chunk.Val16)
  in
  Alcotest.(check (pair int int)) "leaf and Val16 chunks" (2, 1) (chunks ());
  let f0 = Pmem.flush_count pool in
  assert (Hart.delete h "lone");
  Alcotest.(check (pair int int)) "both recycled" (1, 0) (chunks ());
  Pmem.flush_count pool - f0

let crash_lone_delete ~after_flushes =
  let h, pool = lone_scenario () in
  Pmem.arm_crash pool ~after_flushes;
  (match Hart.delete h "lone" with
  | _ -> Alcotest.failf "no crash after %d flushes" after_flushes
  | exception Pmem.Crash_injected -> ());
  Pmem.disarm_crash pool;
  pool

(* Deleting "lone" frees its leaf, then unlinks each emptied chunk under
   the recycle log. A crash at every flush recovers the key with its
   value or without it, keeps no value chunk that nothing names, and
   leaves an image a second recovery writes nothing to. *)
let test_lone_delete_crash_sweep () =
  let flushes = lone_delete_flushes () in
  Alcotest.(check bool) "a free and two recycles" true (flushes >= 3);
  for k = 0 to flushes - 1 do
    let what = Printf.sprintf "crash after %d of %d flushes" k flushes in
    let h, _ = recover_twice (crash_lone_delete ~after_flushes:k) in
    let present =
      match Hart.search h "lone" with
      | None -> false
      | Some "a 16-byte value" -> true
      | Some v -> Alcotest.failf "%s: lone reads %S" what v
    in
    Alcotest.(check int) (what ^ ": keys")
      (Chunk.objs_per_chunk + Bool.to_int present)
      (Hart.count h);
    let a = Hart.alloc h in
    List.iter
      (fun cls ->
        Epalloc.iter_chunks a cls (fun chunk ->
            if Epalloc.committed_bits a cls ~chunk = 0 then
              Alcotest.failf "%s: %a chunk %d holds nothing" what Chunk.pp_cls cls chunk))
      [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ];
    Hart.insert h ~key:"lone" ~value:"again";
    Hart.check_integrity h
  done

let test_rlog_recovery_head_unlink () =
  (* empty a chunk at the head of the value list, crash inside the
     recycle protocol, recover: the list must be consistent *)
  let pool = fresh_pool () in
  let h = Hart.create pool in
  for i = 0 to 55 do
    Hart.insert h ~key:(Printf.sprintf "rl%03d" i) ~value:"v"
  done;
  (* deleting everything recycles the (single, head) value chunk *)
  let crashed = ref false in
  Pmem.arm_crash pool ~after_flushes:8;
  (try
     for i = 0 to 55 do
       ignore (Hart.delete h (Printf.sprintf "rl%03d" i))
     done
   with Pmem.Crash_injected -> crashed := true);
  Pmem.disarm_crash pool;
  if not !crashed then Pmem.crash pool;
  let h' = Hart.recover pool in
  Hart.check_integrity h';
  (* whatever the crash point, surviving keys are exactly the committed
     ones and further deletion works *)
  let keys = ref [] in
  Hart.iter h' (fun k _ -> keys := k :: !keys);
  List.iter (fun k -> ignore (Hart.delete h' k)) !keys;
  Alcotest.(check int) "store drains cleanly" 0 (Hart.count h')

(* ------------------------------------------------------------------ *)
(* HART basic operations                                               *)

let test_hart_insert_search () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"AABF" ~value:"v1";
  Hart.insert h ~key:"AACD" ~value:"v2";
  Hart.insert h ~key:"XY01" ~value:"v3";
  Alcotest.(check (option string)) "AABF" (Some "v1") (Hart.search h "AABF");
  Alcotest.(check (option string)) "AACD" (Some "v2") (Hart.search h "AACD");
  Alcotest.(check (option string)) "XY01" (Some "v3") (Hart.search h "XY01");
  Alcotest.(check (option string)) "missing" None (Hart.search h "AABX");
  Alcotest.(check int) "count" 3 (Hart.count h);
  Alcotest.(check int) "two ARTs (prefixes AA and XY)" 2 (Hart.art_count h);
  Hart.check_integrity h

let test_hart_insert_is_upsert () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"old";
  Hart.insert h ~key:"key1" ~value:"new";
  Alcotest.(check (option string)) "updated" (Some "new") (Hart.search h "key1");
  Alcotest.(check int) "count stays 1" 1 (Hart.count h);
  Hart.check_integrity h

let test_hart_update () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"old";
  Alcotest.(check bool) "update hits" true (Hart.update h ~key:"key1" ~value:"new");
  Alcotest.(check (option string)) "value" (Some "new") (Hart.search h "key1");
  Alcotest.(check bool) "update miss" false (Hart.update h ~key:"nope" ~value:"x");
  Alcotest.(check (option string)) "no phantom insert" None (Hart.search h "nope");
  Hart.check_integrity h

let test_hart_update_changes_class () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key1" ~value:"tiny";
  ignore (Hart.update h ~key:"key1" ~value:(String.make 30 'B'));
  Alcotest.(check (option string)) "30-byte value" (Some (String.make 30 'B'))
    (Hart.search h "key1");
  ignore (Hart.update h ~key:"key1" ~value:"s");
  Alcotest.(check (option string)) "shrunk" (Some "s") (Hart.search h "key1");
  Hart.check_integrity h

let test_hart_delete () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"AAx" ~value:"1";
  Hart.insert h ~key:"AAy" ~value:"2";
  Alcotest.(check bool) "delete hits" true (Hart.delete h "AAx");
  Alcotest.(check (option string)) "gone" None (Hart.search h "AAx");
  Alcotest.(check (option string)) "sibling" (Some "2") (Hart.search h "AAy");
  Alcotest.(check bool) "delete miss" false (Hart.delete h "AAx");
  Alcotest.(check int) "count" 1 (Hart.count h);
  Hart.check_integrity h

let test_hart_delete_frees_empty_art () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"ZZonly" ~value:"1";
  Alcotest.(check int) "one ART" 1 (Hart.art_count h);
  ignore (Hart.delete h "ZZonly");
  Alcotest.(check int) "ART freed" 0 (Hart.art_count h);
  Hart.check_integrity h

let test_hart_short_keys () =
  let h, _ = fresh_hart () in
  (* keys shorter than kh=2 become whole hash keys with empty ART keys *)
  Hart.insert h ~key:"a" ~value:"one";
  Hart.insert h ~key:"ab" ~value:"two";
  Hart.insert h ~key:"abc" ~value:"three";
  Alcotest.(check (option string)) "a" (Some "one") (Hart.search h "a");
  Alcotest.(check (option string)) "ab" (Some "two") (Hart.search h "ab");
  Alcotest.(check (option string)) "abc" (Some "three") (Hart.search h "abc");
  ignore (Hart.delete h "ab");
  Alcotest.(check (option string)) "ab gone" None (Hart.search h "ab");
  Alcotest.(check (option string)) "a kept" (Some "one") (Hart.search h "a");
  Alcotest.(check (option string)) "abc kept" (Some "three") (Hart.search h "abc");
  Hart.check_integrity h

let test_hart_key_limits () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:(String.make 24 'k') ~value:"ok";
  Alcotest.(check bool) "25-byte key rejected" true
    (match Hart.insert h ~key:(String.make 25 'k') ~value:"v" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty key rejected" true
    (match Hart.insert h ~key:"" ~value:"v" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "32-byte value rejected" true
    (match Hart.insert h ~key:"k" ~value:(String.make 32 'v') with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check (option string)) "over-long search is None" None
    (Hart.search h (String.make 30 'q'))

let test_hart_empty_value () =
  let h, _ = fresh_hart () in
  Hart.insert h ~key:"key" ~value:"";
  Alcotest.(check (option string)) "empty value stored" (Some "") (Hart.search h "key");
  Hart.check_integrity h

let test_hart_split_key () =
  let h, _ = fresh_hart ~kh:2 () in
  Alcotest.(check (pair string string)) "long" ("AA", "BF") (Hart.split_key h "AABF");
  Alcotest.(check (pair string string)) "exact" ("AB", "") (Hart.split_key h "AB");
  Alcotest.(check (pair string string)) "short" ("A", "") (Hart.split_key h "A")

let test_hart_kh_variants () =
  List.iter
    (fun kh ->
      let h, _ = fresh_hart ~kh () in
      let keys = List.init 200 (fun i -> Printf.sprintf "key-%04d" i) in
      List.iter (fun k -> Hart.insert h ~key:k ~value:k) keys;
      List.iter
        (fun k -> Alcotest.(check (option string)) k (Some k) (Hart.search h k))
        keys;
      Hart.check_integrity h)
    [ 1; 2; 4; 8 ]

let test_hart_range () =
  let h, _ = fresh_hart () in
  let keys = [ "AAa"; "AAb"; "ABa"; "ABb"; "ACa"; "B"; "BAx" ] in
  List.iter (fun k -> Hart.insert h ~key:k ~value:(String.lowercase_ascii k)) keys;
  let got = ref [] in
  Hart.range h ~lo:"AAb" ~hi:"B" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "cross-ART range" [ "AAb"; "ABa"; "ABb"; "ACa"; "B" ]
    (List.rev !got)

let test_hart_iter () =
  let h, _ = fresh_hart () in
  let keys = List.init 100 (fun i -> Printf.sprintf "it%04d" i) in
  List.iter (fun k -> Hart.insert h ~key:k ~value:k) keys;
  let n = ref 0 in
  Hart.iter h (fun k v ->
      incr n;
      Alcotest.(check string) "value matches key" k v);
  Alcotest.(check int) "all visited" 100 !n

let test_hart_fold_min_max () =
  let h, _ = fresh_hart () in
  Alcotest.(check (option (pair string string))) "min of empty" None (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max of empty" None (Hart.max_binding h);
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:(String.uppercase_ascii k))
    [ "mm"; "aa"; "zz"; "a"; "zzz" ];
  Alcotest.(check (option (pair string string))) "min" (Some ("a", "A"))
    (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max" (Some ("zzz", "ZZZ"))
    (Hart.max_binding h);
  let n = Hart.fold h ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold visits all" 5 n

let test_hart_stats () =
  let h, _ = fresh_hart () in
  for i = 0 to 499 do
    Hart.insert h ~key:(Printf.sprintf "st%04d" i) ~value:"seven77"
  done;
  ignore (Hart.update h ~key:"st0000" ~value:(String.make 30 'x'));
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "keys" 500 s.Hart_core.Hart_stats.keys;
  Alcotest.(check int) "arts" (Hart.art_count h) s.Hart_core.Hart_stats.arts;
  Alcotest.(check int) "leaf objects" 500
    s.Hart_core.Hart_stats.leaf_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "val8 objects (one updated away)" 499
    s.Hart_core.Hart_stats.val8_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check int) "val32 objects" 1
    s.Hart_core.Hart_stats.val32_class.Hart_core.Hart_stats.live_objects;
  Alcotest.(check bool) "occupancy sane" true
    (s.Hart_core.Hart_stats.leaf_class.Hart_core.Hart_stats.occupancy > 0.5);
  Alcotest.(check int) "pm bytes agree" (Hart.pm_bytes h)
    s.Hart_core.Hart_stats.pm_bytes;
  let hist = s.Hart_core.Hart_stats.art_nodes in
  Alcotest.(check bool) "node histogram populated" true
    (hist.Hart_core.Hart_stats.n4 + hist.Hart_core.Hart_stats.n16
     + hist.Hart_core.Hart_stats.n48
     + hist.Hart_core.Hart_stats.n256
    > 0);
  Alcotest.(check int) "no owned values" 0 s.Hart_core.Hart_stats.owned_values;
  (* the renderer shouldn't raise *)
  ignore (Format.asprintf "%a" Hart_core.Hart_stats.pp s : string);
  (* deleted keys' slots own their values, which stay committed, until
     inserts take the slots over (the active chunk's lowest free slots:
     st0460-st0479's) *)
  for i = 460 to 479 do
    assert (Hart.delete h (Printf.sprintf "st%04d" i))
  done;
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "owned values after 20 deletes" 20
    s.Hart_core.Hart_stats.owned_values;
  Alcotest.(check int) "val8 objects include them" 499
    s.Hart_core.Hart_stats.val8_class.Hart_core.Hart_stats.live_objects;
  for i = 0 to 19 do
    Hart.insert h ~key:(Printf.sprintf "su%04d" i) ~value:"seven77"
  done;
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "owned values after 20 refills" 0
    s.Hart_core.Hart_stats.owned_values;
  Alcotest.(check int) "val8 objects unchanged" 499
    s.Hart_core.Hart_stats.val8_class.Hart_core.Hart_stats.live_objects;
  Hart.check_integrity h

let test_hart_memory_accounting () =
  let h, pool = fresh_hart () in
  let pm0 = Hart.pm_bytes h in
  for i = 0 to 999 do
    Hart.insert h ~key:(Printf.sprintf "mem%05d" i) ~value:"seven"
  done;
  Alcotest.(check bool) "pm grew" true (Hart.pm_bytes h > pm0);
  Alcotest.(check bool) "dram tracked" true (Hart.dram_bytes h > 0);
  Alcotest.(check bool) "meter agrees with pool" true
    (Hart.pm_bytes h = Pmem.live_bytes pool);
  (* DRAM = hash directory + ART nodes + the allocator's bitmap mirror,
     whose 8-byte words fill whole lines: 18 leaf and 18 val8 chunks
     take 3 lines each *)
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "mirror bytes" (2 * 3 * 64) s.Hart_core.Hart_stats.mirror_bytes;
  Alcotest.(check int) "dram = dir + ARTs + mirror"
    (s.Hart_core.Hart_stats.hash_buckets_bytes + s.Hart_core.Hart_stats.art_node_bytes
   + s.Hart_core.Hart_stats.mirror_bytes)
    (Hart.dram_bytes h)

(* The pool-leak check of [check_integrity] counts the ART nodes that
   the PM-node ablation allocates from the pool, through node splits,
   grows and shrinks. *)
let test_hart_pm_nodes_accounted () =
  let pool = fresh_pool () in
  let h = Hart.create ~internal_nodes:`Pm pool in
  for i = 0 to 1999 do
    Hart.insert h ~key:(Printf.sprintf "pn%05d" (i * 7919 mod 2000)) ~value:"v"
  done;
  Hart.check_integrity h;
  for i = 0 to 1999 do
    if i mod 3 <> 0 then assert (Hart.delete h (Printf.sprintf "pn%05d" i))
  done;
  Hart.check_integrity h

(* The persist budget of one quiesced operation (no chunk allocated or
   recycled). A value's bit changes in the allocator's DRAM mirror only,
   so an update persists the new value and the leaf's p_value, two
   persists, whether or not it changes the value's class. An insert
   persists the value, the leaf (p_value and key together) and the
   leaf's bit. *)
let test_hart_persists_per_op () =
  let h, pool = fresh_hart () in
  for i = 0 to 9 do
    Hart.insert h ~key:(Printf.sprintf "pc%04d" i)
      ~value:(if i = 9 then "a 16-byte value" else "v")
  done;
  let meter = Pmem.meter pool in
  let cost f =
    let before = Meter.counters meter in
    f ();
    Meter.diff before (Meter.counters meter)
  in
  let d = cost (fun () -> assert (Hart.update h ~key:"pc0003" ~value:"w")) in
  Alcotest.(check int) "update: persist calls" 2 d.Meter.persist_calls;
  (* 8-byte value objects never straddle a line *)
  Alcotest.(check int) "update: flushes" 2 d.Meter.flushes;
  let d =
    cost (fun () -> assert (Hart.update h ~key:"pc0004" ~value:"a 16-byte value"))
  in
  Alcotest.(check int) "class-changing update: persist calls" 2 d.Meter.persist_calls;
  (* the value, then the leaf: its length byte commits it *)
  let d = cost (fun () -> Hart.insert h ~key:"pc0010" ~value:"v") in
  Alcotest.(check int) "insert: persist calls" 2 d.Meter.persist_calls;
  (* the freed slot owns its value: the delete persists the leaf's
     length byte only, and the next insert takes the value over in
     place *)
  let d = cost (fun () -> assert (Hart.delete h "pc0010")) in
  Alcotest.(check int) "delete: persist calls" 1 d.Meter.persist_calls;
  Alcotest.(check int) "delete: flushes" 1 d.Meter.flushes;
  let d = cost (fun () -> Hart.insert h ~key:"pc0011" ~value:"w") in
  Alcotest.(check int) "insert into an owning slot: persist calls" 2
    d.Meter.persist_calls;
  Alcotest.(check int) "no owning slot left" 0
    (Hart_core.Hart_stats.collect h).owned_values;
  (* a take-over across classes writes the new value and the leaf, then
     frees the owned value and commits both bits in DRAM *)
  assert (Hart.delete h "pc0011");
  let d = cost (fun () -> Hart.insert h ~key:"pc0012" ~value:"a 16-byte value") in
  Alcotest.(check int) "take-over, class change: persist calls" 2 d.Meter.persist_calls;
  (* fill the first leaf chunk, so that "lone" is alone in a second one:
     deleting it recycles that chunk, whose free slot owns the value.
     The delete persists the length byte, the unlink its recycle record,
     the list head and the record's reclaim; the value's reset persists
     nothing, and the value chunk stays *)
  for i = 100 to 144 do
    Hart.insert h ~key:(Printf.sprintf "pc%04d" i) ~value:"v"
  done;
  Hart.insert h ~key:"lone" ~value:"v";
  let chunks () =
    let a = Hart.alloc h in
    (Epalloc.chunk_count a Chunk.Leaf_c, Epalloc.chunk_count a Chunk.Val8)
  in
  Alcotest.(check (pair int int)) "two leaf chunks, one val8 chunk" (2, 1) (chunks ());
  let d = cost (fun () -> assert (Hart.delete h "lone")) in
  Alcotest.(check int) "owning leaf-chunk recycle: persist calls" 4 d.Meter.persist_calls;
  Alcotest.(check (pair int int)) "the leaf chunk recycled" (1, 1) (chunks ())

(* PM reads per op. Every object read charges each line it covers
   once, and a leaf or value object sits on one line, so a search hit
   costs two PM reads (leaf, value object). The leaf's length byte
   validates it: no mirror word is read. *)
let test_hart_reads_per_op () =
  let h, pool = fresh_hart () in
  for i = 0 to 199 do
    Hart.insert h ~key:(Printf.sprintf "rd%04d" i) ~value:(Printf.sprintf "v%d" i)
  done;
  let meter = Pmem.meter pool in
  let cost f =
    let before = Meter.counters meter in
    f ();
    Meter.diff before (Meter.counters meter)
  in
  let d = cost (fun () -> assert (Hart.search h "rd0042" = Some "v42")) in
  Alcotest.(check int) "search hit: pm reads" 2 d.Meter.pm_reads;
  (* the directory probe and the ART descent *)
  Alcotest.(check int) "search hit: dram reads" 7 d.Meter.dram_reads;
  let n = ref 0 in
  let d = cost (fun () -> Hart.range h ~lo:"rd0010" ~hi:"rd0019" (fun _ _ -> incr n)) in
  Alcotest.(check int) "range: keys" 10 !n;
  (* 2 per key *)
  Alcotest.(check int) "range over 10 keys: pm reads" 20 d.Meter.pm_reads;
  (* the ART walk is not metered, and no mirror word is read *)
  Alcotest.(check int) "range over 10 keys: dram reads" 0 d.Meter.dram_reads;
  for i = 0 to 199 do
    if i mod 3 = 0 then assert (Hart.delete h (Printf.sprintf "rd%04d" i))
  done;
  Pmem.crash pool;
  (* Attach reads no leaf slot. Beyond an empty pool's attach, this
     pool's attach reads the chain pointer of each of its 4 leaf chunks
     and 4 value chunks in the chunk-list walk, and nothing else: no
     chunk keeps a bitmap on PM. *)
  let empty = fresh_pool () in
  ignore (Hart.create empty : Hart.t);
  Pmem.crash empty;
  let attach_reads pool =
    let before = Meter.counters (Pmem.meter pool) in
    ignore (Epalloc.attach pool : Epalloc.t);
    (Meter.diff before (Meter.counters (Pmem.meter pool))).Meter.pm_reads
  in
  let base = attach_reads empty in
  Alcotest.(check int) "attach: pm reads over an empty pool's" (4 + 4)
    (attach_reads pool - base);
  Pmem.crash pool;
  let r = ref h in
  let d = cost (fun () -> r := Hart.recover pool) in
  Alcotest.(check int) "recover: keys" 133 (Hart.count !r);
  (* the scan reads each of the 4 leaf chunks' 224 slots once, live or
     free: its length byte, value pointer and key in one access; the
     rest is the root block and the chain pointers attach and the scan
     walk *)
  Alcotest.(check int) "recover: pm reads" 246 d.Meter.pm_reads

(* The write path reads no chunk header on PM: allocation, bit commits,
   frees and recycling's emptiness test use the bitmap mirror, and no
   bit change writes PM. What PM reads remain are the leaf's head (its
   value pointer), read by an update and by an insert that takes over an
   owning slot; a fresh insert and a delete read none. An insert
   flushes its value and its leaf; a delete, its leaf's length byte. An
   update whose new value shares the old one's chunk reads 2 mirror
   words (the reservation and the bit commit) and writes 1, and flushes
   only the value and the p_value. rd0042's update took its chunk's spare and
   freed its old slot in the same store, so rd0043's update right after
   finds that slot. An update that changes the value's class reserves
   in the other class's chunk (one read), commits in two mirror words (a
   read and a write each, no flush) and tests the old chunk for
   recycling (one read). A fresh insert reads 4
   mirror words and writes 2, a delete reads 2 (its bit, its chunk's
   recycling test) and writes 1, a take-over reads 2 and writes 1 (its
   leaf's chunk only: the value keeps its bit). The other DRAM reads are
   the directory probe and the ART descent (7 for the updates, 3 for the
   inserts, whose one descent finds the insertion point, and 3 for
   deleting rd0200, the only key under "rd02"). *)
let test_hart_write_path_reads () =
  let h, pool = fresh_hart () in
  for i = 0 to 199 do
    Hart.insert h ~key:(Printf.sprintf "rd%04d" i) ~value:(Printf.sprintf "v%d" i)
  done;
  (* a Val16 chunk to change class into *)
  Hart.insert h ~key:"rd0199" ~value:"a 16-byte value";
  assert (Hart.update h ~key:"rd0042" ~value:"w");
  let meter = Pmem.meter pool in
  let cost f =
    let before = Meter.counters meter in
    f ();
    Meter.diff before (Meter.counters meter)
  in
  let check what d ~pm_reads ~flushes ~dram_reads ~dram_writes =
    Alcotest.(check int) (what ^ ": pm reads") pm_reads d.Meter.pm_reads;
    Alcotest.(check int) (what ^ ": flushes") flushes d.Meter.flushes;
    Alcotest.(check int) (what ^ ": dram reads") dram_reads d.Meter.dram_reads;
    Alcotest.(check int) (what ^ ": dram writes") dram_writes d.Meter.dram_writes
  in
  check "update after an update in the chunk"
    (cost (fun () -> assert (Hart.update h ~key:"rd0043" ~value:"w")))
    ~pm_reads:1 ~flushes:2 ~dram_reads:(7 + 2) ~dram_writes:1;
  check "update"
    (cost (fun () -> assert (Hart.update h ~key:"rd0100" ~value:"w")))
    ~pm_reads:1 ~flushes:2 ~dram_reads:(7 + 2) ~dram_writes:1;
  check "update, class change"
    (cost (fun () -> assert (Hart.update h ~key:"rd0101" ~value:"a 16-byte value")))
    ~pm_reads:1 ~flushes:2 ~dram_reads:(7 + 4) ~dram_writes:2;
  check "insert"
    (cost (fun () -> Hart.insert h ~key:"rd0200" ~value:"v200"))
    ~pm_reads:0 ~flushes:2 ~dram_reads:(3 + 4) ~dram_writes:2;
  check "delete"
    (cost (fun () -> assert (Hart.delete h "rd0200")))
    ~pm_reads:0 ~flushes:1 ~dram_reads:(3 + 2) ~dram_writes:1;
  check "insert into the owning slot"
    (cost (fun () -> Hart.insert h ~key:"rd0201" ~value:"v201"))
    ~pm_reads:1 ~flushes:2 ~dram_reads:(3 + 2) ~dram_writes:1;
  Hart.check_integrity h

(* After a preload, every full value chunk is down to its spare. An
   update in the value's class takes a free slot of its old value's
   chunk, the spare if need be, and the header store that sets the new
   value's bit clears the old one's, so the chunk is down to its spare
   again the moment the update returns; a class change frees a slot in
   the old class and allocates in the new one without taking a spare.
   So after random updates, with or without class changes, no value
   chunk holds 56 values, and every chunk holding 55 is down to its
   spare. *)
let test_hart_spares_after_updates () =
  let h, _ = fresh_hart () in
  let n = 2200 in
  let key i = Printf.sprintf "sp%04d" i in
  for i = 0 to n - 1 do
    Hart.insert h ~key:(key i) ~value:(Printf.sprintf "v%d" (i mod 100))
  done;
  let s = Hart_core.Hart_stats.collect h in
  Alcotest.(check int) "preload: chunks of 55" 40 s.val8_class.chunks;
  Alcotest.(check int) "preload: each down to its spare" 40 s.val8_class.spares;
  Alcotest.(check int) "leaf chunks keep no spare" 0 s.leaf_class.spares;
  let alloc = Hart.alloc h in
  let rng = Rng.create 5L in
  let run ~class_changes =
    for _ = 1 to 2000 do
      let value =
        if class_changes && Rng.int rng 10 = 0 then "a 16-byte value" else "u"
      in
      assert (Hart.update h ~key:(key (Rng.int rng n)) ~value)
    done;
    Hart.check_integrity h;
    (* value chunks holding 55 values; none may hold 56 *)
    let at_spare = ref 0 in
    List.iter
      (fun cls ->
        Epalloc.iter_chunks alloc cls (fun chunk ->
            let live =
              Hart_util.Bits.popcount
                (Int64.of_int (Epalloc.committed_bits alloc cls ~chunk))
            in
            if live = Chunk.objs_per_chunk then
              Alcotest.failf "value chunk %d has all its bits set" chunk;
            if live = Epalloc.value_objs_per_chunk then incr at_spare))
      [ Chunk.Val8; Chunk.Val16 ];
    let s = Hart_core.Hart_stats.collect h in
    (!at_spare, s.val8_class.spares + s.val16_class.spares)
  in
  List.iter
    (fun class_changes ->
      let at_spare, spares = run ~class_changes in
      if at_spare = 0 then Alcotest.fail "no value chunk holds 55 values";
      if spares <> at_spare then
        Alcotest.failf "%d chunks hold 55 values, %d are down to their spare"
          at_spare spares)
    [ false; true ]

(* A cold recovery, then a search of every key and a scan: the lines
   and accesses it costs, pinned. *)
let test_hart_cold_read_misses () =
  let h, pool = fresh_hart () in
  for i = 0 to 1999 do
    Hart.insert h
      ~key:(Printf.sprintf "cold%05d" (i * 7919 mod 2000))
      ~value:(String.make (i mod 32) 'x')
  done;
  for i = 0 to 1999 do
    if i mod 5 = 0 then assert (Hart.delete h (Printf.sprintf "cold%05d" i))
  done;
  Pmem.crash pool;
  let meter = Pmem.meter pool in
  let before = Meter.counters meter in
  let h = Hart.recover pool in
  for i = 0 to 1999 do
    ignore (Hart.search h (Printf.sprintf "cold%05d" i) : string option)
  done;
  let n = ref 0 in
  Hart.range h ~lo:"cold" ~hi:"cold~" (fun _ _ -> incr n);
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "keys scanned" 1600 !n;
  (* recovery reads every leaf slot once, in one access of its one line
     (no leaf straddles a line, and no chunk header is read), and the
     chunks' chain pointers; each search and each scanned key reads its
     leaf's line and its value's *)
  Alcotest.(check int) "pm read misses" 1772 d.Meter.pm_read_misses;
  Alcotest.(check int) "pm reads" 8537 d.Meter.pm_reads;
  (* 21602 for recovery's rebuild (its directory probes and the build's
     passes over the gather buffer; no ART node is read) and the
     searches' directory probes and ART descents, plus the liveness
     pass's one read of each of the 7 value mirror lines; a leaf's own
     length byte validates it, so no search or scanned key reads a
     mirror word, and recovery's free-slot step reads none (an owning
     slot needs only that its pointer names a value object) *)
  Alcotest.(check int) "dram reads" 21609 d.Meter.dram_reads

(* ------------------------------------------------------------------ *)
(* HART vs model                                                       *)

let hart_key_gen =
  (* 2-byte prefix from a tiny alphabet + short suffix: exercises shared
     ARTs, empty ART keys and prefix relationships *)
  QCheck.Gen.(
    let c = map (fun i -> "AB1".[i]) (int_bound 2) in
    map2
      (fun a rest -> String.make 1 a ^ String.concat "" (List.map (String.make 1) rest))
      c
      (list_size (int_bound 4) c))

let hart_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> `Insert (k, v)) hart_key_gen (map string_of_int (int_bound 9999)));
        (2, map (fun k -> `Delete k) hart_key_gen);
        (2, map (fun k -> `Search k) hart_key_gen);
        (2, map2 (fun k v -> `Update (k, v)) hart_key_gen (map string_of_int (int_bound 9999)));
      ])

let pp_hart_op = function
  | `Insert (k, v) -> Printf.sprintf "Insert(%S,%S)" k v
  | `Delete k -> Printf.sprintf "Delete(%S)" k
  | `Search k -> Printf.sprintf "Search(%S)" k
  | `Update (k, v) -> Printf.sprintf "Update(%S,%S)" k v

let hart_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_hart_op ops))
    QCheck.Gen.(list_size (int_bound 150) hart_op_gen)

let run_hart_ops h model ops =
  List.for_all
    (fun op ->
      match op with
      | `Insert (k, v) ->
          Hart.insert h ~key:k ~value:v;
          model := SMap.add k v !model;
          true
      | `Delete k ->
          let expect = SMap.mem k !model in
          model := SMap.remove k !model;
          Hart.delete h k = expect
      | `Search k -> Hart.search h k = SMap.find_opt k !model
      | `Update (k, v) ->
          let expect = SMap.mem k !model in
          if expect then model := SMap.add k v !model;
          Hart.update h ~key:k ~value:v = expect)
    ops

let qcheck_hart_vs_map =
  QCheck.Test.make ~count:200 ~name:"HART behaves like Map under random ops"
    hart_ops_arb
    (fun ops ->
      let h, _ = fresh_hart () in
      let model = ref SMap.empty in
      run_hart_ops h model ops
      &&
      (Hart.check_integrity h;
       Hart.count h = SMap.cardinal !model
       && SMap.for_all (fun k v -> Hart.search h k = Some v) !model))

let qcheck_hart_recovery =
  QCheck.Test.make ~count:100 ~name:"recovery after clean crash preserves all data"
    hart_ops_arb
    (fun ops ->
      let h, pool = fresh_hart () in
      let model = ref SMap.empty in
      ignore (run_hart_ops h model ops : bool);
      Pmem.crash pool;
      let h' = Hart.recover pool in
      Hart.check_integrity h';
      Hart.count h' = SMap.cardinal !model
      && SMap.for_all (fun k v -> Hart.search h' k = Some v) !model)

(* ------------------------------------------------------------------ *)
(* Crash injection sweeps                                              *)

(* Run [f]; if the armed crash fires, recover and validate with [check].
   Returns true when [f] ran to completion without crashing. *)
let with_crash_at pool k f check =
  Pmem.arm_crash pool ~after_flushes:k;
  match f () with
  | () ->
      Pmem.disarm_crash pool;
      true
  | exception Pmem.Crash_injected ->
      check ();
      false

let test_insert_crash_sweep () =
  (* crash an insertion at every flush boundary; prior data must survive,
     the in-flight key must be atomic (all or nothing), and no leaks *)
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"preexist1" ~value:"A";
    Hart.insert h ~key:"preexist2" ~value:"B";
    let completed =
      with_crash_at pool !k
        (fun () -> Hart.insert h ~key:"victim-key" ~value:"victim!")
        (fun () ->
          let h' = Hart.recover pool in
          Hart.check_integrity h';
          Alcotest.(check (option string)) "preexist1 survives" (Some "A")
            (Hart.search h' "preexist1");
          Alcotest.(check (option string)) "preexist2 survives" (Some "B")
            (Hart.search h' "preexist2");
          (match Hart.search h' "victim-key" with
          | None | Some "victim!" -> ()
          | Some other ->
              Alcotest.failf "victim neither absent nor complete: %S" other);
          (* the repair path must leave a strictly consistent image:
             exercise the crashed slots, then recheck strictly *)
          Hart.insert h' ~key:"victim-key" ~value:"again";
          Hart.insert h' ~key:"post-crash" ~value:"C";
          Hart.check_integrity h')
    in
    if completed then continue := false else incr k
  done;
  (* crashes before the value's flush, at it, and at the leaf's *)
  Alcotest.(check int) "sweep exercised every crash point" 3 !k

(* An update in place persists twice; one into a class with no chunk yet
   also links a new chunk, four persists in all. Both are swept. *)
let test_update_crash_sweep () =
  let points = ref 0 in
  List.iter
    (fun value ->
      let k = ref 0 in
      let continue = ref true in
      while !continue do
        let h, pool = fresh_hart () in
        Hart.insert h ~key:"stable" ~value:"S";
        Hart.insert h ~key:"target" ~value:"OLD";
        let completed =
          with_crash_at pool !k
            (fun () -> ignore (Hart.update h ~key:"target" ~value))
            (fun () ->
              let h' = Hart.recover pool in
              Hart.check_integrity h';
              Alcotest.(check (option string)) "stable survives" (Some "S")
                (Hart.search h' "stable");
              (match Hart.search h' "target" with
              | Some v when v = "OLD" || v = value -> ()
              | v ->
                  Alcotest.failf "target corrupted after update crash: %s"
                    (Option.value v ~default:"<absent>"));
              ignore (Hart.update h' ~key:"target" ~value:"FINAL");
              Alcotest.(check (option string)) "post-recovery update works"
                (Some "FINAL") (Hart.search h' "target");
              Hart.check_integrity h')
        in
        if completed then continue := false else incr k
      done;
      points := !points + !k)
    [ "NEW"; "a 16-byte value" ];
  Alcotest.(check bool) "sweep exercised several crash points" true (!points >= 4)

let test_delete_crash_sweep () =
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"keepme" ~value:"K";
    Hart.insert h ~key:"victim" ~value:"V";
    let completed =
      with_crash_at pool !k
        (fun () -> ignore (Hart.delete h "victim"))
        (fun () ->
          let h' = Hart.recover pool in
          Hart.check_integrity h';
          Alcotest.(check (option string)) "other key survives" (Some "K")
            (Hart.search h' "keepme");
          (match Hart.search h' "victim" with
          | None | Some "V" -> ()
          | Some other -> Alcotest.failf "deleted key corrupted: %S" other);
          Hart.insert h' ~key:"fresh" ~value:"F";
          Hart.check_integrity h')
    in
    if completed then continue := false else incr k
  done;
  Alcotest.(check bool) "sweep exercised several crash points" true (!k >= 1)

let test_recycle_crash_sweep () =
  (* delete ALL keys of two full chunks so both leaf chunks and both
     value chunks go through EPRecycle's unlink protocol, and sweep the
     crash over the entire run including the unlink windows at the end *)
  let total_keys = 60 in
  let completed_flushes =
    (* dry run to learn the flush count of the whole deletion phase, and
       that it recycles both leaf chunks and both value chunks *)
    let h, pool = fresh_hart () in
    for i = 0 to total_keys - 1 do
      Hart.insert h ~key:(Printf.sprintf "rc%04d" i) ~value:"v"
    done;
    let chunks () =
      let a = Hart.alloc h in
      (Epalloc.chunk_count a Chunk.Leaf_c, Epalloc.chunk_count a Chunk.Val8)
    in
    Alcotest.(check (pair int int)) "two leaf and two value chunks" (2, 2) (chunks ());
    let c0 = (Meter.counters (Pmem.meter pool)).Meter.flushes in
    for i = 0 to total_keys - 1 do
      ignore (Hart.delete h (Printf.sprintf "rc%04d" i))
    done;
    Alcotest.(check (pair int int)) "deletion phase recycles all four" (0, 0)
      (chunks ());
    (Meter.counters (Pmem.meter pool)).Meter.flushes - c0
  in
  (* sweep, concentrating on every flush of the last few deletions where
     the chunks empty and unlink *)
  let points =
    List.init 30 (fun i -> i * completed_flushes / 30)
    @ List.init 24 (fun i -> completed_flushes - 24 + i)
  in
  List.iter
    (fun k ->
      let h, pool = fresh_hart () in
      for i = 0 to total_keys - 1 do
        Hart.insert h ~key:(Printf.sprintf "rc%04d" i) ~value:"v"
      done;
      let crashed = ref false in
      Pmem.arm_crash pool ~after_flushes:k;
      (try
         for i = 0 to total_keys - 1 do
           ignore (Hart.delete h (Printf.sprintf "rc%04d" i))
         done;
         Pmem.disarm_crash pool
       with Pmem.Crash_injected -> crashed := true);
      if !crashed then begin
        let h' = Hart.recover pool in
        Hart.check_integrity h';
        (* deletions are not atomic as a batch, but every surviving key
           must be intact and the store must drain cleanly afterwards *)
        let survivors = ref [] in
        Hart.iter h' (fun k v ->
            if v <> "v" then Alcotest.failf "corrupted survivor %s=%s" k v;
            survivors := k :: !survivors);
        List.iter (fun k -> ignore (Hart.delete h' k)) !survivors;
        Alcotest.(check int)
          (Printf.sprintf "drains after crash at %d flushes" k)
          0 (Hart.count h');
        Hart.check_integrity h'
      end)
    points

let qcheck_crash_anywhere =
  (* random workload, crash after a random number of flushes, recover:
     committed data is intact and the image is repairable *)
  QCheck.Test.make ~count:150 ~name:"random crash point: recovery is consistent"
    (QCheck.pair hart_ops_arb (QCheck.make QCheck.Gen.(int_bound 400)))
    (fun (ops, crash_at) ->
      let h, pool = fresh_hart () in
      let model = ref SMap.empty in
      let committed = ref SMap.empty in
      Pmem.arm_crash pool ~after_flushes:crash_at;
      (try
         List.iter
           (fun op ->
             (match op with
             | `Insert (k, v) ->
                 Hart.insert h ~key:k ~value:v;
                 model := SMap.add k v !model
             | `Delete k ->
                 ignore (Hart.delete h k);
                 model := SMap.remove k !model
             | `Search k -> ignore (Hart.search h k)
             | `Update (k, v) ->
                 if Hart.update h ~key:k ~value:v then model := SMap.add k v !model);
             committed := !model)
           ops;
         Pmem.disarm_crash pool
       with Pmem.Crash_injected -> ());
      let h' = Hart.recover pool in
      Hart.check_integrity h';
      (* every op completed before the crash must be durable; the one
         in-flight op may have landed either way, so compare against the
         committed-prefix model modulo one key *)
      let recovered =
        let m = ref SMap.empty in
        Hart.iter h' (fun k v -> m := SMap.add k v !m);
        !m
      in
      let diff_keys =
        SMap.merge
          (fun _ a b -> if a = b then None else Some ())
          !committed recovered
      in
      SMap.cardinal diff_keys <= 1)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let test_recover_empty () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "empty recovered" 0 (Hart.count h');
  Hart.check_integrity h'

let test_recover_preserves_kh () =
  let pool = fresh_pool () in
  let h = Hart.create ~kh:4 pool in
  Hart.insert h ~key:"prefix-key" ~value:"v";
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "kh persisted" 4 (Hart.kh h');
  Alcotest.(check (option string)) "data back" (Some "v") (Hart.search h' "prefix-key")

let test_recover_then_operate () =
  let h, pool = fresh_hart () in
  for i = 0 to 499 do
    Hart.insert h ~key:(Printf.sprintf "ro%05d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 99 do
    ignore (Hart.delete h (Printf.sprintf "ro%05d" i))
  done;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check int) "400 keys back" 400 (Hart.count h');
  (* full op mix on the recovered tree *)
  Hart.insert h' ~key:"ro00000" ~value:"reborn";
  ignore (Hart.update h' ~key:"ro00200" ~value:"upd");
  ignore (Hart.delete h' "ro00300");
  Alcotest.(check (option string)) "insert" (Some "reborn") (Hart.search h' "ro00000");
  Alcotest.(check (option string)) "update" (Some "upd") (Hart.search h' "ro00200");
  Alcotest.(check (option string)) "delete" None (Hart.search h' "ro00300");
  Hart.check_integrity h'

let test_crash_during_recovery () =
  (* recovery itself writes PM (the recycle-log replay): crashing in the
     middle of it must leave a state a second recovery handles. The
     delete of "lone" recycles both its chunks; crash it at the first
     flush that leaves a recycle record pending. *)
  let rec setup k =
    let pool = crash_lone_delete ~after_flushes:k in
    if recycle_pending ~checksums:false pool then pool else setup (k + 1)
  in
  let pool = setup 0 in
  (* now crash the recovery at each of its flush points until one runs
     through *)
  let recovered = ref None and crashes = ref 0 in
  while !recovered = None && !crashes < 30 do
    Pmem.arm_crash pool ~after_flushes:!crashes;
    (match Hart.recover pool with
    | h' -> recovered := Some h'
    | exception Pmem.Crash_injected -> ());
    if Pmem.crash_fired pool then incr crashes;
    Pmem.disarm_crash pool
  done;
  Alcotest.(check bool) "recovery crashed at least once" true (!crashes > 0);
  let h' = match !recovered with Some h' -> h' | None -> Hart.recover pool in
  Hart.check_integrity h';
  let lone =
    match Hart.search h' "lone" with
    | None -> 0
    | Some "a 16-byte value" -> 1
    | Some v -> Alcotest.failf "lone corrupted: %S" v
  in
  Alcotest.(check int) "all records present" (Chunk.objs_per_chunk + lone) (Hart.count h');
  for i = 0 to Chunk.objs_per_chunk - 1 do
    Alcotest.(check (option string)) "untouched key" (Some "v")
      (Hart.search h' (Printf.sprintf "fl%04d" i))
  done

let test_eviction_does_not_break_protocol () =
  (* random background write-backs may persist any dirty line at any
     time; HART's ordering must stay correct under them *)
  let h, pool = fresh_hart () in
  let rng = Rng.create 0xE71C7L in
  let model = ref SMap.empty in
  for i = 0 to 399 do
    let k = Printf.sprintf "ev%04d" (Rng.int rng 200) in
    (match Rng.int rng 3 with
    | 0 ->
        Hart.insert h ~key:k ~value:(string_of_int i);
        model := SMap.add k (string_of_int i) !model
    | 1 ->
        if Hart.update h ~key:k ~value:"u" then model := SMap.add k "u" !model
    | _ ->
        ignore (Hart.delete h k);
        model := SMap.remove k !model);
    Pmem.evict_random pool rng ~fraction:0.3
  done;
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Hart.check_integrity h';
  Alcotest.(check int) "all committed data back" (SMap.cardinal !model)
    (Hart.count h');
  SMap.iter
    (fun k v -> Alcotest.(check (option string)) k (Some v) (Hart.search h' k))
    !model

let test_pool_image_reboot_cycle () =
  (* save -> load -> recover across simulated process restarts *)
  let h, pool = fresh_hart () in
  for i = 0 to 99 do
    Hart.insert h ~key:(Printf.sprintf "pi%03d" i) ~value:(string_of_int i)
  done;
  Pmem.persist_all pool;
  let path = Filename.temp_file "hart_core" ".pm" in
  Pmem.save pool path;
  let pool2 = Pmem.load (Meter.create Latency.c300_100) path in
  let h2 = Hart.recover pool2 in
  Alcotest.(check int) "first reboot" 100 (Hart.count h2);
  ignore (Hart.delete h2 "pi000");
  Hart.insert h2 ~key:"pi100" ~value:"100";
  Pmem.persist_all pool2;
  Pmem.save pool2 path;
  let pool3 = Pmem.load (Meter.create Latency.c300_100) path in
  let h3 = Hart.recover pool3 in
  Alcotest.(check int) "second reboot" 100 (Hart.count h3);
  Alcotest.(check (option string)) "deleted stays deleted" None (Hart.search h3 "pi000");
  Alcotest.(check (option string)) "new key survives" (Some "100") (Hart.search h3 "pi100");
  Hart.check_integrity h3;
  Sys.remove path

(* An image whose root still carries the v01 magic (micro-logs packed
   after the root scalars, 24 bytes apart) must be refused with a typed
   error: read at this layout's offsets, the v01 update slot 0's PNewV
   word would look like a pending PLeaf. *)
(* Mount a saved copy of [pool] with every mount; each must refuse it
   with a typed error at the root magic that names [format]. *)
let check_old_root_refused pool format =
  Pmem.persist_all pool;
  let path = Filename.temp_file "hart_old" ".pm" in
  Pmem.save pool path;
  let loaded = Pmem.load (Meter.create Latency.c300_100) path in
  Sys.remove path;
  List.iter
    (fun (mount, recover) ->
      match recover (Pmem.clone loaded) with
      | (_ : Hart.t) -> Alcotest.failf "%s root mounted by the %s" format mount
      | exception Hart_error.Error { site = Hart_error.Root_block { off }; detail; _ } ->
          Alcotest.(check int) (mount ^ ": error at the magic") Epalloc.root_off off;
          let mentions sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length detail && (String.sub detail i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) (mount ^ ": names the old format") true (mentions format))
    [
      ("plain mount", fun p -> Hart.recover p);
      ("quarantining mount", fun p -> Hart.recover ~quarantine:true p);
      ("2-domain recovery", fun p -> Hart.recover_parallel ~domains:2 p);
    ]

let test_v01_root_refused () =
  let h, pool = fresh_hart () in
  Hart.insert h ~key:"k1" ~value:"v1";
  let v01_slot0 = Epalloc.root_off + 48 in
  Pmem.set_u64 pool Epalloc.root_off 0x484152545F763031L (* "HART_v01" *);
  List.iteri
    (fun w v -> Pmem.set_u64 pool (v01_slot0 + (8 * w)) (Int64.of_int v))
    [ 4096; 8192; 12288 ];
  check_old_root_refused pool "HART_v01"

(* A v02 image kept 40-byte leaves whose commit point was a PM chunk
   bitmap, and update-log records in the lines after the root scalars.
   None of it is read: the image is refused before any leaf, log slot
   or chunk is. The image here carries a v02 root over keys, a deleted
   key's owning slot and a forged update record. *)
let test_v02_root_refused () =
  let h, pool = fresh_hart () in
  List.iter (fun k -> Hart.insert h ~key:k ~value:("v-" ^ k)) [ "k1"; "k2"; "gone" ];
  assert (Hart.update h ~key:"k1" ~value:"a 16-byte value");
  assert (Hart.delete h "gone");
  Pmem.set_u64 pool Epalloc.root_off 0x484152545F763032L (* "HART_v02" *);
  List.iteri
    (fun w v ->
      Pmem.set_u64 pool (Epalloc.root_off + Pmem.line_bytes + (8 * w)) (Int64.of_int v))
    [ 4096; 8192; 12288 ];
  check_old_root_refused pool "HART_v02"

let test_double_recovery () =
  let h, pool = fresh_hart () in
  for i = 0 to 99 do
    Hart.insert h ~key:(Printf.sprintf "dr%03d" i) ~value:"v"
  done;
  Pmem.crash pool;
  let h1 = Hart.recover pool in
  Alcotest.(check int) "first recovery" 100 (Hart.count h1);
  Pmem.crash pool;
  let h2 = Hart.recover pool in
  Alcotest.(check int) "second recovery" 100 (Hart.count h2);
  Hart.check_integrity h2

(* The full cost of one plain recovery, every meter field pinned. The
   simulated LLC (64 KiB) is smaller than the pool, so the miss counts
   and the clock also pin the order of the rebuild's accesses: the
   chunk walk with each leaf's read, directory probe and gather-buffer
   append interleaved, then each ART built once from its sorted buffer
   (DESIGN.md §13). The pool
   has been churned (recycled chunks, owning free slots) and updated, so
   the free-slot step and the liveness pass are in the bill too; the
   image is quiescent, so neither writes anything. Attach reads no
   chunk header, the scan reads each leaf slot once, on its one line,
   and writes each leaf chunk's mirror word once (54 leaf chunks), and
   the free-slot step reads no mirror word (750 owning slots). *)
let test_recover_cost_pinned () =
  let pool = Pmem.create (Meter.create ~llc_bytes:(64 * 1024) Latency.c300_100) in
  let h = Hart.create pool in
  let key i =
    Printf.sprintf "%c%c-rc%05d"
      (Char.chr (97 + (i mod 13)))
      (Char.chr (97 + (i / 13 mod 7)))
      i
  in
  for wave = 0 to 2 do
    for i = 0 to 2999 do
      Hart.insert h ~key:(key i) ~value:(String.make ((i + wave) mod 32) 'v')
    done;
    for i = 0 to 2999 do
      if wave < 2 || i mod 4 = 0 then assert (Hart.delete h (key i))
    done
  done;
  assert (Hart.update h ~key:(key 1) ~value:"kept");
  Pmem.crash pool;
  let meter = Pmem.meter pool in
  let before = Meter.counters meter in
  let r = Hart.recover pool in
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "keys" 2250 (Hart.count r);
  Alcotest.(check int) "owning free slots" 750
    (Hart_core.Hart_stats.collect r).owned_values;
  let pin what want got = Alcotest.(check int) what want got in
  pin "pm reads" 3198 d.Meter.pm_reads;
  pin "pm writes" 0 d.Meter.pm_writes;
  pin "dram reads" 4488 d.Meter.dram_reads;
  pin "dram writes" 4751 d.Meter.dram_writes;
  pin "pm read misses" 1675 d.Meter.pm_read_misses;
  pin "dram read misses" 794 d.Meter.dram_read_misses;
  pin "flushes" 0 d.Meter.flushes;
  pin "fences" 0 d.Meter.fences;
  pin "persist calls" 0 d.Meter.persist_calls;
  pin "evictions" 0 d.Meter.evictions;
  pin "pm allocs" 0 d.Meter.pm_allocs;
  pin "pm frees" 0 d.Meter.pm_frees;
  Alcotest.(check (float 0.)) "sim ns" 296740. d.Meter.sim_ns;
  Hart.check_integrity r

(* ------------------------------------------------------------------ *)
(* Parallel recovery: recover_parallel ~domains:d must be
   observationally identical to serial recover — same bindings, same
   structural stats, same integrity — on every pool shape.             *)

let dump_hart h =
  let m = ref SMap.empty in
  Hart.iter h (fun k v -> m := SMap.add k v !m);
  SMap.bindings !m

(* A traced store split at 8-byte word boundaries: the pieces a crash
   can separate. *)
let word_stores (off, bytes) =
  let stop = off + String.length bytes in
  let rec go o acc =
    if o >= stop then List.rev acc
    else
      let w = min stop ((o / 8 * 8) + 8) in
      go w ((o, String.sub bytes (o - off) (w - o)) :: acc)
  in
  go off []

(* The store order that makes a leaf commit itself (DESIGN.md §6 item
   1). Real PM guarantees 8-byte failure atomicity only: a line written
   back early holds a prefix, in program order, of the stores made to it
   since its last flush. So a crash can cut the leaf's one persist after
   any 8-byte word of its stores. For an insert into a fresh slot, a
   take-over of an owning slot in the value's class and across classes,
   and a delete, each prefix is built by hand on a clone of the image
   durable before the operation: the operation's other stores (all
   persisted before the leaf's), then the first [k] word stores of the
   leaf's line. Each image is recovered: the store holds its bindings
   from before the operation or those from after it, and where the key
   is absent its slot is free and still owns any value it owned.
   Returns the prefixes that break this. *)
let leaf_store_prefix_failures () =
  let failures = ref [] in
  let case name ~setup ~key ~op =
    let h, pool = fresh_hart () in
    setup h;
    let before = dump_hart h in
    let leaf_before = leaf_of h key in
    let base = Pmem.clone pool in
    Pmem.store_trace_start pool;
    op h;
    let stores = Pmem.store_trace_stop pool in
    let after = dump_hart h in
    let leaf = if leaf_before <> 0 then leaf_before else leaf_of h key in
    (* what the slot owns while the key is absent: a deleted key's value,
       or what a slot taken over owned before the insert *)
    let owned = Leaf.p_value (if leaf_before <> 0 then pool else base) ~leaf in
    let on_leaf_line (off, _) = off / Pmem.line_bytes = leaf / Pmem.line_bytes in
    let leaf_words = List.concat_map word_stores (List.filter on_leaf_line stores) in
    let others = List.filter (fun s -> not (on_leaf_line s)) stores in
    if leaf_words = [] then failures := (name ^ ": no store to the leaf's line") :: !failures;
    for k = 0 to List.length leaf_words do
      let img = Pmem.clone base in
      List.iter (fun (off, bytes) -> Pmem.set_string img ~off bytes) others;
      Pmem.persist_all img;
      List.iteri
        (fun i (off, bytes) -> if i < k then Pmem.set_string img ~off bytes)
        leaf_words;
      Pmem.persist_all img;
      Pmem.crash img;
      let fail fmt =
        Printf.ksprintf
          (fun s -> failures := Printf.sprintf "%s, %d of %d words: %s" name k
               (List.length leaf_words) s :: !failures)
          fmt
      in
      match Hart.recover img with
      | exception e -> fail "recovery raised %s" (Printexc.to_string e)
      | r -> (
          (match Hart.check_integrity r with
          | () -> ()
          | exception Failure m -> fail "integrity: %s" m);
          let got = dump_hart r in
          let present, absent =
            if List.mem_assoc key before then (before, after) else (after, before)
          in
          if got = present then ()
          else if got <> absent then fail "bindings neither before nor after"
          else
            let owners = ref [] in
            Epalloc.iter_owned (Hart.alloc r) (fun ~leaf -> owners := leaf :: !owners);
            match Leaf.slot img ~leaf with
            | Leaf.Free pv when pv = owned && List.mem leaf !owners = (pv <> 0) -> ()
            | _ -> fail "slot %d not free owning %d" leaf owned)
    done
  in
  (* a Val8 and a Val16 chunk exist, so no operation allocates one *)
  let keep h =
    Hart.insert h ~key:"keeper" ~value:"k";
    Hart.insert h ~key:"sixteen" ~value:"a 16-byte value"
  in
  let with_gone h =
    keep h;
    Hart.insert h ~key:"gone" ~value:"g";
    assert (Hart.delete h "gone")
  in
  case "insert" ~setup:keep ~key:"a-fresh-key-of-20b" ~op:(fun h ->
      Hart.insert h ~key:"a-fresh-key-of-20b" ~value:"v");
  case "take-over" ~setup:with_gone ~key:"heir" ~op:(fun h ->
      Hart.insert h ~key:"heir" ~value:"h");
  case "class-changing take-over" ~setup:with_gone ~key:"heir" ~op:(fun h ->
      Hart.insert h ~key:"heir" ~value:"another 15-byte");
  case "delete"
    ~setup:(fun h ->
      keep h;
      Hart.insert h ~key:"victim" ~value:"x")
    ~key:"victim"
    ~op:(fun h -> assert (Hart.delete h "victim"));
  List.rev !failures

let test_leaf_store_order () =
  Alcotest.(check (list string)) "every prefix recovers" [] (leaf_store_prefix_failures ());
  Epalloc.unsafe_mutation := Some Epalloc.Head_before_key;
  let mutated =
    Fun.protect
      ~finally:(fun () -> Epalloc.unsafe_mutation := None)
      leaf_store_prefix_failures
  in
  Alcotest.(check bool) "the head stored before the key bytes is caught" true
    (mutated <> [])

(* An update stores the new value's bytes and persists them, then
   rewrites the leaf's head with one 8-byte store. Each prefix of those
   stores in program order, cut at any word, is built by hand on a clone
   of the image durable before the update, and recovered: the key reads
   its old value until the head word is stored and the new one from
   then on, in place, across classes and on a checksummed pool. *)
let test_update_store_order () =
  List.iter
    (fun (checksums, value) ->
      let pool = fresh_pool () in
      let h = Hart.create ~checksums pool in
      Hart.insert h ~key:"bystander" ~value:"bb";
      Hart.insert h ~key:"target" ~value:"OLD";
      (* a chunk of each value class exists, so the update links none *)
      Hart.insert h ~key:"sixteen" ~value:"a 16-byte value";
      Hart.insert h ~key:"thirty-two" ~value:"a value of over sixteen bytes";
      let leaf = leaf_of h "target" in
      let base = Pmem.clone pool in
      Pmem.store_trace_start pool;
      assert (Hart.update h ~key:"target" ~value);
      let words = List.concat_map word_stores (Pmem.store_trace_stop pool) in
      let n = List.length words in
      let name = Printf.sprintf "%S%s" value (if checksums then ", checksummed" else "") in
      (match List.rev words with
      | (off, _) :: _ -> Alcotest.(check int) (name ^ ": the head is stored last") leaf off
      | [] -> Alcotest.failf "%s: no store" name);
      for k = 0 to n do
        let img = Pmem.clone base in
        List.iteri (fun i (off, bytes) -> if i < k then Pmem.set_string img ~off bytes) words;
        Pmem.persist_all img;
        Pmem.crash img;
        Alcotest.(check (option string))
          (Printf.sprintf "%s, %d of %d words" name k n)
          (Some (if k = n then value else "OLD"))
          (recovered_value img)
      done)
    [
      (false, "NEW");
      (false, "a 16-byte value");
      (false, "a value of over sixteen bytes");
      (true, "NEW");
      (true, "a 16-byte value");
    ]

(* A crash inside a recycle leaves a record in the recycle log, and the
   recovery that replays it flushes. Crash that recovery at each of its
   flushes, then recover again: the store ends as an uninterrupted
   recovery leaves it, and a further recovery writes nothing. *)
let test_crash_during_recycle_replay () =
  let flushes = lone_delete_flushes () in
  let replays = ref 0 in
  for k = 0 to flushes - 1 do
    let pool = crash_lone_delete ~after_flushes:k in
    let clean, replay_flushes =
      let img = Pmem.clone pool in
      let f0 = Pmem.flush_count img in
      let r = Hart.recover img in
      (dump_hart r, Pmem.flush_count img - f0)
    in
    if replay_flushes > 0 then incr replays;
    for j = 0 to replay_flushes - 1 do
      let what = Printf.sprintf "delete crashed after %d flushes, recovery after %d" k j in
      let img = Pmem.clone pool in
      Pmem.arm_crash img ~after_flushes:j;
      (match Hart.recover img with
      | _ -> Alcotest.failf "%s: no crash" what
      | exception Pmem.Crash_injected -> ());
      Pmem.disarm_crash img;
      let h, _ = recover_twice img in
      Alcotest.(check (list (pair string string))) what clean (dump_hart h)
    done
  done;
  Alcotest.(check bool) "some crash leaves a record to replay" true (!replays > 0)

(* [pool] must already be crashed; every domain count recovers its own
   clone of the same durable image, plainly and quarantining. The image
   is media-clean, so the quarantining mount must settle it exactly as
   the plain one does, owning slots included, and find nothing. *)
let check_parallel_equiv ?(domain_counts = [ 1; 2; 3; 4 ]) pool =
  let serial = Hart.recover (Pmem.clone pool) in
  Hart.check_integrity serial;
  let s_dump = dump_hart serial in
  let s_stats = Hart_core.Hart_stats.collect serial in
  List.iter
    (fun (d, quarantine) ->
      let at =
        Printf.sprintf "at %d domain(s)%s" d (if quarantine then ", quarantining" else "")
      in
      let par = Hart.recover_parallel ~domains:d ~quarantine (Pmem.clone pool) in
      Hart.check_integrity par;
      Alcotest.(check int) ("count " ^ at) (Hart.count serial) (Hart.count par);
      Alcotest.(check int) ("art count " ^ at) (Hart.art_count serial) (Hart.art_count par);
      if dump_hart par <> s_dump then Alcotest.failf "contents diverge from serial %s" at;
      if Hart_core.Hart_stats.collect par <> s_stats then
        Alcotest.failf "structural stats diverge from serial %s" at;
      Alcotest.(check int) ("findings " ^ at) 0
        (List.length (Hart.quarantines par @ Hart.fsck par)))
    (List.concat_map (fun d -> [ (d, false); (d, true) ]) domain_counts)

let test_parallel_recover_empty () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  check_parallel_equiv pool;
  Alcotest.(check int) "still empty" 0
    (Hart.count (Hart.recover_parallel ~domains:4 (Pmem.clone pool)))

let test_parallel_recover_mixed () =
  let h, pool = fresh_hart () in
  (* spread over many hash prefixes; values across all three classes *)
  for i = 0 to 1199 do
    let key =
      Printf.sprintf "%c%c-par%04d"
        (Char.chr (Char.code 'a' + (i mod 23)))
        (Char.chr (Char.code 'a' + (i / 23 mod 17)))
        i
    in
    let value =
      match i mod 3 with
      | 0 -> Printf.sprintf "v%d" i
      | 1 -> Printf.sprintf "medium-value-%04d" (i mod 10_000)
      | _ -> Printf.sprintf "wide-value-padding-%010d" (i mod 1_000_000)
    in
    Hart.insert h ~key ~value
  done;
  for i = 0 to 1199 do
    if i mod 5 = 0 then
      ignore
        (Hart.update h
           ~key:
             (Printf.sprintf "%c%c-par%04d"
                (Char.chr (Char.code 'a' + (i mod 23)))
                (Char.chr (Char.code 'a' + (i / 23 mod 17)))
                i)
           ~value:"updated"
          : bool)
  done;
  for i = 0 to 1199 do
    if i mod 3 = 0 then
      ignore
        (Hart.delete h
           (Printf.sprintf "%c%c-par%04d"
              (Char.chr (Char.code 'a' + (i mod 23)))
              (Char.chr (Char.code 'a' + (i / 23 mod 17)))
              i)
          : bool)
  done;
  Pmem.crash pool;
  check_parallel_equiv pool

let test_parallel_recover_churned () =
  (* waves of insert-everything / delete-everything cycle whole chunks
     through the recycler before the final populated state *)
  let h, pool = fresh_hart () in
  let key i = Printf.sprintf "ch%c%04d" (Char.chr (Char.code 'a' + (i mod 19))) i in
  for wave = 0 to 2 do
    for i = 0 to 599 do
      Hart.insert h ~key:(key i) ~value:(Printf.sprintf "w%d-%d" wave i)
    done;
    if wave < 2 then
      for i = 0 to 599 do
        ignore (Hart.delete h (key i) : bool)
      done
  done;
  Pmem.crash pool;
  check_parallel_equiv pool

let test_parallel_recover_short_keys () =
  (* keys at and below the hash-key length: empty ART keys, and a
     non-default kh read back from the pool header *)
  let pool = fresh_pool () in
  let h = Hart.create ~kh:3 pool in
  for i = 0 to 400 do
    let len = 1 + (i mod 6) in
    let key =
      String.init len (fun j -> Char.chr (Char.code 'a' + ((i + j) mod 26)))
    in
    Hart.insert h ~key ~value:(string_of_int i)
  done;
  Pmem.crash pool;
  let r = Hart.recover_parallel ~domains:3 (Pmem.clone pool) in
  Alcotest.(check int) "kh read from pool" 3 (Hart.kh r);
  check_parallel_equiv pool

let test_parallel_recover_update_crash () =
  (* an update crashed after its value's flush, before the leaf names
     it: the new value is durable and unnamed, and every domain count
     frees it and keeps the old one *)
  let h, pool = fresh_hart () in
  for i = 0 to 299 do
    Hart.insert h ~key:(Printf.sprintf "pl%04d" i) ~value:"v"
  done;
  Pmem.arm_crash pool ~after_flushes:1;
  (try ignore (Hart.update h ~key:"pl0100" ~value:"NEW" : bool)
   with Pmem.Crash_injected -> ());
  Alcotest.(check bool) "the update crashed" true (Pmem.crash_fired pool);
  Pmem.disarm_crash pool;
  Alcotest.(check (option string)) "old value kept" (Some "v")
    (Hart.search (Hart.recover (Pmem.clone pool)) "pl0100");
  check_parallel_equiv pool

(* A store that only ever grew (inserts and updates, no delete) has the
   directory and ARTs that inserting its keys builds. Recovery builds
   each ART once from its sorted leaves instead, and at every domain
   count and on both mounts must give that same store: its bindings,
   its structural stats and DRAM bytes, and an intact one. Only the
   bitmap pools' physical size may differ: it records the child arena's
   growth history, which a one-shot build does not repeat. The keys mix
   wide fan-outs (a NODE256 of binary bytes, NODE48s), strict prefixes,
   keys no longer than the hash key, and long keys that share more than
   a gather entry's inline bytes. *)
let test_parallel_recover_equals_insert_built () =
  let h, pool = fresh_hart () in
  let keys =
    List.init 1500 (fun i ->
        Printf.sprintf "%c%c%d"
          (Char.chr (Char.code 'a' + (i mod 7)))
          (Char.chr (Char.code 'a' + (i / 7 mod 5)))
          i)
    @ List.init 256 (fun b -> "zz" ^ String.make 1 (Char.chr b))
    @ List.init 40 (fun i -> "zz\000" ^ string_of_int i)
    @ List.init 300 (fun i -> Printf.sprintf "long-shared-prefix-%04d" i)
    @ [ "a"; "ab"; "abc"; "abcd"; "q"; "qr" ]
  in
  List.iteri
    (fun i key -> Hart.insert h ~key ~value:(String.make (i mod 30) 'v'))
    keys;
  List.iteri
    (fun i key -> if i mod 9 = 0 then assert (Hart.update h ~key ~value:"updated"))
    keys;
  Hart.check_integrity h;
  let norm (s : Hart_core.Hart_stats.t) =
    { s with art_pools = { s.art_pools with pool_bytes = 0 } }
  in
  let live = norm (Hart_core.Hart_stats.collect h) in
  Pmem.crash pool;
  List.iter
    (fun (d, quarantine) ->
      let at = Printf.sprintf "at %d domain(s)%s" d (if quarantine then ", quarantining" else "") in
      let r = Hart.recover_parallel ~domains:d ~quarantine (Pmem.clone pool) in
      Hart.check_integrity r;
      if dump_hart r <> dump_hart h then Alcotest.failf "bindings diverge %s" at;
      Alcotest.(check int) ("dram bytes " ^ at) (Hart.dram_bytes h) (Hart.dram_bytes r);
      if norm (Hart_core.Hart_stats.collect r) <> live then
        Alcotest.failf "structural stats diverge %s" at)
    [ (1, false); (1, true); (2, false); (2, true) ]

let test_parallel_recover_validation () =
  let h, pool = fresh_hart () in
  ignore h;
  Pmem.crash pool;
  Alcotest.(check bool) "domains:0 rejected" true
    (match Hart.recover_parallel ~domains:0 pool with
    | (_ : Hart.t) -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Rwlock and Hart_mt                                                  *)

let test_rwlock_exclusion () =
  let l = Rwlock.create () in
  Rwlock.write_lock l;
  Alcotest.(check bool) "writer active" true (Rwlock.writer_active l);
  Rwlock.write_unlock l;
  Rwlock.read_lock l;
  Rwlock.read_lock l;
  Alcotest.(check int) "two readers" 2 (Rwlock.readers l);
  Rwlock.read_unlock l;
  Rwlock.read_unlock l;
  Alcotest.(check int) "released" 0 (Rwlock.readers l)

let test_rwlock_writer_blocks_readers () =
  let l = Rwlock.create () in
  let hits = Atomic.make 0 in
  Rwlock.write_lock l;
  let reader =
    Domain.spawn (fun () ->
        Rwlock.with_read l (fun () -> Atomic.incr hits))
  in
  Unix.sleepf 0.05;
  Alcotest.(check int) "reader blocked while writer holds" 0 (Atomic.get hits);
  Rwlock.write_unlock l;
  Domain.join reader;
  Alcotest.(check int) "reader ran after release" 1 (Atomic.get hits)

let test_rwlock_counter_race () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Rwlock.with_write l (fun () -> counter := !counter + 1)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost updates" 4000 !counter

let test_hart_mt_basic () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  Hart_mt.insert h ~key:"mtkey" ~value:"v";
  Alcotest.(check (option string)) "search" (Some "v") (Hart_mt.search h "mtkey");
  Alcotest.(check bool) "update" true (Hart_mt.update h ~key:"mtkey" ~value:"w");
  Alcotest.(check bool) "delete" true (Hart_mt.delete h "mtkey");
  Alcotest.(check int) "count" 0 (Hart_mt.count h)

let test_hart_mt_concurrent_inserts () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  let n_domains = 4 and per = 500 in
  let workers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Hart_mt.insert h
                ~key:(Printf.sprintf "d%d-%04d" d i)
                ~value:(string_of_int i)
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "all inserted" (n_domains * per) (Hart_mt.count h);
  for d = 0 to n_domains - 1 do
    for i = 0 to per - 1 do
      let k = Printf.sprintf "d%d-%04d" d i in
      if Hart_mt.search h k <> Some (string_of_int i) then
        Alcotest.failf "lost key %s" k
    done
  done;
  Hart.check_integrity (Hart_mt.underlying h)

let test_hart_mt_mixed_stress () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  for i = 0 to 199 do
    Hart_mt.insert h ~key:(Printf.sprintf "mx%04d" i) ~value:"init"
  done;
  let workers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (100 + d)) in
            for _ = 1 to 1000 do
              let k = Printf.sprintf "mx%04d" (Rng.int rng 200) in
              match Rng.int rng 4 with
              | 0 -> Hart_mt.insert h ~key:k ~value:(Printf.sprintf "d%d" d)
              | 1 -> ignore (Hart_mt.search h k)
              | 2 -> ignore (Hart_mt.update h ~key:k ~value:"u")
              | _ -> ignore (Hart_mt.delete h k)
            done))
  in
  List.iter Domain.join workers;
  Hart.check_integrity (Hart_mt.underlying h)

let test_hart_mt_lock_mapping () =
  let pool = fresh_pool () in
  let h = Hart_mt.create pool in
  let l1 = Hart_mt.art_lock h "AAkey1" in
  let l2 = Hart_mt.art_lock h "AAkey2" in
  let l3 = Hart_mt.art_lock h "BBkey1" in
  Alcotest.(check bool) "same prefix -> same lock" true (l1 == l2);
  Alcotest.(check bool) "different prefix -> different lock" true (l1 != l3)

(* ------------------------------------------------------------------ *)
(* Exhaustive delete-path / recycle-log crash matrices                 *)

(* Sweep EVERY flush boundary of [f] (the dry run bounds the sweep), and
   at every boundary also crash the recovery at every one of ITS flush
   boundaries, and the second recovery at every of THEIRS, before
   validating with [check]. Pmem.clone keeps the nesting affordable:
   prefixes re-execute once per outer point only. *)
let crash_matrix ~build ~f ~check =
  let total =
    let h, pool = build () in
    let f0 = Pmem.flush_count pool in
    f h;
    Pmem.flush_count pool - f0
  in
  Alcotest.(check bool) "operation flushes at all" true (total > 0);
  for k = 0 to total - 1 do
    let h, pool = build () in
    Pmem.arm_crash pool ~after_flushes:k;
    (try
       f h;
       Alcotest.failf "crash %d/%d never fired" k total
     with Pmem.Crash_injected -> ());
    let outer = Pmem.clone pool in
    (* second-level sweep: crash the first recovery at flush [m] *)
    let r1 =
      let p = Pmem.clone outer in
      let f0 = Pmem.flush_count p in
      ignore (Hart.recover p);
      Pmem.flush_count p - f0
    in
    for m = 0 to r1 - 1 do
      let p = Pmem.clone outer in
      Pmem.arm_crash p ~after_flushes:m;
      (try
         ignore (Hart.recover p);
         Alcotest.failf "nested crash %d.%d never fired" k m
       with Pmem.Crash_injected -> ());
      let mid = Pmem.clone p in
      (* third-level sweep: crash the SECOND recovery at flush [q] *)
      let r2 =
        let q = Pmem.clone mid in
        let f0 = Pmem.flush_count q in
        ignore (Hart.recover q);
        Pmem.flush_count q - f0
      in
      for q = 0 to r2 - 1 do
        let p2 = Pmem.clone mid in
        Pmem.arm_crash p2 ~after_flushes:q;
        (try
           ignore (Hart.recover p2);
           Alcotest.failf "nested crash %d.%d.%d never fired" k m q
         with Pmem.Crash_injected -> ());
        let h3 = Hart.recover p2 in
        Hart.check_integrity h3;
        check h3
      done;
      let h2 = Hart.recover mid in
      Hart.check_integrity h2;
      check h2
    done;
    let h1 = Hart.recover outer in
    Hart.check_integrity h1;
    check h1
  done;
  total

let test_delete_crash_matrix () =
  (* the richest Algorithm 5 instance: deleting the last key of a prefix
     removes the empty ART from the directory *)
  let build () =
    let h, pool = fresh_hart () in
    Hart.insert h ~key:"XXonly-key" ~value:"last value";
    Hart.insert h ~key:"YYbystander" ~value:"B";
    (h, pool)
  in
  (* the deleted key's slot then owns its value until the next insert
     takes the slot over; a value of another class frees it, which
     empties and recycles its value chunk *)
  let total =
    crash_matrix ~build
      ~f:(fun h ->
        ignore (Hart.delete h "XXonly-key");
        Hart.insert h ~key:"XXnext" ~value:"n")
      ~check:(fun h' ->
        Alcotest.(check (option string)) "bystander survives" (Some "B")
          (Hart.search h' "YYbystander");
        (match Hart.search h' "XXonly-key" with
        | None | Some "last value" -> ()
        | Some v -> Alcotest.failf "victim neither absent nor intact: %S" v);
        (match Hart.search h' "XXnext" with
        | None | Some "n" -> ()
        | Some v -> Alcotest.failf "successor neither absent nor intact: %S" v);
        (* drain and reuse: the half-recycled chunks must stay usable *)
        ignore (Hart.delete h' "XXnext");
        ignore (Hart.delete h' "XXonly-key");
        Hart.insert h' ~key:"XXonly-key" ~value:"again";
        Hart.check_integrity h')
  in
  Alcotest.(check bool) "delete path has many crash points" true (total >= 6)

let test_recycle_log_crash_matrix () =
  (* drive Algorithm 6 through a MIDDLE-of-list unlink: three leaf chunks
     exist and the middle one empties. Sweep the two deletes that empty
     it, with full nested recovery sweeps. *)
  let n = 56 in
  let build () =
    let h, pool = fresh_hart () in
    for c = 0 to 2 do
      for i = 0 to n - 1 do
        Hart.insert h ~key:(Printf.sprintf "c%d-%03d" c i) ~value:"v"
      done
    done;
    (* drain the middle chunk down to its final two keys *)
    for i = 2 to n - 1 do
      ignore (Hart.delete h (Printf.sprintf "c1-%03d" i))
    done;
    (h, pool)
  in
  ignore
    (crash_matrix ~build
       ~f:(fun h ->
         ignore (Hart.delete h "c1-000");
         ignore (Hart.delete h "c1-001"))
       ~check:(fun h' ->
         Alcotest.(check (option string)) "first chunk intact" (Some "v")
           (Hart.search h' "c0-000");
         Alcotest.(check (option string)) "last chunk intact" (Some "v")
           (Hart.search h' "c2-055");
         List.iter
           (fun k ->
             match Hart.search h' k with
             | None | Some "v" -> ()
             | Some x -> Alcotest.failf "%s corrupted: %S" k x)
           [ "c1-000"; "c1-001" ];
         Hart.insert h' ~key:"c1-000" ~value:"reuse";
         Hart.check_integrity h')
      : int)

(* ------------------------------------------------------------------ *)
(* Range / min / max edge cases                                        *)

let test_range_short_keys () =
  (* keys shorter than kh = 2 live in dedicated hash slots with empty
     ART keys; range must still see them in global key order *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:("v" ^ k))
    [ "a"; "b"; "ab"; "abc"; "b0"; "B" ];
  let got = ref [] in
  Hart.range h ~lo:"a" ~hi:"b" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "short keys in range" [ "a"; "ab"; "abc"; "b" ]
    (List.rev !got);
  Alcotest.(check (option (pair string string))) "min is capital"
    (Some ("B", "vB")) (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max" (Some ("b0", "vb0"))
    (Hart.max_binding h)

let test_range_hash_prefix_bounds () =
  (* lo / hi exactly equal to a hash-key prefix: the 2-byte prefix "ab"
     is both a live key and the hash key of "abc", "abd" *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:k)
    [ "aa"; "ab"; "abc"; "abd"; "ac"; "b" ];
  let collect lo hi =
    let acc = ref [] in
    Hart.range h ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list string)) "hi = prefix excludes its extensions"
    [ "aa"; "ab" ] (collect "a" "ab");
  Alcotest.(check (list string)) "lo = prefix includes it and extensions"
    [ "ab"; "abc"; "abd"; "ac" ] (collect "ab" "ac");
  Alcotest.(check (list string)) "interior of one prefix" [ "abc"; "abd" ]
    (collect "aba" "abz")

let test_range_lo_eq_hi () =
  let h, _ = fresh_hart () in
  List.iter (fun k -> Hart.insert h ~key:k ~value:k) [ "q"; "qq"; "qqq" ];
  let collect lo hi =
    let acc = ref [] in
    Hart.range h ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list string)) "lo = hi = live key" [ "qq" ] (collect "qq" "qq");
  Alcotest.(check (list string)) "lo = hi absent" [] (collect "qx" "qx");
  Alcotest.(check (list string)) "inverted bounds empty" [] (collect "z" "a")

let test_range_after_art_cleanup () =
  (* deleting the last key of a prefix drops its ART from the directory;
     range / min / max must neither see ghosts nor miss neighbours *)
  let h, _ = fresh_hart () in
  List.iter
    (fun k -> Hart.insert h ~key:k ~value:k)
    [ "m1-a"; "m2-a"; "m2-b"; "m3-a" ];
  ignore (Hart.delete h "m2-a");
  ignore (Hart.delete h "m2-b");
  Alcotest.(check int) "one ART dropped" 2 (Hart.art_count h);
  let acc = ref [] in
  Hart.range h ~lo:"m1" ~hi:"m4" (fun k _ -> acc := k :: !acc);
  Alcotest.(check (list string)) "no ghosts, no gaps" [ "m1-a"; "m3-a" ]
    (List.rev !acc);
  Alcotest.(check (option (pair string string))) "min skips dropped ART"
    (Some ("m1-a", "m1-a")) (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max skips dropped ART"
    (Some ("m3-a", "m3-a")) (Hart.max_binding h);
  ignore (Hart.delete h "m1-a");
  ignore (Hart.delete h "m3-a");
  Alcotest.(check (option (pair string string))) "min on emptied store" None
    (Hart.min_binding h);
  Alcotest.(check (option (pair string string))) "max on emptied store" None
    (Hart.max_binding h);
  let empty = ref [] in
  Hart.range h ~lo:"" ~hi:"~~~~" (fun k _ -> empty := k :: !empty);
  Alcotest.(check (list string)) "range on emptied store" [] !empty;
  Hart.check_integrity h

(* ------------------------------------------------------------------ *)
(* Recover round-trips over every index (HART + the seven baselines)   *)

module Fault = Hart_fault.Fault

(* Build an index, snapshot its pool with [Pmem.clone] (a quiesced
   "reboot"), [recover] from the snapshot and differential-check the
   recovered bindings against a pure Map oracle; then keep operating on
   the recovered instance to prove it is live, not just readable. *)
let roundtrip_check (tgt : Fault.target) ops =
  let name = tgt.Fault.target_name in
  let inst = tgt.Fault.fresh () in
  List.iter inst.Fault.apply ops;
  let model = List.fold_left Fault.apply_model SMap.empty ops in
  Alcotest.(check (list (pair string string)))
    (name ^ ": live bindings match oracle")
    (SMap.bindings model) (inst.Fault.dump ());
  let snapshot = Pmem.clone inst.Fault.pool in
  let r = tgt.Fault.reattach snapshot in
  r.Fault.check ();
  Alcotest.(check (list (pair string string)))
    (name ^ ": recovered bindings match oracle")
    (SMap.bindings model) (r.Fault.dump ());
  let post = Fault.[ Insert ("zz-post-recover", "pr"); Delete "zz-post-recover" ] in
  List.iter r.Fault.apply post;
  r.Fault.check ();
  Alcotest.(check (list (pair string string)))
    (name ^ ": recovered instance still operates")
    (SMap.bindings model) (r.Fault.dump ())

let test_recover_roundtrip_empty () =
  List.iter (fun tgt -> roundtrip_check tgt []) Fault.all_targets

let test_recover_roundtrip_single_key () =
  List.iter
    (fun tgt -> roundtrip_check tgt [ Fault.Insert ("solo", "v") ])
    Fault.all_targets

let test_recover_roundtrip_mixed () =
  let ops =
    Fault.
      [
        Insert ("alpha", "1");
        Insert ("alpha-beta", "2");
        Insert ("beta", "3");
        Update ("alpha", "one");
        Insert ("gamma", "");
        Delete "beta";
        Insert ("a", "x");
        Insert ("delta", String.make 30 'd');
        Delete "never-existed";
        Update ("also-never-existed", "m");
        Insert ("alpha", "one-again");
      ]
  in
  List.iter (fun tgt -> roundtrip_check tgt ops) Fault.all_targets

(* ------------------------------------------------------------------ *)
(* Image corruption: every baseline's saved image must be rejected by
   [Pmem.load] when its trailing whole-image checksum no longer matches
   — a corrupt trailer, a flipped body bit, or a truncation must never
   produce a silently-wrong mounted pool.                              *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_load_failure name path =
  match Pmem.load (Meter.create Latency.c300_100) path with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: corrupt image accepted by Pmem.load" name

let test_image_corruption_all_indexes () =
  let ops =
    Fault.
      [
        Insert ("ic-a", "1");
        Insert ("ic-b", String.make 24 'b');
        Insert ("ic-c", "3");
        Delete "ic-a";
        Update ("ic-b", "two");
      ]
  in
  let model = List.fold_left Fault.apply_model SMap.empty ops in
  let path = Filename.temp_file "hart_img" ".pm" in
  List.iter
    (fun (tgt : Fault.target) ->
      let name = tgt.Fault.target_name in
      let inst = tgt.Fault.fresh () in
      List.iter inst.Fault.apply ops;
      Pmem.persist_all inst.Fault.pool;
      Pmem.save inst.Fault.pool path;
      (* the pristine image loads and the index recovers from it *)
      let pool' = Pmem.load (Meter.create Latency.c300_100) path in
      let r = tgt.Fault.reattach pool' in
      r.Fault.check ();
      Alcotest.(check (list (pair string string)))
        (name ^ ": image round-trip")
        (SMap.bindings model) (r.Fault.dump ());
      let image = read_file path in
      let len = String.length image in
      let flipped at mask =
        let b = Bytes.of_string image in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
        Bytes.to_string b
      in
      write_file path (flipped (len - 3) 0x20);
      expect_load_failure (name ^ ": corrupt trailer") path;
      write_file path (flipped (len / 2) 0x01);
      expect_load_failure (name ^ ": flipped body bit") path;
      write_file path (String.sub image 0 (len - 5));
      expect_load_failure (name ^ ": truncated mid-trailer") path;
      write_file path (String.sub image 0 (len / 2));
      expect_load_failure (name ^ ": truncated mid-body") path)
    Fault.all_targets;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* fsck / scrub / media quarantine                                     *)

let populate_hart ?checksums () =
  let pool = fresh_pool () in
  let h = Hart.create ?checksums pool in
  let model = ref SMap.empty in
  let key_of i =
    Printf.sprintf "%c%c-fk%03d"
      (Char.chr (97 + (i mod 7)))
      (Char.chr (97 + (i mod 5)))
      i
  in
  for i = 0 to 149 do
    let value =
      match i mod 3 with
      | 0 -> Printf.sprintf "v%d" i
      | 1 -> Printf.sprintf "value-medium-%04d" i
      | _ -> Printf.sprintf "value-wide-padding-%08d" i
    in
    Hart.insert h ~key:(key_of i) ~value;
    model := SMap.add (key_of i) value !model
  done;
  for i = 0 to 149 do
    if i mod 11 = 0 then begin
      ignore (Hart.delete h (key_of i));
      model := SMap.remove (key_of i) !model
    end
  done;
  (h, pool, !model)

let test_fsck_clean_store () =
  let h, pool, model = populate_hart () in
  (* the 14 deleted keys' slots own their values: no finding *)
  let owned h = (Hart_core.Hart_stats.collect h).owned_values in
  Alcotest.(check int) "owning slots" 14 (owned h);
  Alcotest.(check int) "no quarantines" 0 (List.length (Hart.quarantines h));
  Alcotest.(check int) "fsck clean" 0 (List.length (Hart.fsck h));
  Alcotest.(check int) "scrub clean" 0 (List.length (Hart.scrub h));
  Pmem.crash pool;
  let h' = Hart.recover ~quarantine:true pool in
  Alcotest.(check int) "recovery quarantines nothing" 0
    (List.length (Hart.quarantines h'));
  Alcotest.(check int) "owning slots after a quarantining recovery" 14 (owned h');
  Alcotest.(check int) "fsck clean after recovery" 0
    (List.length (Hart.fsck h'));
  Hart.check_integrity h';
  Alcotest.(check int) "count intact" (SMap.cardinal model) (Hart.count h')

let test_checksummed_roundtrip () =
  let h, pool, model = populate_hart ~checksums:true () in
  Alcotest.(check bool) "flag set" true (Hart.checksums h);
  Alcotest.(check int) "deep fsck clean" 0
    (List.length (Hart.fsck ~deep:true h));
  Pmem.crash pool;
  let h' = Hart.recover pool in
  Alcotest.(check bool) "pool self-describes" true (Hart.checksums h');
  Alcotest.(check (list (pair string string)))
    "bindings survive reboot" (SMap.bindings model) (dump_hart h');
  Hart.check_integrity h';
  Alcotest.(check int) "deep fsck clean after reboot" 0
    (List.length (Hart.fsck ~deep:true h'));
  Pmem.crash pool;
  let hp = Hart.recover_parallel ~domains:3 ~quarantine:true pool in
  Alcotest.(check (list (pair string string)))
    "parallel quarantining recovery agrees" (SMap.bindings model)
    (dump_hart hp);
  Alcotest.(check int) "parallel quarantines nothing" 0
    (List.length (Hart.quarantines hp))

let leaf_offsets h =
  let offs = ref [] in
  Hart.iter_arts h (fun _hk art ->
      Art.iter art (fun _k off -> offs := off :: !offs));
  List.sort_uniq compare !offs

(* A committed leaf whose length byte reads 25, 30 or 200 names no key
   the index could have stored (each would also run past the 32-byte
   slot). The live index fails its integrity check, plain
   recovery (serial and parallel) refuses the mount with a typed error
   at the slot instead of indexing a bogus key, and the quarantining
   mount excises the leaf and keeps the rest. *)
let test_invalid_key_length_refused () =
  List.iter
    (fun bad ->
      let h, pool = fresh_hart () in
      List.iter
        (fun k -> Hart.insert h ~key:k ~value:("v-" ^ k))
        [ "alpha"; "bravo"; "charlie" ];
      let leaf = List.find (fun l -> Leaf.key pool ~leaf:l = "bravo") (leaf_offsets h) in
      let value = Leaf.p_value pool ~leaf in
      Pmem.set_u8 pool (leaf + 7) bad;
      Pmem.persist pool ~off:(leaf + 7) ~len:1;
      let what = Printf.sprintf "length byte %d" bad in
      Alcotest.(check bool) (what ^ ": check_integrity fails") true
        (match Hart.check_integrity h with () -> false | exception Failure _ -> true);
      Pmem.crash pool;
      let refused name recover =
        match recover pool with
        | (_ : Hart.t) -> Alcotest.failf "%s, %s: mounted" what name
        | exception Hart_error.Error { site = Hart_error.Leaf_slot { leaf = l; _ }; _ } ->
            Alcotest.(check int) (Printf.sprintf "%s, %s: the slot" what name) leaf l
      in
      refused "serial" (fun pool -> Hart.recover pool);
      refused "parallel" (Hart.recover_parallel ~domains:2);
      let hq = Hart.recover ~quarantine:true pool in
      Alcotest.(check (list (pair string string)))
        (what ^ ": survivors")
        [ ("alpha", "v-alpha"); ("charlie", "v-charlie") ]
        (dump_hart hq);
      Alcotest.(check (list string))
        (what ^ ": quarantined")
        [ Printf.sprintf "invalid key length %d" bad ]
        (List.map (fun (f : Hart_error.finding) -> f.f_detail) (Hart.quarantines hq));
      (* the excised leaf's value pointer was not trusted, so nothing
         names its value object and the liveness pass frees it *)
      Alcotest.(check bool) (what ^ ": the mount frees the value") false
        (Epalloc.value_committed (Hart.alloc hq) value);
      Alcotest.(check int) (what ^ ": fsck finds nothing") 0 (List.length (Hart.fsck hq));
      Hart.check_integrity hq)
    [ 25; 30; 200 ]

(* Two committed leaves for one key: no crash leaves them, so a forged
   image (a second leaf's key bytes rewritten to the first's) is refused
   by the plain mount with one typed error at every domain count, naming
   the higher-offset leaf; the quarantining mount keeps the lower. *)
let test_duplicate_leaf_refused () =
  let h, pool = fresh_hart () in
  Hart.insert h ~key:"dup-a" ~value:"first";
  Hart.insert h ~key:"dup-b" ~value:"second";
  let low = min (leaf_of h "dup-a") (leaf_of h "dup-b")
  and high = max (leaf_of h "dup-a") (leaf_of h "dup-b") in
  let kept = Leaf.key pool ~leaf:low in
  (* the key bytes follow the 8-byte head *)
  Pmem.set_string pool ~off:(high + 8) kept;
  Pmem.persist pool ~off:high ~len:Leaf.size;
  Pmem.crash pool;
  let refusal name recover =
    match recover (Pmem.clone pool) with
    | (_ : Hart.t) -> Alcotest.failf "%s: mounted" name
    | exception Hart_error.Error e -> e
  in
  let serial = refusal "serial" Hart.recover in
  let parallel = refusal "2 domains" (Hart.recover_parallel ~domains:2) in
  (match serial.Hart_error.site with
  | Hart_error.Leaf_slot { leaf; _ } -> Alcotest.(check int) "the higher offset" high leaf
  | _ -> Alcotest.failf "site %s" (Hart_error.to_string serial));
  Alcotest.(check (list string)) "the key" [ kept ] serial.keys;
  Alcotest.(check string) "same error at 2 domains" (Hart_error.to_string serial)
    (Hart_error.to_string parallel);
  let hq = Hart.recover ~quarantine:true (Pmem.clone pool) in
  Alcotest.(check (list string)) "quarantined"
    [ "duplicate committed leaf (higher offset quarantined)" ]
    (List.map (fun (f : Hart_error.finding) -> f.f_detail) (Hart.quarantines hq));
  Alcotest.(check (option string)) "the lower offset kept"
    (Some (if kept = "dup-a" then "first" else "second"))
    (Hart.search hq kept)

(* A stray write that sends a leaf's p_value to another live key's value
   leaves two committed leaves naming one value, which no crash can: the
   quarantining mount keeps the lower-offset leaf, as for a duplicate
   key, and quarantines the other without freeing the value, at every
   domain count. Sent to a free value slot instead, the pointer looks
   like a crash between an update's p_value store and its bit commit:
   the plain pool's mount accepts it and serves the slot's stale bytes.
   Either way nothing names the real value any more, so the mount's
   liveness pass frees it and fsck finds nothing. *)
let test_redirected_value_pointer () =
  let details fs = List.map (fun (f : Hart_error.finding) -> f.f_detail) fs in
  let h, pool = fresh_hart () in
  List.iter (fun k -> Hart.insert h ~key:k ~value:("v-" ^ k)) [ "alpha"; "bravo"; "charlie" ];
  let leaf k = List.find (fun l -> Leaf.key pool ~leaf:l = k) (leaf_offsets h) in
  let set_p_value leaf v = Leaf.set_p_value pool ~leaf ~head:(Leaf.head pool ~leaf) v in
  let lo, hi =
    if leaf "alpha" < leaf "charlie" then ("alpha", "charlie") else ("charlie", "alpha")
  in
  let real = Leaf.p_value pool ~leaf:(leaf hi) in
  set_p_value (leaf hi) (Leaf.p_value pool ~leaf:(leaf lo));
  Pmem.crash pool;
  List.iter
    (fun d ->
      let hq = Hart.recover_parallel ~domains:d ~quarantine:true (Pmem.clone pool) in
      let what = Printf.sprintf "shared value, %d domain(s)" d in
      Alcotest.(check (list string))
        (what ^ ": quarantined")
        [ "value shared with another committed leaf (higher offset quarantined)" ]
        (details (Hart.quarantines hq));
      Alcotest.(check (list (pair string string)))
        (what ^ ": survivors")
        (List.sort compare [ (lo, "v-" ^ lo); ("bravo", "v-bravo") ])
        (dump_hart hq);
      Alcotest.(check bool) (what ^ ": the mount frees the unnamed value") false
        (Epalloc.value_committed (Hart.alloc hq) real);
      Alcotest.(check (list string)) (what ^ ": fsck finds nothing") []
        (details (Hart.fsck hq));
      Hart.check_integrity hq)
    [ 1; 3 ];
  let h, pool = fresh_hart () in
  List.iter (fun k -> Hart.insert h ~key:k ~value:("v-" ^ k)) [ "alpha"; "bravo" ];
  let stale = Leaf.p_value pool ~leaf:(leaf "alpha") in
  assert (Hart.update h ~key:"alpha" ~value:"w-alpha");
  let real = Leaf.p_value pool ~leaf:(leaf "bravo") in
  let leaf k = List.find (fun l -> Leaf.key pool ~leaf:l = k) (leaf_offsets h) in
  Leaf.set_p_value pool ~leaf:(leaf "bravo") ~head:(Leaf.head pool ~leaf:(leaf "bravo")) stale;
  Pmem.crash pool;
  let hq = Hart.recover ~quarantine:true pool in
  Alcotest.(check (list string)) "free slot: accepted" [] (details (Hart.quarantines hq));
  Alcotest.(check (option string)) "free slot: its stale bytes served" (Some "v-alpha")
    (Hart.search hq "bravo");
  Alcotest.(check bool) "free slot: the mount frees the real value" false
    (Epalloc.value_committed (Hart.alloc hq) real);
  Alcotest.(check (list string)) "free slot: fsck finds nothing" [] (details (Hart.fsck hq));
  Hart.check_integrity hq

(* A live leaf's line is destroyed: the binding cannot be repaired, so
   recovery must excise it, report it, and keep everything else intact —
   never serve a corrupted key or value.                               *)
let test_unrepairable_leaf_quarantined () =
  let h, pool, model = populate_hart () in
  Pmem.persist_all pool;
  let victim = List.nth (leaf_offsets h) 3 in
  Pmem.crash pool;
  Pmem.inject_media_fault pool
    (Pmem.Clobber_line { line = victim / Pmem.line_bytes; seed = 0xBADF00DL });
  let h' = Hart.recover ~quarantine:true pool in
  let qs = Hart.quarantines h' in
  Alcotest.(check bool) "losses reported" true
    (List.exists
       (fun (f : Hart_error.finding) ->
         f.Hart_error.f_action = Hart_error.Quarantined)
       qs);
  let lost =
    SMap.fold
      (fun key _ acc -> if Hart.search h' key = None then key :: acc else acc)
      model []
  in
  Alcotest.(check bool) "the clobbered leaf is gone" true (lost <> []);
  (* survivors are exact: present implies model-correct *)
  Hart.iter h' (fun key value ->
      match SMap.find_opt key model with
      | Some v when v = value -> ()
      | Some v -> Alcotest.failf "key %S: got %S, want %S" key value v
      | None -> Alcotest.failf "fabricated key %S" key);
  (* fsck heals the pool: the excised leaf's value object is reclaimed,
     its lines resealed, and a second pass finds nothing left to do *)
  ignore (Hart.fsck h');
  Hart.check_integrity h';
  Alcotest.(check int) "fsck converges" 0 (List.length (Hart.fsck h'));
  Alcotest.(check (list int))
    "media scrub clean after fsck" []
    (Pmem.media_verify pool).Pmem.corrupt_lines

(* Quarantining recovery at 1-4 domains must excise, free and report
   exactly what the serial mount does. Three clobbered lines: one under
   a live leaf, one under another live key's value object, and one
   under a free leaf slot that owns its deleted key's value. None of
   them holds a chunk prologue, which would make the mount refuse the
   pool. *)
let test_parallel_recover_media_faulted () =
  let h, pool, _model = populate_hart () in
  Pmem.persist_all pool;
  let line off = off / Pmem.line_bytes in
  let taken = Hashtbl.create 64 in
  List.iter
    (fun cls ->
      Epalloc.iter_chunks (Hart.alloc h) cls (fun chunk ->
          Hashtbl.replace taken (line chunk) ();
          Hashtbl.replace taken (line (chunk + 15)) ()))
    Chunk.all_classes;
  let pick offs =
    let l = line (List.find (fun off -> not (Hashtbl.mem taken (line off))) offs) in
    Hashtbl.replace taken l ();
    l
  in
  let leaves = leaf_offsets h in
  let leaf_line = pick leaves in
  let value_line = pick (List.map (fun leaf -> Leaf.p_value pool ~leaf) leaves) in
  let owners = ref [] in
  Epalloc.iter_owned (Hart.alloc h) (fun ~leaf -> owners := leaf :: !owners);
  let owner_line = pick (List.rev !owners) in
  Pmem.crash pool;
  List.iteri
    (fun i l ->
      Pmem.inject_media_fault pool
        (Pmem.Clobber_line { line = l; seed = Int64.of_int (0xF00D + i) }))
    [ leaf_line; value_line; owner_line ];
  let show fs =
    List.sort compare
      (List.map
         (fun (f : Hart_error.finding) ->
           Format.asprintf "%a %s %s [%s]" Hart_error.pp_site f.f_site
             (Hart_error.action_name f.f_action)
             f.f_detail
             (String.concat ";" f.f_keys))
         fs)
  in
  (* the mount leaves what it could not attribute (the value of a leaf
     whose pointer it cannot trust) to fsck, so integrity holds after
     the fsck *)
  let mount recover =
    let r = recover (Pmem.clone pool) in
    let bindings = dump_hart r and found = show (Hart.quarantines r) in
    let fsck = show (Hart.fsck r) in
    Hart.check_integrity r;
    (bindings, found, fsck)
  in
  let s_bindings, s_found, s_fsck = mount (Hart.recover ~quarantine:true) in
  Alcotest.(check bool) "the faults are found" true (s_found <> []);
  List.iter
    (fun d ->
      let what = Printf.sprintf "%d domain(s): " d in
      let p_bindings, p_found, p_fsck =
        mount (Hart.recover_parallel ~domains:d ~quarantine:true)
      in
      Alcotest.(check (list (pair string string)))
        (what ^ "bindings") s_bindings p_bindings;
      Alcotest.(check (list string)) (what ^ "findings") s_found p_found;
      Alcotest.(check (list string)) (what ^ "fsck afterwards") s_fsck p_fsck)
    [ 1; 2; 3; 4 ]

(* A chunk of [populate_hart]'s store with a free slot that names
   nothing: its offset, that slot, and a committed slot. *)
let chunk_slots h cls =
  let pool = Hart.pool h and alloc = Hart.alloc h in
  let found = ref None in
  Epalloc.iter_chunks alloc cls (fun chunk ->
      let bm = Epalloc.committed_bits alloc cls ~chunk in
      let names_nothing i =
        cls <> Chunk.Leaf_c || Leaf.p_value pool ~leaf:(Chunk.obj_off cls ~chunk ~idx:i) = 0
      in
      let pick live =
        List.find_opt
          (fun i -> bm land (1 lsl i) <> 0 = live && (live || names_nothing i))
          (List.init Chunk.objs_per_chunk Fun.id)
      in
      match (!found, pick false, pick true) with
      | None, Some free, Some live -> found := Some (chunk, free, live)
      | _ -> ());
  Option.get !found

(* A stray store of a length byte into a free leaf slot leaves the
   allocator's DRAM bitmap and the slot's durable commit disagreeing;
   the integrity check names the slot. *)
let test_mirror_desync_caught () =
  let h, pool, _ = populate_hart () in
  Hart.check_integrity h;
  let chunk, free, _ = chunk_slots h Chunk.Leaf_c in
  let leaf = Chunk.obj_off Chunk.Leaf_c ~chunk ~idx:free in
  Pmem.set_u8 pool (leaf + 7) 5;
  Pmem.persist pool ~off:leaf ~len:8;
  match Hart.check_integrity h with
  | () -> Alcotest.fail "desynchronised bitmap mirror not caught"
  | exception Failure msg ->
      Alcotest.(check string) "names the slot"
        (Printf.sprintf "leaf slot %d stores key length 5 but its mirror bit is false" leaf)
        msg

(* Stray stores of length bytes on a live store, with the ECC sealed
   over them. The allocator's DRAM bitmap, not the PM byte, says which
   slots are live, so fsck restores a live leaf whose length byte reads
   0 from the index, keeping its value pointer, and clears the length
   byte of a free slot that reads live; it neither severs nor
   quarantines. Both repairs survive a crash. *)
let test_fsck_stray_length_bytes () =
  List.iter
    (fun checksums ->
      let h, pool, model = populate_hart ~checksums () in
      let victim = List.nth (leaf_offsets h) 5 in
      let key = Leaf.key pool ~leaf:victim and value = Leaf.p_value pool ~leaf:victim in
      let chunk, free, _ = chunk_slots h Chunk.Leaf_c in
      let stray = Chunk.obj_off Chunk.Leaf_c ~chunk ~idx:free in
      List.iter
        (fun (leaf, len) ->
          Pmem.set_u8 pool (leaf + 7) len;
          Pmem.persist pool ~off:leaf ~len:8)
        [ (victim, 0); (stray, 3) ];
      let what s = Printf.sprintf "%s%s" s (if checksums then ", checksummed" else "") in
      let site leaf =
        let chunk = Epalloc.chunk_of_obj (Hart.alloc h) Chunk.Leaf_c leaf in
        let idx = Chunk.idx_of_obj Chunk.Leaf_c ~chunk ~obj:leaf in
        Format.asprintf "%a" Hart_error.pp_site (Hart_error.Leaf_slot { chunk; idx; leaf })
      in
      Alcotest.(check (list string)) (what "fsck repairs both")
        (List.sort compare
           [
             site victim ^ ": live leaf's length byte restored from the index";
             site stray ^ ": free leaf slot's length byte cleared";
           ])
        (List.sort compare
           (List.map
              (fun (f : Hart_error.finding) ->
                Format.asprintf "%a: %s" Hart_error.pp_site f.f_site f.f_detail)
              (Hart.fsck h)));
      Alcotest.(check int) (what "the value pointer kept") value (Leaf.p_value pool ~leaf:victim);
      Alcotest.(check (option string)) (what "the key reads its value")
        (SMap.find_opt key model) (Hart.search h key);
      Hart.check_integrity h;
      Alcotest.(check int) (what "fsck converges") 0 (List.length (Hart.fsck h));
      Pmem.crash pool;
      let h' = Hart.recover pool in
      Hart.check_integrity h';
      Alcotest.(check (list (pair string string))) (what "recovered") (SMap.bindings model)
        (dump_hart h'))
    [ false; true ]

(* A value chunk's bitmap lives only in the allocator's DRAM mirror:
   nothing reads the unused first word of its prologue, where earlier
   layouts kept a PM bitmap, and recovery rebuilds the mirror from what
   the leaves and owning free slots name. So a crashed image mounts the
   same whatever that word holds: zero, as this version leaves it, the
   chunk's bitmap, all ones, or zero again. Each gives the same
   bindings, statistics and integrity. *)
let test_value_headers_never_read () =
  let h, pool, model = populate_hart () in
  List.iteri
    (fun i (key, value) ->
      if i mod 5 = 2 then assert (Hart.update h ~key ~value:("u" ^ value)))
    (SMap.bindings model);
  let committed = ref [] in
  let alloc = Hart.alloc h in
  List.iter
    (fun cls ->
      Epalloc.iter_chunks alloc cls (fun chunk ->
          committed := (chunk, Epalloc.committed_bits alloc cls ~chunk) :: !committed))
    [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ];
  Alcotest.(check bool) "the store has value chunks" true (List.length !committed >= 3);
  let live = dump_hart h in
  Pmem.crash pool;
  let mount ~header =
    let p = Pmem.clone pool in
    List.iter
      (fun (chunk, bits) ->
        Pmem.set_u64 p chunk (header bits);
        Pmem.persist p ~off:chunk ~len:8)
      !committed;
    let h = Hart.recover p in
    Hart.check_integrity h;
    (dump_hart h, Format.asprintf "%a" Hart_core.Hart_stats.pp (Hart_core.Hart_stats.collect h))
  in
  let bindings, stats = mount ~header:(fun _ -> 0L) in
  Alcotest.(check (list (pair string string))) "bindings" live bindings;
  List.iter
    (fun (what, header) ->
      let b, st = mount ~header in
      Alcotest.(check (list (pair string string))) (what ^ ": bindings") bindings b;
      Alcotest.(check string) (what ^ ": stats") stats st)
    [
      ("headers as the mirror", Int64.of_int);
      ("all ones", fun _ -> -1L);
      ("zero", fun _ -> 0L);
    ]

(* k seeded media faults into a populated pool: a quarantining mount
   plus fsck must partition every finding into {repaired, quarantined,
   detected}, serve only model-correct bindings, and report any loss —
   or refuse the mount with a typed error. Silent wrong answers fail.  *)
let qcheck_media_fsck_partition =
  QCheck.Test.make ~count:30 ~name:"media faults: fsck report partitions"
    QCheck.(triple (int_bound 0xFFFF) (int_range 1 6) bool)
    (fun (seed, k, checksums) ->
      let h0, pool, model = populate_hart ~checksums () in
      ignore h0;
      Pmem.persist_all pool;
      Pmem.crash pool;
      let rng = Rng.create (Int64.of_int (0x5EED0000 + seed)) in
      let lines = max 3 (Pmem.live_bytes pool / Pmem.line_bytes) in
      for _ = 1 to k do
        let line = 1 + Rng.int rng (lines - 1) in
        let fault =
          match Rng.int rng 5 with
          | 0 ->
              Pmem.Flip_bit
                {
                  off = (line * Pmem.line_bytes) + Rng.int rng Pmem.line_bytes;
                  bit = Rng.int rng 8;
                }
          | 1 -> Pmem.Flip_bits { seed = Rng.next64 rng; flips = 1 + Rng.int rng 4 }
          | 2 -> Pmem.Clobber_line { line; seed = Rng.next64 rng }
          | 3 -> Pmem.Stuck_line { line }
          | _ -> Pmem.Poison_line { line }
        in
        Pmem.inject_media_fault pool fault
      done;
      match Hart.recover ~quarantine:true pool with
      | exception Hart_error.Error _ -> true (* typed refusal = detected *)
      | exception Pmem.Media_poisoned _ -> true
      | h -> (
          try
            let findings = Hart.quarantines h @ Hart.fsck h in
            let repaired, quarantined, detected =
              Hart_error.partition findings
            in
            if
              List.length repaired + List.length quarantined
              + List.length detected
              <> List.length findings
            then QCheck.Test.fail_report "partition is not total";
            Hart.iter h (fun key value ->
                match SMap.find_opt key model with
                | Some v when v = value -> ()
                | Some v ->
                    QCheck.Test.fail_reportf "key %S: got %S, want %S" key
                      value v
                | None -> QCheck.Test.fail_reportf "fabricated key %S" key);
            let lost =
              SMap.fold
                (fun key _ acc ->
                  if Hart.search h key = None then key :: acc else acc)
                model []
            in
            if lost <> [] && quarantined = [] && detected = [] then
              QCheck.Test.fail_reportf
                "%d keys lost but nothing quarantined or detected"
                (List.length lost);
            Hart.check_integrity h;
            true
          with
          | Hart_error.Error _ | Pmem.Media_poisoned _ ->
              true (* typed mid-walk detection is an accepted outcome *)))

(* Findings pin for the media-repair path. Two pools (plain and
   checksummed), each churned by [populate_hart] (owning free slots),
   then by updates, then cut by a crash inside a leaf-chunk recycle (a
   pending recycle record; the chunk's owned values are still committed
   and nothing names them, so the mount's liveness pass frees them).
   Every site is one media fault (all five kinds) on one line class:
   the log region's lines (a pending and an idle recycle slot), chunk
   prologues, a live leaf, a live value, an owning free slot, the value
   it owns, chunk padding and unregistered pool space. At rest the
   fault hits the crashed image before the quarantining mount; online
   it hits the mounted store before fsck. Either way one quarantining
   run repairs it, and each site renders that run's typed refusal or
   its findings ("found"), then those of a second fsck ("again"), the
   sorted bindings and an MD5 of the durable image; the MD5 of the
   whole rendering is pinned. [PIN_DUMP=1 dune exec test/test_core.exe]
   prints the rendering, then the MD5 to pin. *)
let media_pin_base ~checksums =
  let h, pool, model = populate_hart ~checksums () in
  List.iteri
    (fun i (key, value) ->
      if i mod 7 = 3 then assert (Hart.update h ~key ~value:("u" ^ value)))
    (SMap.bindings model);
  Pmem.persist_all pool;
  Pmem.crash pool;
  (* delete in leaf-offset order, so the lowest leaf chunk empties, and
     crash at the first flush that leaves its recycle record pending *)
  let rec cut k =
    let p = Pmem.clone pool in
    let h = Hart.recover p in
    let victims = List.map (fun leaf -> Leaf.key p ~leaf) (leaf_offsets h) in
    let recycled =
      Epalloc.chunk_of_obj (Hart.alloc h) Chunk.Leaf_c (List.hd (leaf_offsets h))
    in
    Pmem.arm_crash p ~after_flushes:k;
    match List.iter (fun key -> ignore (Hart.delete h key : bool)) victims with
    | () -> Alcotest.failf "no recycle record pending after %d flushes" k
    | exception Pmem.Crash_injected ->
        Pmem.disarm_crash p;
        if recycle_pending ~checksums p then (p, recycled) else cut (k + 1)
  in
  let base, recycled = cut 1 in
  (base, recycled)

let media_pin_lines base ~recycled =
  let h = Hart.recover (Pmem.clone base) in
  let alloc = Hart.alloc h and pool = Hart.pool h in
  let line off = off / Pmem.line_bytes in
  let prologues = Hashtbl.create 16 in
  List.iter
    (fun cls ->
      Epalloc.iter_chunks alloc cls (fun chunk ->
          Hashtbl.replace prologues (line chunk) ()))
    Chunk.all_classes;
  let off_prologue offs =
    List.find (fun off -> not (Hashtbl.mem prologues (line off))) offs
  in
  let first cls =
    let c = ref 0 in
    Epalloc.iter_chunks alloc cls (fun chunk -> if !c = 0 then c := chunk);
    !c
  in
  let leaves = leaf_offsets h in
  let live_leaf =
    off_prologue (List.filteri (fun i _ -> i >= List.length leaves / 2) leaves)
  in
  let owners = ref [] in
  Epalloc.iter_owned alloc (fun ~leaf -> owners := leaf :: !owners);
  let owner = off_prologue (List.rev !owners) in
  let logs = Epalloc.logs alloc in
  let slot slot = Microlog.slot_offset logs ~slot in
  let base_logs =
    Microlog.attach ~checksummed:(Hart.checksums h) base
      ~base:(Epalloc.root_off + Pmem.line_bytes)
  in
  let pending, idle =
    List.partition
      (fun slot -> Microlog.pcurrent base_logs ~slot <> 0)
      (List.init Microlog.n_slots Fun.id)
  in
  let unregistered = recycled + (10 * Pmem.line_bytes) in
  assert (Epalloc.chunk_covering alloc unregistered = None);
  [
    ("log-pending", line (slot (List.hd pending)));
    ("log-idle", line (slot (List.hd idle)));
    ("prologue-leaf", line (first Chunk.Leaf_c));
    ("prologue-val32", line (first Chunk.Val32));
    ("live-leaf", line live_leaf);
    ( "live-value",
      line (off_prologue (List.map (fun leaf -> Leaf.p_value pool ~leaf) leaves)) );
    ("owning-slot", line owner);
    ("owned-value", line (Leaf.p_value pool ~leaf:owner));
    ("val8-padding", line (first Chunk.Val8 + Chunk.chunk_bytes Chunk.Val8 - 1));
    ("unregistered", line unregistered);
  ]

let media_pin_faults rng line =
  [
    ( "flip-bit",
      Pmem.Flip_bit
        {
          off = (line * Pmem.line_bytes) + Rng.int rng Pmem.line_bytes;
          bit = Rng.int rng 8;
        } );
    ("clobber", Pmem.Clobber_line { line; seed = Rng.next64 rng });
    ("stuck", Pmem.Stuck_line { line });
    ("poison", Pmem.Poison_line { line });
  ]

let media_pin_render () =
  let b = Buffer.create (1 lsl 20) in
  let findings = ref [] in
  let out fmt = Printf.bprintf b fmt in
  let show what fs =
    List.iter
      (fun (f : Hart_error.finding) ->
        findings := (what, f) :: !findings;
        out "%s: %s\n" what (Format.asprintf "%a" Hart_error.pp_finding f))
      fs
  in
  let image pool =
    let path = Filename.temp_file "media_pin" ".pm" in
    Pmem.save pool path;
    let d = Digest.to_hex (Digest.file path) in
    Sys.remove path;
    d
  in
  let dump h =
    (match Hart.fsck h with
    | fs -> show "again" fs
    | exception Hart_error.Error e -> out "again raised: %s\n" (Hart_error.to_string e)
    | exception Pmem.Media_poisoned { line; _ } ->
        out "again raised: poisoned line %d\n" line
    | exception Invalid_argument m -> out "again raised: %s\n" m);
    (match dump_hart h with
    | bs ->
        out "bindings: %s\n"
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) bs))
    | exception Pmem.Media_poisoned { line; _ } ->
        out "bindings raised: poisoned line %d\n" line
    | exception Invalid_argument m -> out "bindings raised: %s\n" m);
    out "image: %s\n" (image (Hart.pool h))
  in
  List.iter
    (fun checksums ->
      let base, recycled = media_pin_base ~checksums in
      let rng = Rng.create (if checksums then 0xC5L else 0x9AL) in
      let sites =
        List.concat_map
          (fun (what, line) ->
            List.map
              (fun (kind, fault) -> (what ^ "/" ^ kind, fault))
              (media_pin_faults rng line))
          (media_pin_lines base ~recycled)
        @ List.init 2 (fun i ->
              ( Printf.sprintf "flip-bits#%d" i,
                Pmem.Flip_bits { seed = Rng.next64 rng; flips = 2 + i } ))
      in
      List.iter
        (fun phase ->
          List.iter
            (fun (site, fault) ->
              out "== %s %s %s\n"
                (if checksums then "checksummed" else "plain")
                phase site;
              let pool = Pmem.clone base in
              if phase = "at-rest" then Pmem.inject_media_fault pool fault;
              match Hart.recover ~quarantine:true pool with
              | exception Hart_error.Error e ->
                  out "mount refused: %s\n" (Hart_error.to_string e)
              | exception Pmem.Media_poisoned { line; _ } ->
                  out "mount refused: poisoned line %d\n" line
              | h ->
                  if phase = "at-rest" then show (phase ^ " found") (Hart.quarantines h)
                  else begin
                    show "mount" (Hart.quarantines h);
                    Pmem.inject_media_fault pool fault;
                    match Hart.fsck h with
                    | fs -> show (phase ^ " found") fs
                    | exception Hart_error.Error e ->
                        out "fsck raised: %s\n" (Hart_error.to_string e)
                    | exception Pmem.Media_poisoned { line; _ } ->
                        out "fsck raised: poisoned line %d\n" line
                    | exception Invalid_argument m -> out "fsck raised: %s\n" m
                  end;
                  dump h)
            sites)
        [ "at-rest"; "online" ])
    [ false; true ];
  (Buffer.contents b, List.rev !findings)

let () =
  if Sys.getenv_opt "PIN_DUMP" <> None then begin
    let rendering = fst (media_pin_render ()) in
    print_string rendering;
    Printf.printf "media findings pin: %S\n"
      (Digest.to_hex (Digest.string rendering));
    exit 0
  end

let test_media_findings_pinned () =
  let rendering, findings = media_pin_render () in
  let details = List.map (fun (_, (f : Hart_error.finding)) -> f.f_detail) findings in
  List.iter
    (fun d ->
      if not (List.mem d details) then Alcotest.failf "no site produces %S" d)
    [
      "pending log record on corrupt media discarded (treated as never committed)";
      "idle log slot rewritten to zero (line resealed)";
      "free leaf slot on a corrupt media line (length byte untrustworthy)";
      "unreferenced committed value on corrupt line reclaimed";
      "prologue line rewritten from the live registry";
      "corrupt line touched only free slots/padding — zeroed and resealed";
      "unreferenced pool line zeroed and resealed";
      "line still fails ECC after repair (stuck-at media: writes do not take)";
    ];
  List.iter
    (fun who ->
      if
        not
          (List.exists
             (fun (w, (f : Hart_error.finding)) ->
               w = who
               && f.f_action = Hart_error.Quarantined
               && match f.f_site with Hart_error.Leaf_slot _ -> true | _ -> false)
             findings)
      then Alcotest.failf "no leaf quarantined %s" who)
    [ "at-rest found"; "online found" ];
  Alcotest.(check string)
    "rendering md5" "35ec101e5b1e1c3c1d7f31458d19c8cd"
    (Digest.to_hex (Digest.string rendering))

(* One media fault on the churned pool of the pin above (owning free
   slots, a pending recycle record), on a seeded PM line, of each of
   the five kinds, at rest (before the quarantining mount) or online
   (after it, before fsck). The mount returns or refuses with a typed
   error; fsck returns and leaves a store that passes
   [check_integrity]; a second fsck finds nothing but the stuck line; no
   key reads a value it was not given; and every key of the
   crash-consistent state that no finding names reads its value.
   Online that covers every lost key: fsck names each key the live
   index bound. At rest a key whose bytes the fault destroyed cannot be
   named, and counts against its finding's capacity instead, as in the
   media sweep's oracle. *)
let media_fsck_bases =
  lazy
    (List.map
       (fun checksums ->
         let base, _ = media_pin_base ~checksums in
         (checksums, base, dump_hart (Hart.recover (Pmem.clone base))))
       [ false; true ])

let stuck_detail = "line still fails ECC after repair (stuck-at media: writes do not take)"

let qcheck_media_fsck_converges =
  QCheck.Test.make ~count:300 ~name:"one media fault, at rest or online: fsck converges"
    QCheck.(quad bool (int_bound 0xFFFF) (int_bound 4) bool)
    (fun (checksums, pick, kind, online) ->
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let _, base, model =
        List.find (fun (c, _, _) -> c = checksums) (Lazy.force media_fsck_bases)
      in
      let pool = Pmem.clone base in
      let line = 1 + (pick mod ((Pmem.live_bytes base / Pmem.line_bytes) - 1)) in
      let rng = Rng.create (Int64.of_int pick) in
      let what, fault =
        List.nth
          (media_pin_faults rng line
          @ [ ("flip-bits", Pmem.Flip_bits { seed = Rng.next64 rng; flips = 1 + Rng.int rng 4 }) ]
          )
          kind
      in
      let stuck (f : Hart_error.finding) =
        what = "stuck" && f.f_action = Detected && f.f_detail = stuck_detail
        && f.f_site = Pool_line { line }
      in
      if not online then Pmem.inject_media_fault pool fault;
      match Hart.recover ~quarantine:true pool with
      | exception Hart_error.Error _ when not online -> true
      | h ->
          let found = Hart.quarantines h in
          if online then begin
            if found <> [] then fail "the clean mount found %d" (List.length found);
            Pmem.inject_media_fault pool fault
          end;
          let found = found @ Hart.fsck h in
          (match Hart.check_integrity h with
          | () -> ()
          | exception Failure m -> fail "integrity after fsck: %s" m);
          List.iter
            (fun f ->
              if not (stuck f) then
                fail "second fsck: %s" (Format.asprintf "%a" Hart_error.pp_finding f))
            (Hart.fsck h);
          let got = dump_hart h in
          List.iter
            (fun (k, v) ->
              if List.assoc_opt k model <> Some v then fail "key %S reads %S" k v)
            got;
          let named = List.concat_map (fun (f : Hart_error.finding) -> f.f_keys) found in
          let lost =
            List.filter
              (fun (k, v) -> List.assoc_opt k got <> Some v && not (List.mem k named))
              model
          in
          let residual =
            if online then 0
            else
              List.fold_left
                (fun a (f : Hart_error.finding) -> a + max 0 (f.f_capacity - List.length f.f_keys))
                0 found
          in
          if List.length lost > residual then
            fail "%d key(s) lost with no finding naming them: %s" (List.length lost)
              (String.concat "," (List.map fst lost));
          true)

(* ------------------------------------------------------------------ *)
(* Allocation pins: the request path allocates nothing but its result.
   The key is hashed and compared in place all the way down (directory,
   ART, and the leaf on PM), the descent builds no closure, and the
   stripe lock takes no closure either (DESIGN.md §9).                 *)

let alloc_calls = 10_000

(* Minor words per call of [f], beyond [result] words per call for what
   it returns *)
let check_alloc_free name ~result f =
  f 0 (* warm: first-touch effects stay out of the count *);
  let before = Gc.minor_words () in
  for i = 1 to alloc_calls do
    f i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int alloc_calls in
  Alcotest.(check (float 0.)) (name ^ ": words/call beyond the result") 0.
    (Float.round (words -. float_of_int result))

let alloc_keys = Array.init 256 (fun i -> Printf.sprintf "alloc%05d" (i * 37))
let alloc_value = "val0007"

(* words of a hit's [Some value] *)
let hit_words = Obj.reachable_words (Obj.repr (Some alloc_value))

let preloaded insert =
  Array.iter (fun key -> insert ~key ~value:alloc_value) alloc_keys

let test_alloc_hart_search () =
  let h, _ = fresh_hart () in
  preloaded (Hart.insert h);
  check_alloc_free "Hart.search hit" ~result:hit_words (fun i ->
      ignore (Hart.search h alloc_keys.(i land 255) : string option))

let test_alloc_hart_update () =
  let h, _ = fresh_hart () in
  preloaded (Hart.insert h);
  check_alloc_free "Hart.update in place" ~result:0 (fun i ->
      ignore (Hart.update h ~key:alloc_keys.(i land 255) ~value:alloc_value : bool))

let test_alloc_hart_mt_search () =
  let h = Hart_mt.create (fresh_pool ()) in
  preloaded (Hart_mt.insert h);
  check_alloc_free "Hart_mt.search hit" ~result:hit_words (fun i ->
      ignore (Hart_mt.search h alloc_keys.(i land 255) : string option))

let test_alloc_hart_mt_insert () =
  let h = Hart_mt.create (fresh_pool ()) in
  preloaded (Hart_mt.insert h);
  check_alloc_free "Hart_mt.insert of a bound key" ~result:0 (fun i ->
      Hart_mt.insert h ~key:alloc_keys.(i land 255) ~value:alloc_value)

let () =
  Alcotest.run "core"
    [
      ( "hash_dir",
        [
          Alcotest.test_case "basic" `Quick test_dir_basic;
          Alcotest.test_case "remove" `Quick test_dir_remove;
          Alcotest.test_case "grows" `Quick test_dir_grows;
          Alcotest.test_case "hash matches Int64 FNV-1a" `Quick test_dir_hash_matches_int64;
          QCheck_alcotest.to_alcotest qcheck_dir_vs_hashtbl;
        ] );
      ( "chunk",
        [
          Alcotest.test_case "classes and sizes" `Quick test_chunk_classes;
          Alcotest.test_case "pnext durable" `Quick test_chunk_pnext;
          Alcotest.test_case "iter_slots" `Quick test_chunk_iter_slots;
          Alcotest.test_case "freed space returns to its own class" `Quick
            test_chunk_space_per_class;
          Alcotest.test_case "reused leaf chunk: free slots own nothing" `Quick
            test_chunk_reused_space_free;
        ] );
      ( "epalloc",
        [
          Alcotest.test_case "distinct objects" `Quick test_epalloc_distinct_objects;
          Alcotest.test_case "no double hand-out" `Quick test_epalloc_no_double_handout;
          Alcotest.test_case "slot reuse after reset" `Quick test_epalloc_slot_reuse_after_reset;
          Alcotest.test_case "chunk_of_obj" `Quick test_epalloc_chunk_of_obj;
          Alcotest.test_case "class_of_value_obj" `Quick test_epalloc_class_of_value_obj;
          Alcotest.test_case "recycle returns space" `Quick test_eprecycle_returns_space;
          Alcotest.test_case "recycle mid-list" `Quick test_eprecycle_middle_of_list;
          Alcotest.test_case "recycle refuses non-empty" `Quick test_eprecycle_refuses_nonempty;
          Alcotest.test_case "recycle cost independent of list length" `Quick
            test_eprecycle_cost_independent_of_length;
          Alcotest.test_case "registration cost independent of registry size" `Quick
            test_epalloc_registration_cost;
          QCheck_alcotest.to_alcotest qcheck_free_slot_matches_scan;
          Alcotest.test_case "attach rebuilds" `Quick test_epalloc_attach_rebuilds;
          Alcotest.test_case "attach rejects garbage" `Quick test_epalloc_attach_rejects_garbage;
          Alcotest.test_case "leaf slot repair" `Quick test_epalloc_leaf_repair;
          QCheck_alcotest.to_alcotest qcheck_epalloc_model;
          Alcotest.test_case "only an update takes the spare" `Quick
            test_epalloc_spare_rule;
          Alcotest.test_case "bit changes store nothing to PM" `Quick
            test_epalloc_bits_store_no_pm;
          Alcotest.test_case "recovery rebuilds every mirror word" `Quick
            test_epalloc_recovery_rebuilds_words;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "leaf" `Quick test_leaf_codec;
          Alcotest.test_case "leaf key limit" `Quick test_leaf_key_limit;
          Alcotest.test_case "value object" `Quick test_value_codec;
          Alcotest.test_case "single-access readers = field reads" `Quick
            test_reader_equivalence;
          Alcotest.test_case "Leaf.read touches one line" `Quick test_leaf_read_one_line;
          Alcotest.test_case "leaf read rejects bad length" `Quick
            test_leaf_read_rejects_bad_length;
        ] );
      ( "microlog",
        [
          Alcotest.test_case "roundtrip" `Quick test_microlog_roundtrip;
          Alcotest.test_case "durability" `Quick test_microlog_durability;
          Alcotest.test_case "recycle class tag" `Quick test_microlog_recycle_class;
          Alcotest.test_case "one line per record" `Quick
            test_microlog_one_line_per_record;
          Alcotest.test_case "a record in any slot is replayed" `Quick
            test_microlog_any_slot_replayed;
        ] );
      ( "hart",
        [
          Alcotest.test_case "insert/search" `Quick test_hart_insert_search;
          Alcotest.test_case "insert is upsert" `Quick test_hart_insert_is_upsert;
          Alcotest.test_case "update" `Quick test_hart_update;
          Alcotest.test_case "update changes size class" `Quick test_hart_update_changes_class;
          Alcotest.test_case "delete" `Quick test_hart_delete;
          Alcotest.test_case "delete frees empty ART" `Quick test_hart_delete_frees_empty_art;
          Alcotest.test_case "short keys" `Quick test_hart_short_keys;
          Alcotest.test_case "key/value limits" `Quick test_hart_key_limits;
          Alcotest.test_case "empty value" `Quick test_hart_empty_value;
          Alcotest.test_case "split_key" `Quick test_hart_split_key;
          Alcotest.test_case "kh variants" `Quick test_hart_kh_variants;
          Alcotest.test_case "cross-ART range" `Quick test_hart_range;
          Alcotest.test_case "range: keys shorter than kh" `Quick
            test_range_short_keys;
          Alcotest.test_case "range: hash-prefix bounds" `Quick
            test_range_hash_prefix_bounds;
          Alcotest.test_case "range: lo = hi" `Quick test_range_lo_eq_hi;
          Alcotest.test_case "range/min/max after ART cleanup" `Quick
            test_range_after_art_cleanup;
          Alcotest.test_case "iter" `Quick test_hart_iter;
          Alcotest.test_case "fold/min/max" `Quick test_hart_fold_min_max;
          Alcotest.test_case "stats" `Quick test_hart_stats;
          Alcotest.test_case "memory accounting" `Quick test_hart_memory_accounting;
          Alcotest.test_case "pm-node ablation leaks nothing" `Quick
            test_hart_pm_nodes_accounted;
          Alcotest.test_case "persist calls per op" `Quick test_hart_persists_per_op;
          Alcotest.test_case "pm reads per op" `Quick test_hart_reads_per_op;
          Alcotest.test_case "cold read misses" `Quick test_hart_cold_read_misses;
          Alcotest.test_case "write-path pm reads" `Quick test_hart_write_path_reads;
          QCheck_alcotest.to_alcotest qcheck_hart_vs_map;
          Alcotest.test_case "value chunks keep their spares" `Quick
            test_hart_spares_after_updates;
        ] );
      ( "crash",
        [
          Alcotest.test_case "insert crash sweep" `Quick test_insert_crash_sweep;
          Alcotest.test_case "update crash sweep" `Quick test_update_crash_sweep;
          Alcotest.test_case "delete crash sweep" `Quick test_delete_crash_sweep;
          Alcotest.test_case "recycle crash sweep" `Quick test_recycle_crash_sweep;
          Alcotest.test_case "update: crash between p_value and bits" `Quick
            test_update_p_value_windows;
          Alcotest.test_case "recycle: crash between unlink and value resets" `Quick
            test_recycle_unlink_window;
          Alcotest.test_case "take-over across classes: crash around the leaf store"
            `Quick test_takeover_class_window;
          Alcotest.test_case "leaf store order: every word prefix" `Quick
            test_leaf_store_order;
          Alcotest.test_case "updates: quiescent recovery" `Quick
            test_updates_quiescent_recovery;
          Alcotest.test_case "rlog head unlink" `Quick test_rlog_recovery_head_unlink;
          Alcotest.test_case "delete crash matrix (3-level)" `Quick
            test_delete_crash_matrix;
          Alcotest.test_case "recycle-log crash matrix (mid-list)" `Quick
            test_recycle_log_crash_matrix;
          QCheck_alcotest.to_alcotest qcheck_crash_anywhere;
          Alcotest.test_case "take-over in place: crash around the leaf store" `Quick
            test_takeover_in_place_window;
          Alcotest.test_case "lone key's delete: crash at every flush" `Quick
            test_lone_delete_crash_sweep;
          Alcotest.test_case "update store order: every word prefix" `Quick
            test_update_store_order;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty pool" `Quick test_recover_empty;
          Alcotest.test_case "kh persisted" `Quick test_recover_preserves_kh;
          Alcotest.test_case "recover then operate" `Quick test_recover_then_operate;
          Alcotest.test_case "double recovery" `Quick test_double_recovery;
          Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
          Alcotest.test_case "eviction robustness" `Quick test_eviction_does_not_break_protocol;
          Alcotest.test_case "pool image reboot cycle" `Quick test_pool_image_reboot_cycle;
          Alcotest.test_case "v01 root refused" `Quick test_v01_root_refused;
          Alcotest.test_case "v02 root refused" `Quick test_v02_root_refused;
          Alcotest.test_case "invalid key length refused" `Quick
            test_invalid_key_length_refused;
          Alcotest.test_case "redirected value pointer" `Quick
            test_redirected_value_pointer;
          QCheck_alcotest.to_alcotest qcheck_hart_recovery;
          Alcotest.test_case "recover: every meter field pinned" `Quick
            test_recover_cost_pinned;
          Alcotest.test_case "crash during recycle-log replay" `Quick
            test_crash_during_recycle_replay;
          Alcotest.test_case "duplicate committed leaf refused" `Quick
            test_duplicate_leaf_refused;
        ] );
      ( "parallel-recovery",
        [
          Alcotest.test_case "empty pool" `Quick test_parallel_recover_empty;
          Alcotest.test_case "mixed pool" `Quick test_parallel_recover_mixed;
          Alcotest.test_case "churned pool" `Quick test_parallel_recover_churned;
          Alcotest.test_case "short keys, kh=3" `Quick test_parallel_recover_short_keys;
          Alcotest.test_case "update crashed after its value's flush" `Quick
            test_parallel_recover_update_crash;
          Alcotest.test_case "validation" `Quick test_parallel_recover_validation;
          Alcotest.test_case "quarantining, media-faulted pool" `Quick
            test_parallel_recover_media_faulted;
          Alcotest.test_case "bulk build equals the insert-built store" `Quick
            test_parallel_recover_equals_insert_built;
        ] );
      ( "recover-roundtrip",
        [
          Alcotest.test_case "all indexes: empty" `Quick test_recover_roundtrip_empty;
          Alcotest.test_case "all indexes: single key" `Quick
            test_recover_roundtrip_single_key;
          Alcotest.test_case "all indexes: mixed ops" `Quick
            test_recover_roundtrip_mixed;
          Alcotest.test_case "all indexes: corrupt image rejected" `Quick
            test_image_corruption_all_indexes;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean store" `Quick test_fsck_clean_store;
          Alcotest.test_case "checksummed round-trip" `Quick
            test_checksummed_roundtrip;
          Alcotest.test_case "unrepairable leaf quarantined" `Quick
            test_unrepairable_leaf_quarantined;
          Alcotest.test_case "bitmap mirror desync caught" `Quick
            test_mirror_desync_caught;
          Alcotest.test_case "stray length bytes repaired" `Quick
            test_fsck_stray_length_bytes;
          Alcotest.test_case "value-chunk PM headers are never read" `Quick
            test_value_headers_never_read;
          QCheck_alcotest.to_alcotest qcheck_media_fsck_partition;
          Alcotest.test_case "media findings pinned" `Quick test_media_findings_pinned;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "rwlock exclusion" `Quick test_rwlock_exclusion;
          Alcotest.test_case "rwlock blocks readers" `Quick test_rwlock_writer_blocks_readers;
          Alcotest.test_case "rwlock counter race" `Quick test_rwlock_counter_race;
          Alcotest.test_case "hart_mt basic" `Quick test_hart_mt_basic;
          Alcotest.test_case "hart_mt concurrent inserts" `Quick test_hart_mt_concurrent_inserts;
          Alcotest.test_case "hart_mt mixed stress" `Quick test_hart_mt_mixed_stress;
          Alcotest.test_case "hart_mt lock mapping" `Quick test_hart_mt_lock_mapping;
        ] );
      ( "alloc-free",
        [
          Alcotest.test_case "Hart.search hit" `Quick test_alloc_hart_search;
          Alcotest.test_case "Hart.update in place" `Quick test_alloc_hart_update;
          Alcotest.test_case "Hart_mt.search hit" `Quick test_alloc_hart_mt_search;
          Alcotest.test_case "Hart_mt.insert of a bound key" `Quick test_alloc_hart_mt_insert;
        ] );
      ( "media-fsck",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x3ED1A |])
            qcheck_media_fsck_converges;
        ] );
    ]
