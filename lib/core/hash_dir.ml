module Meter = Hart_pmem.Meter

(* [found] is [Some payload], built once when the slot is filled, so a
   hit returns it without allocating. *)
type 'a slot = Empty | Occupied of { key : string; payload : 'a; found : 'a option }

let occupied key payload = Occupied { key; payload; found = Some payload }

type 'a table = {
  slots : 'a slot Atomic.t array;
  mask : int;  (* bucket count - 1, power of two *)
  addr : int;  (* synthetic DRAM address of the bucket array *)
}

(* Reads are lock-free: [find] probes a snapshot of the atomically
   published [table]. Single-slot mutations (fresh insert, replace,
   resize-and-publish) are atomic and need no reader coordination; the
   only in-place multi-slot mutation is [remove]'s backward-shift, which
   briefly breaks probe chains, so it runs under a seqlock: [version] is
   odd while a shift is in flight and readers retry until they observe a
   stable even version. Writers serialise on [writer]. In single-domain
   runs the version never changes mid-probe, so the probe (and its
   metering) is identical to the pre-concurrent implementation. *)
type 'a t = {
  meter : Meter.t option;
  table : 'a table Atomic.t;
  version : int Atomic.t;
  writer : Mutex.t;
  mutable occupied : int;  (* guarded by [writer]; racy reads are advisory *)
}

let slot_bytes = 16 (* modelled C bucket: 8-byte key word + 8-byte pointer *)

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 16

let alloc_addr meter buckets =
  match meter with Some m -> Meter.dram_alloc m (buckets * slot_bytes) | None -> 0

let make_table meter buckets =
  {
    slots = Array.init buckets (fun _ -> Atomic.make Empty);
    mask = buckets - 1;
    addr = alloc_addr meter buckets;
  }

let create ?meter ?(initial_buckets = 1024) () =
  let buckets = round_pow2 initial_buckets in
  {
    meter;
    table = Atomic.make (make_table meter buckets);
    version = Atomic.make 0;
    writer = Mutex.create ();
    occupied = 0;
  }

let length t = t.occupied

(* 64-bit FNV-1a, folded to the positive int range. Computed in native
   63-bit ints: the low k bits of a product or xor depend only on the
   low k bits of the operands, so starting from the offset basis's low
   62 bits and keeping the result's low 62 bits ([land max_int]) gives
   exactly the Int64 hash's folded value — without boxing. *)
let hash_prefix key len =
  let h = ref 0x0bf29ce484222325 in
  for i = 0 to min len (String.length key) - 1 do
    h := (!h lxor Char.code (String.unsafe_get key i)) * 0x100000001b3
  done;
  !h land max_int

let hash key = hash_prefix key (String.length key)

let touch t tab slot ~write =
  match t.meter with
  | None -> ()
  | Some m -> Meter.access m Dram ~addr:(tab.addr + (slot * slot_bytes)) ~write

(* Do the first [n] bytes of [key] spell [k]? In place. *)
let rec same_from k key n i =
  i = n || (String.unsafe_get k i = String.unsafe_get key i && same_from k key n (i + 1))

let same_prefix k key n =
  String.length k = n && if n = String.length key then String.equal k key else same_from k key n 0

(* The lock-free probe for the first [n] bytes of [key]: the [found] of
   their slot, or [None] at the first empty slot on their chain. It
   decides from the one cell it reads per slot, since a concurrent
   fresh insert can fill an empty slot without bumping [version].
   Top-level recursion, so a probe builds no closure. *)
let rec lookup_from t tab key n i =
  touch t tab i ~write:false;
  match Atomic.get tab.slots.(i) with
  | Empty -> None
  | Occupied { key = k; found; _ } ->
      if same_prefix k key n then found else lookup_from t tab key n ((i + 1) land tab.mask)

(* The writers' probe, under [t.writer]: [key]'s slot, or the first
   empty slot on its chain. No other writer can fill a slot meanwhile,
   so the caller may read the slot again. Same touches as [lookup_from]. *)
let rec probe_from t tab key i =
  touch t tab i ~write:false;
  match Atomic.get tab.slots.(i) with
  | Empty -> i
  | Occupied { key = k; _ } ->
      if String.equal k key then i else probe_from t tab key ((i + 1) land tab.mask)

let probe t tab key = probe_from t tab key (hash key land tab.mask)

let rec find_prefix t key n =
  let v0 = Atomic.get t.version in
  if v0 land 1 = 1 then begin
    Domain.cpu_relax ();
    find_prefix t key n
  end
  else
    let tab = Atomic.get t.table in
    let n = if n < String.length key then n else String.length key in
    let r = lookup_from t tab key n (hash_prefix key n land tab.mask) in
    if Atomic.get t.version <> v0 then find_prefix t key n else r

let find t key = find_prefix t key (String.length key)

(* callers hold [t.writer] *)
let rec insert_locked t key payload =
  let tab = Atomic.get t.table in
  let i = probe t tab key in
  match Atomic.get tab.slots.(i) with
  | Occupied _ -> Atomic.set tab.slots.(i) (occupied key payload)
  | Empty ->
      if 10 * (t.occupied + 1) > 7 * (tab.mask + 1) then begin
        resize t tab;
        insert_locked t key payload
      end
      else begin
        Atomic.set tab.slots.(i) (occupied key payload);
        touch t tab i ~write:true;
        t.occupied <- t.occupied + 1
      end

and resize t old =
  let buckets = (old.mask + 1) * 2 in
  (match t.meter with
  | Some m -> Meter.dram_free m ~addr:old.addr ~size:((old.mask + 1) * slot_bytes)
  | None -> ());
  let fresh = make_table t.meter buckets in
  t.occupied <- 0;
  Array.iter
    (fun cell ->
      match Atomic.get cell with
      | Empty -> ()
      | Occupied { key; _ } as cell ->
          let i = probe t fresh key in
          Atomic.set fresh.slots.(i) cell;
          touch t fresh i ~write:true;
          t.occupied <- t.occupied + 1)
    old.slots;
  (* publish only when fully built: readers see the old or the new table,
     both internally consistent *)
  Atomic.set t.table fresh

let insert t key payload =
  Mutex.lock t.writer;
  insert_locked t key payload;
  Mutex.unlock t.writer

(* A miss probes twice, as [find] then [insert] would: once lock-free,
   once under the writer mutex, where a racing domain's insert shows. *)
let find_or_add t key make =
  match find t key with
  | Some payload -> payload
  | None ->
      Mutex.lock t.writer;
      let tab = Atomic.get t.table in
      let payload =
        match Atomic.get tab.slots.(probe t tab key) with
        | Occupied { payload; _ } -> payload
        | Empty ->
            let payload = make () in
            insert_locked t key payload;
            payload
      in
      Mutex.unlock t.writer;
      payload

let remove t key =
  Mutex.lock t.writer;
  let tab = Atomic.get t.table in
  let i = probe t tab key in
  (match Atomic.get tab.slots.(i) with
  | Empty -> ()
  | Occupied _ ->
      (* the backward-shift transiently breaks probe chains; make readers
         retry across it *)
      Atomic.incr t.version;
      Atomic.set tab.slots.(i) Empty;
      touch t tab i ~write:true;
      t.occupied <- t.occupied - 1;
      (* backward-shift deletion keeps probe chains unbroken: any entry
         whose home position precedes the hole moves back into it *)
      let rec scan hole j =
        match Atomic.get tab.slots.(j) with
        | Empty -> ()
        | Occupied { key = k; _ } as cell ->
            let home = hash k land tab.mask in
            let dist_hole = (hole - home) land tab.mask
            and dist_j = (j - home) land tab.mask in
            if dist_hole <= dist_j then begin
              Atomic.set tab.slots.(hole) cell;
              Atomic.set tab.slots.(j) Empty;
              touch t tab hole ~write:true;
              scan j ((j + 1) land tab.mask)
            end
            else scan hole ((j + 1) land tab.mask)
      in
      scan i ((i + 1) land tab.mask);
      Atomic.incr t.version);
  Mutex.unlock t.writer

let iter t f =
  let tab = Atomic.get t.table in
  Array.iter
    (fun cell ->
      match Atomic.get cell with
      | Empty -> ()
      | Occupied { key; payload; _ } -> f key payload)
    tab.slots

let fold t ~init ~f =
  let tab = Atomic.get t.table in
  Array.fold_left
    (fun acc cell ->
      match Atomic.get cell with
      | Empty -> acc
      | Occupied { key; payload; _ } -> f acc key payload)
    init tab.slots

let map t f =
  let tab = Atomic.get t.table in
  let cell = function
    | Empty -> Empty
    | Occupied { key; payload; _ } -> occupied key (f payload)
  in
  {
    meter = t.meter;
    table = Atomic.make { tab with slots = Array.map (fun c -> Atomic.make (cell (Atomic.get c))) tab.slots };
    version = Atomic.make 0;
    writer = Mutex.create ();
    occupied = t.occupied;
  }

let footprint_bytes t = ((Atomic.get t.table).mask + 1) * slot_bytes

let check_invariants t =
  let tab = Atomic.get t.table in
  let n = ref 0 in
  Array.iter
    (fun cell ->
      match Atomic.get cell with
      | Empty -> ()
      | Occupied { key; _ } ->
          incr n;
          if find t key = None then
            failwith (Printf.sprintf "Hash_dir: stored key %S not findable" key))
    tab.slots;
  if !n <> t.occupied then
    failwith
      (Printf.sprintf "Hash_dir: occupancy %d <> population %d" t.occupied !n)
