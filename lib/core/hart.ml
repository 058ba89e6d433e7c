module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Art = Hart_art.Art

type internal_nodes = [ `Dram | `Pm ]

type t = {
  mutable alloc : Epalloc.t;  (* both replaced by fsck's rebuild *)
  pool : Pmem.t;
  mutable dir : int Art.t Hash_dir.t;  (* hash key -> ART of (art key -> leaf offset) *)
  kh : int;
  internal_nodes : internal_nodes;
  count : int Atomic.t;
  pm_node_bytes : int Atomic.t;  (* pool bytes of ART nodes under [`Pm] *)
  quarantines : Hart_error.finding list ref;
      (* findings accumulated by a quarantining recovery of this pool *)
  new_leaf : string -> string -> int;
      (* [new_leaf key value]: [Art.insert]'s leaf maker, one closure per
         store, so an insert of a bound key allocates none *)
}

let kh t = t.kh
let pool t = t.pool
let alloc t = t.alloc
let count t = Atomic.get t.count
let art_count t = Hash_dir.length t.dir
let quarantines t = List.rev !(t.quarantines)
let checksums t = Epalloc.checksums t.alloc

(* Ablation support (`Pm): internal nodes placed on PM with a
   WOART-style per-mutation persistence protocol, isolating the cost the
   paper's selective consistency/persistence strategy (§III-A.2) avoids. *)
let pm_node_protocol meter =
  let module M = Hart_pmem.Meter in
  function
  | Art.Node_created { addr; bytes } ->
      M.write_range meter Pm ~addr ~len:bytes;
      M.persist_range meter ~addr ~len:bytes;
      M.persist_range meter ~addr ~len:8
  | Art.Node_freed _ -> ()
  | Art.Child_added { addr; slot_off; kind = _ } ->
      M.write_range meter Pm ~addr:(addr + slot_off) ~len:8;
      M.persist_range meter ~addr:(addr + slot_off) ~len:8;
      M.persist_range meter ~addr ~len:1
  | Art.Child_replaced { addr; slot_off; kind = _ }
  | Art.Child_removed { addr; slot_off; kind = _ } ->
      M.write_range meter Pm ~addr:(addr + slot_off) ~len:8;
      M.persist_range meter ~addr:(addr + slot_off) ~len:8
  | Art.Prefix_changed { addr } -> M.persist_range meter ~addr ~len:16
  | Art.Here_changed { addr } -> M.persist_range meter ~addr ~len:8

let pool_bytes size = (size + Pmem.line_bytes - 1) / Pmem.line_bytes * Pmem.line_bytes

let new_art t =
  let meter = Pmem.meter t.pool in
  let count size = ignore (Atomic.fetch_and_add t.pm_node_bytes size : int) in
  match t.internal_nodes with
  | `Dram -> Art.create ~meter ()
  | `Pm ->
      Art.create ~meter ~space:Pm
        ~alloc_node:(fun size ->
          count (pool_bytes size);
          Pmem.alloc t.pool size)
        ~free_node:(fun ~addr ~size ->
          count (-pool_bytes size);
          Pmem.free t.pool ~off:addr ~len:size)
        ~on_event:(pm_node_protocol meter) ()

let split kh key =
  let n = String.length key in
  if n <= kh then (key, "") else (String.sub key 0 kh, String.sub key kh (n - kh))

let split_key t key = split t.kh key

(* The hash key's length in [key]: its first [kh] bytes, or all of a
   shorter key. The point operations pass [key] whole with this offset
   to the directory and the ART, so neither half is copied out. *)
let hk_len t key =
  let n = String.length key in
  if n < t.kh then n else t.kh

let find_or_create_art t key off =
  match Hash_dir.find_prefix t.dir key off with
  | Some art -> art
  | None ->
      let art = new_art t in
      Hash_dir.insert t.dir (String.sub key 0 off) art;
      art

let valid_length key =
  let n = String.length key in
  n >= 1 && n <= Leaf.max_key_len

let check_key key =
  if not (valid_length key) then
    invalid_arg
      (Printf.sprintf "HART keys must be 1..%d bytes (got %d)" Leaf.max_key_len
         (String.length key))

(* Algorithm 3 without its update log (DESIGN.md §6 item 3): persist the
   new value, then the leaf's p_value (one store into the head that
   keeps its length and CRC bits), then commit both value bits in the
   DRAM mirror, the only copy of a value chunk's bitmap. Recovery
   commits whichever value the leaf names. [leaf] must be committed. *)
let update_leaf t ~leaf value =
  let old_v = Leaf.p_value t.pool ~leaf in
  let vcls = Value_obj.cls_for value in
  let new_v = Epalloc.epmalloc_update t.alloc vcls ~old:old_v in
  Value_obj.write ~crc:(checksums t) t.pool ~obj:new_v value;
  let bits_first = Epalloc.mutated Bits_before_p_value in
  if bits_first then Epalloc.commit_update t.alloc vcls ~obj:new_v ~old:old_v;
  Leaf.repoint t.pool ~leaf new_v;
  if not bits_first then Epalloc.commit_update t.alloc vcls ~obj:new_v ~old:old_v

(* The leaf's one persist: key bytes, then the head, whose length byte
   commits the key (DESIGN.md §6 item 1). *)
let init_leaf t ~leaf ~p_value key =
  Leaf.init ~crc:(checksums t) ~head_first:(Epalloc.mutated Head_before_key) t.pool
    ~leaf ~p_value key

(* Algorithm 1: value, then leaf, two persists; the leaf's and the
   value's bits are mirror stores. A slot that owns a value (a deleted
   key's, DESIGN.md §6 item 1) hands it over, Algorithm 2 lines 12-16: a
   value of the new value's class is rewritten in place; one of another
   class is freed once the leaf names the new value, so no domain can be
   given it while the slot still names it. [Art.insert] runs this at the
   insertion point of its one descent and links the leaf it returns. *)
let new_leaf t key value =
  let leaf, owns = Epalloc.epmalloc_leaf t.alloc in
  let crc = checksums t in
  let vcls = Value_obj.cls_for value in
  let old_v =
    if owns && not (Epalloc.mutated Ignore_owned) then Leaf.p_value t.pool ~leaf
    else 0
  in
  let old = if old_v = 0 then None else Epalloc.class_of_value_obj t.alloc old_v in
  (match old with
  | Some old_cls when old_cls = vcls ->
      Value_obj.write ~crc t.pool ~obj:old_v value;
      init_leaf t ~leaf ~p_value:old_v key
  | _ ->
      let vobj = Epalloc.epmalloc t.alloc vcls in
      Value_obj.write ~crc t.pool ~obj:vobj value;
      let free_first = Epalloc.mutated Free_before_unname in
      (match old with
      | Some c when free_first -> Epalloc.release_value t.alloc c ~obj:old_v
      | _ -> ());
      init_leaf t ~leaf ~p_value:vobj key;
      (match old with
      | Some c when not free_first -> Epalloc.release_value t.alloc c ~obj:old_v
      | _ -> ());
      Epalloc.set_obj_bit t.alloc vcls ~obj:vobj);
  Epalloc.set_obj_bit t.alloc Chunk.Leaf_c ~obj:leaf;
  leaf

let make ~alloc ~pool ~dir ~kh ~internal_nodes ~count ~quarantines =
  let pm_node_bytes = Atomic.make 0 in
  let rec t =
    {
      alloc;
      pool;
      dir;
      kh;
      internal_nodes;
      count;
      pm_node_bytes;
      quarantines;
      new_leaf = (fun key value -> new_leaf t key value);
    }
  in
  t

let create ?(kh = 2) ?(checksums = false) ?dir_buckets ?(internal_nodes = `Dram)
    pool =
  let alloc = Epalloc.create ~kh ~checksums pool in
  let meter = Pmem.meter pool in
  make ~alloc ~pool
    ~dir:(Hash_dir.create ~meter ?initial_buckets:dir_buckets ())
    ~kh ~internal_nodes ~count:(Atomic.make 0) ~quarantines:(ref [])

let insert t ~key ~value =
  check_key key;
  let off = hk_len t key in
  let art = find_or_create_art t key off in
  match Art.insert art key ~off t.new_leaf value with
  | Some leaf -> update_leaf t ~leaf value
  | None -> Atomic.incr t.count

(* Read a validated leaf's value; [None] if the leaf fails validation.
   Two PM reads: the leaf's one line (its length byte says it is live;
   key and value pointer come in the same pass — the leaf key comparison
   a C implementation performs at the end of its ART descent, here in
   place) and the value object. *)
let read_validated t ~leaf key =
  let v = Leaf.lookup t.pool ~leaf key in
  if v <> 0 then Some (Value_obj.read t.pool ~obj:v) else None

(* Algorithm 4. *)
let search t key =
  if not (valid_length key) then None
  else
    let off = hk_len t key in
    match Hash_dir.find_prefix t.dir key off with
    | None -> None
    | Some art -> (
        match Art.find art key ~off with
        | None -> None
        | Some leaf -> read_validated t ~leaf key)

let update t ~key ~value =
  if not (valid_length key) then false
  else
    let off = hk_len t key in
    match Hash_dir.find_prefix t.dir key off with
    | None -> false
    | Some art -> (
        match Art.find art key ~off with
        | None -> false
        | Some leaf ->
            update_leaf t ~leaf value;
            true)

(* Algorithm 5. *)
let delete t key =
  if not (valid_length key) then false
  else
    let off = hk_len t key in
    match Hash_dir.find_prefix t.dir key off with
    | None -> false
    | Some art -> (
        match Art.delete art key ~off with
        | None -> false
        | Some leaf ->
            (* one persist: the free slot keeps its p_value and owns
               that value (DESIGN.md §6 item 1) *)
            Epalloc.free_leaf t.alloc ~leaf;
            if Art.is_empty art then Hash_dir.remove t.dir (String.sub key 0 off);
            Atomic.decr t.count;
            true)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

let infinity_key = String.make Leaf.max_key_len '\xff'

let rec same_from p s n i = i = n || (p.[i] = s.[i] && same_from p s n (i + 1))

(* in place: the directory fold below tests every hash key *)
let is_strict_prefix p s =
  let n = String.length p in
  n < String.length s && same_from p s n 0

let range t ~lo ~hi f =
  (* select the ARTs whose key universe (extensions of their hash key)
     intersects [lo, hi], in hash-key order *)
  let arts =
    Hash_dir.fold t.dir ~init:[] ~f:(fun acc hk art ->
        let disjoint = hk > hi || (hk < lo && not (is_strict_prefix hk lo)) in
        if disjoint then acc else (hk, art) :: acc)
  in
  let arts = List.sort (fun (a, _) (b, _) -> String.compare a b) arts in
  List.iter
    (fun (hk, art) ->
      let n = String.length hk in
      let lo' =
        if is_strict_prefix hk lo then String.sub lo n (String.length lo - n)
        else "" (* hk >= lo, so the whole ART qualifies from below *)
      and hi' =
        if is_strict_prefix hk hi then String.sub hi n (String.length hi - n)
        else if hk = hi then "" (* only the key equal to hk itself qualifies *)
        else
          infinity_key
          (* hk < hi and not a prefix of it, so the first byte where they
             differ is inside hk: every extension of hk stays < hi *)
      in
      Art.range art ~lo:lo' ~hi:hi' (fun _ak leaf ->
          let key = hk ^ _ak in
          match read_validated t ~leaf key with
          | Some v -> f key v
          | None -> ()))
    arts

(* every binding of the index as (key, leaf offset), reading no PM *)
let iter_bindings t f = Hash_dir.iter t.dir (fun hk art -> Art.iter art (fun ak leaf -> f (hk ^ ak) leaf))

let iter t f =
  iter_bindings t (fun key leaf ->
      match read_validated t ~leaf key with Some v -> f key v | None -> ())

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let extreme_binding t pick art_extreme =
  let best = ref None in
  Hash_dir.iter t.dir (fun hk art ->
      match art_extreme art with
      | None -> ()
      | Some (ak, leaf) -> (
          let key = hk ^ ak in
          match read_validated t ~leaf key with
          | None -> ()
          | Some v -> (
              match !best with
              | None -> best := Some (key, v)
              | Some (bk, _) -> if pick key bk then best := Some (key, v))));
  !best

let min_binding t = extreme_binding t (fun a b -> a < b) Art.min_binding
let max_binding t = extreme_binding t (fun a b -> a > b) Art.max_binding
let iter_arts t f = Hash_dir.iter t.dir f

(* ------------------------------------------------------------------ *)
(* Recovery (Algorithm 7)                                              *)

(* A leaf slot's coordinates in errors and findings *)
let leaf_site alloc ~leaf =
  let chunk = Epalloc.chunk_of_obj alloc Chunk.Leaf_c leaf in
  let idx = Chunk.idx_of_obj Chunk.Leaf_c ~chunk ~obj:leaf in
  Hart_error.Leaf_slot { chunk; idx; leaf }

let leaf_slot_error ?keys alloc ~obj fmt =
  Hart_error.error ?keys (leaf_site alloc ~leaf:obj) fmt

let duplicate_leaf_error alloc ~key ~obj =
  leaf_slot_error ~keys:[ key ] alloc ~obj "duplicate committed leaf for key %S" key

(* One leaf slot as a recovery scan sees it. *)
type scanned =
  | Free_slot of int  (* the value pointer a free slot still holds *)
  | Leaf_ok of { key : string; pv : int }
  | Leaf_bad of { key : string option; pv : int; detail : string }
      (* [pv] is the value offset to consider freeing — 0 when the
         pointer itself is unreadable or untrustworthy *)

(* A slot as the plain mount reads it, in one metered access: its length
   byte says whether it is live. A length byte outside 0..max_key_len
   names no key the index could have stored: refuse the mount rather
   than index a bogus key. *)
let plain_slot alloc ~leaf =
  match Leaf.slot (Epalloc.pool alloc) ~leaf with
  | Free pv -> Free_slot pv
  | Live (pv, key) -> Leaf_ok { key; pv }
  | Corrupt len ->
      leaf_slot_error alloc ~obj:leaf "leaf slot stores invalid key length %d" len

(* ---- quarantining recovery machinery ------------------------------ *)

(* Read-only validation of one slot: media lines, key length, key CRC,
   value pointer resolution, value CRC; no value bit is durable to
   consult (DESIGN.md §6 item 3). A free slot on a corrupt line is bad
   too: its length byte, which says it is free, is on that line. Never
   writes, never raises — suitable for parallel scan workers. [slot] is
   the slot as the caller already read it. *)
let inspect_slot ?slot alloc ~checksums ~bad_span ~leaf =
  let pool = Epalloc.pool alloc in
  try
    match match slot with Some s -> s | None -> Leaf.slot pool ~leaf with
    | Corrupt len ->
        Leaf_bad
          { key = None; pv = 0; detail = Printf.sprintf "invalid key length %d" len }
    | Free pv when not (bad_span leaf Leaf.size) -> Free_slot pv
    | Free _ ->
        Leaf_bad
          {
            key = None;
            pv = 0;
            detail = "free leaf slot on a corrupt media line (length byte untrustworthy)";
          }
    | Live (pv, key) ->
        (* a key read off a corrupt line is named only if its CRC
           vouches for it *)
        let crc_ok = checksums && Leaf.key_crc_ok pool ~leaf key in
        if bad_span leaf Leaf.size then
          Leaf_bad
            {
              key = (if crc_ok then Some key else None);
              pv;
              detail = "leaf bytes on a corrupt media line";
            }
        else if checksums && not crc_ok then
          Leaf_bad { key = None; pv; detail = "leaf key fails its CRC" }
        else if pv = 0 then
          Leaf_bad
            { key = Some key; pv = 0; detail = "committed leaf without a value object" }
        else
          match Epalloc.class_of_value_obj alloc pv with
          | None ->
              Leaf_bad
                {
                  key = Some key;
                  pv = 0;
                  detail = Printf.sprintf "dangling value pointer %d" pv;
                }
          | Some vcls ->
              (* an offset between object boundaries raises, as below *)
              let chunk = Epalloc.chunk_of_obj alloc vcls pv in
              ignore (Chunk.idx_of_obj vcls ~chunk ~obj:pv : int);
              if bad_span pv (Chunk.obj_size vcls) then
                Leaf_bad
                  { key = Some key; pv; detail = "value bytes on a corrupt media line" }
              else if checksums && not (Value_obj.crc_ok pool ~cls:vcls ~obj:pv) then
                Leaf_bad { key = Some key; pv; detail = "value object fails its CRC" }
              else Leaf_ok { key; pv }
  with
  | Pmem.Media_poisoned { line; _ } ->
      Leaf_bad
        {
          key = None;
          pv = 0;
          detail = Printf.sprintf "poisoned media line %d under leaf slot or value" line;
        }
  | Invalid_argument msg ->
      Leaf_bad { key = None; pv = 0; detail = "access out of pool: " ^ msg }

(* ---- media-repair steps, shared by the mount and fsck ------------- *)

let zero_span pool ~off ~len =
  Pmem.set_string pool ~off (String.make len '\000');
  Pmem.persist pool ~off ~len

(* Free the value object at [pv], if it is one (untrusted bytes may
   land between object boundaries): clear its bit, then zero and
   persist its bytes, which reseals its media lines. The bit is not
   consulted: a mount knows none before the liveness pass. *)
let free_value alloc pv =
  match Epalloc.class_of_value_obj alloc pv with
  | Some vcls when Epalloc.is_value_obj alloc pv ->
      Epalloc.reset_obj_bit alloc vcls ~obj:pv;
      zero_span (Epalloc.pool alloc) ~off:pv ~len:(Chunk.obj_size vcls)
  | Some _ | None -> ()

(* Excise one leaf slot from PM and report the loss: clear its bit,
   zero and persist its bytes (resealing the covering lines), free its
   value. [key] and [pv] are what the caller trusts of the leaf. A
   corrupt leaf's pointer is untrusted bytes that may alias a live key's
   value, so the caller passes [pv = 0] unless its exclusivity rule
   proves no kept leaf names the value. The DRAM index is the
   caller's. *)
let quarantine_leaf alloc ~report ~leaf ~key ~pv ~detail =
  (* the scan leaves a slot it could not read unmarked *)
  if Epalloc.obj_bit alloc Chunk.Leaf_c ~obj:leaf then
    Epalloc.reset_obj_bit alloc Chunk.Leaf_c ~obj:leaf;
  zero_span (Epalloc.pool alloc) ~off:leaf ~len:Leaf.size;
  free_value alloc pv;
  report
    {
      Hart_error.f_site = leaf_site alloc ~leaf;
      f_action = Quarantined;
      f_detail = detail;
      f_keys = Option.to_list key;
      f_capacity = 1;
    }

let value_site alloc vcls ~obj =
  let chunk = Epalloc.chunk_of_obj alloc vcls obj in
  let idx = Chunk.idx_of_obj vcls ~chunk ~obj in
  Hart_error.Value_slot { cls = Epalloc.cls_name vcls; chunk; idx; obj }

(* The free-slot rule (DESIGN.md §6 item 2), serial, for both mounts:
   the free leaf slots the scan found naming a value, as (slot, pointer)
   pairs, pointer 0 for one it could not read. In slot order, a slot
   naming an object of a registered value chunk owns it and names it
   for the liveness pass (a crashed insertion's slot names a value
   reserved for it); any other is severed: its pointer stored 0, or,
   unreadable, the whole slot zeroed. A quarantining mount also refuses
   a value that a kept leaf or a lower slot names or that the
   quarantine freed ([taken]), since a media fault can forge a pointer
   to it. No crash leaves such an alias, so the plain mount needs no
   such rule and applies none: a protocol bug that made one must not be
   settled away before the crash oracle sees it. No finding either way:
   this is crash residue. A value on a line the ECC flags ([bad_span],
   quarantining only) is media damage: its slot is severed and the
   value freed, zeroed and reported. *)
let settle_free_slots alloc ~quarantine ~bad_span ~report ~taken ~name stale_free =
  let pool = Epalloc.pool alloc in
  let claimed = Hashtbl.create 16 in
  let aliased pv = quarantine && (Hashtbl.mem taken pv || Hashtbl.mem claimed pv) in
  List.iter
    (fun (leaf, pv) ->
      if pv = 0 then zero_span pool ~off:leaf ~len:Leaf.size
      else
        match Epalloc.class_of_value_obj alloc pv with
        | Some vcls when (not (aliased pv)) && Epalloc.is_value_obj alloc pv ->
            Hashtbl.replace claimed pv ();
            if bad_span pv (Chunk.obj_size vcls) then begin
              Leaf.sever pool ~leaf;
              free_value alloc pv;
              report
                {
                  Hart_error.f_site = value_site alloc vcls ~obj:pv;
                  f_action = Repaired;
                  f_detail = "unreferenced committed value on corrupt line reclaimed";
                  f_keys = [];
                  f_capacity = 0;
                }
            end
            else begin
              Epalloc.set_owner alloc ~leaf true;
              name pv
            end
        | Some _ | None -> Leaf.sever pool ~leaf)
    (List.sort compare stale_free)

(* fsck's scan of one slot, which the live index ([bound]: leaf -> key)
   lets it judge better than a mount at rest. A slot on a line the ECC
   flags that the index does not bind is free: it is zeroed, which
   loses nothing, not quarantined. On a clean line the index is the
   witness for stray writes, which seal the line they hit, so the ECC
   cannot see them: a slot whose length byte or key disagrees with the
   index is rewritten to agree. A leaf the index binds gets its key
   back, keeping its value pointer; any other slot has its length byte
   cleared. Then the slot is inspected as at rest. *)
let live_slot alloc ~report ~bound ~checksums ~bad_span ~leaf =
  let pool = Epalloc.pool alloc in
  let repaired f_detail f_keys =
    report
      {
        Hart_error.f_site = leaf_site alloc ~leaf;
        f_action = Repaired;
        f_detail;
        f_keys;
        f_capacity = 0;
      }
  in
  let key = Hashtbl.find_opt bound leaf in
  if bad_span leaf Leaf.size then
    if key = None then begin
      zero_span pool ~off:leaf ~len:Leaf.size;
      repaired "free leaf slot on a corrupt media line zeroed" [];
      Free_slot 0
    end
    else inspect_slot alloc ~checksums ~bad_span ~leaf
  else
    let slot =
      match (key, Leaf.slot pool ~leaf) with
      | Some key, (Live (_, k) as slot) when String.equal k key -> Some slot
      | None, (Free _ as slot) -> Some slot
      | Some key, slot ->
          Leaf.init ~crc:(Epalloc.checksums alloc) pool ~leaf
            ~p_value:(Leaf.p_value pool ~leaf) key;
          repaired
            (match slot with
            | Live (_, k) when String.length k = String.length key ->
                "live leaf's key restored from the index"
            | Live _ | Free _ | Corrupt _ -> "live leaf's length byte restored from the index")
            [ key ];
          None
      | None, slot ->
          Leaf.free pool ~leaf;
          repaired "free leaf slot's length byte cleared"
            (match slot with Live (_, k) -> [ k ] | Free _ | Corrupt _ -> []);
          None
    in
    inspect_slot ?slot alloc ~checksums ~bad_span ~leaf

(* The last step of a quarantining run, serial. A line the ECC still
   flags holds nothing live: the scan quarantined every leaf slot on a
   flagged line, and the merge, the free-slot step and the liveness pass
   dropped every value there. Zeroing it reseals it. The root block's
   lines and a chunk's first line are never zeroed: at rest the mount
   refused those, and a live rebuild rewrote them. Then a line that
   still fails its ECC is stuck: writes do not take. Returns the stuck
   lines. *)
let reseal alloc ~report bad_lines =
  let pool = Epalloc.pool alloc in
  let lb = Pmem.line_bytes in
  let failing () =
    let m = Pmem.media_verify pool in
    m.Pmem.corrupt_lines @ m.Pmem.poisoned_lines
  in
  let finding line f_action f_detail =
    report
      { Hart_error.f_site = Pool_line { line }; f_action; f_detail; f_keys = []; f_capacity = 0 }
  in
  List.iter
    (fun line ->
      let lo = line * lb in
      let in_root = lo >= Epalloc.root_off && lo < Epalloc.root_off + Epalloc.root_bytes in
      if List.mem line bad_lines && not in_root then
        match Epalloc.chunk_covering alloc lo with
        | Some (_, chunk) when chunk / lb = line -> ()
        | covering ->
            zero_span pool ~off:lo ~len:lb;
            finding line Repaired
              (if covering = None then "unreferenced pool line zeroed and resealed"
               else "corrupt line touched only free slots/padding — zeroed and resealed"))
    (failing ());
  let stuck = failing () in
  List.iter
    (fun line ->
      finding line Detected
        "line still fails ECC after repair (stuck-at media: writes do not take)")
    stuck;
  stuck

(* The pool offset a finding's site names *)
let site_off = function
  | Hart_error.Root_block { off } | Log_slot { off; _ } -> off
  | Chunk_meta { chunk; _ } -> chunk
  | Leaf_slot { leaf; _ } -> leaf
  | Value_slot { obj; _ } -> obj
  | Pool_line { line } -> line * Pmem.line_bytes

(* ---- the index build: gather during the scan, build each ART once - *)

(* A gather buffer: the live leaves one scanning domain found under one
   hash key, in scan order. A C entry is 16 bytes: the leaf offset (40
   bits), the ART key's length (8 bits) and its first
   [inline_key_bytes] bytes, in blocks taken from the meter's DRAM
   allocator. The OCaml arrays keep whole keys; a byte past the inline
   ones is charged as a PM read of the leaf, where a C build finds it. *)
type gather_buf = {
  mutable keys : string array;  (* ART keys *)
  mutable leaves : int array;
  mutable len : int;
  mutable blocks : int list;  (* modelled block addresses, newest first *)
}

let entry_bytes = 16
let block_entries = 16 (* 256-byte blocks: four lines *)
let block_bytes = block_entries * entry_bytes
let inline_key_bytes = 10

(* The directory's payload while recovery runs: a buffer per scanning
   domain, then the ART built of them. *)
type gather = { hk : string; bufs : gather_buf option array; mutable art : int Art.t option }

(* One metered DRAM write per entry *)
let append meter buf key leaf =
  let i = buf.len in
  if i mod block_entries = 0 then buf.blocks <- Meter.dram_alloc meter block_bytes :: buf.blocks;
  if i = Array.length buf.keys then begin
    let grow a fill = Array.append a (Array.make (max 8 i) fill) in
    buf.keys <- grow buf.keys "";
    buf.leaves <- grow buf.leaves 0
  end;
  buf.keys.(i) <- key;
  buf.leaves.(i) <- leaf;
  buf.len <- i + 1;
  Meter.access meter Meter.Dram
    ~addr:(List.hd buf.blocks + (i mod block_entries * entry_bytes))
    ~write:true

(* Build [g]'s ART of the leaves [keep] accepts, then free its buffers;
   the number of leaves built. The entries are sorted in place: sorted
   position [i] sits in the [i]-th kept entry's slot. The sort reads and
   writes each of their lines once, and each partition pass of
   [Art.of_sorted] reads the lines of its range once; a comparison or a
   branch byte the inline bytes do not hold reads the leaf. A plain
   mount refuses two committed leaves for one key, naming the higher
   offset (the quarantining merge has already dropped it). *)
let build_art alloc meter ~keep g =
  let bufs = List.filter_map Fun.id (Array.to_list g.bufs) in
  let total = List.fold_left (fun a b -> a + b.len) 0 bufs in
  let keys = Array.make total "" and leaves = Array.make total 0 in
  let slots = Array.make total 0 in
  let n = ref 0 in
  List.iter
    (fun b ->
      let blocks = Array.of_list (List.rev b.blocks) in
      for i = 0 to b.len - 1 do
        if keep b.leaves.(i) then begin
          keys.(!n) <- b.keys.(i);
          leaves.(!n) <- b.leaves.(i);
          slots.(!n) <- blocks.(i / block_entries) + (i mod block_entries * entry_bytes);
          incr n
        end
      done)
    bufs;
  let n = !n in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      match String.compare keys.(i) keys.(j) with 0 -> compare leaves.(i) leaves.(j) | c -> c)
    order;
  let keys = Array.map (fun i -> keys.(i)) order
  and leaves = Array.map (fun i -> leaves.(i)) order in
  let pass ~write lo hi =
    let last = ref (-1) in
    for i = lo to hi - 1 do
      let line = slots.(i) / Pmem.line_bytes in
      if line <> !last then begin
        last := line;
        Meter.access meter Meter.Dram ~addr:(line * Pmem.line_bytes) ~write
      end
    done
  in
  let long i = String.length keys.(i) > inline_key_bytes in
  let same_inline a b =
    let rec go j = j = inline_key_bytes || (a.[j] = b.[j] && go (j + 1)) in
    go 0
  in
  let read_leaf i = Meter.access meter Meter.Pm ~addr:leaves.(i) ~write:false in
  pass ~write:false 0 n;
  if n > 1 then pass ~write:true 0 n;
  for i = 1 to n - 1 do
    if long (i - 1) && long i && same_inline keys.(i - 1) keys.(i) then begin
      read_leaf (i - 1);
      read_leaf i
    end;
    if String.equal keys.(i - 1) keys.(i) then
      duplicate_leaf_error alloc ~key:(g.hk ^ keys.(i)) ~obj:leaves.(i)
  done;
  let on_pass ~lo ~hi ~byte =
    pass ~write:false lo hi;
    if byte >= inline_key_bytes then
      for i = lo to hi - 1 do
        if long i then read_leaf i
      done
  in
  if n > 0 then g.art <- Some (Art.of_sorted ~meter ~on_pass keys leaves);
  List.iter
    (fun b -> List.iter (fun addr -> Meter.dram_free meter ~addr ~size:block_bytes) b.blocks)
    bufs;
  n

(* Algorithm 7 as one pipeline for every mode and domain count [d].

   - preamble (serial): [Epalloc.attach] replays the recycle log;
     replay orders PM writes. A quarantining run first consults the
     device ECC, then attaches in guarded mode with a findings sink.
     fsck's run ([live]: the live allocator and the live index's leaf
     -> key table) attaches to the live allocator's chunk lists.
   - scan: domain [me] walks the leaf chunk list (at rest as PM chains
     it, live as the registry holds it) and takes every [d]-th
     chunk. It reads every slot once: the length byte says whether it
     is live, and the chunk's live slots become its mirror word
     ([Epalloc.set_leaf_bits]). It names each live leaf's value on its
     own cursor [named.(me)], or, quarantining, validates the leaf and
     notes it for the merge; it notes every free slot that still names
     a value. Each live leaf probes the directory once for its hash key
     and appends one entry to its own buffer there ([append]); the
     first domain to probe a hash key adds it, to partition [p =
     Hash_dir.hash hash_key mod d]. Nothing is written to PM, but for
     fsck's [live_slot] repairs, on its one domain.
   - merge (quarantining only, serial): the keep-lower-offset rule for
     a duplicate key and for a value two keys name (order-independent,
     so every [d] excises the same leaves), then the quarantine PM
     writes; the kept values are named.
   - free slots (serial): [settle_free_slots] makes each free slot that
     names a value object its owner and names the value, and severs
     every other (DESIGN.md §6 item 2).
   - liveness (serial): [Epalloc.settle_values] commits every named
     value and frees every other (DESIGN.md §6 item 3).
   - reseal (quarantining only, serial): [reseal] zeroes the flagged
     lines nothing live holds and reports the stuck ones.
   - build: domain [p] builds each ART of partition [p] once
     ([build_art]: sort the buffers, [Art.of_sorted]); partitions share
     no ART. Then, serially, the directory keeps the ARTs in place
     ([Hash_dir.map]), less any hash key the merge emptied.

   [Domain.join] gives the inter-phase happens-before. Only the attach,
   the quarantining merge, the free-slot step, the liveness pass and
   the reseal flush, all on the calling domain, so an armed crash
   ([Pmem.arm_crash]) fires there and nested crash-during-recovery
   schedules stay well-defined under the fault explorer. *)
let rebuild ~domains:d ~quarantine ?live ?(deep = true) pool =
  let findings = ref [] in
  let report f = findings := f :: !findings in
  let bad_lines, alloc =
    if not quarantine then ([], Epalloc.attach pool)
    else begin
      let media = Pmem.media_verify pool in
      let bad_lines = media.Pmem.corrupt_lines @ media.Pmem.poisoned_lines in
      ( bad_lines,
        Epalloc.attach ~bad_lines ~report ?live:(Option.map fst live) ~log_crcs:deep pool )
    end
  in
  let bad_span = Pmem.touches_lines bad_lines in
  let checksums = deep && Epalloc.checksums alloc in
  let kh = Epalloc.kh alloc in
  let meter = Pmem.meter pool in
  let gathers = Hash_dir.create ~meter () in
  (* [made.(me).(p)]: the hash keys of partition [p] domain [me] added *)
  let made = Array.init d (fun _ -> Array.make d []) in
  let gather me hash_key art_key leaf =
    let g =
      Hash_dir.find_or_add gathers hash_key (fun () ->
          let g = { hk = hash_key; bufs = Array.make d None; art = None } in
          let p = Hash_dir.hash hash_key mod d in
          made.(me).(p) <- g :: made.(me).(p);
          g)
    in
    let buf =
      match g.bufs.(me) with
      | Some b -> b
      | None ->
          let b = { keys = [||]; leaves = [||]; len = 0; blocks = [] } in
          g.bufs.(me) <- Some b;
          b
    in
    append meter buf art_key leaf
  in
  let work = Array.init d (fun _ -> Array.init d (fun _ -> ref [])) in
  let badq = Array.init d (fun _ -> ref []) in
  let stale_free = Array.init d (fun _ -> ref []) in
  let classify leaf =
    match live with
    | Some (_, bound) -> live_slot alloc ~report ~bound ~checksums ~bad_span ~leaf
    | None ->
        if quarantine then inspect_slot alloc ~checksums ~bad_span ~leaf
        else plain_slot alloc ~leaf
  in
  let chains = if live = None then Epalloc.iter_chain else Epalloc.iter_chunks in
  let named = Array.init d (fun _ -> Epalloc.runs ()) in
  let push cell x = cell := x :: !cell in
  let scan me =
    let i = ref 0 in
    chains alloc Chunk.Leaf_c (fun chunk ->
        if !i mod d = me then begin
          let live = ref 0 in
          Chunk.iter_slots Chunk.Leaf_c ~chunk (fun ~idx ~obj:leaf ->
              match classify leaf with
              | Free_slot 0 -> ()
              | Free_slot pv -> push stale_free.(me) (leaf, pv)
              | Leaf_ok { key; pv } ->
                  live := !live lor (1 lsl idx);
                  let hash_key, art_key = split kh key in
                  if quarantine then
                    push work.(me).(Hash_dir.hash hash_key mod d) (hash_key, art_key, leaf, pv)
                  else Epalloc.name_value alloc named.(me) pv;
                  gather me hash_key art_key leaf
              | Leaf_bad { key; pv; detail } -> push badq.(me) (leaf, key, pv, detail));
          Epalloc.set_leaf_bits alloc ~chunk !live
        end;
        incr i)
  in
  (* every domain is joined before any failure (a typed [Hart_error]
     from a worker, say) is re-raised *)
  let run_phase phase =
    let workers = Array.init (d - 1) (fun i -> Domain.spawn (fun () -> phase (i + 1))) in
    let mine = try Ok (phase 0) with e -> Error e in
    let theirs = Array.map (fun w -> try Ok (Domain.join w) with e -> Error e) workers in
    List.iter (Result.iter_error raise) (mine :: Array.to_list theirs)
  in
  run_phase scan;
  let all r = List.concat_map ( ! ) (Array.to_list r) in
  let dropped = Hashtbl.create 16 in
  (* no crash leaves two committed leaves naming one value, so a shared
     value means a media fault redirected one pointer; a value the
     quarantine frees joins them, so no free slot owns it *)
  let kept_values = Hashtbl.create 256 in
  let name = Epalloc.name_value alloc named.(0) in
  if quarantine then begin
    let bad = ref (all badq) in
    let by_key = Hashtbl.create 256 in
    let dup = "duplicate committed leaf (higher offset quarantined)" in
    Array.iter
      (Array.iter (fun cell ->
           List.iter
             (fun ((hash_key, art_key, leaf, _) as e) ->
               let key = hash_key ^ art_key in
               match Hashtbl.find_opt by_key key with
               | None -> Hashtbl.replace by_key key e
               | Some ((_, _, leaf0, _) as e0) ->
                   let _, _, leaf, pv =
                     if leaf < leaf0 then (
                       Hashtbl.replace by_key key e;
                       e0)
                     else e
                   in
                   Hashtbl.replace dropped leaf ();
                   bad := (leaf, Some key, pv, dup) :: !bad)
             !cell))
      work;
    (* keep the lower-offset leaf of a shared value, as for a duplicate
       key *)
    let shared = "value shared with another committed leaf (higher offset quarantined)" in
    List.iter
      (fun (leaf, key, pv) ->
        if Hashtbl.mem kept_values pv then begin
          Hashtbl.replace dropped leaf ();
          bad := (leaf, Some key, pv, shared) :: !bad
        end
        else Hashtbl.replace kept_values pv ())
      (List.sort compare
         (Hashtbl.fold (fun key (_, _, leaf, pv) acc -> (leaf, key, pv) :: acc) by_key []));
    Hashtbl.iter (fun pv () -> name pv) kept_values;
    (* quarantine the bad leaves, freeing only the values no kept leaf
       names *)
    List.iter
      (fun (leaf, key, pv, detail) ->
        let pv = if Hashtbl.mem kept_values pv then 0 else pv in
        quarantine_leaf alloc ~report ~leaf ~key ~pv ~detail;
        if pv <> 0 then Hashtbl.replace kept_values pv ())
      !bad
  end;
  settle_free_slots alloc ~quarantine ~bad_span ~report ~taken:kept_values ~name
    (all stale_free);
  Epalloc.settle_values alloc (Array.to_list named);
  if quarantine then begin
    (* a repair on a stuck line did not take: its Detected finding
       stands instead *)
    let stuck = reseal alloc ~report bad_lines in
    findings :=
      List.filter
        (fun (f : Hart_error.finding) ->
          f.f_action <> Repaired || not (List.mem (site_off f.f_site / Pmem.line_bytes) stuck))
        !findings
  end;
  let count = Atomic.make 0 in
  let keep leaf = not (Hashtbl.mem dropped leaf) in
  let build p =
    let n = ref 0 in
    for me = 0 to d - 1 do
      List.iter (fun g -> n := !n + build_art alloc meter ~keep g) made.(me).(p)
    done;
    ignore (Atomic.fetch_and_add count !n : int)
  in
  run_phase build;
  Array.iter
    (Array.iter (List.iter (fun g -> if g.art = None then Hash_dir.remove gathers g.hk)))
    made;
  make ~alloc ~pool
    ~dir:(Hash_dir.map gathers (fun g -> Option.get g.art))
    ~kh ~internal_nodes:`Dram ~count ~quarantines:findings

let recover_parallel ?domains ?(quarantine = false) pool =
  let d =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if d < 1 then invalid_arg "Hart.recover_parallel: domains must be >= 1";
  rebuild ~domains:d ~quarantine pool

let recover ?quarantine pool = recover_parallel ~domains:1 ?quarantine pool

(* ------------------------------------------------------------------ *)
(* Accounting and integrity                                            *)

let dir_bytes t = Hash_dir.footprint_bytes t.dir

let dram_bytes t =
  dir_bytes t
  + Hash_dir.fold t.dir ~init:0 ~f:(fun acc _ art -> acc + Art.footprint_bytes art)
  + Epalloc.mirror_bytes t.alloc

let pm_bytes t = Pmem.live_bytes t.pool

let check_integrity t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let seen_leaves = Hashtbl.create 256 in
  (* value -> the live leaf or owning free slot that names it *)
  let seen_values = Hashtbl.create 256 in
  let n = ref 0 in
  Hash_dir.iter t.dir (fun hk art ->
      Art.check_invariants art;
      Art.iter art (fun ak leaf ->
          incr n;
          if Hashtbl.mem seen_leaves leaf then
            fail "leaf %d reachable from two ART positions" leaf;
          Hashtbl.add seen_leaves leaf ();
          let key = hk ^ ak in
          if not (Epalloc.obj_bit t.alloc Chunk.Leaf_c ~obj:leaf) then
            fail "leaf %d (key %S) is in an ART but its bit is clear" leaf key;
          let v, stored =
            match Leaf.read t.pool ~leaf with
            | Ok vk -> vk
            | Error len ->
                fail "leaf %d (ART position %S) stores invalid key length %d" leaf
                  key len
          in
          if not (String.equal stored key) then
            fail "leaf %d stores key %S but sits at ART position %S" leaf stored key;
          if v = 0 then fail "leaf %d (key %S) has no value object" leaf key;
          (match Epalloc.class_of_value_obj t.alloc v with
          | None -> fail "value %d of key %S is in no value chunk" v key
          | Some vcls ->
              if not (Epalloc.obj_bit t.alloc vcls ~obj:v) then
                fail "value %d of key %S is not committed" v key);
          if Hashtbl.mem seen_values v then
            fail "value object %d referenced by two leaves" v;
          Hashtbl.add seen_values v leaf));
  let count = Atomic.get t.count in
  if !n <> count then fail "count %d but %d reachable leaves" count !n;
  let live_leaves = Epalloc.live_objects t.alloc Chunk.Leaf_c in
  if live_leaves <> !n then
    fail "%d committed leaves but %d reachable from ARTs (leak?)" live_leaves !n;
  (* every committed value is named by a live leaf or by exactly one
     owning free slot, and a free slot that owns nothing names no
     committed value: a crash would otherwise make it a second owner *)
  let owning = Hashtbl.create 16 in
  Epalloc.iter_owned t.alloc (fun ~leaf ->
      Hashtbl.replace owning leaf ();
      let v = Leaf.p_value t.pool ~leaf in
      if not (Epalloc.value_committed t.alloc v) then
        fail "free leaf slot %d owns value %d, which is not committed" leaf v;
      (match Hashtbl.find_opt seen_values v with
      | Some other ->
          fail "value %d owned by free leaf slot %d is also named by %d" v leaf other
      | None -> ());
      Hashtbl.add seen_values v leaf);
  (* each slot's length byte, its durable commit, agrees with its
     mirror bit *)
  Epalloc.iter_chunks t.alloc Chunk.Leaf_c (fun chunk ->
      let bits = Epalloc.committed_bits t.alloc Chunk.Leaf_c ~chunk in
      Chunk.iter_slots Chunk.Leaf_c ~chunk (fun ~idx ~obj:leaf ->
          let head = Leaf.head t.pool ~leaf in
          let live = bits land (1 lsl idx) <> 0 in
          if live <> (Leaf.head_len head <> 0) then
            fail "leaf slot %d stores key length %d but its mirror bit is %b" leaf
              (Leaf.head_len head) live;
          if not (live || Hashtbl.mem owning leaf) then
            let v = Leaf.head_p_value head in
            if v <> 0 && Epalloc.value_committed t.alloc v then
              fail "free leaf slot %d names committed value %d but owns nothing" leaf v));
  List.iter
    (fun vcls ->
      Epalloc.iter_live_objs t.alloc vcls (fun ~obj ->
          if not (Hashtbl.mem seen_values obj) then
            fail "committed value object %d is unreferenced (leak)" obj))
    [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ];
  (* the pool holds the root block, the chunks and (PM-node ablation)
     the ART nodes: a chunk unlinked but never freed shows here *)
  let chunks n cls = n + (Epalloc.chunk_count t.alloc cls * pool_bytes (Chunk.chunk_bytes cls)) in
  let root_and_nodes = pool_bytes Epalloc.root_bytes + Atomic.get t.pm_node_bytes in
  let accounted = List.fold_left chunks root_and_nodes Chunk.all_classes in
  if Pmem.live_bytes t.pool <> accounted then
    fail "pool holds %d live bytes but the root block, chunks and nodes take %d (leak?)"
      (Pmem.live_bytes t.pool) accounted;
  Epalloc.check_invariants t.alloc

(* ------------------------------------------------------------------ *)
(* fsck / scrub: the quarantining run over a live store                *)

(* Each key the rebuild [r] drops, rebinds or adds, against the live
   index's [was] (consumed), is named by the run's first finding at its
   leaf, or by a finding of its own. *)
let name_changed_keys r ~was findings =
  let added = ref [] in
  iter_bindings r (fun key leaf ->
      if Hashtbl.find_opt was leaf = Some key then Hashtbl.remove was leaf
      else added := (leaf, key) :: !added);
  let dropped = List.sort compare (Hashtbl.fold (fun leaf key acc -> (leaf, key) :: acc) was []) in
  let added = List.sort compare !added in
  let sited = Hashtbl.create 8 in
  let findings =
    List.map
      (fun (f : Hart_error.finding) ->
        match f.f_site with
        | Leaf_slot { leaf; _ } when not (Hashtbl.mem sited leaf) ->
            Hashtbl.replace sited leaf ();
            let keys =
              List.filter_map
                (fun (l, k) -> if l = leaf && not (List.mem k f.f_keys) then Some k else None)
                (dropped @ added)
            in
            { f with f_keys = f.f_keys @ keys }
        | _ -> f)
      findings
  in
  let unsited action detail =
    List.filter_map (fun (leaf, key) ->
        if Hashtbl.mem sited leaf then None
        else
          Some
            {
              Hart_error.f_site = leaf_site r.alloc ~leaf;
              f_action = action;
              f_detail = detail;
              f_keys = [ key ];
              f_capacity = 1;
            })
  in
  findings
  @ unsited Quarantined "key dropped by the rebuild" dropped
  @ unsited Detected "key the live index did not bind found by the rebuild" added

let fsck ?(deep = true) t =
  if t.internal_nodes = `Pm then invalid_arg "Hart.fsck: the PM-node ablation is not rebuilt";
  let was = Hashtbl.create (max 16 (count t)) in
  iter_bindings t (fun key leaf -> Hashtbl.replace was leaf key);
  let r = rebuild ~domains:1 ~quarantine:true ~live:(t.alloc, was) ~deep t.pool in
  let findings = name_changed_keys r ~was (quarantines r) in
  t.alloc <- r.alloc;
  t.dir <- r.dir;
  Atomic.set t.count (count r);
  findings

let scrub t = fsck ~deep:false t
