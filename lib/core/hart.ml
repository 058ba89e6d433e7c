module Pmem = Hart_pmem.Pmem
module Art = Hart_art.Art

type internal_nodes = [ `Dram | `Pm ]

type t = {
  alloc : Epalloc.t;
  pool : Pmem.t;
  dir : int Art.t Hash_dir.t;  (* hash key -> ART of (art key -> leaf offset) *)
  kh : int;
  internal_nodes : internal_nodes;
  count : int Atomic.t;
  pm_node_bytes : int Atomic.t;  (* pool bytes of ART nodes under [`Pm] *)
  quarantines : Hart_error.finding list ref;
      (* findings accumulated by a quarantining recovery of this pool *)
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

let create ?(kh = 2) ?(checksums = false) ?dir_buckets ?(internal_nodes = `Dram)
    pool =
  let alloc = Epalloc.create ~kh ~checksums pool in
  let meter = Pmem.meter pool in
  {
    alloc;
    pool;
    dir = Hash_dir.create ~meter ?initial_buckets:dir_buckets ();
    kh;
    internal_nodes;
    count = Atomic.make 0;
    pm_node_bytes = Atomic.make 0;
    quarantines = ref [];
  }

let split_key t key =
  let n = String.length key in
  if n <= t.kh then (key, "")
  else (String.sub key 0 t.kh, String.sub key t.kh (n - t.kh))

let find_art t hash_key = Hash_dir.find t.dir hash_key

let find_or_create_art t hash_key =
  match Hash_dir.find t.dir hash_key with
  | Some art -> art
  | None ->
      let art = new_art t in
      Hash_dir.insert t.dir hash_key art;
      art

let check_key key =
  let n = String.length key in
  if n < 1 || n > Leaf.max_key_len then
    invalid_arg
      (Printf.sprintf "HART keys must be 1..%d bytes (got %d)" Leaf.max_key_len n)

(* Algorithm 3 without its update log (DESIGN.md §6 item 3): persist the
   new value, then the leaf's p_value, then commit both value bits in
   the DRAM mirror, the only copy of a value chunk's bitmap. Recovery
   commits whichever value the leaf names. [leaf] must be committed. *)
let update_leaf t ~leaf value =
  let old_v = Leaf.p_value t.pool ~leaf in
  let vcls = Value_obj.cls_for value in
  let new_v = Epalloc.epmalloc_update t.alloc vcls ~old:old_v in
  Value_obj.write ~crc:(checksums t) t.pool ~obj:new_v value;
  let bits_first = Epalloc.mutated Bits_before_p_value in
  if bits_first then Epalloc.commit_update t.alloc vcls ~obj:new_v ~old:old_v;
  Leaf.set_p_value t.pool ~leaf new_v;
  if not bits_first then Epalloc.commit_update t.alloc vcls ~obj:new_v ~old:old_v

(* Algorithm 1: value, leaf, leaf bit, three persists; the value's bit
   is a mirror store. A slot that owns a value (a deleted key's,
   DESIGN.md §6 item 1) hands it over, Algorithm 2 lines 12-16: a value
   of the new value's class is rewritten in place; one of another class
   is freed once [Leaf.init] has made the slot name the new value, so no
   domain can be given it while the slot still names it. *)
let insert t ~key ~value =
  check_key key;
  let hash_key, art_key = split_key t key in
  let art = find_or_create_art t hash_key in
  match Art.find art art_key with
  | Some leaf -> update_leaf t ~leaf value
  | None ->
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
          Leaf.init ~crc t.pool ~leaf ~p_value:old_v key
      | _ ->
          let vobj = Epalloc.epmalloc t.alloc vcls in
          Value_obj.write ~crc t.pool ~obj:vobj value;
          let free_first = Epalloc.mutated Free_before_unname in
          (match old with
          | Some c when free_first -> Epalloc.release_value t.alloc c ~obj:old_v
          | _ -> ());
          Leaf.init ~crc t.pool ~leaf ~p_value:vobj key;
          (match old with
          | Some c when not free_first -> Epalloc.release_value t.alloc c ~obj:old_v
          | _ -> ());
          Epalloc.set_obj_bit t.alloc vcls ~obj:vobj);
      (match Art.insert art art_key leaf with
      | `Inserted -> ()
      | `Replaced _ -> assert false (* Art.find returned None above *));
      Epalloc.set_obj_bit t.alloc Chunk.Leaf_c ~obj:leaf;
      Atomic.incr t.count

(* Read a validated leaf's value; [None] if the leaf fails validation.
   The leaf's bit comes from the allocator's DRAM bitmap mirror; then two
   PM reads: the leaf (key and value pointer in one pass — the leaf key
   comparison a C implementation performs at the end of its ART descent)
   and the value object. *)
let read_validated t ~leaf key =
  if not (Epalloc.obj_bit t.alloc Chunk.Leaf_c ~obj:leaf) then None
  else
    match Leaf.read t.pool ~leaf with
    | Ok (v, stored) when v <> 0 && String.equal stored key ->
        Some (Value_obj.read t.pool ~obj:v)
    | Ok _ | Error _ -> None

(* Algorithm 4. *)
let search t key =
  if String.length key < 1 || String.length key > Leaf.max_key_len then None
  else
    let hash_key, art_key = split_key t key in
    match find_art t hash_key with
    | None -> None
    | Some art -> (
        match Art.find art art_key with
        | None -> None
        | Some leaf -> read_validated t ~leaf key)

let update t ~key ~value =
  if String.length key < 1 || String.length key > Leaf.max_key_len then false
  else
    let hash_key, art_key = split_key t key in
    match find_art t hash_key with
    | None -> false
    | Some art -> (
        match Art.find art art_key with
        | None -> false
        | Some leaf ->
            update_leaf t ~leaf value;
            true)

(* Algorithm 5. *)
let delete t key =
  if String.length key < 1 || String.length key > Leaf.max_key_len then false
  else
    let hash_key, art_key = split_key t key in
    match find_art t hash_key with
    | None -> false
    | Some art -> (
        match Art.delete art art_key with
        | None -> false
        | Some leaf ->
            (* one persist: the free slot keeps its p_value and owns
               that value (DESIGN.md §6 item 1) *)
            Epalloc.free_leaf t.alloc ~leaf;
            if Art.is_empty art then Hash_dir.remove t.dir hash_key;
            Atomic.decr t.count;
            true)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)

let infinity_key = String.make Leaf.max_key_len '\xff'

let is_strict_prefix p s =
  String.length p < String.length s && String.sub s 0 (String.length p) = p

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

let iter t f =
  Hash_dir.iter t.dir (fun hk art ->
      Art.iter art (fun ak leaf ->
          let key = hk ^ ak in
          match read_validated t ~leaf key with
          | Some v -> f key v
          | None -> ()))

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

let make_recovered pool alloc quarantines =
  let meter = Pmem.meter pool in
  {
    alloc;
    pool;
    dir = Hash_dir.create ~meter ();
    kh = Epalloc.kh alloc;
    internal_nodes = `Dram;
    count = Atomic.make 0;
    pm_node_bytes = Atomic.make 0;
    quarantines;
  }

(* A leaf slot's coordinates in errors and findings *)
let leaf_site alloc ~leaf =
  let chunk = Epalloc.chunk_of_obj alloc Chunk.Leaf_c leaf in
  let idx = Chunk.idx_of_obj Chunk.Leaf_c ~chunk ~obj:leaf in
  Hart_error.Leaf_slot { chunk; idx; leaf }

let leaf_slot_error ?keys alloc ~obj fmt =
  Hart_error.error ?keys (leaf_site alloc ~leaf:obj) fmt

let duplicate_leaf_error alloc ~key ~obj =
  leaf_slot_error ~keys:[ key ] alloc ~obj "duplicate committed leaf for key %S" key

(* The key a plain recovery indexes a committed leaf under, with the
   value it names, read in one metered leaf access. A length byte
   outside 1..max_key_len names no key the index could have stored:
   refuse the mount rather than index a bogus key. *)
let committed_leaf alloc ~obj =
  match Leaf.read (Epalloc.pool alloc) ~leaf:obj with
  | Ok (pv, key) -> (key, pv)
  | Error len ->
      leaf_slot_error alloc ~obj "committed leaf stores invalid key length %d" len

(* ---- quarantining recovery machinery ------------------------------ *)

type leaf_verdict =
  | Leaf_ok of { key : string; pv : int }
  | Leaf_bad of { key : string option; pv : int; detail : string }
      (* [pv] is the value offset to consider freeing — 0 when the
         pointer itself is unreadable or untrustworthy *)

(* Read-only validation of one committed leaf slot: media lines, key
   length, key CRC, value pointer resolution, value CRC; no value bit is
   durable to consult (DESIGN.md §6 item 3). Never writes, never raises
   — suitable for parallel scan workers. *)
let inspect_leaf alloc ~checksums ~bad_span ~leaf =
  let pool = Epalloc.pool alloc in
  try
    match Leaf.read pool ~leaf with
    | Error len ->
        Leaf_bad
          { key = None; pv = 0; detail = Printf.sprintf "invalid key length %d" len }
    | Ok (pv, key) ->
        if bad_span leaf Leaf.size then
          Leaf_bad { key = Some key; pv; detail = "leaf bytes on a corrupt media line" }
        else if checksums && not (Leaf.key_crc_ok pool ~leaf key) then
          Leaf_bad { key = Some key; pv; detail = "leaf key fails its CRC" }
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
          detail = Printf.sprintf "poisoned media line %d under leaf or value" line;
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

(* Excise one committed leaf from PM and report the loss: clear its bit,
   zero and persist its bytes (resealing the covering lines), free its
   value. [key] and [pv] are what the caller trusts of the leaf. A
   corrupt leaf's pointer is untrusted bytes that may alias a live key's
   value, so the caller passes [pv = 0] unless its exclusivity rule
   proves no kept leaf names the value. The DRAM index is the
   caller's. *)
let quarantine_leaf alloc ~report ~leaf ~key ~pv ~detail =
  (* fsck finds live leaves by their PM bit, which a stray write can set
     while the allocator's mirror bit stays clear *)
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

(* fsck: free a committed value that no live key and no owning slot
   names, and report it *)
let reclaim_value alloc ~report vcls ~obj ~detail =
  free_value alloc obj;
  let chunk = Epalloc.chunk_of_obj alloc vcls obj in
  let idx = Chunk.idx_of_obj vcls ~chunk ~obj in
  report
    {
      Hart_error.f_site = Value_slot { cls = Epalloc.cls_name vcls; chunk; idx; obj };
      f_action = Repaired;
      f_detail = detail;
      f_keys = [];
      f_capacity = 0;
    }

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
   this is crash residue. *)
let settle_free_slots alloc ~quarantine ~taken ~name stale_free =
  let pool = Epalloc.pool alloc in
  let claimed = Hashtbl.create 16 in
  let aliased pv = quarantine && (Hashtbl.mem taken pv || Hashtbl.mem claimed pv) in
  List.iter
    (fun (leaf, pv) ->
      if pv = 0 then zero_span pool ~off:leaf ~len:Leaf.size
      else if (not (aliased pv)) && Epalloc.is_value_obj alloc pv then begin
        Hashtbl.replace claimed pv ();
        Epalloc.set_owner alloc ~leaf true;
        name pv
      end
      else Leaf.set_p_value pool ~leaf 0)
    (List.sort compare stale_free)

(* Algorithm 7: one pipeline for every mode and domain count [d].

   - preamble (serial): [Epalloc.attach] replays the recycle log;
     replay orders PM writes. A quarantining mount first consults the
     device ECC, then attaches in guarded mode with a findings sink.
   - scan: domain [me] walks the leaf chunk list and takes every [d]-th
     chunk. It reads each live leaf's key and value pointer and names
     the value on its own cursor [named.(me)], or, quarantining,
     validates the leaf; it notes every free slot that still names a
     value. The entry goes to cell [work.(me).(p)] where [p =
     Hash_dir.hash hash_key mod d]: no two domains write one cell, and
     nothing is written to PM.
   - merge (quarantining only, serial): the keep-lower-offset rule for
     a duplicate key and for a value two keys name (order-independent,
     so every [d] excises the same leaves), then the quarantine PM
     writes; the kept values are named.
   - free slots (serial): [settle_free_slots] makes each free slot that
     names a value object its owner and names the value, and severs
     every other (DESIGN.md §6 item 2).
   - liveness (serial): [Epalloc.settle_values] commits every named
     value and frees every other (DESIGN.md §6 item 3).
   - build: domain [p] indexes column [p] straight into [t.dir].
     Partitioning by the directory hash gives the partitions disjoint
     hash keys, so no ART is shared between domains, and
     [Hash_dir.insert] serialises on its writer mutex.

   A plain mount has no merge, so a domain indexes the entries of its
   own partition as its scan reads them. At [d = 1] that is every entry:
   the chunk walk, each leaf read and its insert stay interleaved, and
   nothing is spawned.

   [Domain.join] gives the inter-phase happens-before. Only the attach,
   the quarantining merge, the free-slot step and the liveness pass
   flush, all on the calling domain, so an armed crash
   ([Pmem.arm_crash]) fires there and nested crash-during-recovery
   schedules stay well-defined under the fault explorer. *)
let recover_parallel ?domains ?(quarantine = false) pool =
  let d =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if d < 1 then invalid_arg "Hart.recover_parallel: domains must be >= 1";
  let findings = ref [] in
  let report f = findings := f :: !findings in
  let bad_span, alloc =
    if not quarantine then ((fun _ _ -> false), Epalloc.attach pool)
    else begin
      let media = Pmem.media_verify pool in
      let bad_lines = media.Pmem.corrupt_lines @ media.Pmem.poisoned_lines in
      (Pmem.touches_lines bad_lines, Epalloc.attach ~bad_lines ~report pool)
    end
  in
  let checksums = Epalloc.checksums alloc in
  let t = make_recovered pool alloc findings in
  let work = Array.init d (fun _ -> Array.init d (fun _ -> ref [])) in
  let badq = Array.init d (fun _ -> ref []) in
  let stale_free = Array.init d (fun _ -> ref []) in
  (* the one indexing step; [n] counts the calling domain's inserts *)
  let index n hash_key art_key leaf =
    let art = find_or_create_art t hash_key in
    match Art.insert art art_key leaf with
    | `Inserted -> incr n
    | `Replaced _ -> duplicate_leaf_error alloc ~key:(hash_key ^ art_key) ~obj:leaf
  in
  let classify leaf =
    if quarantine then inspect_leaf alloc ~checksums ~bad_span ~leaf
    else
      let key, pv = committed_leaf alloc ~obj:leaf in
      Leaf_ok { key; pv }
  in
  let named = Array.init d (fun _ -> Epalloc.runs ()) in
  let push cell x = cell := x :: !cell in
  let scan me =
    let n = ref 0 and i = ref 0 in
    Epalloc.iter_chain alloc Chunk.Leaf_c (fun chunk ->
        if !i mod d = me then
          Chunk.iter_slots pool Chunk.Leaf_c ~chunk (fun ~idx:_ ~obj:leaf ~live ->
              if live then (
                match classify leaf with
                | Leaf_ok { key; pv } ->
                    if not quarantine then Epalloc.name_value alloc named.(me) pv;
                    let hash_key, art_key = split_key t key in
                    let p = Hash_dir.hash hash_key mod d in
                    if p = me && not quarantine then index n hash_key art_key leaf
                    else push work.(me).(p) (hash_key, art_key, leaf, pv)
                | Leaf_bad { key; pv; detail } -> push badq.(me) (leaf, key, pv, detail))
              else
                match Leaf.p_value pool ~leaf with
                | 0 -> ()
                | pv -> push stale_free.(me) (leaf, pv)
                | exception (Pmem.Media_poisoned _ | Invalid_argument _)
                  when quarantine ->
                    (* unreadable pointer in a free slot: clear, free nothing *)
                    push stale_free.(me) (leaf, 0));
        incr i);
    ignore (Atomic.fetch_and_add t.count !n : int)
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
  settle_free_slots alloc ~quarantine ~taken:kept_values ~name (all stale_free);
  Epalloc.settle_values alloc (Array.to_list named);
  let build p =
    let n = ref 0 in
    for me = 0 to d - 1 do
      List.iter
        (fun (hash_key, art_key, leaf, _) ->
          if not (Hashtbl.mem dropped leaf) then index n hash_key art_key leaf)
        !(work.(me).(p))
    done;
    ignore (Atomic.fetch_and_add t.count !n : int)
  in
  run_phase build;
  t

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
    fail "%d committed PM leaves but %d reachable from ARTs (leak?)" live_leaves !n;
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
  Epalloc.iter_chunks t.alloc Chunk.Leaf_c (fun chunk ->
      Chunk.iter_slots t.pool Chunk.Leaf_c ~chunk (fun ~idx:_ ~obj:leaf ~live ->
          if not (live || Hashtbl.mem owning leaf) then
            let v = Leaf.p_value t.pool ~leaf in
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
(* fsck / scrub (self-healing integrity pass)                          *)

(* Remove a leaf's binding from the DRAM index, hunting linearly when
   the key is unreadable: fsck's half of excising a leaf online, before
   [quarantine_leaf] excises it from PM. *)
let unbind t ~key ~leaf =
  (match key with
  | Some key -> (
      let hash_key, art_key = split_key t key in
      match find_art t hash_key with
      | None -> ()
      | Some art -> (
          match Art.delete art art_key with
          | Some l when l = leaf ->
              Atomic.decr t.count;
              if Art.is_empty art then Hash_dir.remove t.dir hash_key
          | Some l ->
              (* a different leaf legitimately owns this key: restore *)
              ignore (Art.insert art art_key l)
          | None -> ()))
  | None -> (
      (* key unreadable: linear hunt over the directory *)
      let found = ref None in
      (try
         Hash_dir.iter t.dir (fun hk art ->
             Art.iter art (fun ak l ->
                 if l = leaf then begin
                   found := Some (hk, ak);
                   raise Exit
                 end))
       with Exit -> ());
      match !found with
      | None -> ()
      | Some (hk, ak) -> (
          match find_art t hk with
          | None -> ()
          | Some art ->
              ignore (Art.delete art ak);
              Atomic.decr t.count;
              if Art.is_empty art then Hash_dir.remove t.dir hk)))

(* Reference map of the mounted index: value offset -> (key, leaf).
   fsck's media attribution needs the reverse direction (which key owns
   the value on this corrupt line), and the exclusivity check for value
   freeing needs the forward set. *)
let value_owners t =
  let owner = Hashtbl.create 256 in
  Hash_dir.iter t.dir (fun hk art ->
      Art.iter art (fun ak leaf ->
          match Leaf.p_value t.pool ~leaf with
          | 0 -> ()
          | pv -> Hashtbl.replace owner pv (hk ^ ak, leaf)
          | exception Pmem.Media_poisoned _ -> ()));
  owner

(* value offset -> the owning free leaf slot that names it *)
let owned_values t =
  let owned = Hashtbl.create 16 in
  Epalloc.iter_owned t.alloc (fun ~leaf ->
      match Leaf.p_value t.pool ~leaf with
      | pv -> Hashtbl.replace owned pv leaf
      | exception Pmem.Media_poisoned _ -> ());
  owned

(* fsck: a free slot stops owning and stops naming a value *)
let sever t ~leaf =
  Epalloc.set_owner t.alloc ~leaf false;
  Leaf.set_p_value t.pool ~leaf 0

let fsck ?(deep = true) t =
  let pool = t.pool and alloc = t.alloc in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let checksums = Epalloc.checksums alloc in
  let logs = Epalloc.logs alloc in
  let lb = Pmem.line_bytes in
  let root_lo = Epalloc.root_off and root_hi = Epalloc.root_off + Epalloc.root_bytes in
  (* -------- phase 1: media attribution ---------------------------- *)
  let media = Pmem.media_verify pool in
  let bad_lines = media.Pmem.corrupt_lines @ media.Pmem.poisoned_lines in
  let bad_span = Pmem.touches_lines bad_lines in
  let detected_lines = Hashtbl.create 8 in
  let reclaimed = Hashtbl.create 8 in
  let scrub_log_slot = Epalloc.scrub_log_slot alloc ~report:emit ~before_replay:false in
  let quarantine_leaf_here ~owner ~leaf ~detail =
    let key, pv =
      match Leaf.read pool ~leaf with
      | Ok (pv, key) -> (Some key, pv)
      | Error _ | (exception (Pmem.Media_poisoned _ | Invalid_argument _)) -> (
          (* the key is unreadable, but a pointer on a clean line may
             still name a value to free *)
          match Leaf.p_value pool ~leaf with
          | pv -> (None, pv)
          | exception (Pmem.Media_poisoned _ | Invalid_argument _) -> (None, 0))
    in
    unbind t ~key ~leaf;
    (* exclusive unless some *other* live leaf owns this value *)
    let exclusive =
      match Hashtbl.find_opt owner pv with Some (_, l) -> l = leaf | None -> true
    in
    quarantine_leaf alloc ~report:emit ~leaf ~key
      ~pv:(if exclusive then pv else 0)
      ~detail;
    Hashtbl.remove owner pv
  in
  let owner = value_owners t in
  List.iter
    (fun line ->
      let lo = line * lb in
      if lo < root_hi && lo + lb > root_lo then begin
        (* root block: the scalar line is unrepairable in place; the
           lines past it are repaired *)
        if lo <= root_lo then begin
          Hashtbl.replace detected_lines line ();
          emit
            {
              Hart_error.f_site = Root_block { off = root_lo };
              f_action = Detected;
              f_detail =
                Printf.sprintf
                  "media fault on line %d under the root scalars" line;
              f_keys = [];
              f_capacity = 0;
            }
        end
        else Epalloc.repair_root_line alloc ~report:emit ~before_replay:false line
      end
      else
        match Epalloc.chunk_covering alloc lo with
        | None ->
            (* unregistered space: free-list regions, allocation padding —
               zero-fill reseals the line and nothing can reference it *)
            zero_span pool ~off:lo ~len:lb;
            emit
              {
                Hart_error.f_site = Pool_line { line };
                f_action = Repaired;
                f_detail = "unreferenced pool line zeroed and resealed";
                f_keys = [];
                f_capacity = 0;
              }
        | Some (cls, chunk) ->
            if line = chunk / lb then begin
              (* prologue line: bitmap and chain pointer untrustworthy;
                 nothing below line granularity can prove which — leave
                 for the mount-time refusal, report the blast radius *)
              Hashtbl.replace detected_lines line ();
              emit
                {
                  Hart_error.f_site =
                    Chunk_meta { cls = Epalloc.cls_name cls; chunk };
                  f_action = Detected;
                  f_detail =
                    Printf.sprintf
                      "media fault on prologue line %d — chunk metadata \
                       untrustworthy"
                      line;
                  f_keys = [];
                  f_capacity = Chunk.objs_per_chunk;
                }
            end
            else begin
              (* object area: quarantine live objects the line touches,
                 zero free slots and padding *)
              let osize = Chunk.obj_size cls in
              let touched_live = ref false in
              let live = Epalloc.committed_bits alloc cls ~chunk in
              for idx = 0 to Chunk.objs_per_chunk - 1 do
                let obj = Chunk.obj_off cls ~chunk ~idx in
                if obj < lo + lb && obj + osize > lo then
                  if live land (1 lsl idx) <> 0 then begin
                    touched_live := true;
                    if cls = Chunk.Leaf_c then
                      quarantine_leaf_here ~owner ~leaf:obj
                        ~detail:
                          (Printf.sprintf
                             "leaf bytes on media-corrupt line %d" line)
                    else begin
                      (* a committed value object: the key that owns it
                         loses its value — quarantine that key *)
                      match Hashtbl.find_opt owner obj with
                      | Some (_, leaf) ->
                          quarantine_leaf_here ~owner ~leaf
                            ~detail:
                              (Printf.sprintf
                                 "value object @%d on media-corrupt line \
                                  %d"
                                 obj line)
                      | None ->
                          (* a slot that owned it is severed in phase 2,
                             under this finding *)
                          Hashtbl.replace reclaimed obj ();
                          reclaim_value alloc ~report:emit cls ~obj
                            ~detail:
                              "unreferenced committed value on corrupt line \
                               reclaimed"
                    end
                  end
                  else begin
                    (* a zeroed slot names nothing: its value, if it
                       owned one, is an orphan for phase 2 *)
                    if cls = Chunk.Leaf_c then
                      Epalloc.set_owner alloc ~leaf:obj false;
                    zero_span pool ~off:obj ~len:osize
                  end
              done;
              (* tail padding of the chunk's allocation *)
              let chunk_end = chunk + Chunk.chunk_bytes cls in
              if chunk_end < lo + lb then
                zero_span pool ~off:(max lo chunk_end)
                  ~len:(lo + lb - max lo chunk_end);
              if not !touched_live then
                emit
                  {
                    Hart_error.f_site = Pool_line { line };
                    f_action = Repaired;
                    f_detail =
                      "corrupt line touched only free slots/padding — \
                       zeroed and resealed";
                    f_keys = [];
                    f_capacity = 0;
                  }
            end)
    bad_lines;
  (* -------- phase 2: cross-structure invariants ------------------- *)
  let owner = value_owners t in
  let reachable = Hashtbl.create 256 in
  Hash_dir.iter t.dir (fun hk art ->
      Art.iter art (fun ak leaf -> Hashtbl.replace reachable leaf (hk ^ ak)));
  (* an owning free slot is no finding while its value is committed and
     no live key's; one that is not, and a slot naming a value it does
     not own, is severed *)
  let owned = owned_values t in
  Hashtbl.filter_map_inplace
    (fun pv leaf ->
      if Epalloc.value_committed alloc pv && not (Hashtbl.mem owner pv) then Some leaf
      else begin
        sever t ~leaf;
        if not (Hashtbl.mem reclaimed pv) then
          emit
            {
              Hart_error.f_site = leaf_site alloc ~leaf;
              f_action = Repaired;
              f_detail = "free leaf slot owning an uncommitted or live value severed";
              f_keys = [];
              f_capacity = 0;
            };
        None
      end)
    owned;
  (* chunks come from the allocator's DRAM registry: a clobbered chain
     pointer cannot lead these walks astray *)
  Epalloc.iter_chunks alloc Chunk.Leaf_c (fun chunk ->
      for idx = 0 to Chunk.objs_per_chunk - 1 do
        let leaf = Chunk.obj_off Chunk.Leaf_c ~chunk ~idx in
        if Chunk.test_bit pool ~chunk ~idx then begin
          if not (Hashtbl.mem reachable leaf) then
            quarantine_leaf_here ~owner ~leaf
              ~detail:"committed leaf unreachable from the index"
        end
        else
          match Leaf.p_value pool ~leaf with
          | 0 -> ()
          | pv when Hashtbl.find_opt owned pv = Some leaf -> ()
          | pv ->
              if
                (not (Hashtbl.mem owner pv || Hashtbl.mem owned pv))
                && Epalloc.value_committed alloc pv
              then free_value alloc pv;
              sever t ~leaf;
              emit
                {
                  Hart_error.f_site = leaf_site alloc ~leaf;
                  f_action = Repaired;
                  f_detail = "stale value reference in free leaf slot severed";
                  f_keys = [];
                  f_capacity = 0;
                }
          | exception Pmem.Media_poisoned _ -> ()
      done);
  (* committed values that no live key and no owning slot names *)
  List.iter
    (fun vcls ->
      let orphans = ref [] in
      Epalloc.iter_live_objs alloc vcls (fun ~obj ->
          if not (Hashtbl.mem owner obj || Hashtbl.mem owned obj) then
            orphans := obj :: !orphans);
      List.iter
        (fun obj ->
          reclaim_value alloc ~report:emit vcls ~obj
            ~detail:"unreferenced committed value object reclaimed")
        !orphans)
    [ Chunk.Val8; Chunk.Val16; Chunk.Val32 ];
  (* every leaf chunk header must be the one its bitmap mirror implies:
     the hint/full byte is a pure function of the bitmap, and the mirror
     holds the bitmap the allocator last stored (skipped when the
     prologue line is flagged by the ECC — rewriting would reseal a line
     whose chain pointer is garbage). A value chunk's header is never
     read, so it needs no repair. *)
  Epalloc.iter_chunks alloc Chunk.Leaf_c (fun chunk ->
      let repaired f_detail =
        emit
          {
            Hart_error.f_site = Chunk_meta { cls = Epalloc.cls_name Chunk.Leaf_c; chunk };
            f_action = Repaired;
            f_detail;
            f_keys = [];
            f_capacity = 0;
          }
      in
      if not (bad_span chunk 1) then
        match Epalloc.repair_header alloc ~chunk with
        | `Intact -> ()
        | `Hint_rewritten -> repaired "hint/full header byte recomputed from the bitmap"
        | `Bitmap_restored -> repaired "PM bitmap restored from the allocator's DRAM mirror");
  (* -------- phase 3 (deep): checksum walk ------------------------- *)
  if deep then begin
    (if checksums then
       let owner = value_owners t in
       let to_check = ref [] in
       Hash_dir.iter t.dir (fun _ art ->
           Art.iter art (fun _ leaf -> to_check := leaf :: !to_check));
       List.iter
         (fun leaf ->
           match
             inspect_leaf alloc ~checksums ~bad_span:(fun _ _ -> false) ~leaf
           with
           | Leaf_ok _ -> ()
           | Leaf_bad { detail; _ } ->
               quarantine_leaf_here ~owner ~leaf ~detail)
         !to_check);
    List.iter scrub_log_slot (Microlog.verify logs)
  end;
  (* -------- final: residual media state --------------------------- *)
  let residual = Pmem.media_verify pool in
  List.iter
    (fun line ->
      if not (Hashtbl.mem detected_lines line) then
        emit
          {
            Hart_error.f_site = Pool_line { line };
            f_action = Detected;
            f_detail =
              "line still fails ECC after repair (stuck-at media: writes \
               do not take)";
            f_keys = [];
            f_capacity = 0;
          })
    (residual.Pmem.corrupt_lines @ residual.Pmem.poisoned_lines);
  List.rev !findings

let scrub t = fsck ~deep:false t
