(** Out-of-leaf value objects for the pure-PM baseline trees (WORT,
    WOART, ART+CoW): a length byte followed by the payload, allocated
    directly from the pool — these trees have no EPallocator, which is
    exactly the allocation cost HART's chunking amortises. The paper
    applies this same out-of-place update mechanism to all three
    ART-based trees (§IV-B, Update). *)

module Pmem = Hart_pmem.Pmem

let write pool payload =
  let obj = Pmem.alloc pool (1 + String.length payload) in
  Pmem.set_u8 pool obj (String.length payload);
  if String.length payload > 0 then Pmem.set_string pool ~off:(obj + 1) payload;
  Pmem.persist pool ~off:obj ~len:(1 + String.length payload);
  obj

(* Same layout as a HART value object, read the same way: one access
   per line the object covers. *)
let read pool obj = Hart_core.Value_obj.read pool ~obj

let free pool obj =
  let len = Pmem.get_u8 pool obj in
  Pmem.free pool ~off:obj ~len:(1 + len)

(* The shared 32-byte leaf layout (Hart_core.Leaf): key + value pointer.
   [update] is the uniform out-of-place value update: new value written
   and persisted, 8-byte pointer swap as commit, old value freed. *)
let update_leaf pool ~leaf payload =
  let head = Hart_core.Leaf.head pool ~leaf in
  let old_v = Hart_core.Leaf.head_p_value head in
  let new_v = write pool payload in
  Hart_core.Leaf.set_p_value pool ~leaf ~head new_v;
  if old_v <> 0 then free pool old_v

(* Validated read: the final PM key comparison of a radix descent. *)
let read_leaf pool ~leaf key =
  match Hart_core.Leaf.read pool ~leaf with
  | Ok (v, stored) when v <> 0 && String.equal stored key -> Some (read pool v)
  | Ok _ | Error _ -> None

let free_leaf pool ~leaf =
  let v = Hart_core.Leaf.p_value pool ~leaf in
  if v <> 0 then free pool v;
  Pmem.free pool ~off:leaf ~len:Hart_core.Leaf.size

let new_leaf pool ~key ~payload =
  let leaf = Pmem.alloc pool Hart_core.Leaf.size in
  let head = Hart_core.Leaf.write_key pool ~leaf key in
  let v = write pool payload in
  Hart_core.Leaf.set_p_value pool ~leaf ~head v;
  leaf
