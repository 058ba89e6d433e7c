(* Bitmap ART node layer (DESIGN.md §14).

   The logical structure is the same adaptive radix tree as before
   (pessimistic path compression, lazy expansion, ends-here leaves), but
   the physical node representation is new:

   - each inner node is an integer handle into a flat [int] Bigarray
     ([meta], 16 words per node) holding the modelled address, child
     count, capacity class, a 256-bit membership bitset stored as
     8x32-bit words, the ends-here leaf index and the offset of the
     child block;
   - children live in a dense, byte-sorted block carved out of a single
     shared [int] Bigarray arena ([kids]); a child is found by testing
     its bit and popcount-ranking the bitset below it. Blocks double in
     capacity (4, 8, ..., 256) and shrink with 1/4-occupancy hysteresis;
     capacity-256 blocks are byte-indexed directly, like NODE256 was;
   - leaf payloads are spilled to a growable table of ['v leaf] records
     so the Bigarrays stay unboxed; a child word is a tagged handle
     (leaf index shifted with a low tag bit, or inner handle).

   The *modelled* cost layer is unchanged: the adaptive NODE4/16/48/256
   class of a node is a pure function of its child count (grow happens
   exactly at 4->5, 16->17, 48->49 and shrink immediately at 5->4,
   17->16, 49->48), so [kids_size]-based footprints, every structural
   event (addresses, [slot_off]s, kinds, orderings) and every
   [Meter.access] touch are reproduced bit-for-bit as the boxed layer
   emitted them — the NODE48 physical slot assignment that [slot_off]
   exposed is emulated by a small side table on the (rare) class-48
   mutation paths. [Art_boxed] keeps the old representation for
   differential tests and the [exp_art_nodes] benchmark. *)

module Meter = Hart_pmem.Meter
module Bits = Hart_util.Bits
module A = Bigarray.Array1

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

(* Spilled leaves live in two parallel arrays rather than an array of
   records: the search hot path compares [leaf_keys.(i)] with one load
   instead of option-box -> record -> key, and a hit returns the
   already-boxed [leaf_vals.(i)] without allocating. [None] marks a free
   slot (the empty string cannot: "" is a valid key). *)

type event =
  | Node_created of { addr : int; bytes : int }
  | Node_freed of { addr : int; bytes : int }
  | Child_added of { addr : int; slot_off : int; kind : int }
  | Child_replaced of { addr : int; slot_off : int; kind : int }
  | Child_removed of { addr : int; slot_off : int; kind : int }
  | Prefix_changed of { addr : int }
  | Here_changed of { addr : int }

(* Modelled NODE48 slot state: the byte -> physical-slot map plus a
   48-bit occupancy word, maintained only while a node's modelled class
   is 48 so that [slot_off] can report the same slot the boxed layer's
   lowest-free allocation would have used. *)
type n48_state = { mutable used : int; map : Bytes.t }

type 'v t = {
  meter : Meter.t option;
  space : Meter.space;
  alloc_node : int -> int;
  free_node : addr:int -> size:int -> unit;
  on_event : event -> unit;
  mutable root : int;  (* tagged child word; [nil] when empty *)
  mutable count : int;
  mutable bytes : int;  (* modelled C footprint of inner nodes *)
  (* physical pools *)
  mutable meta : iarr;
  mutable prefixes : string array;  (* parallel to meta handles *)
  mutable node_top : int;
  mutable node_free : int list;
  mutable kids : iarr;  (* shared child-block arena *)
  mutable kids_top : int;
  kid_free : int list array;  (* free blocks, per capacity class 0..6 *)
  mutable dense_used : int;  (* live child slots, Σ n *)
  mutable dense_reserved : int;  (* slots in live nodes' blocks, Σ cap *)
  mutable leaf_keys : string array;  (* spilled-leaf table ... *)
  mutable leaf_vals : 'v option array;  (* ... [None] = free slot *)
  mutable leaf_top : int;
  mutable leaf_free : int list;
  mutable n48 : n48_state option array;  (* parallel to meta handles *)
  (* Results of the running [insert] or [delete], which a writer runs
     alone: no per-call ref or closure carries them, and as ints they
     cost no write barrier. *)
  mutable hit : int;  (* the key's leaf found there, -1 for none *)
  mutable rebuilt : bool;  (* see [delete_from] *)
}

(* meta-word offsets within a handle's 16-word stride *)
let stride = 16
let f_addr = 0
let f_n = 1
let f_cls = 2 (* capacity class: cap = 4 lsl cls, cls in 0..6 *)
let f_koff = 3 (* child-block offset in the kids arena *)
let f_here = 4 (* ends-here leaf index, -1 when absent *)
let f_bits = 5 (* 8x32-bit membership bitset words *)

(* tagged child words *)
let nil = -1
let leaf_word i = (i lsl 1) lor 1
let inner_word h = h lsl 1
let is_leaf_word x = x land 1 = 1
let word_ix x = x asr 1

let no_slot = 255 (* empty marker in the modelled NODE48 index *)

(* Modelled adaptive class and C sizes: a pure function of the child
   count, because the boxed layer grew exactly when an add overflowed a
   class and shrank immediately at the class boundary after a removal. *)
let mclass n = if n <= 4 then 4 else if n <= 16 then 16 else if n <= 48 then 48 else 256

let msize = function 4 -> 56 | 16 -> 160 | 48 -> 656 | _ -> 2064

(* Default hook, compared physically so the mutation paths can skip
   constructing event records nobody will see. *)
let ignore_event (_ : event) = ()

let create ?meter ?(space = Meter.Dram) ?alloc_node ?free_node
    ?(on_event = ignore_event) () =
  let alloc_node =
    match (alloc_node, meter) with
    | Some f, _ -> f
    | None, Some m -> Meter.dram_alloc m
    | None, None ->
        (* Distinct synthetic line-aligned addresses even without a
           meter: a shared addr 0 would collapse every cache-simulation
           event onto one another for consumers of [on_event]. *)
        let next = ref 64 in
        fun size ->
          let a = !next in
          next := a + ((size + 63) / 64 * 64);
          a
  and free_node =
    match (free_node, meter) with
    | Some f, _ -> f
    | None, Some m -> fun ~addr ~size -> Meter.dram_free m ~addr ~size
    | None, None -> fun ~addr:_ ~size:_ -> ()
  in
  {
    meter;
    space;
    alloc_node;
    free_node;
    on_event;
    root = nil;
    count = 0;
    bytes = 16;
    meta = A.create Bigarray.int Bigarray.c_layout 0;
    prefixes = [||];
    node_top = 0;
    node_free = [];
    kids = A.create Bigarray.int Bigarray.c_layout 0;
    kids_top = 0;
    kid_free = Array.make 7 [];
    dense_used = 0;
    dense_reserved = 0;
    leaf_keys = [||];
    leaf_vals = [||];
    leaf_top = 0;
    leaf_free = [];
    n48 = [||];
    hit = -1;
    rebuilt = false;
  }

let[@inline] evented t = t.on_event != ignore_event

let count t = t.count
let is_empty t = t.count = 0

(* ------------------------------------------------------------------ *)
(* Pools                                                               *)

let get_addr t h = A.unsafe_get t.meta ((h * stride) + f_addr)
let get_n t h = A.unsafe_get t.meta ((h * stride) + f_n)
let get_here t h = A.unsafe_get t.meta ((h * stride) + f_here)
let set_here t h v = A.unsafe_set t.meta ((h * stride) + f_here) v

let[@inline] leaf_key t i = Array.unsafe_get t.leaf_keys i

let leaf_value t i =
  match Array.unsafe_get t.leaf_vals i with
  | Some v -> v
  | None -> invalid_arg "Art: dangling leaf handle"

let alloc_leaf t key v =
  match t.leaf_free with
  | i :: rest ->
      t.leaf_free <- rest;
      t.leaf_keys.(i) <- key;
      t.leaf_vals.(i) <- Some v;
      i
  | [] ->
      if t.leaf_top = Array.length t.leaf_vals then begin
        let cap = max 8 (2 * t.leaf_top) in
        let nk = Array.make cap "" in
        Array.blit t.leaf_keys 0 nk 0 t.leaf_top;
        t.leaf_keys <- nk;
        let nv = Array.make cap None in
        Array.blit t.leaf_vals 0 nv 0 t.leaf_top;
        t.leaf_vals <- nv
      end;
      let i = t.leaf_top in
      t.leaf_top <- i + 1;
      t.leaf_keys.(i) <- key;
      t.leaf_vals.(i) <- Some v;
      i

let free_leaf t i =
  t.leaf_keys.(i) <- "";
  t.leaf_vals.(i) <- None;
  t.leaf_free <- i :: t.leaf_free

let alloc_handle t =
  let h =
    match t.node_free with
    | h :: rest ->
        t.node_free <- rest;
        h
    | [] ->
        if (t.node_top + 1) * stride > A.dim t.meta then begin
          let cap = max 16 (2 * (A.dim t.meta / stride)) in
          let nu = A.create Bigarray.int Bigarray.c_layout (cap * stride) in
          A.blit t.meta (A.sub nu 0 (A.dim t.meta));
          t.meta <- nu;
          let np = Array.make cap "" in
          Array.blit t.prefixes 0 np 0 (Array.length t.prefixes);
          t.prefixes <- np;
          let ns = Array.make cap None in
          Array.blit t.n48 0 ns 0 (Array.length t.n48);
          t.n48 <- ns
        end;
        let h = t.node_top in
        t.node_top <- h + 1;
        h
  in
  let base = h * stride in
  for i = 0 to stride - 1 do
    A.unsafe_set t.meta (base + i) 0
  done;
  A.unsafe_set t.meta (base + f_here) (-1);
  t.n48.(h) <- None;
  h

let alloc_kids t cls =
  let cap = 4 lsl cls in
  t.dense_reserved <- t.dense_reserved + cap;
  match t.kid_free.(cls) with
  | off :: rest ->
      t.kid_free.(cls) <- rest;
      off
  | [] ->
      let need = t.kids_top + cap in
      if need > A.dim t.kids then begin
        let dim' = max need (max 64 (2 * A.dim t.kids)) in
        let nu = A.create Bigarray.int Bigarray.c_layout dim' in
        A.blit t.kids (A.sub nu 0 (A.dim t.kids));
        t.kids <- nu
      end;
      let off = t.kids_top in
      t.kids_top <- need;
      off

let free_kids t cls off =
  t.dense_reserved <- t.dense_reserved - (4 lsl cls);
  t.kid_free.(cls) <- off :: t.kid_free.(cls)

(* ------------------------------------------------------------------ *)
(* Metering                                                            *)

let touch t h =
  match t.meter with
  | None -> ()
  | Some m -> Meter.access m t.space ~addr:(get_addr t h) ~write:false

(* Byte offset of the child slot for byte [c], so that big nodes span
   several simulated cache lines like their C counterparts. Uses the
   modelled class, as before. *)
let touch_child t h c =
  match t.meter with
  | None -> ()
  | Some m ->
      let off =
        match mclass (get_n t h) with
        | 4 | 16 -> 16
        | 48 -> 16 + c
        | _ -> 16 + (c * 8)
      in
      Meter.access m t.space ~addr:(get_addr t h + off) ~write:false

(* ------------------------------------------------------------------ *)
(* Modelled cost layer                                                 *)

let alloc_inner t ~prefix =
  let h = alloc_handle t in
  let koff = alloc_kids t 0 in
  let base = h * stride in
  A.unsafe_set t.meta (base + f_koff) koff;
  t.prefixes.(h) <- prefix;
  t.bytes <- t.bytes + 56;
  let addr = t.alloc_node 56 in
  A.unsafe_set t.meta (base + f_addr) addr;
  if evented t then t.on_event (Node_created { addr; bytes = 56 });
  h

(* The modelled size-class change: same bookkeeping and event order as
   the boxed layer's [replace_kids]. *)
let replace_modelled t h ~old_k ~new_k =
  let old_size = msize old_k and size = msize new_k in
  t.bytes <- t.bytes + size - old_size;
  let old_addr = get_addr t h in
  t.free_node ~addr:old_addr ~size:old_size;
  if evented t then t.on_event (Node_freed { addr = old_addr; bytes = old_size });
  let addr = t.alloc_node size in
  A.unsafe_set t.meta ((h * stride) + f_addr) addr;
  if evented t then t.on_event (Node_created { addr; bytes = size })

(* Iterate the set bytes of [h]'s bitset in ascending order. *)
let iter_bytes_asc t h f =
  let base = h * stride in
  for w = 0 to 7 do
    let word = ref (A.unsafe_get t.meta (base + f_bits + w)) in
    let cbase = w lsl 5 in
    while !word <> 0 do
      f (cbase + Bits.ctz_w !word);
      word := !word land (!word - 1)
    done
  done

(* Modelled NODE48 slot maps. On entry to class 48 — upward from 16 or
   downward from 256 — the boxed layer rebuilt the slot array in
   byte-ascending order; while in class 48 each added byte took the
   lowest free physical slot. *)
let n48_get t h =
  match Array.unsafe_get t.n48 h with
  | Some st -> st
  | None -> invalid_arg "Art: missing NODE48 slot map"

let n48_enter t h =
  let st = { used = 0; map = Bytes.make 256 (Char.chr no_slot) } in
  let j = ref 0 in
  iter_bytes_asc t h (fun c ->
      Bytes.set_uint8 st.map c !j;
      st.used <- st.used lor (1 lsl !j);
      incr j);
  t.n48.(h) <- Some st

let n48_slot t h c = Bytes.get_uint8 (n48_get t h).map c

let n48_assign t h c =
  let st = n48_get t h in
  let rec free_slot s = if (st.used lsr s) land 1 = 0 then s else free_slot (s + 1) in
  let s = free_slot 0 in
  st.used <- st.used lor (1 lsl s);
  Bytes.set_uint8 st.map c s

let n48_release t h c =
  let st = n48_get t h in
  let s = Bytes.get_uint8 st.map c in
  st.used <- st.used land lnot (1 lsl s);
  Bytes.set_uint8 st.map c no_slot

(* ------------------------------------------------------------------ *)
(* Physical child-block operations                                     *)

(* Rank of byte [c]: set bits strictly below it, i.e. its position in
   the dense sorted child block. *)
let rank_of_byte t h c =
  let base = (h * stride) + f_bits in
  let idx = c lsr 5 in
  let r = ref (Bits.rank_below_w (A.unsafe_get t.meta (base + idx)) (c land 31)) in
  for w = 0 to idx - 1 do
    r := !r + Bits.popcount_w (A.unsafe_get t.meta (base + w))
  done;
  !r

(* Modelled byte offset of byte [c]'s child slot within the node (same
   values the boxed layer reported). *)
let slot_off_of t h c =
  match mclass (get_n t h) with
  | 4 | 16 -> 16 + (rank_of_byte t h c * 8)
  | 48 ->
      let s = n48_slot t h c in
      16 + 256 + (if s = no_slot then 0 else s * 8)
  | _ -> 16 + (c * 8)

let find_child t h c =
  let meta = t.meta in
  let base = h * stride in
  let w = A.unsafe_get meta (base + f_bits + (c lsr 5)) in
  if (w lsr (c land 31)) land 1 = 0 then nil
  else begin
    let koff = A.unsafe_get meta (base + f_koff) in
    if A.unsafe_get meta (base + f_cls) = 6 then A.unsafe_get t.kids (koff + c)
    else A.unsafe_get t.kids (koff + rank_of_byte t h c)
  end

let set_child_phys t h c child =
  let base = h * stride in
  let w = A.unsafe_get t.meta (base + f_bits + (c lsr 5)) in
  if (w lsr (c land 31)) land 1 = 0 then invalid_arg "Art.set_child: absent";
  let koff = A.unsafe_get t.meta (base + f_koff) in
  if A.unsafe_get t.meta (base + f_cls) = 6 then
    A.unsafe_set t.kids (koff + c) child
  else A.unsafe_set t.kids (koff + rank_of_byte t h c) child

let grow_phys t h =
  let base = h * stride in
  let n = A.unsafe_get t.meta (base + f_n) in
  let cls = A.unsafe_get t.meta (base + f_cls) in
  let koff = A.unsafe_get t.meta (base + f_koff) in
  let cls' = cls + 1 in
  let koff' = alloc_kids t cls' in
  let kids = t.kids in
  (if cls' = 6 then begin
     (* dense -> byte-indexed: scatter by byte *)
     for i = 0 to 255 do
       A.unsafe_set kids (koff' + i) 0
     done;
     let r = ref 0 in
     iter_bytes_asc t h (fun c ->
         A.unsafe_set kids (koff' + c) (A.unsafe_get kids (koff + !r));
         incr r)
   end
   else
     for i = 0 to n - 1 do
       A.unsafe_set kids (koff' + i) (A.unsafe_get kids (koff + i))
     done);
  free_kids t cls koff;
  A.unsafe_set t.meta (base + f_cls) cls';
  A.unsafe_set t.meta (base + f_koff) koff'

(* Halve the block while occupancy is at or below a quarter, keeping a
   2x hysteresis band so delete/insert churn does not thrash. *)
let rec maybe_shrink_phys t h =
  let base = h * stride in
  let n = A.unsafe_get t.meta (base + f_n) in
  let cls = A.unsafe_get t.meta (base + f_cls) in
  if cls > 0 && n * 4 <= 4 lsl cls then begin
    let koff = A.unsafe_get t.meta (base + f_koff) in
    let cls' = cls - 1 in
    let koff' = alloc_kids t cls' in
    let kids = t.kids in
    (if cls = 6 then begin
       (* byte-indexed -> dense gather *)
       let r = ref 0 in
       iter_bytes_asc t h (fun c ->
           A.unsafe_set kids (koff' + !r) (A.unsafe_get kids (koff + c));
           incr r)
     end
     else
       for i = 0 to n - 1 do
         A.unsafe_set kids (koff' + i) (A.unsafe_get kids (koff + i))
       done);
    free_kids t cls koff;
    A.unsafe_set t.meta (base + f_cls) cls';
    A.unsafe_set t.meta (base + f_koff) koff';
    maybe_shrink_phys t h
  end

let phys_insert t h c child =
  let base = h * stride in
  let n = A.unsafe_get t.meta (base + f_n) in
  if n = 4 lsl A.unsafe_get t.meta (base + f_cls) then grow_phys t h;
  let cls = A.unsafe_get t.meta (base + f_cls) in
  let koff = A.unsafe_get t.meta (base + f_koff) in
  let kids = t.kids in
  (if cls = 6 then A.unsafe_set kids (koff + c) child
   else begin
     let r = rank_of_byte t h c in
     for i = n downto r + 1 do
       A.unsafe_set kids (koff + i) (A.unsafe_get kids (koff + i - 1))
     done;
     A.unsafe_set kids (koff + r) child
   end);
  let wi = base + f_bits + (c lsr 5) in
  A.unsafe_set t.meta wi (A.unsafe_get t.meta wi lor (1 lsl (c land 31)));
  A.unsafe_set t.meta (base + f_n) (n + 1);
  t.dense_used <- t.dense_used + 1

let phys_remove t h c =
  let base = h * stride in
  let n = A.unsafe_get t.meta (base + f_n) in
  let cls = A.unsafe_get t.meta (base + f_cls) in
  let koff = A.unsafe_get t.meta (base + f_koff) in
  (if cls <> 6 then begin
     let r = rank_of_byte t h c in
     let kids = t.kids in
     for i = r to n - 2 do
       A.unsafe_set kids (koff + i) (A.unsafe_get kids (koff + i + 1))
     done
   end);
  let wi = base + f_bits + (c lsr 5) in
  A.unsafe_set t.meta wi (A.unsafe_get t.meta wi land lnot (1 lsl (c land 31)));
  A.unsafe_set t.meta (base + f_n) (n - 1);
  t.dense_used <- t.dense_used - 1;
  maybe_shrink_phys t h

(* ------------------------------------------------------------------ *)
(* Structural mutations with modelled events                           *)

(* [quiet] suppresses the Child_added event for children placed while a
   fresh node is being built: in C those writes are covered by the single
   whole-node persist that Node_created already represents. *)
let add_child ?(quiet = false) t h c child =
  let n = get_n t h in
  let k = mclass n and k' = mclass (n + 1) in
  if k' <> k then begin
    replace_modelled t h ~old_k:k ~new_k:k';
    if k' = 48 then n48_enter t h (* 16 -> 17: sorted bytes get slots 0.. *)
    else if k = 48 then t.n48.(h) <- None (* 48 -> 49 *)
  end;
  phys_insert t h c child;
  if mclass (n + 1) = 48 then n48_assign t h c;
  if not quiet && evented t then
    t.on_event
      (Child_added { addr = get_addr t h; slot_off = slot_off_of t h c; kind = k' })

let remove_child t h c =
  let n = get_n t h in
  let k = mclass n in
  if evented t then
    t.on_event
      (Child_removed { addr = get_addr t h; slot_off = slot_off_of t h c; kind = k });
  if k = 48 then n48_release t h c;
  phys_remove t h c;
  let k' = mclass (n - 1) in
  if k' <> k then begin
    replace_modelled t h ~old_k:k ~new_k:k';
    if k' = 48 then n48_enter t h (* 49 -> 48: slots in byte-rank order *)
    else if k = 48 then t.n48.(h) <- None (* 17 -> 16 *)
  end

let replace_child t h c child =
  set_child_phys t h c child;
  if evented t then
    t.on_event
      (Child_replaced
         { addr = get_addr t h; slot_off = slot_off_of t h c; kind = mclass (get_n t h) })

(* The modelled same-value pointer rewrite (see [delete]'s [rebuilt]):
   the event is part of the contract, but the physical slot already
   holds [child], so no write is needed. *)
let replace_child_same t h c =
  if evented t then
    t.on_event
      (Child_replaced
         { addr = get_addr t h; slot_off = slot_off_of t h c; kind = mclass (get_n t h) })

let release_inner t h =
  let base = h * stride in
  let n = A.unsafe_get t.meta (base + f_n) in
  let k = mclass n in
  let size = msize k in
  t.bytes <- t.bytes - size;
  let addr = A.unsafe_get t.meta (base + f_addr) in
  t.free_node ~addr ~size;
  if evented t then t.on_event (Node_freed { addr; bytes = size });
  if k = 48 then t.n48.(h) <- None;
  free_kids t (A.unsafe_get t.meta (base + f_cls)) (A.unsafe_get t.meta (base + f_koff));
  t.dense_used <- t.dense_used - n;
  t.prefixes.(h) <- "";
  t.node_free <- h :: t.node_free

(* ------------------------------------------------------------------ *)
(* Traversal helpers                                                   *)

let iter_children_asc t h f =
  let base = h * stride in
  let cls = A.unsafe_get t.meta (base + f_cls) in
  let koff = A.unsafe_get t.meta (base + f_koff) in
  let r = ref 0 in
  for w = 0 to 7 do
    let word = ref (A.unsafe_get t.meta (base + f_bits + w)) in
    let cbase = w lsl 5 in
    while !word <> 0 do
      let c = cbase + Bits.ctz_w !word in
      let child =
        if cls = 6 then A.unsafe_get t.kids (koff + c)
        else A.unsafe_get t.kids (koff + !r)
      in
      incr r;
      f c child;
      word := !word land (!word - 1)
    done
  done

let iter_children_desc t h f =
  let base = h * stride in
  let cls = A.unsafe_get t.meta (base + f_cls) in
  let koff = A.unsafe_get t.meta (base + f_koff) in
  let r = ref (A.unsafe_get t.meta (base + f_n)) in
  for w = 7 downto 0 do
    let word = A.unsafe_get t.meta (base + f_bits + w) in
    if word <> 0 then
      for b = 31 downto 0 do
        if (word lsr b) land 1 = 1 then begin
          decr r;
          let c = (w lsl 5) + b in
          let child =
            if cls = 6 then A.unsafe_get t.kids (koff + c)
            else A.unsafe_get t.kids (koff + !r)
          in
          f c child
        end
      done
  done

(* The single child of a node with n = 1. *)
let only_child t h =
  let base = h * stride in
  let rec go w =
    if w = 8 then invalid_arg "Art.only_child: empty node"
    else
      let word = A.unsafe_get t.meta (base + f_bits + w) in
      if word = 0 then go (w + 1)
      else begin
        let c = (w lsl 5) + Bits.ctz_w word in
        let koff = A.unsafe_get t.meta (base + f_koff) in
        let child =
          if A.unsafe_get t.meta (base + f_cls) = 6 then
            A.unsafe_get t.kids (koff + c)
          else A.unsafe_get t.kids koff
        in
        (c, child)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

(* Top-level recursions: a local [go] closing over its arguments would
   be allocated on every call. *)
let rec common_from a ai b bi n i =
  if i < n && String.unsafe_get a (ai + i) = String.unsafe_get b (bi + i) then
    common_from a ai b bi n (i + 1)
  else i

let common_len a ai b bi =
  let la = String.length a - ai and lb = String.length b - bi in
  common_from a ai b bi (if la < lb then la else lb) 0

(* Does [key] contain [prefix] starting at [pos]? *)
let prefix_matches key pos prefix =
  let plen = String.length prefix in
  String.length key - pos >= plen && common_from key pos prefix 0 plen 0 = plen

(* Is the stored leaf key [s] equal to [key] from [off] on? In place. *)
let equal_at s key off =
  if off = 0 then String.equal s key
  else
    let n = String.length s in
    n = String.length key - off && common_from s 0 key off n 0 = n

(* The tree key of [key] read from [off]: copied only when a leaf is
   made for it. *)
let suffix key off = if off = 0 then key else String.sub key off (String.length key - off)

(* The descents below take the caller's whole key and the offset [off]
   where the tree's key starts; [pos] is the position in [key] of the
   next byte to consume. *)

let rec find_from t key child pos off =
  if is_leaf_word child then begin
    let i = word_ix child in
    if equal_at (Array.unsafe_get t.leaf_keys i) key off then Array.unsafe_get t.leaf_vals i
    else None
  end
  else begin
    let h = word_ix child in
    touch t h;
    let prefix = Array.unsafe_get t.prefixes h in
    if not (prefix_matches key pos prefix) then None
    else
      let d = pos + String.length prefix in
      if String.length key = d then begin
        let hr = get_here t h in
        if hr >= 0 then Array.unsafe_get t.leaf_vals hr else None
      end
      else begin
        let c = Char.code (String.unsafe_get key d) in
        touch_child t h c;
        let ch = find_child t h c in
        if ch = nil then None else find_from t key ch (d + 1) off
      end
  end

let find t key ~off = if t.root = nil then None else find_from t key t.root off off

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

(* Join two leaves that diverge at or after [pos] under a fresh inner
   node; [li] is the pre-existing leaf, whose tree key [lkey] starts at
   [pos - off]; the new leaf holds [key] from [off] on, bound to [v]. *)
let join_leaves t li lkey key off v pos =
  let lpos = pos - off in
  let m = common_len lkey lpos key pos in
  let inn = alloc_inner t ~prefix:(String.sub key pos m) in
  if String.length lkey = lpos + m then set_here t inn li
  else add_child ~quiet:true t inn (Char.code lkey.[lpos + m]) (leaf_word li);
  let ni = alloc_leaf t (suffix key off) v in
  let d = pos + m in
  if String.length key = d then set_here t inn ni
  else add_child ~quiet:true t inn (Char.code key.[d]) (leaf_word ni);
  inner_word inn

(* Returns the replacement child word. A key already bound leaves the
   subtree as it is and records its leaf in [t.hit]; otherwise
   [make key x] runs where the new leaf goes, before any node changes. *)
let rec insert_from t key make x child pos off =
  if is_leaf_word child then begin
    let li = word_ix child in
    let lkey = leaf_key t li in
    if equal_at lkey key off then begin
      t.hit <- li;
      child
    end
    else join_leaves t li lkey key off (make key x) pos
  end
  else begin
    let h = word_ix child in
    touch t h;
    let prefix = t.prefixes.(h) in
    let plen = String.length prefix in
    let m = common_len key pos prefix 0 in
    if m < plen then begin
      (* split the compressed path at [m] *)
      let v = make key x in
      let parent = alloc_inner t ~prefix:(String.sub prefix 0 m) in
      let old_byte = Char.code prefix.[m] in
      t.prefixes.(h) <- String.sub prefix (m + 1) (plen - m - 1);
      if evented t then t.on_event (Prefix_changed { addr = get_addr t h });
      add_child ~quiet:true t parent old_byte (inner_word h);
      let d = pos + m in
      if String.length key = d then set_here t parent (alloc_leaf t (suffix key off) v)
      else
        add_child ~quiet:true t parent
          (Char.code key.[d])
          (leaf_word (alloc_leaf t (suffix key off) v));
      inner_word parent
    end
    else begin
      let d = pos + plen in
      if String.length key = d then begin
        let hr = get_here t h in
        (if hr >= 0 then t.hit <- hr
         else begin
           let v = make key x in
           set_here t h (alloc_leaf t (suffix key off) v);
           if evented t then t.on_event (Here_changed { addr = get_addr t h })
         end);
        child
      end
      else begin
        let c = Char.code key.[d] in
        touch_child t h c;
        let ch = find_child t h c in
        if ch <> nil then begin
          let ch' = insert_from t key make x ch (d + 1) off in
          if ch' <> ch then replace_child t h c ch';
          child
        end
        else begin
          let v = make key x in
          add_child t h c (leaf_word (alloc_leaf t (suffix key off) v));
          child
        end
      end
    end
  end

let insert t key ~off make x =
  t.hit <- -1;
  (if t.root = nil then begin
     let v = make key x in
     t.root <- leaf_word (alloc_leaf t (suffix key off) v);
     if evented t then t.on_event (Child_added { addr = 0; slot_off = 0; kind = 0 })
   end
   else
     let r = t.root in
     let r' = insert_from t key make x r off off in
     if r' <> r then begin
       t.root <- r';
       if evented t then
         t.on_event (Child_replaced { addr = 0; slot_off = 0; kind = 0 })
     end);
  let hit = t.hit in
  if hit < 0 then begin
    t.count <- t.count + 1;
    None
  end
  else begin
    t.hit <- -1;
    Array.unsafe_get t.leaf_vals hit
  end

(* ------------------------------------------------------------------ *)
(* Bulk build                                                          *)

(* A fresh inner node written whole, bottom-up: its children (byte,
   child word), ascending, and its ends-here leaf (-1 for none) are
   known, so it takes its final modelled class, physical capacity and
   prefix at once — one allocation, one [Node_created], one write of its
   modelled C bytes. *)
let alloc_whole t ~prefix ~here children =
  let n = List.length children in
  let rec cls_for c = if 4 lsl c >= n then c else cls_for (c + 1) in
  let cls = cls_for 0 in
  let h = alloc_handle t in
  let koff = alloc_kids t cls in
  let base = h * stride in
  A.unsafe_set t.meta (base + f_cls) cls;
  A.unsafe_set t.meta (base + f_koff) koff;
  A.unsafe_set t.meta (base + f_n) n;
  A.unsafe_set t.meta (base + f_here) here;
  t.prefixes.(h) <- prefix;
  List.iteri
    (fun r (c, child) ->
      A.unsafe_set t.kids (koff + if cls = 6 then c else r) child;
      let wi = base + f_bits + (c lsr 5) in
      A.unsafe_set t.meta wi (A.unsafe_get t.meta wi lor (1 lsl (c land 31))))
    children;
  t.dense_used <- t.dense_used + n;
  let size = msize (mclass n) in
  if mclass n = 48 then n48_enter t h;
  t.bytes <- t.bytes + size;
  let addr = t.alloc_node size in
  A.unsafe_set t.meta (base + f_addr) addr;
  (match t.meter with
  | Some m -> Meter.write_range m t.space ~addr ~len:size
  | None -> ());
  if evented t then t.on_event (Node_created { addr; bytes = size });
  h

let no_pass ~lo:_ ~hi:_ ~byte:_ = ()

let of_sorted ?meter ?on_event ?(on_pass = no_pass) keys vals =
  let n = Array.length keys in
  if Array.length vals <> n then invalid_arg "Art.of_sorted: keys and values differ in number";
  for i = 1 to n - 1 do
    if String.compare keys.(i - 1) keys.(i) >= 0 then
      invalid_arg "Art.of_sorted: keys not strictly increasing"
  done;
  let t = create ?meter ?on_event () in
  (* keys [lo, hi) share their first [depth] bytes; sorted, they share
     exactly what the first and the last share *)
  let rec build lo hi depth =
    if hi - lo = 1 then leaf_word (alloc_leaf t keys.(lo) vals.(lo))
    else begin
      let first = keys.(lo) in
      let d = depth + common_len first depth keys.(hi - 1) depth in
      on_pass ~lo ~hi ~byte:d;
      (* a key ending at [d] sorts first and ends here *)
      let here, lo = if String.length first = d then (alloc_leaf t first vals.(lo), lo + 1) else (-1, lo) in
      let rec runs a acc =
        if a = hi then List.rev acc
        else
          let c = keys.(a).[d] in
          let rec stop b = if b < hi && keys.(b).[d] = c then stop (b + 1) else b in
          let b = stop (a + 1) in
          runs b ((Char.code c, build a b (d + 1)) :: acc)
      in
      let children = runs lo [] in
      inner_word (alloc_whole t ~prefix:(String.sub first depth (d - depth)) ~here children)
    end
  in
  if n > 0 then t.root <- build 0 n 0;
  t.count <- n;
  t

(* ------------------------------------------------------------------ *)
(* Deletion                                                            *)

(* Restore path-compression minimality after a removal under [h].
   Returns the surviving subtree as a tagged child word, or [nil]. *)
let collapse t h =
  let n = get_n t h in
  if n = 0 then begin
    let hr = get_here t h in
    release_inner t h;
    if hr >= 0 then leaf_word hr else nil
  end
  else if n = 1 && get_here t h < 0 then begin
    let c, ch = only_child t h in
    let pfx = t.prefixes.(h) in
    release_inner t h;
    if not (is_leaf_word ch) then begin
      let ci = word_ix ch in
      t.prefixes.(ci) <-
        Printf.sprintf "%s%c%s" pfx (Char.chr c) t.prefixes.(ci);
      if evented t then t.on_event (Prefix_changed { addr = get_addr t ci })
    end;
    ch
  end
  else inner_word h

(* Returns the replacement child word, or [nil] when the subtree is
   gone entirely (the boxed layer's [None]); the removed leaf goes to
   [t.hit], which [delete] frees once the descent is over.

   [t.rebuilt] reproduces a boxed-layer artifact that is now part of
   the modelled event contract: there, [collapse] reconstructs the
   variant word ([Some (Inner inn)]) for a node that survived a removal
   at its own level, so the physical-inequality check in the immediate
   parent rewrites the (unchanged) child pointer and emits
   Child_replaced — one level up only, since that parent returns its
   original binding. Pool handles are stable, so the survived-in-place
   case is flagged explicitly: set by a node whose here/child removal
   left it alive, consumed (and cleared) by its direct parent. *)
let rec delete_from t key child pos off =
  if is_leaf_word child then begin
    let li = word_ix child in
    if equal_at (leaf_key t li) key off then begin
      t.hit <- li;
      nil
    end
    else child
  end
  else begin
    let h = word_ix child in
    touch t h;
    let prefix = t.prefixes.(h) in
    if not (prefix_matches key pos prefix) then child
    else
      let d = pos + String.length prefix in
      if String.length key = d then begin
        let hr = get_here t h in
        if hr >= 0 && equal_at (leaf_key t hr) key off then begin
          t.hit <- hr;
          set_here t h (-1);
          if evented t then t.on_event (Here_changed { addr = get_addr t h });
          let w = collapse t h in
          if w = child then t.rebuilt <- true;
          w
        end
        else child
      end
      else begin
        let c = Char.code key.[d] in
        touch_child t h c;
        let ch = find_child t h c in
        if ch = nil then child
        else begin
          let ch' = delete_from t key ch (d + 1) off in
          let rb = t.rebuilt in
          t.rebuilt <- false;
          if ch' = nil then begin
            remove_child t h c;
            let w = collapse t h in
            if w = child then t.rebuilt <- true;
            w
          end
          else begin
            if ch' <> ch then replace_child t h c ch'
            else if rb then replace_child_same t h c;
            child
          end
        end
      end
  end

let delete t key ~off =
  if t.root <> nil then begin
    let r = t.root in
    let r' = delete_from t key r off off in
    if r' = nil then begin
      t.root <- nil;
      if evented t then
        t.on_event (Child_removed { addr = 0; slot_off = 0; kind = 0 })
    end
    else if r' <> r || t.rebuilt then begin
      t.root <- r';
      if evented t then
        t.on_event (Child_replaced { addr = 0; slot_off = 0; kind = 0 })
    end;
    t.rebuilt <- false
  end;
  let hit = t.hit in
  if hit < 0 then None
  else begin
    t.hit <- -1;
    let found = Array.unsafe_get t.leaf_vals hit in
    free_leaf t hit;
    t.count <- t.count - 1;
    found
  end

(* ------------------------------------------------------------------ *)
(* Ordered traversal                                                   *)

let iter t f =
  let rec go child =
    if is_leaf_word child then begin
      let i = word_ix child in
      f (leaf_key t i) (leaf_value t i)
    end
    else begin
      let h = word_ix child in
      let hr = get_here t h in
      if hr >= 0 then f (leaf_key t hr) (leaf_value t hr);
      iter_children_asc t h (fun _ ch -> go ch)
    end
  in
  if t.root <> nil then go t.root

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let min_binding t =
  let rec go child =
    if is_leaf_word child then begin
      let i = word_ix child in
      Some (leaf_key t i, leaf_value t i)
    end
    else begin
      let h = word_ix child in
      let hr = get_here t h in
      if hr >= 0 then Some (leaf_key t hr, leaf_value t hr)
      else begin
        let first = ref nil in
        (try
           iter_children_asc t h (fun _ ch ->
               first := ch;
               raise Exit)
         with Exit -> ());
        if !first = nil then None else go !first
      end
    end
  in
  if t.root = nil then None else go t.root

let max_binding t =
  let rec go child =
    if is_leaf_word child then begin
      let i = word_ix child in
      Some (leaf_key t i, leaf_value t i)
    end
    else begin
      let h = word_ix child in
      let last = ref nil in
      (try
         iter_children_desc t h (fun _ ch ->
             last := ch;
             raise Exit)
       with Exit -> ());
      if !last <> nil then go !last
      else begin
        let hr = get_here t h in
        if hr >= 0 then Some (leaf_key t hr, leaf_value t hr) else None
      end
    end
  in
  if t.root = nil then None else go t.root

let is_strict_prefix p s =
  let n = String.length p in
  n < String.length s && common_from p 0 s 0 n 0 = n

let range t ~lo ~hi f =
  (* Subtree keys all extend [path]; prune when the whole extension set
     lies outside [lo, hi]. *)
  let subtree_disjoint path =
    path > hi || (path < lo && not (is_strict_prefix path lo))
  in
  let rec go child path =
    if is_leaf_word child then begin
      let i = word_ix child in
      let k = leaf_key t i in
      if lo <= k && k <= hi then f k (leaf_value t i)
    end
    else begin
      let h = word_ix child in
      let p = path ^ t.prefixes.(h) in
      if not (subtree_disjoint p) then begin
        let hr = get_here t h in
        (if hr >= 0 then
           let k = leaf_key t hr in
           if lo <= k && k <= hi then f k (leaf_value t hr));
        iter_children_asc t h (fun c ch ->
            let p' = p ^ String.make 1 (Char.chr c) in
            if not (subtree_disjoint p') then go ch p')
      end
    end
  in
  if t.root <> nil then go t.root ""

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let height t =
  let rec go child =
    if is_leaf_word child then 1
    else begin
      let h = word_ix child in
      let deepest = ref 0 in
      iter_children_asc t h (fun _ ch -> deepest := max !deepest (go ch));
      1 + !deepest
    end
  in
  if t.root = nil then 0 else go t.root

let footprint_bytes t = t.bytes

let node_histogram t =
  let n4 = ref 0 and n16 = ref 0 and n48c = ref 0 and n256 = ref 0 in
  let rec go child =
    if not (is_leaf_word child) then begin
      let h = word_ix child in
      (match mclass (get_n t h) with
      | 4 -> incr n4
      | 16 -> incr n16
      | 48 -> incr n48c
      | _ -> incr n256);
      iter_children_asc t h (fun _ ch -> go ch)
    end
  in
  if t.root <> nil then go t.root;
  (!n4, !n16, !n48c, !n256)

type pool_stats = {
  nodes_by_cap : (int * int) list;
  live_nodes : int;
  free_node_slots : int;
  node_slots : int;
  dense_used : int;
  dense_reserved : int;
  dense_slab_slots : int;
  live_leaves : int;
  leaf_slots : int;
  pool_bytes : int;
}

let pool_stats t =
  let by = Array.make 7 0 in
  let live = ref 0 in
  let rec go child =
    if not (is_leaf_word child) then begin
      let h = word_ix child in
      let cls = A.unsafe_get t.meta ((h * stride) + f_cls) in
      by.(cls) <- by.(cls) + 1;
      incr live;
      iter_children_asc t h (fun _ ch -> go ch)
    end
  in
  if t.root <> nil then go t.root;
  let live_leaves = ref 0 in
  for i = 0 to t.leaf_top - 1 do
    if t.leaf_vals.(i) <> None then incr live_leaves
  done;
  {
    nodes_by_cap = List.init 7 (fun i -> (4 lsl i, by.(i)));
    live_nodes = !live;
    free_node_slots = List.length t.node_free;
    node_slots = t.node_top;
    dense_used = t.dense_used;
    dense_reserved = t.dense_reserved;
    dense_slab_slots = A.dim t.kids;
    live_leaves = !live_leaves;
    leaf_slots = Array.length t.leaf_vals;
    pool_bytes =
      8 * (A.dim t.meta + A.dim t.kids + (2 * Array.length t.leaf_vals)
         + Array.length t.prefixes);
  }

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaves = ref 0 in
  let live_handles = ref [] in
  let live_leaf = Array.make (max 1 t.leaf_top) false in
  let used_count = ref 0 and reserved_count = ref 0 in
  let see_leaf li path here =
    match t.leaf_vals.(li) with
    | None -> fail "child points to freed leaf slot %d at path %S" li path
    | Some _ ->
        let k = t.leaf_keys.(li) in
        incr leaves;
        if live_leaf.(li) then fail "leaf slot %d reachable twice" li;
        live_leaf.(li) <- true;
        if here then begin
          if not (String.equal k path) then
            fail "ends-here leaf %S does not match path %S" k path
        end
        else begin
          (* lazy expansion: the leaf sits at the divergence point, so
             its key extends (not necessarily equals) the consumed path *)
          let plen = String.length path in
          if
            String.length k < plen
            || not (String.equal (String.sub k 0 plen) path)
          then fail "leaf key %S does not extend its path %S" k path
        end
  in
  let rec go child path =
    if is_leaf_word child then see_leaf (word_ix child) path false
    else begin
      let h = word_ix child in
      let base = h * stride in
      live_handles := h :: !live_handles;
      let p = path ^ t.prefixes.(h) in
      let n = A.get t.meta (base + f_n) in
      let cls = A.get t.meta (base + f_cls) in
      let cap = 4 lsl cls in
      let hr = A.get t.meta (base + f_here) in
      if n = 0 then fail "inner node with no children at path %S" p;
      if n = 1 && hr < 0 then fail "non-minimal path compression at path %S" p;
      let pop = ref 0 in
      for w = 0 to 7 do
        let word = A.get t.meta (base + f_bits + w) in
        if word < 0 || word > 0xFFFFFFFF then
          fail "bitset word %d out of 32-bit range at path %S" w p;
        pop := !pop + Bits.popcount_w word
      done;
      if !pop <> n then
        fail "bitset population %d <> child count %d at path %S" !pop n p;
      if n > cap then fail "child count %d exceeds capacity %d at path %S" n cap p;
      if cls > 0 && n * 4 <= cap then
        fail "capacity %d not shrunk for %d children at path %S" cap n p;
      used_count := !used_count + n;
      reserved_count := !reserved_count + cap;
      let k = mclass n in
      (match t.n48.(h) with
      | Some st ->
          if k <> 48 then fail "NODE48 slot map on class-%d node at path %S" k p;
          let seen = ref 0 and used = Array.make 48 false in
          for c = 0 to 255 do
            let s = Bytes.get_uint8 st.map c in
            let bit =
              (A.get t.meta (base + f_bits + (c lsr 5)) lsr (c land 31)) land 1
            in
            if s <> no_slot then begin
              incr seen;
              if bit = 0 then fail "NODE48 slot for absent byte %d at path %S" c p;
              if s >= 48 then fail "NODE48 slot out of range at path %S" p;
              if used.(s) then fail "NODE48 slot %d shared at path %S" s p;
              used.(s) <- true;
              if (st.used lsr s) land 1 = 0 then
                fail "NODE48 used bitmap missing slot %d at path %S" s p
            end
            else if bit = 1 then fail "NODE48 byte %d missing a slot at path %S" c p
          done;
          if !seen <> n then
            fail "NODE48 population %d <> count %d at path %S" !seen n p;
          if Bits.popcount (Int64.of_int st.used) <> n then
            fail "NODE48 used-bitmap population mismatch at path %S" p
      | None -> if k = 48 then fail "class-48 node missing its slot map at path %S" p);
      if hr >= 0 then see_leaf hr p true;
      iter_children_asc t h (fun c ch -> go ch (p ^ String.make 1 (Char.chr c)))
    end
  in
  if t.root <> nil then go t.root "";
  if !leaves <> t.count then fail "count %d does not match leaves %d" t.count !leaves;
  if !used_count <> t.dense_used then
    fail "dense_used %d <> traversed %d" t.dense_used !used_count;
  if !reserved_count <> t.dense_reserved then
    fail "dense_reserved %d <> traversed %d" t.dense_reserved !reserved_count;
  (* node-handle partition: live + free-listed = allocated *)
  let seen = Array.make (max 1 t.node_top) 0 in
  List.iter
    (fun h ->
      if h < 0 || h >= t.node_top then fail "live handle %d out of range" h;
      if seen.(h) <> 0 then fail "handle %d reachable twice" h;
      seen.(h) <- 1)
    !live_handles;
  List.iter
    (fun h ->
      if h < 0 || h >= t.node_top then fail "free handle %d out of range" h;
      if seen.(h) <> 0 then fail "handle %d both live and free-listed" h;
      seen.(h) <- 2)
    t.node_free;
  for h = 0 to t.node_top - 1 do
    if seen.(h) = 0 then fail "handle %d leaked (neither live nor free)" h
  done;
  Array.iteri
    (fun h st ->
      if st <> None && (h >= t.node_top || seen.(h) <> 1) then
        fail "NODE48 slot map for non-live handle %d" h)
    t.n48;
  (* leaf-table partition *)
  let leaf_free_seen = Array.make (max 1 t.leaf_top) false in
  List.iter
    (fun i ->
      if i < 0 || i >= t.leaf_top then fail "free leaf slot %d out of range" i;
      if leaf_free_seen.(i) then fail "leaf slot %d freed twice" i;
      leaf_free_seen.(i) <- true;
      if t.leaf_vals.(i) <> None then
        fail "free-listed leaf slot %d still populated" i)
    t.leaf_free;
  for i = 0 to t.leaf_top - 1 do
    match t.leaf_vals.(i) with
    | Some _ -> if not live_leaf.(i) then fail "leaf slot %d leaked" i
    | None ->
        if not leaf_free_seen.(i) then
          fail "empty leaf slot %d missing from free list" i
  done;
  (* kids-arena partition: every allocated slot belongs to exactly one
     live node or free block *)
  let marks = Array.make (max 1 t.kids_top) 0 in
  let mark off cap what =
    if off < 0 || off + cap > t.kids_top then
      fail "%s child block [%d,+%d) outside arena" what off cap;
    for i = off to off + cap - 1 do
      if marks.(i) <> 0 then fail "%s child block overlaps at slot %d" what i;
      marks.(i) <- 1
    done
  in
  List.iter
    (fun h ->
      let base = h * stride in
      mark (A.get t.meta (base + f_koff)) (4 lsl A.get t.meta (base + f_cls)) "live")
    !live_handles;
  Array.iteri
    (fun cls frees -> List.iter (fun off -> mark off (4 lsl cls) "free") frees)
    t.kid_free;
  for i = 0 to t.kids_top - 1 do
    if marks.(i) = 0 then fail "kids arena slot %d leaked" i
  done
