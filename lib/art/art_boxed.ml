module Meter = Hart_pmem.Meter

type 'v leaf = { key : string; mutable value : 'v }
type 'v node = Leaf of 'v leaf | Inner of 'v inner

and 'v inner = {
  mutable prefix : string;
  mutable here : 'v leaf option;  (* leaf whose key ends at this node *)
  mutable kids : 'v kids;
  mutable addr : int;  (* synthetic DRAM address for cache simulation *)
}

and 'v kids =
  | N4 of { mutable n : int; keys : Bytes.t; slots : 'v node option array }
  | N16 of { mutable n : int; keys : Bytes.t; slots : 'v node option array }
  | N48 of { mutable n : int; index : Bytes.t; slots : 'v node option array }
  | N256 of { mutable n : int; slots : 'v node option array }

type event =
  | Node_created of { addr : int; bytes : int }
  | Node_freed of { addr : int; bytes : int }
  | Child_added of { addr : int; slot_off : int; kind : int }
  | Child_replaced of { addr : int; slot_off : int; kind : int }
  | Child_removed of { addr : int; slot_off : int; kind : int }
  | Prefix_changed of { addr : int }
  | Here_changed of { addr : int }

type 'v t = {
  meter : Meter.t option;
  space : Meter.space;
  alloc_node : int -> int;
  free_node : addr:int -> size:int -> unit;
  on_event : event -> unit;
  mutable root : 'v node option;
  mutable count : int;
  mutable bytes : int;  (* modelled C footprint of inner nodes *)
}

(* Modelled C sizes: 16-byte header (type, child count, prefix) plus the
   key/index and child-pointer arrays of each node type. *)
let kids_size = function
  | N4 _ -> 56
  | N16 _ -> 160
  | N48 _ -> 656
  | N256 _ -> 2064

let no_slot = 255 (* empty marker in the NODE48 index *)

let create ?meter ?(space = Meter.Dram) ?alloc_node ?free_node
    ?(on_event = fun (_ : event) -> ()) () =
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
  { meter; space; alloc_node; free_node; on_event; root = None; count = 0; bytes = 16 }

let count t = t.count
let is_empty t = t.count = 0

let touch t addr =
  match t.meter with
  | None -> ()
  | Some m -> Meter.access m t.space ~addr ~write:false

(* Byte offset of the child slot for byte [c], so that big nodes span
   several simulated cache lines like their C counterparts. *)
let touch_child t inn c =
  let off =
    match inn.kids with
    | N4 _ | N16 _ -> 16
    | N48 _ -> 16 + c
    | N256 _ -> 16 + (c * 8)
  in
  touch t (inn.addr + off)

let alloc_inner t ~prefix ~kids =
  let size = kids_size kids in
  t.bytes <- t.bytes + size;
  let addr = t.alloc_node size in
  t.on_event (Node_created { addr; bytes = size });
  { prefix; here = None; kids; addr }

let replace_kids t inn kids =
  let old_size = kids_size inn.kids and size = kids_size kids in
  t.bytes <- t.bytes + size - old_size;
  t.free_node ~addr:inn.addr ~size:old_size;
  t.on_event (Node_freed { addr = inn.addr; bytes = old_size });
  inn.addr <- t.alloc_node size;
  t.on_event (Node_created { addr = inn.addr; bytes = size });
  inn.kids <- kids

let release_inner t inn =
  let size = kids_size inn.kids in
  t.bytes <- t.bytes - size;
  t.free_node ~addr:inn.addr ~size;
  t.on_event (Node_freed { addr = inn.addr; bytes = size })

let empty_n4 () =
  N4 { n = 0; keys = Bytes.make 4 '\000'; slots = Array.make 4 None }

(* ------------------------------------------------------------------ *)
(* Child-array operations                                              *)

let find_child kids c =
  match kids with
  | N4 { n; keys; slots } | N16 { n; keys; slots } ->
      let rec go i =
        if i >= n then None
        else if Bytes.get_uint8 keys i = c then slots.(i)
        else go (i + 1)
      in
      go 0
  | N48 { index; slots; _ } ->
      let s = Bytes.get_uint8 index c in
      if s = no_slot then None else slots.(s)
  | N256 { slots; _ } -> slots.(c)

let set_child kids c node =
  match kids with
  | N4 { n; keys; slots } | N16 { n; keys; slots } ->
      let rec go i =
        if i >= n then invalid_arg "Art_boxed.set_child: absent"
        else if Bytes.get_uint8 keys i = c then slots.(i) <- Some node
        else go (i + 1)
      in
      go 0
  | N48 { index; slots; _ } ->
      let s = Bytes.get_uint8 index c in
      if s = no_slot then invalid_arg "Art_boxed.set_child: absent";
      slots.(s) <- Some node
  | N256 { slots; _ } -> slots.(c) <- Some node

let child_count = function
  | N4 { n; _ } | N16 { n; _ } | N48 { n; _ } | N256 { n; _ } -> n

let iter_children_asc kids f =
  match kids with
  | N4 { n; keys; slots } | N16 { n; keys; slots } ->
      for i = 0 to n - 1 do
        match slots.(i) with
        | Some ch -> f (Bytes.get_uint8 keys i) ch
        | None -> ()
      done
  | N48 { index; slots; _ } ->
      for c = 0 to 255 do
        let s = Bytes.get_uint8 index c in
        if s <> no_slot then
          match slots.(s) with Some ch -> f c ch | None -> ()
      done
  | N256 { slots; _ } ->
      for c = 0 to 255 do
        match slots.(c) with Some ch -> f c ch | None -> ()
      done

let iter_children_desc kids f =
  match kids with
  | N4 { n; keys; slots } | N16 { n; keys; slots } ->
      for i = n - 1 downto 0 do
        match slots.(i) with
        | Some ch -> f (Bytes.get_uint8 keys i) ch
        | None -> ()
      done
  | N48 { index; slots; _ } ->
      for c = 255 downto 0 do
        let s = Bytes.get_uint8 index c in
        if s <> no_slot then
          match slots.(s) with Some ch -> f c ch | None -> ()
      done
  | N256 { slots; _ } ->
      for c = 255 downto 0 do
        match slots.(c) with Some ch -> f c ch | None -> ()
      done

(* Grow [inn.kids] by one adaptive size class. *)
let grow t inn =
  match inn.kids with
  | N4 { n; keys; slots } ->
      let keys' = Bytes.make 16 '\000' and slots' = Array.make 16 None in
      Bytes.blit keys 0 keys' 0 n;
      Array.blit slots 0 slots' 0 n;
      replace_kids t inn (N16 { n; keys = keys'; slots = slots' })
  | N16 { n; keys; slots } ->
      let index = Bytes.make 256 (Char.chr no_slot) in
      let slots' = Array.make 48 None in
      for i = 0 to n - 1 do
        Bytes.set_uint8 index (Bytes.get_uint8 keys i) i;
        slots'.(i) <- slots.(i)
      done;
      replace_kids t inn (N48 { n; index; slots = slots' })
  | N48 { n; index; slots } ->
      let slots' = Array.make 256 None in
      for c = 0 to 255 do
        let s = Bytes.get_uint8 index c in
        if s <> no_slot then slots'.(c) <- slots.(s)
      done;
      replace_kids t inn (N256 { n; slots = slots' })
  | N256 _ -> invalid_arg "Art_boxed.grow: NODE256 cannot grow"

(* Modelled byte offset of byte [c]'s child slot within the node. *)
let slot_off kids c =
  match kids with
  | N4 { n; keys; _ } | N16 { n; keys; _ } ->
      let rec pos i =
        if i >= n || Bytes.get_uint8 keys i = c then i else pos (i + 1)
      in
      16 + (pos 0 * 8)
  | N48 { index; _ } ->
      let s = Bytes.get_uint8 index c in
      16 + 256 + (if s = no_slot then 0 else s * 8)
  | N256 _ -> 16 + (c * 8)

let kind_of kids =
  match kids with N4 _ -> 4 | N16 _ -> 16 | N48 _ -> 48 | N256 _ -> 256

(* [quiet] suppresses the Child_added event for children placed while a
   fresh node is being built: in C those writes are covered by the single
   whole-node persist that Node_created already represents. *)
let rec add_child ?(quiet = false) t inn c node =
  let added () =
    if not quiet then
      t.on_event
        (Child_added
           { addr = inn.addr; slot_off = slot_off inn.kids c; kind = kind_of inn.kids })
  in
  match inn.kids with
  | N4 ({ n; keys; slots } as r) when n < 4 ->
      let rec pos i =
        if i < n && Bytes.get_uint8 keys i < c then pos (i + 1) else i
      in
      let p = pos 0 in
      for i = n downto p + 1 do
        Bytes.set_uint8 keys i (Bytes.get_uint8 keys (i - 1));
        slots.(i) <- slots.(i - 1)
      done;
      Bytes.set_uint8 keys p c;
      slots.(p) <- Some node;
      r.n <- n + 1;
      added ()
  | N16 ({ n; keys; slots } as r) when n < 16 ->
      let rec pos i =
        if i < n && Bytes.get_uint8 keys i < c then pos (i + 1) else i
      in
      let p = pos 0 in
      for i = n downto p + 1 do
        Bytes.set_uint8 keys i (Bytes.get_uint8 keys (i - 1));
        slots.(i) <- slots.(i - 1)
      done;
      Bytes.set_uint8 keys p c;
      slots.(p) <- Some node;
      r.n <- n + 1;
      added ()
  | N48 ({ n; index; slots } as r) when n < 48 ->
      let rec free_slot i = if slots.(i) = None then i else free_slot (i + 1) in
      let s = free_slot 0 in
      Bytes.set_uint8 index c s;
      slots.(s) <- Some node;
      r.n <- n + 1;
      added ()
  | N256 ({ slots; _ } as r) ->
      slots.(c) <- Some node;
      r.n <- r.n + 1;
      added ()
  | N4 _ | N16 _ | N48 _ ->
      grow t inn;
      add_child ~quiet t inn c node

(* Shrink one size class when occupancy allows; called after removal. *)
let maybe_shrink t inn =
  match inn.kids with
  | N16 ({ n; keys; slots } as _r) when n <= 4 ->
      let keys' = Bytes.make 4 '\000' and slots' = Array.make 4 None in
      Bytes.blit keys 0 keys' 0 n;
      Array.blit slots 0 slots' 0 n;
      replace_kids t inn (N4 { n; keys = keys'; slots = slots' })
  | N48 { n; index; slots } when n <= 16 ->
      let keys' = Bytes.make 16 '\000' and slots' = Array.make 16 None in
      let j = ref 0 in
      for c = 0 to 255 do
        let s = Bytes.get_uint8 index c in
        if s <> no_slot then begin
          Bytes.set_uint8 keys' !j c;
          slots'.(!j) <- slots.(s);
          incr j
        end
      done;
      replace_kids t inn (N16 { n; keys = keys'; slots = slots' })
  | N256 { n; slots } when n <= 48 ->
      let index = Bytes.make 256 (Char.chr no_slot) in
      let slots' = Array.make 48 None in
      let j = ref 0 in
      for c = 0 to 255 do
        match slots.(c) with
        | Some ch ->
            Bytes.set_uint8 index c !j;
            slots'.(!j) <- Some ch;
            incr j
        | None -> ()
      done;
      replace_kids t inn (N48 { n; index; slots = slots' })
  | N4 _ | N16 _ | N48 _ | N256 _ -> ()

let remove_sorted ~n ~keys ~slots c =
  let rec pos i =
    if i >= n then invalid_arg "Art_boxed.remove_child: absent"
    else if Bytes.get_uint8 keys i = c then i
    else pos (i + 1)
  in
  let p = pos 0 in
  for i = p to n - 2 do
    Bytes.set_uint8 keys i (Bytes.get_uint8 keys (i + 1));
    slots.(i) <- slots.(i + 1)
  done;
  slots.(n - 1) <- None

let remove_child t inn c =
  t.on_event
    (Child_removed
       { addr = inn.addr; slot_off = slot_off inn.kids c; kind = kind_of inn.kids });
  (match inn.kids with
  | N4 ({ n; keys; slots } as r) ->
      remove_sorted ~n ~keys ~slots c;
      r.n <- n - 1
  | N16 ({ n; keys; slots } as r) ->
      remove_sorted ~n ~keys ~slots c;
      r.n <- n - 1
  | N48 ({ n = _; index; slots } as r) ->
      let s = Bytes.get_uint8 index c in
      if s = no_slot then invalid_arg "Art_boxed.remove_child: absent";
      Bytes.set_uint8 index c no_slot;
      slots.(s) <- None;
      r.n <- r.n - 1
  | N256 ({ slots; _ } as r) ->
      if slots.(c) = None then invalid_arg "Art_boxed.remove_child: absent";
      slots.(c) <- None;
      r.n <- r.n - 1);
  maybe_shrink t inn

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let common_len a ai b bi =
  let n = min (String.length a - ai) (String.length b - bi) in
  let rec go i = if i < n && a.[ai + i] = b.[bi + i] then go (i + 1) else i in
  go 0

(* Does [key] contain [prefix] starting at [depth]? *)
let prefix_matches key depth prefix =
  let plen = String.length prefix in
  String.length key - depth >= plen && common_len key depth prefix 0 = plen

let find t key =
  let rec go node depth =
    match node with
    | Leaf l -> if String.equal l.key key then Some l.value else None
    | Inner inn ->
        touch t inn.addr;
        if not (prefix_matches key depth inn.prefix) then None
        else
          let d = depth + String.length inn.prefix in
          if String.length key = d then
            match inn.here with
            | Some l -> Some l.value
            | None -> None
          else begin
            let c = Char.code key.[d] in
            touch_child t inn c;
            match find_child inn.kids c with
            | None -> None
            | Some ch -> go ch (d + 1)
          end
  in
  match t.root with None -> None | Some n -> go n 0

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)

(* Join two leaves that diverge at or after [depth] under a fresh inner
   node; [l] is the pre-existing leaf, the new leaf holds [key]/[v]. *)
let join_leaves t l key v depth =
  let m = common_len l.key depth key depth in
  let inn = alloc_inner t ~prefix:(String.sub key depth m) ~kids:(empty_n4 ()) in
  let d = depth + m in
  let place (lf : 'v leaf) =
    if String.length lf.key = d then inn.here <- Some lf
    else add_child ~quiet:true t inn (Char.code lf.key.[d]) (Leaf lf)
  in
  place l;
  place { key; value = v };
  Inner inn

let insert t key v =
  let result = ref None in
  let rec go node depth =
    match node with
    | Leaf l ->
        if String.equal l.key key then begin
          result := Some l.value;
          node
        end
        else join_leaves t l key v depth
    | Inner inn ->
        touch t inn.addr;
        let plen = String.length inn.prefix in
        let m = common_len key depth inn.prefix 0 in
        if m < plen then begin
          (* split the compressed path at [m] *)
          let parent =
            alloc_inner t ~prefix:(String.sub inn.prefix 0 m) ~kids:(empty_n4 ())
          in
          let old_byte = Char.code inn.prefix.[m] in
          inn.prefix <- String.sub inn.prefix (m + 1) (plen - m - 1);
          t.on_event (Prefix_changed { addr = inn.addr });
          add_child ~quiet:true t parent old_byte (Inner inn);
          let d = depth + m in
          if String.length key = d then parent.here <- Some { key; value = v }
          else
            add_child ~quiet:true t parent (Char.code key.[d])
              (Leaf { key; value = v });
          Inner parent
        end
        else begin
          let d = depth + plen in
          if String.length key = d then begin
            (match inn.here with
            | Some l -> result := Some l.value
            | None ->
                inn.here <- Some { key; value = v };
                t.on_event (Here_changed { addr = inn.addr }));
            node
          end
          else begin
            let c = Char.code key.[d] in
            touch_child t inn c;
            match find_child inn.kids c with
            | Some child ->
                let child' = go child (d + 1) in
                if child' != child then begin
                  set_child inn.kids c child';
                  t.on_event
                    (Child_replaced
                       {
                         addr = inn.addr;
                         slot_off = slot_off inn.kids c;
                         kind = kind_of inn.kids;
                       })
                end;
                node
            | None ->
                add_child t inn c (Leaf { key; value = v });
                node
          end
        end
  in
  (match t.root with
  | None ->
      t.root <- Some (Leaf { key; value = v });
      t.on_event (Child_added { addr = 0; slot_off = 0; kind = 0 })
  | Some n ->
      let n' = go n 0 in
      if n' != n then begin
        t.root <- Some n';
        t.on_event (Child_replaced { addr = 0; slot_off = 0; kind = 0 })
      end);
  (match !result with None -> t.count <- t.count + 1 | Some _ -> ());
  !result

(* ------------------------------------------------------------------ *)
(* Deletion                                                            *)

(* Restore path-compression minimality after a removal under [inn]. *)
let collapse t inn =
  let nkids = child_count inn.kids in
  if nkids = 0 then begin
    release_inner t inn;
    match inn.here with Some l -> Some (Leaf l) | None -> None
  end
  else if nkids = 1 && inn.here = None then begin
    let only = ref None in
    iter_children_asc inn.kids (fun c ch -> only := Some (c, ch));
    match !only with
    | None -> assert false
    | Some (c, ch) ->
        release_inner t inn;
        (match ch with
        | Inner ci ->
            ci.prefix <-
              Printf.sprintf "%s%c%s" inn.prefix (Char.chr c) ci.prefix;
            t.on_event (Prefix_changed { addr = ci.addr })
        | Leaf _ -> ());
        Some ch
  end
  else Some (Inner inn)

let delete t key =
  let found = ref None in
  let rec go node depth =
    match node with
    | Leaf l ->
        if String.equal l.key key then begin
          found := Some l.value;
          None
        end
        else Some node
    | Inner inn ->
        touch t inn.addr;
        if not (prefix_matches key depth inn.prefix) then Some node
        else
          let d = depth + String.length inn.prefix in
          if String.length key = d then
            match inn.here with
            | Some l when String.equal l.key key ->
                found := Some l.value;
                inn.here <- None;
                t.on_event (Here_changed { addr = inn.addr });
                collapse t inn
            | Some _ | None -> Some node
          else begin
            let c = Char.code key.[d] in
            touch_child t inn c;
            match find_child inn.kids c with
            | None -> Some node
            | Some child -> (
                match go child (d + 1) with
                | Some child' ->
                    if child' != child then begin
                      set_child inn.kids c child';
                      t.on_event
                        (Child_replaced
                           {
                             addr = inn.addr;
                             slot_off = slot_off inn.kids c;
                             kind = kind_of inn.kids;
                           })
                    end;
                    Some node
                | None ->
                    remove_child t inn c;
                    collapse t inn)
          end
  in
  (match t.root with
  | None -> ()
  | Some n -> (
      (* physical comparison: a structural one would walk the whole tree
         on every deletion *)
      match go n 0 with
      | Some n' when n' == n -> ()
      | Some n' ->
          t.root <- Some n';
          t.on_event (Child_replaced { addr = 0; slot_off = 0; kind = 0 })
      | None ->
          t.root <- None;
          t.on_event (Child_removed { addr = 0; slot_off = 0; kind = 0 })));
  (match !found with Some _ -> t.count <- t.count - 1 | None -> ());
  !found

(* ------------------------------------------------------------------ *)
(* Ordered traversal                                                   *)

let iter t f =
  let rec go node =
    match node with
    | Leaf l -> f l.key l.value
    | Inner inn ->
        (match inn.here with Some l -> f l.key l.value | None -> ());
        iter_children_asc inn.kids (fun _ ch -> go ch)
  in
  match t.root with None -> () | Some n -> go n

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

let min_binding t =
  let rec go node =
    match node with
    | Leaf l -> Some (l.key, l.value)
    | Inner inn -> (
        match inn.here with
        | Some l -> Some (l.key, l.value)
        | None ->
            let first = ref None in
            (try
               iter_children_asc inn.kids (fun _ ch ->
                   first := Some ch;
                   raise Exit)
             with Exit -> ());
            (match !first with Some ch -> go ch | None -> None))
  in
  match t.root with None -> None | Some n -> go n

let max_binding t =
  let rec go node =
    match node with
    | Leaf l -> Some (l.key, l.value)
    | Inner inn ->
        let last = ref None in
        (try
           iter_children_desc inn.kids (fun _ ch ->
               last := Some ch;
               raise Exit)
         with Exit -> ());
        (match !last with
        | Some ch -> go ch
        | None -> (
            match inn.here with
            | Some l -> Some (l.key, l.value)
            | None -> None))
  in
  match t.root with None -> None | Some n -> go n

let is_strict_prefix p s =
  String.length p < String.length s && String.sub s 0 (String.length p) = p

let range t ~lo ~hi f =
  (* Subtree keys all extend [path]; prune when the whole extension set
     lies outside [lo, hi]. *)
  let subtree_disjoint path =
    (path > hi) || (path < lo && not (is_strict_prefix path lo))
  in
  let rec go node path =
    match node with
    | Leaf l -> if lo <= l.key && l.key <= hi then f l.key l.value
    | Inner inn ->
        let p = path ^ inn.prefix in
        if not (subtree_disjoint p) then begin
          (match inn.here with
          | Some l -> if lo <= l.key && l.key <= hi then f l.key l.value
          | None -> ());
          iter_children_asc inn.kids (fun c ch ->
              let p' = p ^ String.make 1 (Char.chr c) in
              if not (subtree_disjoint p') then go ch p')
        end
  in
  match t.root with None -> () | Some n -> go n ""

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let height t =
  let rec go node =
    match node with
    | Leaf _ -> 1
    | Inner inn ->
        let deepest = ref 0 in
        iter_children_asc inn.kids (fun _ ch -> deepest := max !deepest (go ch));
        1 + !deepest
  in
  match t.root with None -> 0 | Some n -> go n

let footprint_bytes t = t.bytes

let node_histogram t =
  let n4 = ref 0 and n16 = ref 0 and n48 = ref 0 and n256 = ref 0 in
  let rec go node =
    match node with
    | Leaf _ -> ()
    | Inner inn ->
        (match inn.kids with
        | N4 _ -> incr n4
        | N16 _ -> incr n16
        | N48 _ -> incr n48
        | N256 _ -> incr n256);
        iter_children_asc inn.kids (fun _ ch -> go ch)
  in
  (match t.root with None -> () | Some n -> go n);
  (!n4, !n16, !n48, !n256)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaves = ref 0 in
  let rec go node path =
    match node with
    | Leaf l ->
        incr leaves;
        (* lazy expansion: the leaf sits at the divergence point, so its
           key extends (not necessarily equals) the consumed path *)
        let plen = String.length path in
        if
          String.length l.key < plen
          || not (String.equal (String.sub l.key 0 plen) path)
        then fail "leaf key %S does not extend its path %S" l.key path
    | Inner inn ->
        let p = path ^ inn.prefix in
        let nkids = child_count inn.kids in
        if nkids = 0 then fail "inner node with no children at path %S" p;
        if nkids = 1 && inn.here = None then
          fail "non-minimal path compression at path %S" p;
        (match inn.here with
        | Some l ->
            incr leaves;
            if not (String.equal l.key p) then
              fail "ends-here leaf %S does not match path %S" l.key p
        | None -> ());
        (match inn.kids with
        | N4 { n; keys; slots } | N16 { n; keys; slots } ->
            let cap = Array.length slots in
            if n > cap then fail "child count %d exceeds capacity %d" n cap;
            for i = 0 to n - 1 do
              if slots.(i) = None then fail "hole in slot %d at path %S" i p;
              if i > 0 && Bytes.get_uint8 keys (i - 1) >= Bytes.get_uint8 keys i
              then fail "unsorted keys at path %S" p
            done;
            for i = n to cap - 1 do
              if slots.(i) <> None then fail "stale slot %d at path %S" i p
            done
        | N48 { n; index; slots } ->
            let seen = ref 0 in
            let used = Array.make 48 false in
            for c = 0 to 255 do
              let s = Bytes.get_uint8 index c in
              if s <> no_slot then begin
                incr seen;
                if s >= 48 then fail "NODE48 index out of range at path %S" p;
                if used.(s) then fail "NODE48 slot %d shared at path %S" s p;
                used.(s) <- true;
                if slots.(s) = None then
                  fail "NODE48 index -> empty slot at path %S" p
              end
            done;
            if !seen <> n then
              fail "NODE48 count %d <> index population %d at path %S" n !seen p
        | N256 { n; slots } ->
            let seen = Array.fold_left (fun a s -> if s = None then a else a + 1) 0 slots in
            if seen <> n then
              fail "NODE256 count %d <> population %d at path %S" n seen p);
        iter_children_asc inn.kids (fun c ch ->
            go ch (p ^ String.make 1 (Char.chr c)))
  in
  (match t.root with None -> () | Some n -> go n "");
  if !leaves <> t.count then
    fail "count %d does not match leaves %d" t.count !leaves
