module Art = Hart_art.Art

type node_histogram = { n4 : int; n16 : int; n48 : int; n256 : int }

type bitmap_pools = {
  nodes_by_cap : (int * int) list;
  pool_bytes : int;
  dense_used : int;
  dense_reserved : int;
  dense_occupancy : float;
  free_node_slots : int;
  free_leaf_slots : int;
}

type class_stats = {
  chunks : int;
  live_objects : int;
  capacity : int;
  occupancy : float;
  bytes : int;
  spares : int;
}

type t = {
  keys : int;
  arts : int;
  hash_buckets_bytes : int;
  art_nodes : node_histogram;
  art_node_bytes : int;
  art_pools : bitmap_pools;
  max_art_height : int;
  avg_art_keys : float;
  leaf_class : class_stats;
  val8_class : class_stats;
  val16_class : class_stats;
  val32_class : class_stats;
  owned_values : int;
  mirror_bytes : int;
  pm_bytes : int;
  dram_bytes : int;
}

let class_stats alloc cls =
  let chunks = Epalloc.chunk_count alloc cls in
  let live_objects = Epalloc.live_objects alloc cls in
  let capacity = chunks * Chunk.objs_per_chunk in
  {
    chunks;
    live_objects;
    capacity;
    occupancy =
      (if capacity = 0 then 0. else float_of_int live_objects /. float_of_int capacity);
    bytes = chunks * Chunk.chunk_bytes cls;
    spares = Epalloc.spares alloc cls;
  }

let collect hart =
  let alloc = Hart.alloc hart in
  let hist = ref { n4 = 0; n16 = 0; n48 = 0; n256 = 0 } in
  let node_bytes = ref 0 and max_height = ref 0 and arts = ref 0 in
  let by_cap = Array.make 7 0 in
  let pool_bytes = ref 0
  and dense_used = ref 0
  and dense_reserved = ref 0
  and free_nodes = ref 0
  and free_leaves = ref 0 in
  Hart.iter_arts hart (fun _hk art ->
      incr arts;
      let n4, n16, n48, n256 = Art.node_histogram art in
      hist :=
        {
          n4 = !hist.n4 + n4;
          n16 = !hist.n16 + n16;
          n48 = !hist.n48 + n48;
          n256 = !hist.n256 + n256;
        };
      node_bytes := !node_bytes + Art.footprint_bytes art;
      max_height := max !max_height (Art.height art);
      let p = Art.pool_stats art in
      List.iteri (fun i (_cap, count) -> by_cap.(i) <- by_cap.(i) + count)
        p.Art.nodes_by_cap;
      pool_bytes := !pool_bytes + p.Art.pool_bytes;
      dense_used := !dense_used + p.Art.dense_used;
      dense_reserved := !dense_reserved + p.Art.dense_reserved;
      free_nodes := !free_nodes + p.Art.free_node_slots;
      free_leaves := !free_leaves + (p.Art.leaf_slots - p.Art.live_leaves));
  {
    keys = Hart.count hart;
    arts = !arts;
    hash_buckets_bytes = Hart.dir_bytes hart;
    art_nodes = !hist;
    art_node_bytes = !node_bytes;
    art_pools =
      {
        nodes_by_cap = List.init 7 (fun i -> (4 lsl i, by_cap.(i)));
        pool_bytes = !pool_bytes;
        dense_used = !dense_used;
        dense_reserved = !dense_reserved;
        dense_occupancy =
          (if !dense_reserved = 0 then 0.
           else float_of_int !dense_used /. float_of_int !dense_reserved);
        free_node_slots = !free_nodes;
        free_leaf_slots = !free_leaves;
      };
    max_art_height = !max_height;
    avg_art_keys =
      (if !arts = 0 then 0. else float_of_int (Hart.count hart) /. float_of_int !arts);
    leaf_class = class_stats alloc Chunk.Leaf_c;
    val8_class = class_stats alloc Chunk.Val8;
    val16_class = class_stats alloc Chunk.Val16;
    val32_class = class_stats alloc Chunk.Val32;
    owned_values =
      (let n = ref 0 in
       Epalloc.iter_owned alloc (fun ~leaf:_ -> incr n);
       !n);
    mirror_bytes = Epalloc.mirror_bytes alloc;
    pm_bytes = Hart.pm_bytes hart;
    dram_bytes = Hart.dram_bytes hart;
  }

let pp_class ppf (label, (c : class_stats)) =
  Format.fprintf ppf "%-6s %5d chunks, %7d/%7d objects (%.0f%%), %9d bytes"
    label c.chunks c.live_objects c.capacity (100. *. c.occupancy) c.bytes;
  if label <> "leaf" then Format.fprintf ppf ", spares %d" c.spares

let pp_pools ppf (p : bitmap_pools) =
  Format.fprintf ppf "ART pools       ";
  List.iter
    (fun (cap, count) -> if count > 0 then Format.fprintf ppf "c%d=%d " cap count)
    p.nodes_by_cap;
  Format.fprintf ppf "(%d bytes, %d/%d slots = %.0f%% dense, %d free handles)"
    p.pool_bytes p.dense_used p.dense_reserved
    (100. *. p.dense_occupancy)
    p.free_node_slots

let pp ppf t =
  Format.fprintf ppf
    "@[<v>keys            %d@ ARTs            %d (avg %.1f keys, max height %d)@ \
     ART nodes       N4=%d N16=%d N48=%d N256=%d (%d bytes)@ %a@ hash buckets    \
     %d bytes@ %a@ %a@ %a@ %a@ owned values    %d@ bitmap mirror   %d bytes@ \
     PM total        %d bytes@ DRAM total      %d bytes@]"
    t.keys t.arts t.avg_art_keys t.max_art_height t.art_nodes.n4 t.art_nodes.n16
    t.art_nodes.n48 t.art_nodes.n256 t.art_node_bytes pp_pools t.art_pools
    t.hash_buckets_bytes
    pp_class ("leaf", t.leaf_class)
    pp_class ("val8", t.val8_class)
    pp_class ("val16", t.val16_class)
    pp_class ("val32", t.val32_class)
    t.owned_values t.mirror_bytes t.pm_bytes t.dram_bytes
