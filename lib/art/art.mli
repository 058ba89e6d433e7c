(** Volatile adaptive radix tree (Leis et al., ICDE 2013) over a bitmap
    node layer.

    This is the DRAM-resident ART used for HART's per-prefix subtrees and,
    with different storage policies, as the skeleton of the WOART and
    ART+CoW baselines. Logically it implements the adaptive node classes
    (NODE4/16/48/256), pessimistic path compression and lazy expansion;
    physically (DESIGN.md §14) each inner node is an integer handle into
    flat [Bigarray]-backed pools — a 256-bit membership bitset ranked by
    popcount into a dense, capacity-doubling child block, with leaf
    payloads spilled to a side table — so the hot path chases no GC
    pointers and allocates nothing.

    Keys are arbitrary byte strings (including the empty string); unlike
    textbook ART, a key that is a strict prefix of another key is
    supported directly: every inner node carries an optional "ends-here"
    leaf for the key that terminates exactly at that node, so no
    terminator byte needs to be appended and binary keys round-trip.

    When built with a {!Hart_pmem.Meter.t}, every inner-node visit is
    reported as a DRAM access at the node's synthetic address and every
    node allocation/resize updates the modelled C-layout footprint, so the
    simulated cache sees the same locality a C implementation would. The
    modelled cost layer still follows the adaptive NODE4/16/48/256
    classes — a pure function of the child count — so footprints, events
    and touches are identical to what the boxed layer ({!Art_boxed})
    produced.
    Leaf records are deliberately {e not} metered: in HART a child pointer
    refers directly to a PM leaf, and the PM cost of validating it is
    charged by the caller (Algorithm 4 of the paper). *)

type 'v t

(** Structural events, reported to the [on_event] hook as they happen.
    {!Pm_nodes} translates these into the PM consistency protocols of
    WOART and ART+CoW (per-slot atomic persists vs. whole-node
    copy-on-write) without re-implementing the tree. *)
type event =
  | Node_created of { addr : int; bytes : int }
      (** A fresh inner node was written (also fired for the grown copy
          when a node changes size class; [addr] is the new node). *)
  | Node_freed of { addr : int; bytes : int }
  | Child_added of { addr : int; slot_off : int; kind : int }
      (** A new child entry was written in place at [addr + slot_off];
          [kind] is the node's arity class (4/16/48/256; 0 for the
          tree-root pointer), which the CoW baseline needs to decide
          whether the mutation is single-word-atomic. *)
  | Child_replaced of { addr : int; slot_off : int; kind : int }
      (** An existing child pointer was overwritten (split, growth or
          collapse re-linking). *)
  | Child_removed of { addr : int; slot_off : int; kind : int }
  | Prefix_changed of { addr : int }
      (** The compressed-path header of the node changed. *)
  | Here_changed of { addr : int }
      (** The node's ends-here leaf slot was set or cleared. *)

val create :
  ?meter:Hart_pmem.Meter.t ->
  ?space:Hart_pmem.Meter.space ->
  ?alloc_node:(int -> int) ->
  ?free_node:(addr:int -> size:int -> unit) ->
  ?on_event:(event -> unit) ->
  unit ->
  'v t
(** Fresh empty tree. With [meter], node visits and footprint are
    reported to it, in address space [space] (default [Dram] — HART's
    volatile internal nodes). [alloc_node]/[free_node] override where
    node addresses come from (default: the meter's synthetic DRAM
    allocator, or a line-aligned counter when there is no meter, so
    every node has a distinct address either way). [on_event] receives
    structural events (default: ignored). *)

val of_sorted :
  ?meter:Hart_pmem.Meter.t ->
  ?on_event:(event -> unit) ->
  ?on_pass:(lo:int -> hi:int -> byte:int -> unit) ->
  string array ->
  'v array ->
  'v t
(** [of_sorted keys vals] is the tree binding [keys.(i)] to [vals.(i)],
    built bottom-up (Leis et al., ICDE 2013): the same tree, node for
    node, that inserting the bindings into {!create}[ ()] builds, but
    each inner node is allocated once, at its final adaptive class,
    physical capacity and compressed prefix. One [Node_created] per
    node, no other event; with [meter], one {!Hart_pmem.Meter.write_range}
    of the node's modelled C bytes and no read. [on_pass] is called once
    per inner node, before its node is written, with the sorted
    positions [\[lo, hi)] of the keys below it and the position [byte]
    of the key byte it branches on: the build compares the range's
    first and last keys up to [byte] and reads [byte] of each key in
    the range, so a caller holding the keys in its own memory can
    charge that pass. [meter] and [on_event] are {!create}'s; the
    nodes are DRAM nodes from the meter's allocator.
    @raise Invalid_argument unless [keys] is strictly increasing and as
    long as [vals]. *)

val count : 'v t -> int
(** Number of keys. O(1). *)

val is_empty : 'v t -> bool

(** {1 Point operations}

    [find], [insert] and [delete] take a caller's whole key and the
    offset [off] where the tree's key starts within it: the tree's key
    is the bytes of [key] from [off] on. HART passes the full key with
    [off] past the hash prefix, so the prefix is never copied out; a
    tree of whole keys passes [~off:0]. The bound and removed keys, and
    every key {!iter}, {!range} and the extremes report, are tree keys.
    Each descent is a top-level recursion that allocates nothing but
    what it returns. *)

val find : 'v t -> string -> off:int -> 'v option
(** [find t key ~off] is the value bound to [key]'s tree key, if any. *)

val insert : 'v t -> string -> off:int -> (string -> 'a -> 'v) -> 'a -> 'v option
(** [insert t key ~off make x] binds [key]'s tree key to [make key x]
    unless it is bound already, in one descent. A bound key's binding is
    returned and the tree is left as it was, [make] uncalled. Otherwise
    [make] runs at the insertion point, before any node changes, so if
    it raises the tree is untouched; the result is [None]. A caller
    binding a value it already holds passes [(fun _ v -> v)]. *)

val delete : 'v t -> string -> off:int -> 'v option
(** [delete t key ~off] removes and returns the binding of [key]'s tree
    key. Nodes shrink back through the adaptive classes and paths
    re-compress, as in the paper's deletion discussion. *)

val min_binding : 'v t -> (string * 'v) option
(** Smallest key in byte-lexicographic order. *)

val max_binding : 'v t -> (string * 'v) option

val iter : 'v t -> (string -> 'v -> unit) -> unit
(** In-order (byte-lexicographic) iteration over all bindings. *)

val fold : 'v t -> init:'a -> f:('a -> string -> 'v -> 'a) -> 'a

val range : 'v t -> lo:string -> hi:string -> (string -> 'v -> unit) -> unit
(** In-order iteration over bindings with [lo <= key <= hi] (inclusive,
    byte-lexicographic), pruning subtrees outside the interval. *)

val height : 'v t -> int
(** Longest root-to-leaf path in nodes. 0 for an empty tree. *)

val footprint_bytes : 'v t -> int
(** Modelled DRAM footprint of the inner nodes using the C layout sizes
    (NODE4 = 56 B, NODE16 = 160 B, NODE48 = 656 B, NODE256 = 2064 B),
    used for the paper's Fig. 10b memory accounting. *)

val node_histogram : 'v t -> int * int * int * int
(** Counts of (NODE4, NODE16, NODE48, NODE256) inner nodes, by modelled
    adaptive class. *)

type pool_stats = {
  nodes_by_cap : (int * int) list;
      (** live inner nodes per physical capacity class, as
          [(capacity, count)] for capacities 4, 8, ..., 256 *)
  live_nodes : int;
  free_node_slots : int;  (** free-listed (recycled) node handles *)
  node_slots : int;  (** handles ever allocated from the meta pool *)
  dense_used : int;  (** occupied child slots, Σ child count *)
  dense_reserved : int;  (** slots in live nodes' blocks, Σ capacity *)
  dense_slab_slots : int;
      (** total child-arena slots, including free blocks and the
          untouched tail *)
  live_leaves : int;
  leaf_slots : int;  (** spilled-leaf table length *)
  pool_bytes : int;
      (** physical bytes of the backing pools (meta + child arena +
          leaf and prefix tables); distinct from the modelled
          {!footprint_bytes} *)
}
(** Physical-layer census of the bitmap node pools, for fragmentation
    and occupancy accounting ({!Hart_core.Hart_stats} aggregates it
    across an instance's ARTs). *)

val pool_stats : 'v t -> pool_stats

val check_invariants : 'v t -> unit
(** Validate structural invariants (child counts vs. bitset population,
    dense-block capacity hysteresis, modelled NODE48 slot-map
    consistency, path-compression minimality: no inner node with a
    single child and no ends-here leaf) and pool accounting (every node
    handle, leaf slot and child-arena slot is exactly one of live,
    free-listed or unallocated). Raises [Failure] with a description on
    violation. Test use. *)
