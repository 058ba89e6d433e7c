(** Volatile adaptive radix tree (Leis et al., ICDE 2013) — the original
    boxed-variant node representation ([N4/N16/N48/N256] with
    ['v node option array] slots).

    Retained as the comparison baseline for the bitmap node layer that
    replaced it in {!Art} (DESIGN.md §14): [exp_art_nodes] benchmarks the
    two side by side, and the differential tests assert that both layers
    emit identical structural events and metered figures. The API is the
    same as {!Art}'s minus the pool introspection.

    It implements the four adaptive node types (NODE4/16/48/256),
    pessimistic path compression and lazy expansion.

    Keys are arbitrary byte strings (including the empty string); unlike
    textbook ART, a key that is a strict prefix of another key is
    supported directly: every inner node carries an optional "ends-here"
    leaf for the key that terminates exactly at that node, so no
    terminator byte needs to be appended and binary keys round-trip.

    When built with a {!Hart_pmem.Meter.t}, every inner-node visit is
    reported as a DRAM access at the node's synthetic address and every
    node allocation/resize updates the modelled C-layout footprint, so the
    simulated cache sees the same locality a C implementation would.
    Leaf records are deliberately {e not} metered: in HART a child pointer
    refers directly to a PM leaf, and the PM cost of validating it is
    charged by the caller (Algorithm 4 of the paper). *)

type 'v t

(** Structural events, reported to the [on_event] hook as they happen.
    The WOART and ART+CoW baselines translate these into their PM
    consistency protocols (per-slot atomic persists vs. whole-node
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
    allocator), letting PM-resident baselines draw node addresses from
    their pool so footprint and cache simulation see PM. [on_event]
    receives structural events (default: ignored). *)

val count : 'v t -> int
(** Number of keys. O(1). *)

val is_empty : 'v t -> bool

val find : 'v t -> string -> 'v option
(** [find t key] is the value bound to [key], if any. *)

val insert : 'v t -> string -> 'v -> 'v option
(** [insert t key v] binds [key] to [v] unless it is bound already; a
    bound key's binding is returned and left as it was, as
    {!Art.insert} does. *)

val delete : 'v t -> string -> 'v option
(** [delete t key] removes and returns [key]'s binding. Nodes shrink back
    through the adaptive types and paths re-compress, as in the paper's
    deletion discussion. *)

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
(** Counts of (NODE4, NODE16, NODE48, NODE256) inner nodes. *)

val check_invariants : 'v t -> unit
(** Validate structural invariants (child counts, sortedness of NODE4/16
    keys, index consistency of NODE48, path-compression minimality:
    no inner node with a single child and no ends-here leaf). Raises
    [Failure] with a description on violation. Test use. *)
