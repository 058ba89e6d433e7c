(** The volatile inner levels of the §II-C B+-tree baselines (FPTree,
    wB+Tree, CDDS): sorted nodes of up to {!cap} separators over the
    tree's own leaves, descended by binary search, split at the median
    on overflow, grown at the root, and rebuilt bottom-up from the leaf
    chain on recovery. Nothing here is durable.

    The trees differ only in where an inner node lives and what
    touching it costs, which each supplies as one {!charges} record:
    FPTree keeps its inner nodes in DRAM, wB+Tree and CDDS
    charge-model theirs at pool addresses (DESIGN.md). *)

val cap : int
(** Separators per inner node: 32. *)

type 'leaf node = Leaf of 'leaf | Inner of 'leaf inner
and 'leaf inner

type charges = {
  alloc : unit -> int;  (** a fresh inner node; its address *)
  enter : int -> unit;  (** a descent reads node [addr]'s header *)
  probe : int -> int -> unit;
      (** the binary search reads separator [i] of node [addr] *)
  added : int -> int -> unit;
      (** a separator was inserted into node [addr], whose last used
          slot is now [i] *)
  split : left:int -> right:int -> unit;
      (** the overflowing node [left] moved its upper half into the
          fresh node [right] *)
  rooted : int -> unit;
      (** the fresh node [addr] became the root over the old root and
          its new sibling *)
  built : int -> unit;  (** recovery filled the fresh node [addr] *)
}

val find_leaf : charges -> 'leaf node -> string -> 'leaf
(** The leaf whose key range holds [key]. *)

val insert :
  charges -> 'leaf node -> string -> ('leaf -> (string * 'leaf) option) -> 'leaf node
(** [insert c root key leaf_insert] descends to [key]'s leaf and applies
    the tree's [leaf_insert] to it. When that splits the leaf, returning
    [Some (sep, right)] with [right] holding the keys [>= sep], [sep] is
    added to the parent, full inner nodes split at the median on the way
    up, and a split root gets a new root above it. Returns the root. *)

val build : charges -> (string * 'leaf) list -> 'leaf node
(** The balanced bottom-up rebuild: the leaves in chain order, each with
    its smallest key (the first leaf's is not used), grouped level by
    level into [ceil (n / (cap + 1))] nodes whose sizes differ by at most
    one. A single leaf is its own root.
    @raise Invalid_argument on an empty list. *)

val height : 'leaf node -> int
(** Levels including the leaves: 1 while the root is a leaf. *)
