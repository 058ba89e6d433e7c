(** Structural statistics of a HART instance — the introspection a
    downstream operator needs to reason about Fig. 10b-style memory
    behaviour: adaptive-node population, chunk occupancy, value-class
    mix, tree shape. *)

type node_histogram = { n4 : int; n16 : int; n48 : int; n256 : int }

type bitmap_pools = {
  nodes_by_cap : (int * int) list;
      (** live inner nodes per physical capacity class, summed over the
          instance's ARTs, as [(capacity, count)] for 4, 8, ..., 256 *)
  pool_bytes : int;  (** physical bytes of the Bigarray-backed pools *)
  dense_used : int;  (** occupied child slots *)
  dense_reserved : int;  (** child slots reserved by live nodes *)
  dense_occupancy : float;  (** used / reserved, 0 when empty *)
  free_node_slots : int;  (** recycled node handles awaiting reuse *)
  free_leaf_slots : int;  (** unoccupied spilled-leaf table slots *)
}
(** Physical census of the ART bitmap node layer (DESIGN.md §14) —
    distinct from {!node_histogram}, which counts modelled adaptive
    classes. Delete churn shows up here as reserved-but-unused dense
    slots and free-listed handles. *)

type class_stats = {
  chunks : int;  (** chunks in the class's list *)
  live_objects : int;  (** committed bitmap bits *)
  capacity : int;  (** chunks × 56 *)
  occupancy : float;  (** live / capacity, 0 when empty *)
  bytes : int;  (** PM bytes held by the class's chunks *)
  spares : int;
      (** value chunks whose only free slot is the spare kept for
          updates ({!Epalloc.value_objs_per_chunk}); 0 for leaves *)
}

type t = {
  keys : int;
  arts : int;
  hash_buckets_bytes : int;
  art_nodes : node_histogram;
  art_node_bytes : int;  (** modelled C footprint of all inner nodes *)
  art_pools : bitmap_pools;
  max_art_height : int;
  avg_art_keys : float;  (** keys per ART *)
  leaf_class : class_stats;
  val8_class : class_stats;
  val16_class : class_stats;
  val32_class : class_stats;
  owned_values : int;
      (** values kept committed by owning free leaf slots (deleted keys'
          slots not yet taken over); the value classes' [live_objects]
          include them *)
  mirror_bytes : int;
      (** DRAM bytes of EPallocator's bitmap mirror (8 per chunk) *)
  pm_bytes : int;
  dram_bytes : int;  (** hash buckets + ART nodes + bitmap mirror *)
}

val collect : Hart.t -> t
(** Walk the directory, the ARTs and the chunk lists. O(store size). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering (used by [hart_cli stats -v]). *)
