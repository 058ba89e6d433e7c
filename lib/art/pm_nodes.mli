(** PM-resident inner nodes for an {!Art}: nodes are allocated from a
    {!Hart_pmem.Pmem} pool and every structural {!Art.event} is charged
    to the pool's meter by a failure-atomicity protocol (Lee et al.,
    FAST 2017). Node contents stay charge-modelled: the stores and
    flushes are reported at the node's real pool address, nothing is
    byte-stored.

    The WOART and ART+CoW baselines ([Hart_baselines.Pm_art]) and
    HART's nodes-on-PM ablation ([Hart.create ~internal_nodes:`Pm]) all
    build their trees here, so each protocol is written once. *)

type protocol =
  | Write_optimal
      (** WOART: in place, by ordered persists of at most 8 bytes.
          - new or grown node: whole-node store + persist, then an
            8-byte atomic parent-pointer persist;
          - child added: an 8-byte slot store + persist, then a key-byte
            store + persist;
          - child replaced or removed: one 8-byte store + persist;
          - path header changed: one 16-byte store + persist;
          - ends-here slot changed: one 8-byte store + persist. *)
  | Copy_on_write
      (** ART+CoW: a mutation of more than one 8-byte word (a NODE4,
          NODE16 or NODE48 child add, a NODE4 or NODE16 removal, a path
          header change) writes a fresh copy of the whole node, persists
          it and swaps the parent's 8-byte pointer (a NODE256 copy alone
          is 33 line flushes); a single-word mutation (any pointer
          overwrite, a NODE256 or root add, a NODE48 or NODE256
          removal, the ends-here slot) is one 8-byte store + persist. *)

val charges : protocol -> Hart_pmem.Meter.t -> Art.event -> unit
(** [charges p meter] is a fresh event hook charging [p] to [meter];
    {!create} installs one per tree. A [Copy_on_write] hook keeps the
    size of each node it has seen created, to price a copy. *)

val create :
  ?count_bytes:(int -> unit) -> protocol -> Hart_pmem.Pmem.t -> 'v Art.t
(** An empty tree whose inner nodes are allocated from (and freed to)
    the pool, charged by the protocol to the pool's meter in PM space.
    [count_bytes] is told the line-rounded pool bytes of each node block
    as it is allocated, and their negation as it is freed. *)
