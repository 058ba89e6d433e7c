(** The eight indexes of the paper's §II comparison, in one fixed order.

    Every per-index view is built from this list: the harness's
    {!Hart_core.Index_intf.ops} records and figure columns, the crash
    explorers' targets ([Hart_fault.Fault.all_targets],
    [Hart_fault.Fault_mt.all_mt_targets]) and the cross-index sweeps.
    An index's lower-case name comes from its {!Hart_core.Index_intf.S}
    module; its display label lives only here. *)

type entry = {
  name : string;  (** [S.name]: CLI target and fault-report name *)
  label : string;  (** display label in tables and [ops.name] *)
  index : (module Hart_core.Index_intf.S);
  mt : (module Hart_core.Index_intf.MT) option;
      (** the striped concurrent front end, for the five indexes whose
          commuting metadata is crash-checked under concurrency *)
}

val all : entry list
(** HART, FPTree, WORT, WOART, ART+CoW, NV-Tree, wB+Tree, CDDS: the
    order every per-index list (fault sweeps, YCSB rows) follows. *)

val paper : entry list
(** The four trees of Figs. 4-10, as entries of {!all}, in the paper's
    legend order: HART, WOART, ART+CoW, FPTree. *)

val find : string -> entry
(** The entry named [name]. @raise Invalid_argument if there is none. *)

val hart : entry
(** HART's own entry. *)

val ops : (module Hart_core.Index_intf.S with type t = 'a) -> 'a -> Hart_core.Index_intf.ops
(** Closures over an already-built index, labelled from the roster (so
    HART variants built with non-default [?kh]/[?internal_nodes] get the
    HART label). *)

val create : entry -> Hart_pmem.Pmem.t -> Hart_core.Index_intf.ops
(** A fresh, empty index of the entry's kind on [pool]. *)
