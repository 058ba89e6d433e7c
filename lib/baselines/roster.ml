(* The one list of the eight §II indexes. Every per-index view — the
   harness's ops records, the crash explorers' targets, the concurrent
   front ends, the figure columns — is built from these entries, so an
   index's name, display label and concurrency wiring are stated once. *)

module Index_intf = Hart_core.Index_intf
module Striped_mt = Hart_core.Striped_mt

type entry = {
  name : string;
  label : string;
  index : (module Index_intf.S);
  mt : (module Index_intf.MT) option;
}

let entry ?mt label (module I : Index_intf.S) =
  { name = I.name; label; index = (module I); mt }

(* HART, then the baselines: FPTree (the same selective-persistence
   family), the FAST'17 radix trees, the B+-tree lineage. This is the
   fault explorers' sweep order. *)
let all =
  [
    entry "HART" (module Hart_core.Hart_mt.S) ~mt:(module Hart_core.Hart_mt.M);
    entry "FPTree" (module Fptree.S) ~mt:(module Striped_mt.Make (Fptree.S));
    entry "WORT" (module Wort.S) ~mt:(module Striped_mt.Make (Wort.S));
    entry "WOART" (module Woart.S) ~mt:(module Striped_mt.Make (Woart.S));
    entry "ART+CoW" (module Art_cow.S);
    entry "NV-Tree" (module Nv_tree.S);
    entry "wB+Tree" (module Wb_tree.S) ~mt:(module Striped_mt.Make (Wb_tree.S));
    entry "CDDS" (module Cdds_btree.S);
  ]

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None -> invalid_arg ("Roster.find: no index named " ^ name)

(* the paper's evaluated trees (Figs. 4-10), in its legend order *)
let paper = List.map find [ "hart"; "woart"; "art-cow"; "fptree" ]
let hart = find "hart"

let ops (type a) (module I : Index_intf.S with type t = a) (t : a) =
  {
    Index_intf.name = (find I.name).label;
    insert = (fun ~key ~value -> I.insert t ~key ~value);
    search = (fun k -> I.search t k);
    update = (fun ~key ~value -> I.update t ~key ~value);
    delete = (fun k -> I.delete t k);
    range = (fun ~lo ~hi f -> I.range t ~lo ~hi f);
    count = (fun () -> I.count t);
    dram_bytes = (fun () -> I.dram_bytes t);
    pm_bytes = (fun () -> I.pm_bytes t);
  }

let create e pool =
  let (module I) = e.index in
  ops (module I) (I.create pool)
