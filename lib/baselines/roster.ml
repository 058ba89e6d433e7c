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
    entry "FPTree" (module Fptree) ~mt:(module Striped_mt.Make (Fptree));
    entry "WORT" (module Wort) ~mt:(module Striped_mt.Make (Wort));
    entry "WOART" (module Pm_art.Woart) ~mt:(module Striped_mt.Make (Pm_art.Woart));
    entry "ART+CoW" (module Pm_art.Art_cow);
    entry "NV-Tree" (module Nv_tree);
    entry "wB+Tree" (module Wb_tree) ~mt:(module Striped_mt.Make (Wb_tree));
    entry "CDDS" (module Cdds_btree);
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
