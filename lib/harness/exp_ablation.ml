(** Ablations of HART's design levers (beyond the paper's figures, as
    DESIGN.md's per-experiment index calls out):

    - [kh] sweep — the hash-key length trades hash-table fan-out against
      ART depth (§III-A.1 fixes kh = 2 for all experiments);
    - selective persistence — HART with internal nodes forced onto PM
      under a WOART-style protocol, isolating what §III-A.2 buys;
    - event diagnostics — flushes, PM read misses and allocator calls per
      operation for all four trees: the mechanism behind every "who wins"
      in Figs. 4-9. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Hart = Hart_core.Hart
module Index_intf = Hart_core.Index_intf
module Roster = Hart_baselines.Roster
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

let default_records = 20_000

let hart_instance ?kh ?internal_nodes () =
  Runner.on_pool Latency.c300_300 (fun pool ->
      Roster.ops (module Hart_core.Hart_mt.S) (Hart.create ?kh ?internal_nodes pool))

let measure_ins_search inst keys =
  let ins = Runner.measure inst (Workload.insert_trace keys Keygen.value_for) in
  let sea = Runner.measure inst (Workload.search_trace keys) in
  (Runner.avg_us ins, Runner.avg_us sea)

let kh_sweep ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Ablation A1: hash-key length kh (HART, Random, %d records, 300/300)" n)
    ~col_names:[ "insert us/op"; "search us/op" ]
    ~rows:
      (List.map
         (fun kh ->
           let inst = hart_instance ~kh () in
           let ins, sea = measure_ins_search inst keys in
           (Printf.sprintf "kh=%d" kh, [ ins; sea ]))
         [ 1; 2; 4; 8 ])

let selective_persistence ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Ablation A2: selective persistence (HART internal nodes, %d records, 300/300)"
         n)
    ~col_names:[ "insert us/op"; "search us/op" ]
    ~rows:
      (List.map
         (fun (label, internal_nodes) ->
           let inst = hart_instance ~internal_nodes () in
           let ins, sea = measure_ins_search inst keys in
           (label, [ ins; sea ]))
         [ ("nodes in DRAM (paper)", `Dram); ("nodes on PM (ablated)", `Pm) ])

let event_diagnostics ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  let per_op m counter = float_of_int counter /. float_of_int m.Runner.n_ops in
  List.iter
    (fun (op_label, mk_trace, needs_preload) ->
      Report.print_table
        ~title:
          (Printf.sprintf "Ablation A3: %s events per op (Random, %d records, 300/300)"
             op_label n)
        ~col_names:[ "flushes"; "pm-read misses"; "dram misses"; "allocs" ]
        ~rows:
          (List.map
             (fun tree ->
               let inst = Runner.make tree Latency.c300_300 in
               if needs_preload then Runner.preload inst keys Keygen.value_for;
               let m = Runner.measure inst (mk_trace keys) in
               ( tree.Roster.label,
                 [
                   per_op m m.Runner.counters.Meter.flushes;
                   per_op m m.Runner.counters.Meter.pm_read_misses;
                   per_op m m.Runner.counters.Meter.dram_read_misses;
                   per_op m m.Runner.counters.Meter.pm_allocs;
                 ] ))
             Roster.paper))
    [
      ("insertion", (fun keys -> Workload.insert_trace keys Keygen.value_for), false);
      ("search", (fun keys -> Workload.search_trace keys), true);
      ("update", (fun keys -> Workload.update_trace keys Keygen.value_for), true);
      ("deletion", (fun keys -> Workload.delete_trace keys), true);
    ]

let value_sizes ~scale =
  (* §III-A.5: variable-size values via 8/16/32-byte classes (the last
     is the extension the paper describes). Larger classes persist more
     lines per value and dilute chunk capacity. *)
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Ablation A4: value size classes (HART, Random, %d records, 300/300)" n)
    ~col_names:[ "insert us/op"; "update us/op"; "pm MB" ]
    ~rows:
      (List.map
         (fun (label, value_of) ->
           let inst = hart_instance () in
           let ins =
             Runner.avg_us (Runner.measure inst (Workload.insert_trace keys value_of))
           in
           let upd =
             Runner.avg_us
               (Runner.measure inst (Workload.update_trace keys value_of))
           in
           let mb =
             float_of_int (inst.Runner.ops.Index_intf.pm_bytes ()) /. 1024. /. 1024.
           in
           (label, [ ins; upd; mb ]))
         [
           ("7-byte values (Val8)", Keygen.value_for);
           ("15-byte values (Val16)", Keygen.wide_value_for);
           ("30-byte values (Val32)", fun i -> Printf.sprintf "wide-value-%018d" i);
         ])

(* One row of the lineage tables: the four basic operations, us/op, on
   a fresh instance of the named roster index. *)
let lineage_row keys name =
  let e = Roster.find name in
  let inst = Runner.make e Latency.c300_300 in
  let ins = Runner.measure inst (Workload.insert_trace keys Keygen.value_for) in
  let sea = Runner.measure inst (Workload.search_trace keys) in
  let upd = Runner.measure inst (Workload.update_trace keys Keygen.value_for) in
  let del = Runner.measure inst (Workload.delete_trace keys) in
  ( e.Roster.label,
    [ Runner.avg_us ins; Runner.avg_us sea; Runner.avg_us upd; Runner.avg_us del ] )

let radix_lineage ~scale =
  (* Extra baseline beyond the paper's figures: WORT, the first of the
     FAST'17 radix trees (§II-C), against its successors. Its fixed
     16-ary nodes make descents deeper, which PM read latency punishes —
     the reason WOART superseded it and the paper benchmarks WOART. *)
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Extra E1: the FAST'17 radix lineage, us/op (Random, %d records, 300/300)" n)
    ~col_names:[ "insert"; "search"; "update"; "delete" ]
    ~rows:(List.map (lineage_row keys) [ "wort"; "woart"; "art-cow"; "hart" ])

let bptree_lineage ~scale =
  (* The B+-tree side of §II-C: CDDS, NV-Tree and wB+-Tree, the trees
     FPTree (and then the radix family) was shown to beat. NV-Tree's append-only
     leaves make writes cheap but searches scan unsorted history, and its
     splits rebuild the whole inner index; wB+-Tree pays PM descents plus
     logged splits. *)
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Extra E2: the B+-tree lineage, us/op (Random, %d records, 300/300)" n)
    ~col_names:[ "insert"; "search"; "update"; "delete" ]
    ~rows:(List.map (lineage_row keys) [ "cdds"; "nv-tree"; "wb-tree"; "fptree"; "hart" ])

let run ~scale =
  kh_sweep ~scale;
  selective_persistence ~scale;
  value_sizes ~scale;
  radix_lineage ~scale;
  bptree_lineage ~scale;
  event_diagnostics ~scale
