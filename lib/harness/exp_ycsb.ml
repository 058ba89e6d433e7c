(** Beyond the paper: the six standard YCSB core workloads (A-F) across
    every index in the repo — the scenario-diversity leg of the
    evaluation. A is update-heavy, B read-mostly, C read-only, D
    read-latest with inserts, E scan-heavy with inserts, F
    read-modify-write; each runs with its canonical request distribution
    (zipfian 0.99, latest for D). Companion tables vary the request skew
    (uniform / zipfian / latest / hotspot) and the key population
    (Random vs Composite multi-field record keys), and a delete-churn
    plan storms the allocator's recycler. Cells report the simulated
    clock (the paper's emulation methodology), flush counts, and
    host wall-clock for reference. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hart = Hart_core.Hart
module B = Hart_baselines
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload
module Json = Report.Json

let default_preload = 20_000

(* ------------------------------------------------------------------ *)
(* All eight indexes behind Index_intf.ops, each on a fresh pool with
   the harness LLC (dataset >> cache, as on the paper's testbed).       *)

let fresh_meter () =
  Meter.create ~llc_bytes:Runner.harness_llc_bytes Latency.c300_100

let targets : (string * (unit -> B.Index_intf.ops * Meter.t)) list =
  let with_pool make () =
    let meter = fresh_meter () in
    let pool = Pmem.create meter in
    (make pool, meter)
  in
  [
    ("hart", with_pool (fun p -> B.Hart_index.ops (Hart.create p)));
    ("woart", with_pool (fun p -> B.Woart.ops (B.Woart.create p)));
    ("art_cow", with_pool (fun p -> B.Art_cow.ops (B.Art_cow.create p)));
    ("wort", with_pool (fun p -> B.Wort.ops (B.Wort.create p)));
    ("fptree", with_pool (fun p -> B.Fptree.ops (B.Fptree.create p)));
    ("nv_tree", with_pool (fun p -> B.Nv_tree.ops (B.Nv_tree.create p)));
    ("wb_tree", with_pool (fun p -> B.Wb_tree.ops (B.Wb_tree.create p)));
    ("cdds_btree", with_pool (fun p -> B.Cdds_btree.ops (B.Cdds_btree.create p)));
  ]

type cell = { sim_us : float; flush_per_op : float; wall_us : float }

let run_cell (ops, meter) ~preloaded ~trace =
  Array.iteri
    (fun i key -> ops.B.Index_intf.insert ~key ~value:(Keygen.value_for i))
    preloaded;
  let before = Meter.counters meter in
  let t0 = Unix.gettimeofday () in
  ignore (Workload.apply ops trace : int);
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let c = Meter.diff before (Meter.counters meter) in
  let n = float_of_int (Array.length trace) in
  {
    sim_us = c.Meter.sim_ns /. n /. 1e3;
    flush_per_op = float_of_int c.Meter.flushes /. n;
    wall_us = wall_ns /. n /. 1e3;
  }

(* preloaded database + disjoint fresh keys for the insert share *)
let key_universe spec ~n ~n_ops =
  let universe = Keygen.generate spec (n + n_ops) in
  (Array.sub universe 0 n, Array.sub universe n n_ops)

let run_grid ~n ~n_ops spec plan =
  List.map
    (fun (t_name, mk) ->
      ( t_name,
        List.map
          (fun (mix, dist) ->
            let preloaded, fresh = key_universe spec ~n ~n_ops in
            let trace = Workload.ycsb ~dist mix ~preloaded ~fresh ~n_ops in
            (mix.Workload.mix_name, Workload.dist_name dist,
             run_cell (mk ()) ~preloaded ~trace))
          plan ))
    targets

let print_metric ~title ~cols ~get grid =
  Report.print_table ~title ~col_names:cols
    ~rows:(List.map (fun (t, cells) -> (t, List.map (fun (_, _, c) -> get c) cells)) grid)

let metric_tables ~prefix ~cols grid =
  print_metric ~title:(prefix ^ " -- simulated us/op") ~cols ~get:(fun c -> c.sim_us)
    grid;
  print_metric ~title:(prefix ^ " -- flushes/op") ~cols
    ~get:(fun c -> c.flush_per_op)
    grid;
  print_metric ~title:(prefix ^ " -- wall-clock us/op (reference)") ~cols
    ~get:(fun c -> c.wall_us)
    grid

let grid_json name grid =
  Json.Obj
    [
      ("table", Json.Str name);
      ( "cells",
        Json.List
          (List.concat_map
             (fun (t, cells) ->
               List.map
                 (fun (mix, dist, c) ->
                   Json.Obj
                     [
                       ("index", Json.Str t);
                       ("workload", Json.Str mix);
                       ("dist", Json.Str dist);
                       ("sim_us_per_op", Json.Float c.sim_us);
                       ("flushes_per_op", Json.Float c.flush_per_op);
                       ("wall_us_per_op", Json.Float c.wall_us);
                     ])
                 cells)
             grid) );
    ]

let run ~scale =
  let n = max 1_000 (int_of_float (float_of_int default_preload *. scale)) in
  let n_ops = 2 * n in
  Printf.printf
    "\nYCSB core workloads A-F: %d preloaded records, %d ops per cell, \
     300/100 latency.\n%!"
    n n_ops;
  (* A-F under canonical request distributions, Random keys *)
  let af = run_grid ~n ~n_ops Keygen.Random Workload.ycsb_standard in
  let af_cols =
    List.map (fun (m, _) -> m.Workload.mix_name) Workload.ycsb_standard
  in
  metric_tables ~prefix:"YCSB A-F (Random keys, canonical dists)" ~cols:af_cols
    af;
  (* the same A-F over Composite record keys: heavy hash-prefix
     collisions and long shared prefixes *)
  let af_comp = run_grid ~n ~n_ops Keygen.Composite Workload.ycsb_standard in
  metric_tables ~prefix:"YCSB A-F (Composite keys, canonical dists)"
    ~cols:af_cols af_comp;
  (* request-skew sensitivity: YCSB-A under each distribution *)
  let skews =
    [
      Workload.Uniform;
      Workload.Zipfian 0.99;
      Workload.Latest 0.99;
      Workload.Hotspot { hot_fraction = 0.2; hot_prob = 0.8 };
    ]
  in
  let skew_plan = List.map (fun d -> (Workload.ycsb_a, d)) skews in
  let skew = run_grid ~n ~n_ops Keygen.Random skew_plan in
  metric_tables ~prefix:"YCSB-A request-skew sweep (Random keys)"
    ~cols:(List.map Workload.dist_name skews)
    skew;
  (* delete churn: waves of insert-everything / delete-everything cycling
     whole chunks through the recycler *)
  let churn_n = max 500 (n / 4) in
  let churn =
    List.map
      (fun (t_name, mk) ->
        let keys = Keygen.generate ~seed:0xC4B2L Keygen.Random churn_n in
        let trace = Workload.churn_trace ~waves:2 keys Keygen.value_for in
        (t_name, [ ("churn", "n/a", run_cell (mk ()) ~preloaded:[||] ~trace) ]))
      targets
  in
  metric_tables
    ~prefix:
      (Printf.sprintf "Delete-churn storm (%d keys x 2 waves)" churn_n)
    ~cols:[ "churn" ] churn;
  flush stdout;
  Json.Obj
    [
      ("experiment", Json.Str "ycsb");
      ("preloaded", Json.Int n);
      ("ops_per_cell", Json.Int n_ops);
      ( "grids",
        Json.List
          [
            grid_json "af_random" af;
            grid_json "af_composite" af_comp;
            grid_json "ycsb_a_skew" skew;
            grid_json "delete_churn" churn;
          ] );
    ]
