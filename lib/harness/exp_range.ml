(** Fig. 10a: range query — scan a window of records under Sequential,
    avg time per returned record. FPTree walks its ordered leaf chain;
    the ART-based trees resolve each record through ordered subtree
    traversal with per-leaf validation (the paper implements theirs as a
    search per key). *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Index_intf = Hart_core.Index_intf
module Keygen = Hart_workloads.Keygen

let default_records = 50_000

let run ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let window = n / 2 in
  let keys = Keygen.generate Keygen.Sequential n in
  let lo = keys.(n / 4) and hi = keys.((n / 4) + window - 1) in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Fig 10(a): Range query avg us/record -- Sequential, %d records, %d-record window"
         n window)
    ~col_names:(List.map (fun e -> e.Roster.label) Roster.paper)
    ~rows:
      (List.map
         (fun config ->
           ( config.Latency.name,
             List.map
               (fun tree ->
                 let inst = Runner.make tree config in
                 Runner.preload inst keys Keygen.value_for;
                 let meter = inst.Runner.meter in
                 let before = Hart_pmem.Meter.counters meter in
                 let seen = ref 0 in
                 inst.Runner.ops.Index_intf.range ~lo ~hi (fun _ _ -> incr seen);
                 let d =
                   Hart_pmem.Meter.diff before (Hart_pmem.Meter.counters meter)
                 in
                 if !seen <> window then
                   failwith
                     (Printf.sprintf "range returned %d of %d records" !seen window);
                 d.Hart_pmem.Meter.sim_ns /. float_of_int window /. 1000.)
               Roster.paper ))
         Latency.all)
