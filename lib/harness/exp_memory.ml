(** Fig. 10b: DRAM and PM consumption of the four trees under Sequential
    (the paper loads 100M records; counts scale with --scale). WOART and
    ART+CoW use no DRAM; HART uses the most DRAM; FPTree the most PM. *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Index_intf = Hart_core.Index_intf
module Keygen = Hart_workloads.Keygen

let default_records = 100_000

let run ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Sequential n in
  let mb x = float_of_int x /. 1024. /. 1024. in
  Report.print_table
    ~title:
      (Printf.sprintf "Fig 10(b): Memory consumption (MB) -- Sequential, %d records" n)
    ~col_names:[ "PM"; "DRAM" ]
    ~rows:
      (List.map
         (fun tree ->
           let inst = Runner.make tree Latency.c300_100 in
           Runner.preload inst keys Keygen.value_for;
           ( tree.Roster.label,
             [
               mb (inst.Runner.ops.Index_intf.pm_bytes ());
               mb (inst.Runner.ops.Index_intf.dram_bytes ());
             ] ))
         Roster.paper)
