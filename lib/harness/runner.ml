module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Index_intf = Hart_core.Index_intf
module Roster = Hart_baselines.Roster
module Workload = Hart_workloads.Workload

type instance = {
  pool : Pmem.t;
  meter : Meter.t;
  ops : Index_intf.ops;
}

(* The record counts are scaled down ~100-1000x from the paper's 1M-100M,
   so the simulated last-level cache is scaled down with them: with the
   paper's 20 MiB LLC a 30k-record tree would live entirely in cache and
   the PM-descent costs that drive Figs. 4-8 would vanish. 256 KiB keeps
   dataset >> LLC at the default scales, as 10 GiB of records did against
   20 MiB on the paper's Xeon. *)
let harness_llc_bytes = 256 * 1024

let on_pool config build =
  let meter = Meter.create ~llc_bytes:harness_llc_bytes config in
  let pool = Pmem.create meter in
  { pool; meter; ops = build pool }

let make entry config = on_pool config (Roster.create entry)

type measurement = {
  n_ops : int;
  sim_ns : float;
  wall_ns : float;
  counters : Meter.counters;
}

let avg_us m = if m.n_ops = 0 then 0. else m.sim_ns /. float_of_int m.n_ops /. 1000.

let measure inst trace =
  let before = Meter.counters inst.meter in
  let t0 = Unix.gettimeofday () in
  ignore (Workload.apply inst.ops trace : int);
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let counters = Meter.diff before (Meter.counters inst.meter) in
  { n_ops = Array.length trace; sim_ns = counters.Meter.sim_ns; wall_ns; counters }

let preload inst keys value_of =
  Array.iteri (fun i key -> inst.ops.Index_intf.insert ~key ~value:(value_of i)) keys

let fault_gate ?(torn_seeds = [ 1L; 2L ]) ?(progress = fun _ -> ()) () =
  let modes =
    Pmem.Clean
    :: List.map (fun seed -> Pmem.Torn { seed; fraction = 0.5 }) torn_seeds
  in
  List.concat_map
    (fun target ->
      List.concat_map
        (fun (workload, setup, ops) ->
          List.map
            (fun mode ->
              let r =
                Hart_fault.Fault.explore ~mode ~setup ~workload target ops
              in
              progress r;
              r)
            modes)
        Hart_fault.Fault.builtin_workloads)
    Hart_fault.Fault.all_targets
