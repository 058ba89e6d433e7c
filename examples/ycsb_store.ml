(* A small cloud-KV-store scenario: preload a database, run the paper's
   three YCSB mixes against all four persistent indexes, and print a
   throughput comparison on the simulated clock.

   Run with: dune exec examples/ycsb_store.exe *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Index_intf = Hart_core.Index_intf
module Roster = Hart_baselines.Roster
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

let preload_n = 10_000
let n_ops = 20_000

let () =
  let universe = Keygen.generate Keygen.Random (preload_n + n_ops) in
  let preloaded = Array.sub universe 0 preload_n in
  let fresh = Array.sub universe preload_n n_ops in
  Printf.printf
    "YCSB store: %d preloaded records, %d-op mixes, 300/300 ns PM, uniform\n\n"
    preload_n n_ops;
  Printf.printf "%-22s" "";
  List.iter (fun e -> Printf.printf " %10s" e.Roster.label) Roster.paper;
  print_newline ();
  List.iter
    (fun mix ->
      Printf.printf "%-22s" mix.Workload.mix_name;
      List.iter
        (fun e ->
          let meter = Meter.create Latency.c300_300 in
          let ops = Roster.create e (Pmem.create meter) in
          Array.iteri
            (fun i key -> ops.Index_intf.insert ~key ~value:(Keygen.value_for i))
            preloaded;
          let trace = Workload.ycsb mix ~preloaded ~fresh ~n_ops in
          let t0 = Meter.sim_ns meter in
          ignore (Workload.apply ops trace : int);
          let kops =
            float_of_int n_ops /. ((Meter.sim_ns meter -. t0) /. 1e9) /. 1e3
          in
          Printf.printf " %9.0fk" kops)
        Roster.paper;
      print_endline "  ops/s")
    Workload.mixes;
  print_newline ();
  print_endline
    "(HART should lead on the write-heavy mixes; see `hart_cli exp fig9`\n\
     for the full Fig. 9 grid across all latency configurations.)"
