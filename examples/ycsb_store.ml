(* A small cloud-KV-store scenario: preload a database, run the paper's
   three YCSB mixes against all four persistent indexes, and print a
   throughput comparison on the simulated clock.

   Run with: dune exec examples/ycsb_store.exe *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Index_intf = Hart_baselines.Index_intf
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

let preload_n = 10_000
let n_ops = 20_000

let make_index name pool =
  match name with
  | "HART" -> Hart_baselines.Hart_index.ops (Hart_core.Hart.create pool)
  | "WOART" -> Hart_baselines.Woart.ops (Hart_baselines.Woart.create pool)
  | "ART+CoW" -> Hart_baselines.Art_cow.ops (Hart_baselines.Art_cow.create pool)
  | "FPTree" -> Hart_baselines.Fptree.ops (Hart_baselines.Fptree.create pool)
  | _ -> assert false

let () =
  let universe = Keygen.generate Keygen.Random (preload_n + n_ops) in
  let preloaded = Array.sub universe 0 preload_n in
  let fresh = Array.sub universe preload_n n_ops in
  Printf.printf
    "YCSB store: %d preloaded records, %d-op mixes, 300/300 ns PM, uniform\n\n"
    preload_n n_ops;
  Printf.printf "%-22s %10s %10s %10s\n" "" "HART" "WOART+CoW" "FPTree";
  List.iter
    (fun mix ->
      let cells =
        List.map
          (fun name ->
            let meter = Meter.create Latency.c300_300 in
            let pool = Pmem.create meter in
            let ops = make_index name pool in
            Array.iteri
              (fun i key -> ops.Index_intf.insert ~key ~value:(Keygen.value_for i))
              preloaded;
            let trace = Workload.ycsb mix ~preloaded ~fresh ~n_ops in
            let t0 = Meter.sim_ns meter in
            ignore (Workload.apply ops trace : int);
            let kops =
              float_of_int n_ops /. ((Meter.sim_ns meter -. t0) /. 1e9) /. 1e3
            in
            kops)
          [ "HART"; "WOART"; "FPTree" ]
      in
      match cells with
      | [ hart; woart; fptree ] ->
          Printf.printf "%-22s %8.0fk %8.0fk %8.0fk  ops/s\n"
            mix.Workload.mix_name hart woart fptree
      | _ -> assert false)
    Workload.mixes;
  print_newline ();
  print_endline
    "(HART should lead on the write-heavy mixes; see `hart_cli exp fig9`\n\
     for the full Fig. 9 grid across all latency configurations.)"
