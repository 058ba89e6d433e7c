(** Fig. 9: the three YCSB mixed workloads (Read-Intensive,
    Read-Modified-Write, Write-Intensive), uniform request distribution,
    avg time per operation across the latency grid. *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

let default_preload = 20_000

let run ~scale =
  let n = int_of_float (float_of_int default_preload *. scale) in
  let n_ops = 2 * n in
  (* preloaded database + disjoint fresh keys for the insert share *)
  let universe = Keygen.generate Keygen.Random (n + n_ops) in
  let preloaded = Array.sub universe 0 n in
  let fresh = Array.sub universe n n_ops in
  List.iteri
    (fun m_idx mix ->
      let trace = Workload.ycsb mix ~preloaded ~fresh ~n_ops in
      let sub = Char.chr (Char.code 'a' + m_idx) in
      Report.print_table
        ~title:
          (Printf.sprintf
             "Fig 9(%c): %s avg us/op -- %d preloaded, %d ops, Uniform" sub
             mix.Workload.mix_name n n_ops)
        ~col_names:(List.map (fun e -> e.Roster.label) Roster.paper)
        ~rows:
          (List.map
             (fun config ->
               ( config.Latency.name,
                 List.map
                   (fun tree ->
                     let inst = Runner.make tree config in
                     Runner.preload inst preloaded Keygen.value_for;
                     Runner.avg_us (Runner.measure inst trace))
                   Roster.paper ))
             Latency.all))
    Workload.mixes
