(** Fig. 8: impact of the number of records on the four basic operations
    — total time (seconds, the paper plots log scale) under Random in
    300/100, record counts swept over four sizes.

    The paper sweeps 1M–100M; the default sweep is scaled down 100×
    (the costs are per-operation, so the shapes survive; see DESIGN.md).

    [max_delete_growth] gates Fig. 8(d)'s "parallel lines": HART's
    per-operation deletion time at the largest size may be at most that
    many times the time at the smallest. The clock is simulated, so the
    check is deterministic. *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

let base_sizes = [ 10_000; 50_000; 100_000; 200_000 ]

let run ?max_delete_growth ~scale () =
  let sizes =
    List.map (fun n -> max 1_000 (int_of_float (float_of_int n *. scale))) base_sizes
  in
  let results =
    List.map
      (fun n ->
        let keys = Keygen.generate Keygen.Random n in
        let per_tree =
          List.map
            (fun tree ->
              let inst = Runner.make tree Latency.c300_100 in
              let m_ins =
                Runner.measure inst (Workload.insert_trace keys Keygen.value_for)
              in
              let m_sea = Runner.measure inst (Workload.search_trace keys) in
              let m_upd =
                Runner.measure inst (Workload.update_trace keys Keygen.value_for)
              in
              let m_del = Runner.measure inst (Workload.delete_trace keys) in
              ( tree.Roster.name,
                [|
                  m_ins.Runner.sim_ns /. 1e9;
                  m_sea.Runner.sim_ns /. 1e9;
                  m_upd.Runner.sim_ns /. 1e9;
                  m_del.Runner.sim_ns /. 1e9;
                |] ))
            Roster.paper
        in
        (n, per_tree))
      sizes
  in
  List.iteri
    (fun op_idx (sub, op) ->
      Report.print_table
        ~title:
          (Printf.sprintf "Fig 8(%s): %s total time (s) vs records -- Random, 300/100"
             sub op)
        ~col_names:(List.map (fun e -> e.Roster.label) Roster.paper)
        ~rows:
          (List.map
             (fun (n, per_tree) ->
               ( Printf.sprintf "%dk" (n / 1000),
                 List.map (fun (_, times) -> times.(op_idx)) per_tree ))
             results))
    [ ("a", "Insertion"); ("b", "Search"); ("c", "Update"); ("d", "Deletion") ];
  let hart_delete_us (n, per_tree) =
    (List.assoc Roster.hart.name per_tree).(3) *. 1e6 /. float_of_int n
  in
  let (n_lo, _) as lo = List.hd results in
  let (n_hi, _) as hi = List.nth results (List.length results - 1) in
  let growth = hart_delete_us hi /. hart_delete_us lo in
  Printf.printf "HART deletion: %.3f us/op at %d records, %.3f us/op at %d (%.3fx)\n"
    (hart_delete_us lo) n_lo (hart_delete_us hi) n_hi growth;
  (match max_delete_growth with
  | None -> ()
  | Some bound ->
      if growth > bound then
        failwith
          (Printf.sprintf
             "HART's deletion time per op grows %.3fx from %d to %d records, \
              allowed <= %.2fx"
             growth n_lo n_hi bound)
      else
        Printf.printf "deletion-growth threshold check OK: %.3fx <= %.2fx\n" growth
          bound);
  flush stdout
