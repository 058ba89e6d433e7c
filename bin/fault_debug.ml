(* Replay one exact concurrent crash schedule and dump its coordinates:
   committed prefix, in-flight set, recovered bindings. This is the
   triage tool for `hart_cli fault --domains N` violations — the
   reported (seed, schedule) pair replays bit-identically here
   (DESIGN.md §10, §12).

   Usage: fault_debug DOMAINS SCHEDULE [SEED]
            [--target NAME] [--workload default|collide|split-race|gen]
            [--gen-seed S] [--nested] [--shrink]

   --target    concurrent index to replay against (hart, fptree, woart,
               wort, wb-tree; default hart)
   --workload  workload family to rebuild (the CLI's --mt-workload);
               gen rebuilds the seeded workload from --gen-seed
   --nested    additionally re-crash the single-domain recovery at each
               of its own flush boundaries and dump each doubly
               recovered state
   --shrink    delta-debug the workload to a locally minimal
               reproducer (only meaningful when the replay violates) *)
module Fault = Hart_fault.Fault
module Fault_mt = Hart_fault.Fault_mt

let usage () =
  prerr_endline
    "usage: fault_debug DOMAINS SCHEDULE [SEED] [--target NAME]\n\
    \       [--workload default|collide|split-race|gen] [--gen-seed S]\n\
    \       [--nested] [--shrink]";
  exit 2

let () =
  let positional = ref [] in
  let target = ref "hart" in
  let workload = ref "default" in
  let gen_seed = ref 42L in
  let nested = ref false in
  let shrink = ref false in
  let rec parse = function
    | [] -> ()
    | "--target" :: v :: rest ->
        target := v;
        parse rest
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--gen-seed" :: v :: rest ->
        gen_seed := Int64.of_string v;
        parse rest
    | "--nested" :: rest ->
        nested := true;
        parse rest
    | "--shrink" :: rest ->
        shrink := true;
        parse rest
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
        Printf.eprintf "unknown option %s\n" a;
        usage ()
    | a :: rest ->
        positional := a :: !positional;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let domains, schedule, seed =
    match List.rev !positional with
    | [ d; s ] -> (int_of_string d, int_of_string s, 42L)
    | [ d; s; sd ] -> (int_of_string d, int_of_string s, Int64.of_string sd)
    | _ -> usage ()
  in
  let target =
    match Fault_mt.find_mt_target !target with
    | Some t -> t
    | None ->
        Printf.eprintf "unknown concurrent target %S (one of %s)\n" !target
          (String.concat ", "
             (List.map (fun t -> t.Fault.target_name) Fault_mt.all_mt_targets));
        exit 2
  in
  let setup, scripts =
    match Fault_mt.find_workload !workload with
    | Some build -> build ~seed:!gen_seed ~domains ~ops_per_domain:6
    | None ->
        Printf.eprintf "unknown --workload %S (one of %s)\n" !workload
          (String.concat ", " (List.map fst Fault_mt.workloads));
        exit 2
  in
  let dump_bindings label bs =
    Printf.printf "%s: %s\n" label
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) bs))
  in
  let recover_dump pool =
    let inst = target.Fault.reattach pool in
    inst.Fault.check ();
    inst.Fault.dump ()
  in
  match
    Fault_mt.probe ~target ~capture_snapshot:!nested ~seed ~schedule ~setup
      scripts
  with
  | p ->
      Printf.printf "crashed=%b flushes=%d recovery-flushes=%d\n" p.Fault.p_crashed
        p.Fault.p_flushes p.Fault.p_recovery_flushes;
      dump_bindings "committed" p.Fault.p_committed;
      List.iter
        (fun (i, op) -> Format.printf "in-flight fiber %d: %a@." i Fault.pp_op op)
        p.Fault.p_in_flight;
      List.iter
        (fun (i, op) -> Format.printf "waiting fiber %d: %a@." i Fault.pp_op op)
        p.Fault.p_waiting;
      dump_bindings "recovered" p.Fault.p_state;
      (if !nested then
         match p.Fault.p_snapshot with
         | None -> print_endline "nested: schedule did not crash, nothing to re-crash"
         | Some snapshot ->
             Fault.nested_recovery_sweep ~snapshot
               ~recovery_flushes:p.Fault.p_recovery_flushes
               ~recover:(fun ~nested:_ pool ->
                 ignore (target.Fault.reattach pool : Fault.instance))
               ~never_fired:(fun ~nested ->
                 Printf.printf "nested %d: recovery completed before boundary\n"
                   nested)
               ~check:(fun ~nested pool ->
                 match recover_dump pool with
                 | state ->
                     dump_bindings
                       (Printf.sprintf "nested %d%s" nested
                          (if state = p.Fault.p_state then "" else " (DIFFERS)"))
                       state
                 | exception e ->
                     Printf.printf "nested %d: FAILURE: %s\n" nested
                       (Printexc.to_string e)));
      if !shrink then
        match Fault_mt.shrink ~target ~seed ~setup scripts with
        | None -> print_endline "shrink: workload does not violate under replay"
        | Some s ->
            Printf.printf "shrink: %d candidate replays, %d accepted\n"
              s.Fault.s_checks s.Fault.s_accepted;
            Format.printf "%a@." Fault.pp_repro s.Fault.s_repro;
            Printf.printf "detail at minimum: %s\n" s.Fault.s_detail
  | exception e ->
      Printf.printf "FAILURE: %s\n" (Printexc.to_string e);
      exit 1
