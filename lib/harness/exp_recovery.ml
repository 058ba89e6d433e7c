(** Fig. 10c: build time vs recovery time for the two hybrid trees (HART
    and FPTree) under Random in 300/100 — pure-PM WOART/ART+CoW need no
    recovery (§IV-F). Build = insert all records into a fresh tree;
    recovery = crash the pool (losing caches and DRAM structures) and
    rebuild the volatile side from PM leaves. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hart = Hart_core.Hart
module Fptree = Hart_baselines.Fptree
module Keygen = Hart_workloads.Keygen

let base_sizes = [ 10_000; 50_000; 100_000; 200_000 ]

type timing = { build_s : float; recover_s : float }

let time_tree ~make ~recover keys =
  let meter = Meter.create Latency.c300_100 in
  let pool = Pmem.create meter in
  let t0 = Meter.sim_ns meter in
  let insert = make pool in
  Array.iteri (fun i key -> insert ~key ~value:(Keygen.value_for i)) keys;
  let build_s = (Meter.sim_ns meter -. t0) /. 1e9 in
  Pmem.crash pool;
  let t1 = Meter.sim_ns meter in
  let count = recover pool in
  let recover_s = (Meter.sim_ns meter -. t1) /. 1e9 in
  if count <> Array.length keys then
    failwith (Printf.sprintf "recovered %d of %d records" count (Array.length keys));
  { build_s; recover_s }

let run ~scale =
  let sizes =
    List.map (fun n -> max 1_000 (int_of_float (float_of_int n *. scale))) base_sizes
  in
  let rows =
    List.map
      (fun n ->
        let keys = Keygen.generate Keygen.Random n in
        let hart =
          time_tree keys
            ~make:(fun pool ->
              let h = Hart.create pool in
              fun ~key ~value -> Hart.insert h ~key ~value)
            ~recover:(fun pool -> Hart.count (Hart.recover pool))
        in
        let fp =
          time_tree keys
            ~make:(fun pool ->
              let f = Fptree.create pool in
              fun ~key ~value -> Fptree.insert f ~key ~value)
            ~recover:(fun pool -> Fptree.count (Fptree.recover pool))
        in
        ( Printf.sprintf "%dk" (n / 1000),
          [ hart.build_s; hart.recover_s; fp.build_s; fp.recover_s ] ))
      sizes
  in
  Report.print_table
    ~title:"Fig 10(c): Build vs recovery time (s) -- Random, 300/100"
    ~col_names:[ "HART build"; "HART recov"; "FPTree build"; "FPTree recov" ]
    ~rows

(* ------------------------------------------------------------------ *)
(* Beyond the paper: recovery at scale, wall-clock, 1-8 domains.

   [Hart.recover_parallel] fans the directory/ART rebuild across
   domains; this measures real [Domain.spawn] wall time (the simulated
   clock has no notion of parallel PM reads), so — like Exp_parallel —
   the numbers only mean something relative to the host's core count,
   which is reported next to them. Each domain count recovers its own
   [Pmem.clone] of the same crashed pool, so every run rebuilds from an
   identical durable image; the result is verified against the build
   (count, spot contents) every time.                                   *)

module Json = Hart_util.Json

let parallel_base_sizes = [ 50_000; 200_000; 1_000_000 ]
let parallel_domain_counts = [ 1; 2; 4; 8 ]

(* pre-size so neither build nor recovery ever grows the pool *)
let pool_for ~n_keys =
  let need = (n_keys * 512) + (1 lsl 20) in
  let rec pow2 c = if c >= need then c else pow2 (c * 2) in
  let cap = pow2 (1 lsl 20) in
  Pmem.create ~capacity:cap ~max_capacity:(2 * cap)
    (Meter.create Latency.c300_100)

type parallel_row = {
  pr_keys : int;
  pr_secs : (int * float) list;  (* domains -> wall seconds *)
}

let run_parallel ?threshold ~scale () =
  let host = Domain.recommended_domain_count () in
  let sizes =
    List.map
      (fun n -> max 10_000 (int_of_float (float_of_int n *. scale)))
      parallel_base_sizes
  in
  Printf.printf
    "\nParallel recovery wall-clock: pool sizes %s, %s domain(s), host \
     reports %d usable core(s).\n\
     Real [Domain.spawn] timings — on a single-core host all domain \
     counts share one core (DESIGN.md §9, §13).\n%!"
    (String.concat "/" (List.map string_of_int sizes))
    (String.concat "/" (List.map string_of_int parallel_domain_counts))
    host;
  let rows =
    List.map
      (fun n ->
        let keys = Keygen.generate Keygen.Random n in
        let pool = pool_for ~n_keys:n in
        let h = Hart.create pool in
        Array.iteri
          (fun i key -> Hart.insert h ~key ~value:(Keygen.value_for i))
          keys;
        Pmem.crash pool;
        let secs =
          List.map
            (fun d ->
              let p = Pmem.clone pool in
              let t0 = Unix.gettimeofday () in
              let r = Hart.recover_parallel ~domains:d p in
              let dt = Unix.gettimeofday () -. t0 in
              if Hart.count r <> n then
                failwith
                  (Printf.sprintf
                     "recover_parallel(%d domains) recovered %d of %d keys" d
                     (Hart.count r) n);
              (* spot-check contents on a deterministic sample *)
              let step = max 1 (n / 1024) in
              let i = ref 0 in
              while !i < n do
                (match Hart.search r keys.(!i) with
                | Some v when v = Keygen.value_for !i -> ()
                | Some v ->
                    failwith
                      (Printf.sprintf "recovered wrong value %S for key %d" v !i)
                | None ->
                    failwith
                      (Printf.sprintf "key %d lost by %d-domain recovery" !i d));
                i := !i + step
              done;
              (d, dt))
            parallel_domain_counts
        in
        { pr_keys = n; pr_secs = secs })
      sizes
  in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Parallel recovery wall time (s) vs pool size -- host cores=%d" host)
    ~col_names:
      (List.map (fun d -> Printf.sprintf "%dd" d) parallel_domain_counts)
    ~rows:
      (List.map
         (fun r ->
           ( Printf.sprintf "%dk keys" (r.pr_keys / 1000),
             List.map snd r.pr_secs ))
         rows);
  Report.print_table
    ~title:"Parallel recovery speedup vs 1 domain"
    ~col_names:
      (List.map (fun d -> Printf.sprintf "%dd" d) parallel_domain_counts)
    ~rows:
      (List.map
         (fun r ->
           let base = List.assoc 1 r.pr_secs in
           ( Printf.sprintf "%dk keys" (r.pr_keys / 1000),
             List.map
               (fun (_, s) -> if s > 0. then base /. s else 0.)
               r.pr_secs ))
         rows);
  Report.core_gate ~label:"recovery threshold check" ~host threshold
    (fun d_req min_speedup ->
      match List.rev rows with
      | biggest :: _ when List.mem_assoc d_req biggest.pr_secs ->
          let base = List.assoc 1 biggest.pr_secs in
          let at_d = List.assoc d_req biggest.pr_secs in
          let speedup = if at_d > 0. then base /. at_d else 0. in
          if speedup < min_speedup then
            failwith
              (Printf.sprintf
                 "parallel recovery below threshold: %d domains is %.2fx \
                  of serial on %d keys, required >= %.2fx"
                 d_req speedup biggest.pr_keys min_speedup)
          else
            Printf.printf
              "recovery threshold check OK: %.2fx >= %.2fx at %d domains \
               (%d keys)\n"
              speedup min_speedup d_req biggest.pr_keys
      | _ ->
          failwith
            (Printf.sprintf
               "recovery threshold check: %d domains is not a measured \
                domain count"
               d_req));
  flush stdout;
  Json.Obj
    [
      ("experiment", Json.Str "recovery-parallel");
      ("host_recommended_domains", Json.Int host);
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("keys", Json.Int r.pr_keys);
                   ( "wall_s",
                     Json.List
                       (List.map
                          (fun (d, s) ->
                            Json.Obj
                              [
                                ("domains", Json.Int d);
                                ("seconds", Json.Float s);
                              ])
                          r.pr_secs) );
                 ])
             rows) );
    ]
