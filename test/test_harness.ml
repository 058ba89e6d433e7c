module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload
module Runner = Hart_harness.Runner
module Roster = Hart_baselines.Roster
module Index_intf = Hart_core.Index_intf
module Fault = Hart_fault.Fault
module Fault_mt = Hart_fault.Fault_mt
module Mt_sim = Hart_harness.Mt_sim
module Report = Hart_harness.Report
module Rng = Hart_util.Rng

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)

let test_runner_make_all () =
  List.iter
    (fun e ->
      let inst = Runner.make e Latency.c300_300 in
      inst.Runner.ops.Index_intf.insert ~key:"probe" ~value:"v";
      Alcotest.(check (option string))
        (e.Roster.label ^ " works")
        (Some "v")
        (inst.Runner.ops.Index_intf.search "probe"))
    Roster.all

let test_runner_measure () =
  let inst = Runner.make Roster.hart Latency.c300_300 in
  let keys = Keygen.generate Keygen.Random 1000 in
  let m = Runner.measure inst (Workload.insert_trace keys Keygen.value_for) in
  Alcotest.(check int) "op count" 1000 m.Runner.n_ops;
  Alcotest.(check bool) "simulated time advanced" true (m.Runner.sim_ns > 0.);
  Alcotest.(check bool) "avg in a sane band (0.1-100 us)" true
    (Runner.avg_us m > 0.1 && Runner.avg_us m < 100.);
  Alcotest.(check bool) "flush events recorded" true
    (m.Runner.counters.Meter.flushes > 0)

let test_runner_measure_is_delta () =
  let inst = Runner.make Roster.hart Latency.c300_300 in
  let keys = Keygen.generate Keygen.Random 500 in
  Runner.preload inst keys Keygen.value_for;
  let m = Runner.measure inst (Workload.search_trace keys) in
  (* searches flush nothing: the preload's flushes must not leak into
     the measured delta *)
  Alcotest.(check int) "no flushes during search" 0 m.Runner.counters.Meter.flushes

(* Every per-index view is the roster: names and labels are unique, the
   fault explorers sweep exactly its entries (plus checksummed HART in
   the media sweep), and the figures' columns are its paper four. *)
let test_roster_views () =
  let names es = List.map (fun e -> e.Roster.name) es in
  let labels es = List.map (fun e -> e.Roster.label) es in
  let target_names ts = List.map (fun t -> t.Fault.target_name) ts in
  let unique what xs =
    Alcotest.(check int) (what ^ " unique") (List.length xs)
      (List.length (List.sort_uniq compare xs))
  in
  unique "names" (names Roster.all);
  unique "labels" (labels Roster.all);
  Alcotest.(check (list string)) "crash-gate targets" (names Roster.all)
    (target_names Fault.all_targets);
  Alcotest.(check (list string)) "media targets"
    ("hart-crc" :: names Roster.all)
    (target_names Fault.media_targets);
  Alcotest.(check (list string)) "concurrent targets"
    (names (List.filter (fun e -> e.Roster.mt <> None) Roster.all))
    (target_names Fault_mt.all_mt_targets);
  Alcotest.(check (list string)) "paper four, legend order"
    [ "HART"; "WOART"; "ART+CoW"; "FPTree" ]
    (labels Roster.paper);
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.Roster.name ^ " is a roster entry") true
        (Roster.find e.Roster.name == e))
    Roster.paper;
  List.iter
    (fun e ->
      let ops = Roster.create e (Hart_pmem.Pmem.create (Meter.create Latency.c300_300)) in
      Alcotest.(check string) "ops carry the label" e.Roster.label ops.Index_intf.name)
    Roster.all

(* ------------------------------------------------------------------ *)
(* Latency ordering: the simulated clock must respect the configs      *)

let test_latency_monotone () =
  let avg config =
    let inst = Runner.make Roster.hart config in
    let keys = Keygen.generate Keygen.Random 2000 in
    Runner.avg_us (Runner.measure inst (Workload.insert_trace keys Keygen.value_for))
  in
  let a = avg Latency.c300_100 and b = avg Latency.c300_300 and c = avg Latency.c600_300 in
  Alcotest.(check bool)
    (Printf.sprintf "300/100 (%.2f) <= 300/300 (%.2f) < 600/300 (%.2f)" a b c)
    true
    (a <= b && b < c)

(* ------------------------------------------------------------------ *)
(* Mt_sim                                                              *)

let uniform_trace ~arts ~n ~write seed =
  let rng = Rng.create seed in
  Array.init n (fun _ -> (Rng.int rng arts, write))

let test_mt_sim_single_thread_baseline () =
  let trace = uniform_trace ~arts:1000 ~n:50_000 ~write:true 1L in
  let miops = Mt_sim.simulate ~threads:1 ~trace ~svc_ns:1000. () in
  (* 1000 ns/op single-threaded = 1 MIOPS exactly *)
  Alcotest.(check bool) "1 MIOPS" true (abs_float (miops -. 1.0) < 0.01)

let test_mt_sim_scales_with_many_arts () =
  let trace = uniform_trace ~arts:4000 ~n:100_000 ~write:true 2L in
  let m1 = Mt_sim.simulate ~threads:1 ~trace ~svc_ns:1000. () in
  let m2 = Mt_sim.simulate ~threads:2 ~trace ~svc_ns:1000. () in
  let m8 = Mt_sim.simulate ~threads:8 ~trace ~svc_ns:1000. () in
  let s2 = m2 /. m1 and s8 = m8 /. m1 in
  Alcotest.(check bool) (Printf.sprintf "2 threads ~1.9x (%.2f)" s2) true
    (s2 > 1.80 && s2 <= 2.0);
  Alcotest.(check bool) (Printf.sprintf "8 threads ~7x (%.2f)" s8) true
    (s8 > 6.5 && s8 <= 8.0)

let test_mt_sim_ht_tax () =
  let trace = uniform_trace ~arts:4000 ~n:100_000 ~write:true 3L in
  let m1 = Mt_sim.simulate ~threads:1 ~trace ~svc_ns:1000. () in
  let m16 = Mt_sim.simulate ~threads:16 ~trace ~svc_ns:1000. () in
  let s16 = m16 /. m1 in
  (* the paper reports 10.7-11.9x at 16 threads *)
  Alcotest.(check bool) (Printf.sprintf "16 threads ~11x (%.2f)" s16) true
    (s16 > 9.5 && s16 < 13.)

let test_mt_sim_writer_contention () =
  (* all writes on ONE art cannot scale *)
  let trace = uniform_trace ~arts:1 ~n:20_000 ~write:true 4L in
  let m1 = Mt_sim.simulate ~threads:1 ~trace ~svc_ns:1000. () in
  let m8 = Mt_sim.simulate ~threads:8 ~trace ~svc_ns:1000. () in
  Alcotest.(check bool) "serialised writers do not scale" true (m8 /. m1 < 1.1)

let test_mt_sim_readers_share () =
  (* reads on ONE art still scale: readers share the lock *)
  let trace = uniform_trace ~arts:1 ~n:20_000 ~write:false 5L in
  let m1 = Mt_sim.simulate ~threads:1 ~trace ~svc_ns:1000. () in
  let m8 = Mt_sim.simulate ~threads:8 ~trace ~svc_ns:1000. () in
  Alcotest.(check bool) "shared readers scale" true (m8 /. m1 > 6.)

let test_mt_sim_validation () =
  Alcotest.(check bool) "0 threads rejected" true
    (match Mt_sim.simulate ~threads:0 ~trace:[||] ~svc_ns:1. () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let test_report_ratio () =
  Alcotest.(check (float 1e-9)) "2x" 2.0 (Report.ratio 4.0 2.0);
  Alcotest.(check (float 1e-9)) "degenerate" 0.0 (Report.ratio 0.0 2.0);
  Alcotest.(check string) "formatting" "1.235" (Report.fmt_f 1.23456)

(* ------------------------------------------------------------------ *)
(* End-to-end smoke: the experiment drivers run at a tiny scale        *)

let with_captured_stdout f =
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  flush stdout;
  Unix.dup2 null Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close null)
    f

module Experiments = Hart_harness.Experiments

let entry_names = List.map (fun e -> e.Experiments.name) Experiments.all

let test_registry_select () =
  let names r = Result.map (List.map (fun e -> e.Experiments.name)) r in
  let check = Alcotest.(check (result (list string) string)) in
  check "no names selects every entry" (Ok entry_names)
    (names (Experiments.select []));
  check "names keep their order" (Ok [ "fig8"; "micro" ])
    (names (Experiments.select [ "fig8"; "micro" ]));
  check "an unknown name is rejected with the valid ones"
    (Error
       (Printf.sprintf "unknown experiment \"fig11\" (one of %s)"
          (String.concat ", " entry_names)))
    (names (Experiments.select [ "fig8"; "fig11" ]))

(* every entry but the wall-clock micro-benchmarks, through the registry
   into a JSON directory, as [hart_cli exp --json-dir] runs them *)
let test_experiments_smoke () =
  Alcotest.(check int)
    "entry names are unique" (List.length entry_names)
    (List.length (List.sort_uniq compare entry_names));
  let dir = Filename.temp_dir "hart_exp" "" in
  let entries =
    List.filter (fun e -> e.Experiments.name <> "micro") Experiments.all
  in
  with_captured_stdout (fun () ->
      Experiments.run ~json_dir:dir ~gate:false ~scale:0.02 entries);
  List.iter
    (fun name ->
      let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
      Alcotest.(check bool) (path ^ " written") true (Sys.file_exists path);
      Sys.remove path)
    [ "parallel"; "ycsb"; "recovery"; "art_nodes"; "scrub"; "figs" ];
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Golden sim-clock pins: every cell of the deterministic registry
   entries at scale 0.02, at full precision (%.17g round-trips a
   float), one line per cell: title, row label, column, value, tab
   separated. A refactor that must not move a number proves it here;
   one that moves numbers shows exactly which. ycsb is pinned without
   its [wall-clock us/op (reference)] tables; the entries that are
   wall-clock throughout (micro, parallel, recovery, art_nodes, scrub)
   are left out. Regenerate with
   [PIN_DUMP=1 dune exec test/test_harness.exe > test/golden_sim.txt]. *)

module Json = Hart_util.Json

let golden_entries =
  [
    "fig4567"; "fig8"; "fig9"; "fig10a"; "fig10b"; "fig10c"; "fig10d"; "ablation"; "ycsb";
  ]

let wall_clock_title title =
  String.ends_with ~suffix:"wall-clock us/op (reference)" title

(* the test's own directory under [dune runtest], the root under [dune exec] *)
let golden_file =
  if Sys.file_exists "golden_sim.txt" then "golden_sim.txt" else "test/golden_sim.txt"

let golden_render () =
  let entries = Result.get_ok (Experiments.select golden_entries) in
  let (), tables =
    with_captured_stdout (fun () ->
        Report.capture (fun () ->
            List.iter
              (fun e -> ignore (e.Experiments.run ~gate:false ~scale:0.02 : Json.t option))
              entries))
  in
  let field k = function
    | Json.Obj kv -> List.assoc k kv
    | _ -> invalid_arg "golden_render: not an object"
  and items = function
    | Json.List l -> l
    | _ -> invalid_arg "golden_render: not a list"
  and text = function
    | Json.Str s -> s
    | Json.Float f -> Printf.sprintf "%.17g" f
    | _ -> invalid_arg "golden_render: not a cell"
  in
  List.concat_map
    (fun table ->
      let title = text (field "title" table) in
      let cols = Array.of_list (List.map text (items (field "columns" table))) in
      List.concat_map
        (fun row ->
          let label = text (field "label" row) in
          List.mapi
            (fun i cell -> String.concat "\t" [ title; label; cols.(i); text cell ])
            (items (field "cells" row)))
        (items (field "rows" table)))
    (List.filter
       (fun table -> not (wall_clock_title (text (field "title" table))))
       (items tables))

let () =
  if Sys.getenv_opt "PIN_DUMP" <> None then begin
    List.iter print_endline (golden_render ());
    exit 0
  end

let test_golden_sim () =
  let pinned =
    In_channel.with_open_text golden_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let cell line =
    match String.split_on_char '\t' line with
    | [ title; row; col; value ] -> (Printf.sprintf "%s / %s / %s" title row col, value)
    | _ -> (line, "")
  in
  let rec diffs pinned now =
    match (pinned, now) with
    | [], [] -> []
    | [], extra -> [ Printf.sprintf "%d cells not pinned" (List.length extra) ]
    | missing, [] -> [ Printf.sprintf "%d pinned cells gone" (List.length missing) ]
    | p :: ps, n :: ns ->
        let (kp, vp), (kn, vn) = (cell p, cell n) in
        if kp <> kn then [ Printf.sprintf "cell %S is now %S" kp kn ]
        else if vp <> vn then Printf.sprintf "%s: %s -> %s" kp vp vn :: diffs ps ns
        else diffs ps ns
  in
  match diffs pinned (golden_render ()) with
  | [] -> ()
  | ds -> Alcotest.failf "golden sim-clock cells moved:\n%s" (String.concat "\n" ds)

(* ------------------------------------------------------------------ *)
(* Cross-index mixed-workload plan generator (Exp_parallel.mix_plan)   *)

module Exp_parallel = Hart_harness.Exp_parallel

let plan_counts plan =
  Array.fold_left
    (fun (i, u, d) (kind, _) ->
      match kind with
      | Exp_parallel.Mix_insert -> (i + 1, u, d)
      | Exp_parallel.Mix_update -> (i, u + 1, d)
      | Exp_parallel.Mix_delete -> (i, u, d + 1))
    (0, 0, 0) plan

let test_mix_plan_deterministic () =
  let mk () = Exp_parallel.mix_plan ~seed:7L ~n:100 ~ops:500 () in
  Alcotest.(check bool) "same seed, same plan" true (mk () = mk ());
  Alcotest.(check bool) "different seed, different plan" true
    (mk () <> Exp_parallel.mix_plan ~seed:8L ~n:100 ~ops:500 ());
  let zk () = Exp_parallel.mix_plan ~zipf:true ~seed:7L ~n:100 ~ops:500 () in
  Alcotest.(check bool) "zipf plan deterministic too" true (zk () = zk ())

let test_mix_plan_proportions () =
  let plan = Exp_parallel.mix_plan ~seed:42L ~n:1000 ~ops:10_000 () in
  let i, u, d = plan_counts plan in
  Alcotest.(check int) "every op classified" 10_000 (i + u + d);
  (* 25/50/25 within a generous tolerance *)
  let within label lo hi x =
    Alcotest.(check bool)
      (Printf.sprintf "%s count %d in [%d,%d]" label x lo hi)
      true
      (x >= lo && x <= hi)
  in
  within "insert" 2_000 3_000 i;
  within "update" 4_500 5_500 u;
  within "delete" 2_000 3_000 d;
  Array.iter
    (fun (_, ki) ->
      Alcotest.(check bool) "key index in range" true (ki >= 0 && ki < 1000))
    plan

let test_mix_plan_zipf_skew () =
  let n = 1000 and ops = 10_000 in
  let freq plan =
    let f = Array.make n 0 in
    Array.iter (fun (_, ki) -> f.(ki) <- f.(ki) + 1) plan;
    f
  in
  let uni = freq (Exp_parallel.mix_plan ~seed:42L ~n ~ops ()) in
  let zip = freq (Exp_parallel.mix_plan ~zipf:true ~seed:42L ~n ~ops ()) in
  let top a = Array.fold_left max 0 a in
  (* uniform: ~10 hits per key; Zipf(0.99): the hottest key dominates *)
  Alcotest.(check bool)
    (Printf.sprintf "zipf hottest key (%d) >> uniform hottest (%d)" (top zip)
       (top uni))
    true
    (top zip > 5 * top uni)

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "make all trees" `Quick test_runner_make_all;
          Alcotest.test_case "measure" `Quick test_runner_measure;
          Alcotest.test_case "measure is a delta" `Quick test_runner_measure_is_delta;
          Alcotest.test_case "latency configs order the clock" `Quick test_latency_monotone;
        ] );
      ( "roster",
        [ Alcotest.test_case "names, labels and target lists" `Quick test_roster_views ] );
      ( "mt_sim",
        [
          Alcotest.test_case "single-thread baseline" `Quick test_mt_sim_single_thread_baseline;
          Alcotest.test_case "scales with many ARTs" `Quick test_mt_sim_scales_with_many_arts;
          Alcotest.test_case "hyper-threading tax" `Quick test_mt_sim_ht_tax;
          Alcotest.test_case "writer contention serialises" `Quick test_mt_sim_writer_contention;
          Alcotest.test_case "readers share" `Quick test_mt_sim_readers_share;
          Alcotest.test_case "validation" `Quick test_mt_sim_validation;
        ] );
      ( "report",
        [ Alcotest.test_case "ratio and formatting" `Quick test_report_ratio ] );
      ( "mix_plan",
        [
          Alcotest.test_case "pure function of the seed" `Quick
            test_mix_plan_deterministic;
          Alcotest.test_case "25/50/25 proportions" `Quick
            test_mix_plan_proportions;
          Alcotest.test_case "zipf skews key popularity" `Quick
            test_mix_plan_zipf_skew;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry lookup" `Quick test_registry_select;
          Alcotest.test_case "smoke run all drivers" `Quick test_experiments_smoke;
          Alcotest.test_case "golden sim-clock cells" `Quick test_golden_sim;
        ] );
    ]
