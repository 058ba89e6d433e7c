(* The one experiment registry: every figure reproduction of the
   paper's evaluation (Figs. 4-10d) and every beyond-paper suite, by
   name. [hart_cli exp] runs entries from it; the registry writes their
   JSON artifacts in one place. *)

type entry = {
  name : string;
  doc : string;
  run : gate:bool -> scale:float -> Hart_util.Json.t option;
}

let tables f ~gate:_ ~scale =
  f ~scale;
  None

let artifact f ~gate:_ ~scale = Some (f ~scale)

(* The CI thresholds: constants of their entries, applied only under
   [~gate:true]. *)
let threshold ~gate t = if gate then Some t else None

let all =
  [
    {
      name = "micro";
      doc =
        "Bechamel wall-clock ns/op and minor words/op of insert, search \
         and update on each tree and of the simulator primitives (ignores \
         the scale).";
      run =
        (fun ~gate:_ ~scale:_ ->
          Exp_micro.run ();
          None);
    };
    {
      name = "fig4567";
      doc = "Figs. 4-7: per-operation time of the four basic operations.";
      run = tables Exp_basic_ops.run;
    };
    {
      name = "fig8";
      doc =
        "Fig. 8: per-operation time against the number of records. Gate: \
         HART's deletion time per op at the largest size <= 1.20x of the \
         smallest.";
      run =
        (fun ~gate ~scale ->
          Exp_scaling.run ?max_delete_growth:(threshold ~gate 1.20) ~scale ();
          None);
    };
    {
      name = "fig9";
      doc = "Fig. 9: the three YCSB mixed workloads.";
      run = tables Exp_mixed.run;
    };
    {
      name = "fig10a";
      doc = "Fig. 10a: range query time per returned record.";
      run = tables Exp_range.run;
    };
    {
      name = "fig10b";
      doc = "Fig. 10b: DRAM and PM consumption.";
      run = tables Exp_memory.run;
    };
    {
      name = "fig10c";
      doc = "Fig. 10c: build time against recovery time.";
      run = tables Exp_recovery.run;
    };
    {
      name = "fig10d";
      doc = "Fig. 10d: simulated multi-threaded throughput.";
      run = tables Exp_scalability.run;
    };
    {
      name = "ablation";
      doc = "Ablations: kh sweep, selective persistence, event diagnostics.";
      run = tables Exp_ablation.run;
    };
    {
      name = "parallel";
      doc =
        "Wall-clock multi-domain scalability of the concurrent front ends. \
         Gate: uniform insert at 4 domains >= 2.0x of 1 domain.";
      run =
        (fun ~gate ~scale ->
          Some (Exp_parallel.run ?threshold:(threshold ~gate (4, 2.0)) ~scale ()));
    };
    {
      name = "ycsb";
      doc = "YCSB A-F, skew, composite-key and churn suites on every index.";
      run = artifact Exp_ycsb.run;
    };
    {
      name = "recovery";
      doc =
        "Wall-clock parallel recovery against pool size. Gate: 4 domains \
         >= 1.5x of serial on the largest pool.";
      run =
        (fun ~gate ~scale ->
          Some
            (Exp_recovery.run_parallel ?threshold:(threshold ~gate (4, 1.5))
               ~scale ()));
    };
    {
      name = "art_nodes";
      doc =
        "Bitmap against boxed ART node layer, wall and simulated ns/op. \
         Gate: search at the largest size >= 1.15x of boxed.";
      run =
        (fun ~gate ~scale ->
          Some
            (Exp_art_nodes.run
               ?lookup_threshold:(threshold ~gate 1.15)
               ~scale ()));
    };
    {
      name = "scrub";
      doc = "Checksummed-format write cost and scrub/fsck pass cost.";
      run = artifact Exp_scrub.run;
    };
  ]

let select = function
  | [] -> Ok all
  | names -> (
      let find n = List.find_opt (fun e -> e.name = n) all in
      match List.find_opt (fun n -> find n = None) names with
      | Some n ->
          Error
            (Printf.sprintf "unknown experiment %S (one of %s)" n
               (String.concat ", " (List.map (fun e -> e.name) all)))
      | None -> Ok (List.filter_map find names))

let run ?json_dir ~gate ~scale entries =
  Printf.printf
    "HART reproduction benchmark harness (scale %.2f)\n\
     Times below are on the simulated clock: configured PM/DRAM latencies\n\
     charged to counted memory events (the paper's emulation methodology).\n"
    scale;
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    json_dir;
  let write name j =
    Option.iter
      (fun dir ->
        let path = Filename.concat dir ("BENCH_" ^ name ^ ".json") in
        Hart_util.Json.write path j;
        Printf.printf "wrote %s\n%!" path)
      json_dir
  in
  let artifacts, tables =
    Report.capture (fun () ->
        List.map
          (fun e ->
            let j = e.run ~gate ~scale in
            Option.iter (write e.name) j;
            j)
          entries)
  in
  if List.exists Option.is_none artifacts then write "figs" tables;
  print_newline ()
