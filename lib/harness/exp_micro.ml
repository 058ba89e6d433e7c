(* Bechamel micro-benchmarks: the raw OCaml-side wall-clock cost of
   insert, search and update on each tree, 10k preloaded Random keys.
   Wall-clock on DRAM hardware cannot express PM latency, so these only
   sanity-check the implementations; the figure reproductions use the
   simulated clock (DESIGN.md). *)

module Latency = Hart_pmem.Latency
module Keygen = Hart_workloads.Keygen

let tests () =
  let open Bechamel in
  let n = 10_000 in
  let keys = Keygen.generate Keygen.Random n in
  let shuffled = Array.copy keys in
  Hart_util.Rng.shuffle (Hart_util.Rng.create 17L) shuffled;
  let per_tree tree =
    let name = Runner.tree_name tree in
    let built =
      lazy
        (let inst = Runner.make tree Latency.c300_100 in
         Runner.preload inst keys Keygen.value_for;
         inst)
    in
    let idx = ref 0 in
    let next () =
      let i = !idx in
      idx := (i + 1) mod n;
      i
    in
    [
      Test.make ~name:(name ^ "/insert")
        (Staged.stage (fun () ->
             let inst = Lazy.force built in
             let i = next () in
             inst.Runner.ops.Hart_baselines.Index_intf.insert ~key:keys.(i)
               ~value:"bench77"));
      Test.make ~name:(name ^ "/search")
        (Staged.stage (fun () ->
             let inst = Lazy.force built in
             ignore
               (inst.Runner.ops.Hart_baselines.Index_intf.search
                  shuffled.(next ())
                 : string option)));
      Test.make ~name:(name ^ "/update")
        (Staged.stage (fun () ->
             let inst = Lazy.force built in
             ignore
               (inst.Runner.ops.Hart_baselines.Index_intf.update
                  ~key:shuffled.(next ()) ~value:"bench88"
                 : bool)));
    ]
  in
  Bechamel.Test.make_grouped ~name:"micro"
    (List.concat_map per_tree Runner.all_trees)

let run () =
  let open Bechamel in
  print_endline "\n=== Bechamel micro-benchmarks (wall-clock ns/op, DRAM host) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols_result) ->
         match Analyze.OLS.estimates ols_result with
         | Some [ est ] -> Printf.printf "  %-28s %10.0f ns/op\n" name est
         | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
