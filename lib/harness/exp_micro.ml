(* Bechamel micro-benchmarks: the raw OCaml-side wall-clock cost and
   minor-heap allocation of insert, search and update on each tree, 10k
   preloaded Random keys, and of the simulator's per-event primitives
   (a metered access, a one-line store + persist, a directory probe).
   Wall-clock on DRAM hardware cannot express PM latency, so these only
   sanity-check the implementations; the figure reproductions use the
   simulated clock (DESIGN.md). *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hash_dir = Hart_core.Hash_dir
module Keygen = Hart_workloads.Keygen

(* Paths every simulated operation repeats. DESIGN.md §9 requires a
   metered access and a one-line persist to allocate nothing; a
   directory probe allocates only its result. *)
let primitives keys =
  let open Bechamel in
  let n = Array.length keys in
  let meter = Meter.create Latency.c300_100 in
  let pool = Pmem.create meter in
  let base = Pmem.alloc pool (64 * Pmem.line_bytes) in
  let dir = Hash_dir.create ~meter () in
  Array.iteri (fun i k -> Hash_dir.insert dir k i) keys;
  let i = ref 0 in
  let next () =
    i := (!i + 1) mod n;
    !i
  in
  [
    Test.make ~name:"meter/access"
      (Staged.stage (fun () ->
           Meter.access meter Pm ~addr:(next () * Pmem.line_bytes) ~write:false));
    Test.make ~name:"pmem/persist-line"
      (Staged.stage (fun () ->
           let off = base + (next () land 63 * Pmem.line_bytes) in
           Pmem.set_u8 pool off 1;
           Pmem.persist pool ~off ~len:1));
    Test.make ~name:"hash_dir/find"
      (Staged.stage (fun () -> ignore (Hash_dir.find dir keys.(next ()) : int option)));
  ]

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
    (primitives keys @ List.concat_map per_tree Runner.all_trees)

let run () =
  let open Bechamel in
  print_endline
    "\n=== Bechamel micro-benchmarks (wall-clock ns/op, minor words/op, DRAM host) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let per_op instance = Analyze.all ols instance raw in
  let ns = per_op Toolkit.Instance.monotonic_clock
  and words = per_op Toolkit.Instance.minor_allocated in
  let estimate tbl name =
    match Analyze.OLS.estimates (Hashtbl.find tbl name) with
    | Some [ est ] -> Printf.sprintf "%10.0f" est
    | Some _ | None | (exception Not_found) -> Printf.sprintf "%10s" "-"
  in
  Hashtbl.fold (fun k _ acc -> k :: acc) ns []
  |> List.sort String.compare
  |> List.iter (fun name ->
         Printf.printf "  %-28s %s ns/op %s words/op\n" name (estimate ns name)
           (estimate words name))
