(* Bechamel micro-benchmarks: the raw OCaml-side wall-clock cost and
   minor-heap allocation of insert, search and update on each tree and
   on HART behind its stripe locks ([hart_mt]), 10k preloaded Random
   keys, and of the simulator's per-event primitives
   (a metered access, a one-line store + persist, a directory probe).
   Wall-clock on DRAM hardware cannot express PM latency, so these only
   sanity-check the implementations; the figure reproductions use the
   simulated clock (DESIGN.md). *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hash_dir = Hart_core.Hash_dir
module Keygen = Hart_workloads.Keygen

(* Paths every simulated operation repeats. DESIGN.md §9 requires a
   metered access, a one-line persist and a directory hit to allocate
   nothing. *)
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
  (* insert (of a preloaded key), search and update rows of a store
     built on first use *)
  let rows name built ~insert ~search ~update =
    let idx = ref 0 in
    let next () =
      let i = !idx in
      idx := (i + 1) mod n;
      i
    in
    [
      Test.make ~name:(name ^ "/insert")
        (Staged.stage (fun () ->
             let s = Lazy.force built in
             insert s ~key:keys.(next ()) ~value:"bench77"));
      Test.make ~name:(name ^ "/search")
        (Staged.stage (fun () ->
             let s = Lazy.force built in
             ignore (search s shuffled.(next ()) : string option)));
      Test.make ~name:(name ^ "/update")
        (Staged.stage (fun () ->
             let s = Lazy.force built in
             ignore (update s ~key:shuffled.(next ()) ~value:"bench88" : bool)));
    ]
  in
  let per_tree tree =
    let built =
      lazy
        (let inst = Runner.make tree Latency.c300_100 in
         Runner.preload inst keys Keygen.value_for;
         inst.Runner.ops)
    in
    rows tree.Roster.label built
      ~insert:(fun ops -> ops.Hart_core.Index_intf.insert)
      ~search:(fun ops -> ops.Hart_core.Index_intf.search)
      ~update:(fun ops -> ops.Hart_core.Index_intf.update)
  in
  (* HART behind its stripe locks, beside the roster's bare [hart] rows:
     the difference is the lock layer's cost *)
  let hart_mt =
    let built =
      lazy
        (let meter = Meter.create ~llc_bytes:Runner.harness_llc_bytes Latency.c300_100 in
         let mt = Hart_core.Hart_mt.create (Pmem.create meter) in
         Array.iteri (fun i key -> Hart_core.Hart_mt.insert mt ~key ~value:(Keygen.value_for i)) keys;
         mt)
    in
    rows "hart_mt" built ~insert:Hart_core.Hart_mt.insert ~search:Hart_core.Hart_mt.search
      ~update:Hart_core.Hart_mt.update
  in
  Bechamel.Test.make_grouped ~name:"micro"
    (primitives keys @ List.concat_map per_tree Roster.paper @ hart_mt)

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
