(* Beyond the paper: per-operation nanosecond comparison of the two ART
   node layers — the original boxed variants ([Art_boxed]) against the
   bitmap/pooled layer ([Art], DESIGN.md §14) — at 100k-1M keys.

   Two clocks per cell:

   - wall ns/op on the host (the point of the bitmap layer: fewer GC
     pointer chases and no hot-path allocation), and
   - simulated ns/op under the 300/100 meter, which must be *identical*
     across the layers because the modelled cost layer (adaptive-class
     events, addresses, touches) is preserved bit-for-bit; the run
     fails if they diverge, making every benchmark run a fidelity
     check.

   Emitted as BENCH_art_nodes.json. The CI gate ([hart_cli exp --gate])
   checks the uniform-random search speedup at the largest key count,
   skipping with a notice when the scaled sizes are too small to time
   meaningfully (like the recovery gate skips on small hosts). *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Keygen = Hart_workloads.Keygen
module Rng = Hart_util.Rng
module Json = Hart_util.Json

module type LAYER = sig
  type t

  val name : string
  val create : unit -> t
  val create_metered : Meter.t -> t
  val insert : t -> string -> int -> unit
  val find : t -> string -> int option
  val delete : t -> string -> int option
  val range : t -> lo:string -> hi:string -> (string -> int -> unit) -> unit
end

module Bitmap_layer : LAYER = struct
  module M = Hart_art.Art

  type t = int M.t

  let name = "bitmap"
  let create () = M.create ()
  let create_metered m = M.create ~meter:m ()
  let insert t k v = ignore (M.insert t k ~off:0 (fun _ v -> v) v : int option)
  let find t k = M.find t k ~off:0
  let delete t k = M.delete t k ~off:0
  let range = M.range
end

module Boxed_layer : LAYER = struct
  module M = Hart_art.Art_boxed

  type t = int M.t

  let name = "boxed"
  let create () = M.create ()
  let create_metered m = M.create ~meter:m ()
  let insert t k v = ignore (M.insert t k v : int option)
  let find = M.find
  let delete = M.delete
  let range = M.range
end

let base_sizes = [ 100_000; 1_000_000 ]
let range_width = 100 (* keys returned per range scan *)
let ops = [ "insert"; "search"; "delete"; "range" ]

(* wall ns/op and simulated ns/op for each op, one layer at one size *)
type cell = { wall : float; sim : float }

type meas = {
  m_layer : string;
  m_keys : int;
  m_cells : (string * cell) list;  (* op -> cell *)
}

let shuffled_copy keys =
  let s = Array.copy keys in
  Rng.shuffle (Rng.create 2024L) s;
  s

let range_windows sorted =
  let n = Array.length sorted in
  let scans = min 1_000 (n / range_width) in
  let step = (n - range_width) / max 1 scans in
  List.init scans (fun i ->
      let j = i * step in
      (sorted.(j), sorted.(j + range_width - 1)))

(* Run the four phases on a fresh tree, timing each with [clock] (wall
   seconds or simulated seconds). Returns op -> seconds-per-op. *)
let phases (type t) (module L : LAYER with type t = t) (tree : t) ~clock ~keys
    ~shuffled ~windows =
  let n = Array.length keys in
  let fn = float_of_int n in
  let time f ~per =
    let t0 = clock () in
    f ();
    (clock () -. t0) /. per
  in
  let insert =
    time ~per:fn (fun () ->
        Array.iteri (fun i key -> L.insert tree key i) keys)
  in
  let hits = ref 0 in
  let search =
    time ~per:fn (fun () ->
        Array.iter
          (fun key -> match L.find tree key with Some _ -> incr hits | None -> ())
          shuffled)
  in
  if !hits <> n then
    failwith (Printf.sprintf "art_nodes: %s found %d of %d keys" L.name !hits n);
  let visited = ref 0 in
  let scans = List.length windows in
  let range =
    time ~per:(float_of_int (max 1 scans)) (fun () ->
        List.iter
          (fun (lo, hi) -> L.range tree ~lo ~hi (fun _ _ -> incr visited))
          windows)
  in
  if !visited <> scans * range_width then
    failwith
      (Printf.sprintf "art_nodes: %s range visited %d, expected %d" L.name
         !visited (scans * range_width));
  let deleted = ref 0 in
  let delete =
    time ~per:fn (fun () ->
        Array.iter
          (fun key ->
            match L.delete tree key with Some _ -> incr deleted | None -> ())
          shuffled)
  in
  if !deleted <> n then
    failwith
      (Printf.sprintf "art_nodes: %s deleted %d of %d keys" L.name !deleted n);
  [ ("insert", insert); ("search", search); ("delete", delete); ("range", range) ]

let measure (module L : LAYER) ~keys ~shuffled ~windows =
  let n = Array.length keys in
  (* Two full wall-clock cycles on fresh trees, keeping the per-phase
     minimum: one-shot ns/op at these sizes is GC- and scheduler-noisy,
     and the minimum is the usual robust estimator for "how fast can
     this code go". The simulated clock is deterministic, one pass. *)
  let wall_pass () =
    Gc.full_major ();
    phases (module L) (L.create ()) ~clock:Unix.gettimeofday ~keys ~shuffled
      ~windows
  in
  let w1 = wall_pass () in
  let w2 = wall_pass () in
  let wall = List.map2 (fun (op, a) (_, b) -> (op, Float.min a b)) w1 w2 in
  Gc.full_major ();
  let meter = Meter.create Latency.c300_100 in
  let sim =
    phases
      (module L)
      (L.create_metered meter)
      ~clock:(fun () -> Meter.sim_ns meter /. 1e9)
      ~keys ~shuffled ~windows
  in
  {
    m_layer = L.name;
    m_keys = n;
    m_cells =
      List.map
        (fun op ->
          (op, { wall = List.assoc op wall *. 1e9; sim = List.assoc op sim *. 1e9 }))
        ops;
  }

let run ?lookup_threshold ~scale () =
  let sizes =
    List.sort_uniq compare
      (List.map
         (fun n -> max 10_000 (int_of_float (float_of_int n *. scale)))
         base_sizes)
  in
  Printf.printf
    "\nART node layers: boxed (variant nodes) vs bitmap (pooled, \
     popcount-ranked) — wall ns/op on this host, simulated ns/op under \
     300/100.\nUniform-random keys; range scans return %d keys each.\n%!"
    range_width;
  let pairs =
    List.map
      (fun n ->
        let keys = Keygen.generate Keygen.Random n in
        let shuffled = shuffled_copy keys in
        let sorted = Array.copy keys in
        Array.sort compare sorted;
        let windows = range_windows sorted in
        let boxed = measure (module Boxed_layer) ~keys ~shuffled ~windows in
        let bitmap = measure (module Bitmap_layer) ~keys ~shuffled ~windows in
        (* The modelled cost layer is supposed to be preserved exactly:
           identical event streams drive identical meters, so any
           simulated-clock divergence is a fidelity bug, not noise. *)
        List.iter
          (fun op ->
            let bs = (List.assoc op boxed.m_cells).sim
            and ns = (List.assoc op bitmap.m_cells).sim in
            if abs_float (bs -. ns) > 1e-6 *. (abs_float bs +. 1.) then
              failwith
                (Printf.sprintf
                   "art_nodes: simulated clocks diverged on %s at %d keys \
                    (boxed %.6f ns/op, bitmap %.6f ns/op): the modelled cost \
                    layer is no longer bit-identical"
                   op n bs ns))
          ops;
        Report.print_table
          ~title:
            (Printf.sprintf "ART node layer ns/op -- %dk random keys" (n / 1000))
          ~col_names:
            [ "boxed wall"; "bitmap wall"; "speedup"; "boxed sim"; "bitmap sim" ]
          ~rows:
            (List.map
               (fun op ->
                 let b = List.assoc op boxed.m_cells
                 and m = List.assoc op bitmap.m_cells in
                 (op, [ b.wall; m.wall; Report.ratio b.wall m.wall; b.sim; m.sim ]))
               ops);
        (n, boxed, bitmap))
      sizes
  in
  let n_max, boxed_max, bitmap_max =
    match List.rev pairs with p :: _ -> p | [] -> assert false
  in
  let search_speedup =
    Report.ratio
      (List.assoc "search" boxed_max.m_cells).wall
      (List.assoc "search" bitmap_max.m_cells).wall
  in
  Printf.printf "search speedup at %d keys: %.2fx (bitmap over boxed)\n%!" n_max
    search_speedup;
  (* CI gate: wall-clock ratios need a window big enough to time, so —
     like the recovery gate on small hosts — skip with a notice when the
     scaled sizes are too small rather than flake. *)
  (match lookup_threshold with
  | None -> ()
  | Some min_speedup ->
      if n_max < 200_000 then
        Printf.printf
          "lookup-speedup threshold check SKIPPED: largest scaled size is \
           %d keys, too small for a meaningful wall-clock ratio\n"
          n_max
      else if search_speedup < min_speedup then
        failwith
          (Printf.sprintf
             "bitmap node layer below lookup threshold: search at %d keys is \
              %.2fx of boxed, required >= %.2fx"
             n_max search_speedup min_speedup)
      else
        Printf.printf "lookup-speedup threshold check OK: %.2fx >= %.2fx\n"
          search_speedup min_speedup);
  flush stdout;
  let cells m =
    List.concat_map
      (fun op ->
        let c = List.assoc op m.m_cells in
        [
          Json.Obj
            [
              ("keys", Json.Int m.m_keys);
              ("layer", Json.Str m.m_layer);
              ("op", Json.Str op);
              ("wall_ns_per_op", Json.Float c.wall);
              ("sim_ns_per_op", Json.Float c.sim);
            ];
        ])
      ops
  in
  Json.Obj
    [
      ("experiment", Json.Str "art_nodes");
      ("range_width", Json.Int range_width);
      ( "rows",
        Json.List
          (List.concat_map
             (fun (_, boxed, bitmap) -> cells boxed @ cells bitmap)
             pairs) );
      ( "speedups",
        Json.List
          (List.map
             (fun (n, boxed, bitmap) ->
               Json.Obj
                 (("keys", Json.Int n)
                 :: List.map
                      (fun op ->
                        ( op,
                          Json.Float
                            (Report.ratio
                               (List.assoc op boxed.m_cells).wall
                               (List.assoc op bitmap.m_cells).wall) ))
                      ops))
             pairs) );
      ("search_speedup_at_max", Json.Float search_speedup);
    ]
