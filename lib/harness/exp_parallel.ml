(* Wall-clock scalability over true OCaml 5 domains.

   Everything else in this harness measures the *simulated* clock; this
   experiment is the one place where real [Domain.spawn] parallelism is
   measured against the wall, reproducing the shape of Fig. 9: uniform
   and Zipf(0.99) key popularity, read-only / write-only / 50-50 mixes,
   1..8 domains over one shared HART. Total work is held constant while
   the domain count varies, so perfect scaling shows as proportionally
   higher throughput.

   Numbers are only meaningful relative to the host: on a container
   pinned to one hardware thread every domain count collapses onto one
   core and throughput stays flat (or dips from scheduling overhead) —
   the report therefore records [Domain.recommended_domain_count] next
   to the results, and DESIGN.md §9 explains when to trust wall-clock
   versus simulated figures.

   Latency sampling: operations cost on the order of a microsecond, so
   per-op timestamps would mostly measure the clock itself. Each domain
   instead times batches of 64 ops; the per-batch mean feeds the
   latency distribution whose p50/p99 is reported (in ns/op). *)

module Latency = Hart_pmem.Latency
module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Hart_mt = Hart_core.Hart_mt
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload
module Rng = Hart_util.Rng
module Json = Report.Json

let domain_counts = [ 1; 2; 4; 8 ]
let default_total_ops = 200_000
let batch = 64

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

type phase_result = { ops_per_s : float; p50_ns : float; p99_ns : float }

(* Run [f ~domain ~op] for [n_batches * batch] ops on each of [d]
   domains. A spin barrier aligns the start so spawn cost is excluded;
   elapsed time is last-finish minus first-start after the barrier. *)
let run_phase ~domains:d ~n_batches f =
  let lats = Array.init d (fun _ -> Array.make n_batches 0.) in
  let starts = Array.make d 0. and stops = Array.make d 0. in
  (* condvar barrier: spinning would burn whole scheduler quanta when
     domains outnumber cores, which is exactly the degraded case this
     experiment must measure honestly *)
  let mu = Mutex.create () and cv = Condition.create () in
  let ready = ref 0 in
  let worker di =
    Mutex.lock mu;
    incr ready;
    if !ready = d then Condition.broadcast cv
    else while !ready < d do Condition.wait cv mu done;
    Mutex.unlock mu;
    starts.(di) <- now_ns ();
    for b = 0 to n_batches - 1 do
      let t0 = now_ns () in
      for j = b * batch to ((b + 1) * batch) - 1 do
        f ~domain:di ~op:j
      done;
      lats.(di).(b) <- (now_ns () -. t0) /. float_of_int batch
    done;
    stops.(di) <- now_ns ()
  in
  let spawned =
    Array.init (d - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  let elapsed_ns =
    Array.fold_left max 0. stops -. Array.fold_left min infinity starts
  in
  let all = Array.concat (Array.to_list lats) in
  Array.sort compare all;
  {
    ops_per_s = float_of_int (d * n_batches * batch) /. (elapsed_ns /. 1e9);
    p50_ns = percentile all 0.50;
    p99_ns = percentile all 0.99;
  }

(* Pre-size the pool so [Pmem.grow] can never fire while domains run
   concurrently (growth swaps the backing buffers; see Pmem docs). *)
let fresh_pool ~n_keys =
  let cap =
    let need = (n_keys * 512) + (1 lsl 20) in
    let rec pow2 c = if c >= need then c else pow2 (c * 2) in
    pow2 (1 lsl 20)
  in
  Pmem.create ~capacity:cap ~max_capacity:(2 * cap) (Meter.create Latency.c300_100)

let fresh_hart ~n_keys = Hart_mt.create (fresh_pool ~n_keys)

(* -------------------------------------------------------------------
   Cross-index sweep: the same striped front end ([Striped_mt]) over
   HART, FPTree and WOART at each domain count — the Fig. 9-style
   comparison: insert, search, then two mixed mutation phases (25/50/25
   insert/update/delete over uniform and Zipf(0.99) key popularity).
   The interesting shape is qualitative:
   HART shards every operation (hash-prefix stripes), FPTree shards
   non-splitting operations (leaf-group stripes, splits exclusive), and
   WOART serializes every new-key insert (radix restructuring), so its
   insert column must stay flat while its search column scales. *)

type mt_ops = {
  xi_insert : key:string -> value:string -> unit;
  xi_update : key:string -> value:string -> unit;
  xi_delete : string -> unit;
  xi_search : string -> string option;
}

let mt_indexes : (string * (n_keys:int -> mt_ops)) list =
  let make (module M : Hart_core.Index_intf.MT) ~n_keys =
    let t = M.create (fresh_pool ~n_keys) in
    {
      xi_insert = (fun ~key ~value -> M.insert t ~key ~value);
      xi_update = (fun ~key ~value -> ignore (M.update t ~key ~value : bool));
      xi_delete = (fun k -> ignore (M.delete t k : bool));
      xi_search = (fun k -> M.search t k);
    }
  in
  [
    ("hart", make (module Hart_mt.M));
    ("fptree", make (module Hart_baselines.Fptree_mt));
    ("woart", make (module Hart_baselines.Woart_mt));
  ]

(* Seeded plan for the mixed cross-index phases: 25% insert / 50%
   update / 25% delete over key indices drawn uniformly or
   Zipf(0.99)-skewed. A pure function of [seed] — the tests assert
   determinism, proportions and skew — so each domain precomputes its
   plan before spawning and the measured loop only indexes an array. *)
type mix_kind = Mix_insert | Mix_update | Mix_delete

let mix_plan ?(zipf = false) ~seed ~n ~ops () =
  let rng = Rng.create seed in
  let pick =
    if zipf then
      Workload.zipf_sampler (Rng.create (Int64.add seed 1L)) ~n ~s:0.99
    else fun () -> Rng.int rng n
  in
  Array.init ops (fun _ ->
      let kind =
        let r = Rng.int rng 100 in
        if r < 25 then Mix_insert else if r < 75 then Mix_update else Mix_delete
      in
      (kind, pick ()))

type cross_result = {
  x_index : string;
  x_phase : string;
  x_domains : int;
  x_r : phase_result;
}

let run_cross ~total_ops =
  let n = total_ops in
  let keys = Keygen.generate Keygen.Random n in
  let batches_per_domain d = total_ops / d / batch in
  List.concat_map
    (fun (name, mk) ->
      List.concat_map
        (fun d ->
          let t = mk ~n_keys:n in
          let per = total_ops / d in
          let ins =
            run_phase ~domains:d ~n_batches:(batches_per_domain d)
              (fun ~domain ~op ->
                let i = (domain * per) + op in
                t.xi_insert ~key:keys.(i) ~value:(Keygen.value_for i))
          in
          (* the insert phase loaded all [n] keys, so searches hit *)
          let rngs =
            Array.init d (fun i -> Rng.create (Int64.of_int (0xC0DE + i)))
          in
          let srch =
            run_phase ~domains:d ~n_batches:(batches_per_domain d)
              (fun ~domain ~op:_ ->
                ignore (t.xi_search keys.(Rng.int rngs.(domain) n) : string option))
          in
          (* mixed phases run against the fully-loaded index; deletes
             and re-inserts churn it, which is the point *)
          let mixed ~zipf phase_name =
            let plans =
              Array.init d (fun i ->
                  mix_plan ~zipf
                    ~seed:(Int64.of_int (0xA11 + (if zipf then 1000 else 0) + i))
                    ~n ~ops:per ())
            in
            let r =
              run_phase ~domains:d ~n_batches:(batches_per_domain d)
                (fun ~domain ~op ->
                  let kind, ki = plans.(domain).(op) in
                  let key = keys.(ki) in
                  match kind with
                  | Mix_insert -> t.xi_insert ~key ~value:(Keygen.value_for ki)
                  | Mix_update ->
                      t.xi_update ~key ~value:"vmix1"
                  | Mix_delete -> t.xi_delete key)
            in
            { x_index = name; x_phase = phase_name; x_domains = d; x_r = r }
          in
          let mix = mixed ~zipf:false "mix" in
          let zipf = mixed ~zipf:true "zipf" in
          [
            { x_index = name; x_phase = "insert"; x_domains = d; x_r = ins };
            { x_index = name; x_phase = "search"; x_domains = d; x_r = srch };
            mix;
            zipf;
          ])
        domain_counts)
    mt_indexes

type phase = { name : string; run : int -> phase_result }

let phases ~total_ops =
  let n = total_ops in
  let keys = Keygen.generate Keygen.Random n in
  let preload () =
    let t = fresh_hart ~n_keys:n in
    for i = 0 to n - 1 do
      Hart_mt.insert t ~key:keys.(i) ~value:(Keygen.value_for i)
    done;
    t
  in
  let batches_per_domain d = total_ops / d / batch in
  (* per-domain samplers, created before spawning *)
  let uniform_pick d =
    let rngs = Array.init d (fun i -> Rng.create (Int64.of_int (0x5EED + i))) in
    fun ~domain -> keys.(Rng.int rngs.(domain) n)
  in
  let zipf_pick d =
    let samplers =
      Array.init d (fun i ->
          Workload.zipf_sampler (Rng.create (Int64.of_int (0x21BF + i))) ~n ~s:0.99)
    in
    fun ~domain -> keys.(samplers.(domain) ())
  in
  [
    {
      name = "insert (uniform)";
      run =
        (fun d ->
          let t = fresh_hart ~n_keys:n in
          let per = total_ops / d in
          run_phase ~domains:d ~n_batches:(batches_per_domain d)
            (fun ~domain ~op ->
              let i = (domain * per) + op in
              Hart_mt.insert t ~key:keys.(i) ~value:(Keygen.value_for i)));
    };
    {
      name = "search (uniform)";
      run =
        (fun d ->
          let t = preload () in
          let pick = uniform_pick d in
          run_phase ~domains:d ~n_batches:(batches_per_domain d)
            (fun ~domain ~op:_ -> ignore (Hart_mt.search t (pick ~domain))));
    };
    {
      name = "search (zipf .99)";
      run =
        (fun d ->
          let t = preload () in
          let pick = zipf_pick d in
          run_phase ~domains:d ~n_batches:(batches_per_domain d)
            (fun ~domain ~op:_ -> ignore (Hart_mt.search t (pick ~domain))));
    };
    {
      name = "mixed 50/50 (uniform)";
      run =
        (fun d ->
          let t = preload () in
          let pick = uniform_pick d in
          run_phase ~domains:d ~n_batches:(batches_per_domain d)
            (fun ~domain ~op ->
              let key = pick ~domain in
              if op land 1 = 0 then ignore (Hart_mt.search t key)
              else ignore (Hart_mt.update t ~key ~value:"vmixed1")));
    };
    {
      name = "mixed 50/50 (zipf .99)";
      run =
        (fun d ->
          let t = preload () in
          let pick = zipf_pick d in
          run_phase ~domains:d ~n_batches:(batches_per_domain d)
            (fun ~domain ~op ->
              let key = pick ~domain in
              if op land 1 = 0 then ignore (Hart_mt.search t key)
              else ignore (Hart_mt.update t ~key ~value:"vmixed1")));
    };
  ]

let run ?threshold ~scale () =
  let total_ops =
    (* multiple of every domain count times the batch size *)
    let raw = int_of_float (float_of_int default_total_ops *. scale) in
    max 512 (raw / 512 * 512)
  in
  let host = Domain.recommended_domain_count () in
  Printf.printf
    "\nWall-clock parallel scalability: %d total ops per phase, host \
     reports %d usable core(s).\n\
     These are real [Domain.spawn] timings, not the simulated clock; on \
     a single-core host all domain counts share one core and throughput \
     stays flat (DESIGN.md §9).\n"
    total_ops host;
  flush stdout;
  let ps = phases ~total_ops in
  let results =
    List.map
      (fun d -> (d, List.map (fun p -> (p.name, p.run d)) ps))
      domain_counts
  in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Wall-clock throughput (Mops/s) -- %d ops/phase, host cores=%d"
         total_ops host)
    ~col_names:(List.map (fun p -> p.name) ps)
    ~rows:
      (List.map
         (fun (d, rs) ->
           ( Printf.sprintf "%d domain%s" d (if d = 1 then "" else "s"),
             List.map (fun (_, r) -> r.ops_per_s /. 1e6) rs ))
         results);
  Report.print_table
    ~title:"Wall-clock p99 latency (us/op, 64-op batch means)"
    ~col_names:(List.map (fun p -> p.name) ps)
    ~rows:
      (List.map
         (fun (d, rs) ->
           ( Printf.sprintf "%d domain%s" d (if d = 1 then "" else "s"),
             List.map (fun (_, r) -> r.p99_ns /. 1e3) rs ))
         results);
  let cross = run_cross ~total_ops in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Cross-index wall-clock throughput (Mops/s), striped front end -- \
          %d ops/phase"
         total_ops)
    ~col_names:
      (List.map
         (fun d -> Printf.sprintf "%dd" d)
         domain_counts)
    ~rows:
      (List.concat_map
         (fun (name, _) ->
           List.map
             (fun phase ->
               ( Printf.sprintf "%s %s" name phase,
                 List.map
                   (fun d ->
                     let r =
                       List.find
                         (fun x ->
                           x.x_index = name && x.x_phase = phase
                           && x.x_domains = d)
                         cross
                     in
                     r.x_r.ops_per_s /. 1e6)
                   domain_counts ))
             [ "insert"; "search"; "mix"; "zipf" ])
         mt_indexes);
  (match results with
  | (1, base) :: _ ->
      let last_d, last = List.nth results (List.length results - 1) in
      let ins1 = (List.assoc "insert (uniform)" base).ops_per_s in
      let insN = (List.assoc "insert (uniform)" last).ops_per_s in
      Printf.printf
        "\ninsert speedup at %d domains vs 1: %.2fx (host cores=%d; ~1.0x \
         expected on a single-core host)\n"
        last_d
        (if ins1 > 0. then insN /. ins1 else 0.)
        host
  | _ -> ());
  Report.core_gate ~label:"threshold check" ~host threshold
    (fun d_req min_speedup ->
      match results with
      | (1, base) :: _ when List.mem_assoc d_req results ->
          let ins1 = (List.assoc "insert (uniform)" base).ops_per_s in
          let insD =
            (List.assoc "insert (uniform)" (List.assoc d_req results)).ops_per_s
          in
          let speedup = if ins1 > 0. then insD /. ins1 else 0. in
          if speedup < min_speedup then
            failwith
              (Printf.sprintf
                 "parallel scalability below threshold: insert at %d \
                  domains is %.2fx of 1 domain, required >= %.2fx"
                 d_req speedup min_speedup)
          else
            Printf.printf "threshold check OK: %.2fx >= %.2fx at %d domains\n"
              speedup min_speedup d_req
      | _ ->
          failwith
            (Printf.sprintf
               "threshold check: %d domains is not a measured domain count"
               d_req));
  flush stdout;
  Json.Obj
    [
      ("experiment", Json.Str "parallel-wall-clock");
      ("total_ops_per_phase", Json.Int total_ops);
      ("host_recommended_domains", Json.Int host);
      ("batch", Json.Int batch);
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.name);
                   ( "results",
                     Json.List
                       (List.map
                          (fun (d, rs) ->
                            let r = List.assoc p.name rs in
                            Json.Obj
                              [
                                ("domains", Json.Int d);
                                ("ops_per_s", Json.Float r.ops_per_s);
                                ("p50_ns", Json.Float r.p50_ns);
                                ("p99_ns", Json.Float r.p99_ns);
                              ])
                          results) );
                 ])
             ps) );
      ( "cross_index",
        Json.List
          (List.map
             (fun x ->
               Json.Obj
                 [
                   ("index", Json.Str x.x_index);
                   ("phase", Json.Str x.x_phase);
                   ("domains", Json.Int x.x_domains);
                   ("ops_per_s", Json.Float x.x_r.ops_per_s);
                   ("p50_ns", Json.Float x.x_r.p50_ns);
                   ("p99_ns", Json.Float x.x_r.p99_ns);
                 ])
             cross) );
    ]
