(** Fig. 10d: HART multi-threaded throughput (MIOPS) for 1-16 threads,
    Random keys, 300/100. Service times are measured on the
    single-threaded simulated clock; the per-ART reader/writer admission
    protocol is replayed by {!Mt_sim} (see DESIGN.md for why wall-clock
    scaling cannot be measured in this container). *)

module Roster = Hart_baselines.Roster
module Latency = Hart_pmem.Latency
module Hart = Hart_core.Hart
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload
module Rng = Hart_util.Rng

let thread_counts = [ 1; 2; 4; 8; 16 ]
let default_records = 20_000

let run ~scale =
  let n = int_of_float (float_of_int default_records *. scale) in
  let keys = Keygen.generate Keygen.Random n in
  (* measure single-threaded service times per operation type *)
  let inst = Runner.make Roster.hart Latency.c300_100 in
  let svc_ins =
    Runner.avg_us (Runner.measure inst (Workload.insert_trace keys Keygen.value_for))
    *. 1000.
  in
  let svc_sea = Runner.avg_us (Runner.measure inst (Workload.search_trace keys)) *. 1000. in
  let svc_upd =
    Runner.avg_us (Runner.measure inst (Workload.update_trace keys Keygen.value_for))
    *. 1000.
  in
  (* deletion service time from a rebuilt tree (the tree is empty now) *)
  Runner.preload inst keys Keygen.value_for;
  let svc_del = Runner.avg_us (Runner.measure inst (Workload.delete_trace keys)) *. 1000. in
  (* the lock an operation contends on is its key's ART = hash prefix *)
  let hart = Hart.create (Hart_pmem.Pmem.create (Hart_pmem.Meter.create Latency.c300_100)) in
  let art_ids = Hashtbl.create 4096 in
  let art_of key =
    let hk, _ = Hart.split_key hart key in
    match Hashtbl.find_opt art_ids hk with
    | Some id -> id
    | None ->
        let id = Hashtbl.length art_ids in
        Hashtbl.add art_ids hk id;
        id
  in
  let rng = Rng.create 0xF16DL in
  let mk_trace ~write =
    Array.init (4 * n) (fun _ -> (art_of keys.(Rng.int rng n), write))
  in
  let write_trace = mk_trace ~write:true and read_trace = mk_trace ~write:false in
  Report.print_table
    ~title:
      (Printf.sprintf
         "Fig 10(d): HART scalability (MIOPS) -- Random, 300/100, %d records, %d ARTs"
         n (Hashtbl.length art_ids))
    ~col_names:[ "Insertion"; "Search"; "Update"; "Deletion" ]
    ~rows:
      (List.map
         (fun threads ->
           ( Printf.sprintf "%d threads" threads,
             List.map
               (fun (svc_ns, trace) -> Mt_sim.simulate ~threads ~trace ~svc_ns ())
               [
                 (svc_ins, write_trace);
                 (svc_sea, read_trace);
                 (svc_upd, write_trace);
                 (svc_del, write_trace);
               ] ))
         thread_counts);
  (* Extra E3, beyond the paper: HART allows at most one writer per ART
     (§III-A.3), so a skewed request distribution concentrates writers
     on few locks. Zipf(0.99) is YCSB's default skew. Reads still scale:
     they share the hot ART's lock. *)
  let zipf = Workload.zipf_sampler (Rng.create 0x21BFL) ~n ~s:0.99 in
  let mk_skewed ~write =
    Array.init (4 * n) (fun _ -> (art_of keys.(zipf ()), write))
  in
  let skew_w = mk_skewed ~write:true and skew_r = mk_skewed ~write:false in
  Report.print_table
    ~title:
      "Extra E3: HART scalability under Zipf(0.99) skew (MIOPS) -- writers \
       serialise on hot ARTs, readers share"
    ~col_names:[ "Update (uniform)"; "Update (zipf)"; "Search (zipf)" ]
    ~rows:
      (List.map
         (fun threads ->
           ( Printf.sprintf "%d threads" threads,
             [
               Mt_sim.simulate ~threads ~trace:write_trace ~svc_ns:svc_upd ();
               Mt_sim.simulate ~threads ~trace:skew_w ~svc_ns:svc_upd ();
               Mt_sim.simulate ~threads ~trace:skew_r ~svc_ns:svc_sea ();
             ] ))
         thread_counts)
