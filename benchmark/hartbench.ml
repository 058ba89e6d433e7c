(* hartbench: one workload per run, every metric printed as
   "name value unit", then one JSON line
   {"correct", "attempted", "failed", "metrics"}.

     hartbench --workload NAME --seed S [--seconds N] [--trace 0|1]
               [--spans FILE] [--json FILE] [--out DIR]
     hartbench --smoke [--out DIR]

   --trace 0 measures and reports the end-to-end metrics; --trace 1
   splits the window between an untraced and a traced half and reports
   the per-layer metrics, writing the sampled spans of the traced half
   to --spans (default DIR/spans-NAME-SEED.tsv). Any wrong reply, lost
   acknowledged write, integrity failure or pool growth makes the run
   exit 1. See README.md for the workloads and metrics. *)

module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Latency = Hart_pmem.Latency
module Hart = Hart_core.Hart
module Hart_mt = Hart_core.Hart_mt
module Hart_stats = Hart_core.Hart_stats
module Server = Hart_server.Server

(* Wall-clock latencies and throughput are per-layer diagnostics: on a
   shared two-core host they drift by more than a quarter between runs
   minutes apart (README.md, Noise), so they cannot gate a change. *)
let end_to_end = [ ("setup_s", "s"); ("sim_ns_per_op", "ns"); ("mem_bytes_per_key", "B"); ("recover_sim_ms", "ms") ]

(* Layers on the path of only some workloads read 0 on the others
   (no server in idx-mixed-1d, no Hart_mt op mix in the server runs). *)
let per_layer =
  [
    ("loadgen.read_p50_us", "us");
    ("loadgen.write_p50_us", "us");
    ("loadgen.lag_p99_us", "us");
    ("loadgen.read_p99_us", "us");
    ("loadgen.write_p99_us", "us");
    ("loadgen.read_p999_us", "us");
    ("loadgen.samples", "count");
    ("process.cpu_us_per_op", "us");
    ("process.peak_ops_s", "ops/s");
    ("scheduler.wake_p50_us", "us");
    ("transport.reads_per_op", "1/op");
    ("transport.writes_per_op", "1/op");
    ("transport.bytes_per_read", "B");
    ("resp.parse_ns_per_req", "ns");
    ("resp.reply_bytes_per_op", "B");
    ("server.self_us_per_op", "us");
    ("server.ops_per_burst", "count");
    ("server.writes_per_batch", "count");
    ("hart_mt.get_p50_us", "us");
    ("hart_mt.batch_us_per_write", "us");
    ("hart_mt.scan_us_per_key", "us");
    ("hart_mt.search_p50_us", "us");
    ("hart_mt.insert_p50_us", "us");
    ("hart_mt.update_p50_us", "us");
    ("hart_mt.delete_p50_us", "us");
    ("pmem.flushes_per_op", "1/op");
    ("pmem.persist_calls_per_op", "1/op");
    ("pmem.fences_per_op", "1/op");
    ("pmem.pm_writes_per_op", "1/op");
    ("pmem.pm_reads_per_op", "1/op");
    ("pmem.pm_read_misses_per_op", "1/op");
    ("pmem.flushed_bytes_per_user_byte", "ratio");
    ("hart.dram_reads_per_op", "1/op");
    ("hart.dram_read_misses_per_op", "1/op");
    ("hart.dram_bytes_per_key", "B");
    ("hart.pm_bytes_per_key", "B");
    ("hart.arts", "count");
    ("hart.max_art_height", "count");
    ("hart.recover_s", "s");
    ("hart.recover_2d_s", "s");
    ("hart.recover_pm_reads_per_key", "1/key");
    ("epalloc.pm_allocs_per_op", "1/op");
    ("epalloc.pm_frees_per_op", "1/op");
    ("epalloc.leaf_occupancy", "ratio");
    ("epalloc.value_occupancy", "ratio");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%");
    ("trace.coverage_pct", "%");
  ]

type cfg = {
  seed : int;
  seconds : float;  (** the measured window *)
  warmup : float;
  traced : bool;
  out : string;
  spans : string option;
}

type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  hart : Hart.t;  (** the store recovered after the run *)
  keys : string array;
  tags : string array;
  ver : int array;  (** last acknowledged version per key, -1 absent *)
}

let setups = 5
let warmup_s = 1.0

(* BENCHMARK.json's run_seconds: a run with the defaults measures the
   same window as the recorded baselines. *)
let default_seconds = 8.

(* Twice the measured need (about 58 PM bytes per key, plus room for
   chunks that updates and deletes leave partly empty). *)
let capacity keys = 2 * ((keys * 64) + (4 lsl 20))

let fi = float_of_int
let per a b = a /. Float.max 1. b

(* The host's speed, measured with work of the benchmark's own that no
   change to the program can alter: 8192 string-keyed [Hashtbl]
   inserts, which allocate and miss the cache as a build does. One call
   takes about [yard_ref_s] on the reference host (README.md, Noise). *)
let yard_keys = lazy (Array.init 8192 (fun i -> Printf.sprintf "yard%07d" (i * 7919)))
let yard_ref_s = 1e-3

let yardstick () =
  let h = Hashtbl.create 16 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) (Lazy.force yard_keys);
  ignore (Sys.opaque_identity h)

(* Inserts between two yardstick calls: a few tens of milliseconds. *)
let piece = 4096

(* Build and preload a store [setups] times, each from a collected heap,
   running the yardstick after every [piece] inserts. Returns the median
   over the builds of the build time rescaled to the reference speed
   (build time x [yard_ref_s] / mean yardstick time), and the last
   store. Neighbours on a shared host slow the core by up to 2x, for
   seconds to minutes; the yardstick runs at the speed of the inserts
   around it, so the ratio cancels the host's speed, while work added to
   set-up still adds to the build time. *)
let setup ~capacity keys values =
  let n = Array.length values in
  let build () =
    let t0 = Loadgen.now () and yard = ref 0 and calls = ref 0 in
    let pool = Pmem.create ~capacity (Meter.create Latency.c300_100) in
    let mt = Hart_mt.create pool in
    for p = 0 to (n - 1) / piece do
      for k = p * piece to min n ((p + 1) * piece) - 1 do
        Hart_mt.insert mt ~key:keys.(k) ~value:values.(k)
      done;
      let y0 = Loadgen.now () in
      yardstick ();
      yard := !yard + (Loadgen.now () - y0);
      incr calls
    done;
    let build_ns = Loadgen.now () - t0 - !yard in
    (yard_ref_s *. fi !calls *. fi build_ns /. fi !yard, (pool, mt))
  in
  let rec go i times =
    Gc.full_major ();
    let s, store = build () in
    if i = setups then (Est.median (s :: times), store) else go (i + 1) (s :: times)
  in
  go 1 []

(* Process CPU, meter, and GC counters, for deltas over a window. *)
type snap = { cpu : float; m : Meter.counters; minor : float; majors : int }

let snap meter =
  let t = Unix.times () and g = Gc.quick_stat () in
  { cpu = t.tms_utime +. t.tms_stime; m = Meter.counters meter; minor = g.minor_words; majors = g.major_collections }

let window_values a b ~ops ~user_bytes =
  let d = Meter.diff a.m b.m and ops = fi ops in
  let p x = per (fi x) ops in
  [
    ("process.cpu_us_per_op", per ((b.cpu -. a.cpu) *. 1e6) ops);
    ("sim_ns_per_op", per (b.m.sim_ns -. a.m.sim_ns) ops);
    ("pmem.flushes_per_op", p d.flushes);
    ("pmem.persist_calls_per_op", p d.persist_calls);
    ("pmem.fences_per_op", p d.fences);
    ("pmem.pm_writes_per_op", p d.pm_writes);
    ("pmem.pm_reads_per_op", p d.pm_reads);
    ("pmem.pm_read_misses_per_op", p d.pm_read_misses);
    ("pmem.flushed_bytes_per_user_byte", per (fi (d.flushes * Pmem.line_bytes)) (fi user_bytes));
    ("hart.dram_reads_per_op", p d.dram_reads);
    ("hart.dram_read_misses_per_op", p d.dram_read_misses);
    ("epalloc.pm_allocs_per_op", p d.pm_allocs);
    ("epalloc.pm_frees_per_op", p d.pm_frees);
    ("gc.minor_words_per_op", per (b.minor -. a.minor) ops);
    ("gc.major_collections", fi (b.majors - a.majors));
  ]

(* The store after the workload, before the crash. *)
let store_values h ~traced =
  ("mem_bytes_per_key", per (fi (Hart.dram_bytes h + Hart.pm_bytes h)) (fi (Hart.count h)))
  ::
  (if not traced then []
   else
     let s = Hart_stats.collect h in
     let keys = fi s.keys in
     let vals = [ s.val8_class; s.val16_class; s.val32_class ] in
     let sum f = fi (List.fold_left (fun a c -> a + f c) 0 vals) in
     [
       ("hart.dram_bytes_per_key", per (fi s.dram_bytes) keys);
       ("hart.pm_bytes_per_key", per (fi s.pm_bytes) keys);
       ("hart.arts", fi s.arts);
       ("hart.max_art_height", fi s.max_art_height);
       ("epalloc.leaf_occupancy", s.leaf_class.occupancy);
       ("epalloc.value_occupancy", per (sum (fun c -> c.live_objects)) (sum (fun c -> c.capacity)));
     ])

(* The end of every run: crash, recover, check; the recovery metrics
   and the failures found. *)
let finish pool ~traced ~cap0 ~keys ~tags ~ver =
  let grew = Pmem.capacity pool <> cap0 in
  if grew then prerr_endline "error: the pool grew during the run (pre-size it)";
  let rc = Verify.crash_and_recover ~traced pool in
  let lost = Verify.lost rc.hart ~keys ~tags ~ver in
  if lost > 0 then Printf.eprintf "error: %d acknowledged write(s) lost or wrong after recovery\n" lost;
  let intact = Verify.integrity_ok rc.hart in
  if not intact then prerr_endline "error: Hart.check_integrity failed after recovery";
  let values =
    [
      ("recover_sim_ms", rc.sim_ms);
      ("hart.recover_s", rc.serial_s);
      ("hart.recover_2d_s", rc.parallel_s);
      ("hart.recover_pm_reads_per_key", per (fi rc.pm_reads) (fi (Hart.count rc.hart)));
    ]
  in
  (rc.hart, values, lost + Bool.to_int grew + Bool.to_int (not intact))

(* ------------------------------------------------------------------ *)
(* Server workloads                                                     *)

let run_server name (s : Workload.server) cfg =
  let parts = Workload.parts in
  let windows = if cfg.traced then [ cfg.seconds /. 2.; cfg.seconds /. 2. ] else [ cfg.seconds ] in
  let count win =
    let sends = Float.ceil ((cfg.warmup +. win) *. fi s.rate /. fi (parts * s.per_send)) in
    int_of_float sends * s.per_send
  in
  let peak_n = if cfg.traced then s.peak_ops / parts else 0 in
  let inp = Workload.server_inputs s ~seed:cfg.seed ~n:(List.fold_left (fun a w -> a + count w) peak_n windows) in
  let ks = inp.ks in
  let setup_s, (pool, mt) =
    setup ~capacity:(capacity (Array.length ks.keys)) ks.keys (Workload.preload_values ks)
  in
  let cap0 = Pmem.capacity pool and meter = Pmem.meter pool in
  let store = Server.store_of_hart mt and m = Loadgen.model inp in
  let streams = Array.init parts (fun c -> Loadgen.stream ~traced:cfg.traced c inp.plans.(c)) in
  let path = Filename.concat cfg.out (Printf.sprintf "hb-%d.sock" (Unix.getpid ())) in
  let mode win = Loadgen.Open { rate = s.rate; per_send = s.per_send; warmup = cfg.warmup; window = win } in
  let session ?logs f =
    Gc.full_major ();
    let srv = Serve.start ?logs ~path store in
    let conns = Array.map (Loadgen.connect ~path) streams in
    let x = f conns in
    Array.iter Loadgen.close conns;
    Serve.stop srv;
    (x, srv.stats, conns)
  in
  (* untraced: the fixed-rate window, then (traced runs only) the
     closed-loop peak pass *)
  let win1 = List.hd windows in
  let snaps = ref [] in
  let on_window _ = snaps := snap meter :: !snaps in
  let (r1, peak), _, _ =
    session (fun conns ->
        let r1 = Loadgen.run m conns (mode win1) ~count:(Array.make parts (count win1)) ~on_window in
        let peak =
          if not cfg.traced then None
          else
            Some
              (Loadgen.run m conns (Closed { window = s.peak_window }) ~count:(Array.make parts peak_n)
                 ~on_window:ignore)
        in
        (r1, peak))
  in
  let a, b = match !snaps with [ b; a ] -> (a, b) | _ -> (snap meter, snap meter) in
  let lag_p99 = Hist.p_us r1.lag_h 0.99 in
  if lag_p99 > 1000. then
    Printf.eprintf "warning: run invalid: generator lag p99 %.0f us exceeds 1 ms\n%!" lag_p99;
  (* traced: the second half-window through the instrumented accept loop *)
  let traced =
    if not cfg.traced then None
    else
      let win2 = List.nth windows 1 in
      let logs = Array.init parts (fun _ -> Serve.log ((2 * count win2) + 16)) in
      let r2, stats, conns =
        session ~logs (fun conns ->
            Loadgen.run m conns (mode win2) ~count:(Array.make parts (count win2)) ~on_window:ignore)
      in
      let tconns =
        List.init parts (fun c ->
            let cn = conns.(c) in
            { Trace.st = streams.(c); first = cn.Loadgen.first; stop = cn.replied; log = logs.(c) })
      in
      let spans =
        match cfg.spans with
        | Some f -> f
        | None -> Filename.concat cfg.out (Printf.sprintf "spans-%s-%d.tsv" name cfg.seed)
      in
      Trace.write_spans spans tconns ~t0:r2.t0 ~w0:r2.w0 ~w1:r2.w1;
      Printf.eprintf "spans written to %s\n%!" spans;
      let sets =
        List.fold_left
          (fun acc (tc : Trace.conn) ->
            let k = ref acc in
            for i = tc.first to tc.stop - 1 do
              if Bytes.get tc.st.plan.kind i = 'S' then incr k
            done;
            !k)
          0 tconns
      in
      Some (r2, Trace.summarise tconns ~w0:r2.w0 ~w1:r2.w1, sets, stats.Server.batches)
  in
  let store_vals = store_values (Hart_mt.underlying mt) ~traced:cfg.traced in
  let hart, rec_values, rec_failed =
    finish pool ~traced:cfg.traced ~cap0 ~keys:ks.keys ~tags:ks.tags ~ver:m.acked_ver
  in
  let p50_1 = Hist.p_us r1.read_h 0.5 in
  let layers =
    match (traced, peak) with
    | Some (r2, (t : Trace.summary), sets, batches), Some peak ->
        let reqs = fi t.requests in
        [
          ("loadgen.read_p50_us", p50_1);
          ("loadgen.write_p50_us", Hist.p_us r1.write_h 0.5);
          ("process.peak_ops_s", Est.high_rate (Loadgen.slice_rates peak));
          ("loadgen.lag_p99_us", lag_p99);
          ("loadgen.read_p99_us", Hist.p_us r1.read_h 0.99);
          ("loadgen.write_p99_us", Hist.p_us r1.write_h 0.99);
          ("loadgen.read_p999_us", Hist.p_us r1.read_h 0.999);
          ("loadgen.samples", fi (r1.read_h.n + r1.write_h.n));
          ("scheduler.wake_p50_us", Hist.p_us t.wake_h 0.5);
          ("transport.reads_per_op", per (fi t.reads) reqs);
          ("transport.writes_per_op", per (fi t.writes) reqs);
          ("transport.bytes_per_read", per (fi t.in_bytes) (fi t.reads));
          ("resp.parse_ns_per_req", per (fi t.parse_ns) (fi t.parsed));
          ("resp.reply_bytes_per_op", per (fi t.out_bytes) reqs);
          ("server.self_us_per_op", per (fi t.self_ns /. 1e3) reqs);
          ("server.ops_per_burst", per reqs (fi t.bursts));
          ("server.writes_per_batch", per (fi sets) (fi batches));
          ("hart_mt.get_p50_us", Hist.p_us t.get_h 0.5);
          ("hart_mt.batch_us_per_write", per (fi t.batch_ns /. 1e3) (fi t.batch_keys));
          ("hart_mt.scan_us_per_key", per (fi t.scan_ns /. 1e3) (fi t.scan_keys));
          ("trace.overhead_pct", 100. *. (Hist.p_us r2.read_h 0.5 -. p50_1) /. p50_1);
          ("trace.coverage_pct", t.coverage_pct);
        ]
    | _ -> []
  in
  let results =
    (r1 :: Option.to_list peak) @ match traced with Some (r2, _, _, _) -> [ r2 ] | None -> []
  in
  let sumf f = List.fold_left (fun acc (r : Loadgen.result) -> acc + f r) 0 results in
  {
    values =
      (("setup_s", setup_s) :: window_values a b ~ops:r1.win_ops ~user_bytes:r1.win_user_bytes)
      @ store_vals @ rec_values @ layers;
    attempted = sumf (fun r -> r.attempted) + Array.length ks.keys;
    failed = sumf (fun r -> r.failed) + rec_failed;
    hart;
    keys = ks.keys;
    tags = ks.tags;
    ver = m.acked_ver;
  }

(* ------------------------------------------------------------------ *)
(* idx-mixed-1d                                                         *)

let run_idx (x : Workload.idx) cfg =
  let n = int_of_float (Float.ceil ((cfg.warmup +. cfg.seconds) *. fi x.max_rate)) in
  let inp = Workload.idx_inputs x ~seed:cfg.seed ~n in
  let ks = inp.iks in
  let setup_s, (pool, mt) =
    setup ~capacity:(capacity (Array.length ks.keys)) ks.keys (Workload.preload_values ks)
  in
  let cap0 = Pmem.capacity pool and meter = Pmem.meter pool in
  let ver = Array.init (Array.length ks.keys) (fun k -> if k < ks.npre then 0 else -1) in
  let ws = List.init x.domains Idx.worker in
  let user_bytes () = List.fold_left (fun a (w : Idx.worker) -> a + w.user_bytes) 0 ws in
  Gc.full_major ();
  (* warm-up: part of each domain's op array, unmeasured *)
  ignore (Idx.run mt inp ver ws ~seconds:(Float.min cfg.warmup (cfg.seconds /. 4.)));
  let a = snap meter and bytes0 = user_bytes () in
  let ops, rates = Idx.run mt inp ver ws ~seconds:cfg.seconds in
  let b = snap meter in
  if List.exists (fun (w : Idx.worker) -> w.pos = Array.length inp.ops.(w.d)) ws then
    prerr_endline "warning: an op array ran out before the window ended";
  let p50 kind = Hist.p_us (Idx.hist ws kind) 0.5 in
  let store_vals = store_values (Hart_mt.underlying mt) ~traced:cfg.traced in
  let hart, rec_values, rec_failed = finish pool ~traced:cfg.traced ~cap0 ~keys:ks.keys ~tags:ks.tags ~ver in
  let layers =
    if not cfg.traced then []
    else
      [
        ("process.peak_ops_s", Est.high_rate rates);
        ("hart_mt.search_p50_us", p50 Workload.op_search);
        ("hart_mt.insert_p50_us", p50 Workload.op_insert);
        ("hart_mt.update_p50_us", p50 Workload.op_update);
        ("hart_mt.delete_p50_us", p50 Workload.op_delete);
      ]
  in
  {
    values =
      (("setup_s", setup_s) :: window_values a b ~ops ~user_bytes:(user_bytes () - bytes0))
      @ store_vals @ rec_values @ layers;
    attempted = Idx.ops_done ws + Array.length ks.keys;
    failed = List.fold_left (fun a (w : Idx.worker) -> a + w.failed) 0 ws + rec_failed;
    hart;
    keys = ks.keys;
    tags = ks.tags;
    ver;
  }

let run (w : Workload.t) cfg =
  match w.shape with Server s -> run_server w.name s cfg | Idx x -> run_idx x cfg

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let metrics (o : outcome) ~traced =
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name o.values) ~default:0., unit))
    (if traced then per_layer else end_to_end)

let result_json o ~traced =
  let ms = metrics o ~traced in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) ms in
  let body =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n (if Float.is_finite v then v else 0.) u)
      ms
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && finite) o.attempted o.failed (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* Smoke test                                                           *)

(* Every workload at about 1% size in both modes: every named metric
   present and finite, no failure; then the checker must catch a
   corrupted GET reply and a dropped acknowledged write. *)
let smoke out =
  let errors = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr errors;
        prerr_endline ("smoke: " ^ s))
      fmt
  in
  List.iter
    (fun w ->
      let w = Workload.smoke w in
      List.iter
        (fun traced ->
          let cfg = { seed = 1; seconds = 0.3; warmup = 0.1; traced; out; spans = None } in
          let o = run w cfg in
          List.iter
            (fun (name, _) ->
              match List.assoc_opt name o.values with
              | Some v when Float.is_finite v -> ()
              | Some _ -> fail "%s: %s is not finite" w.name name
              | None ->
                  (* per-layer metrics of layers the workload bypasses read 0 *)
                  if not traced then fail "%s: %s missing" w.name name)
            (if traced then per_layer else end_to_end);
          if o.failed <> 0 then fail "%s: %d failed op(s)" w.name o.failed;
          (* a dropped acknowledged write: expect a version never written *)
          let k = Array.length o.keys / 2 in
          let ver = Array.copy o.ver in
          ver.(k) <- ver.(k) + 1;
          if Verify.lost o.hart ~keys:o.keys ~tags:o.tags ~ver = 0 then
            fail "%s: a dropped acknowledged write went unnoticed" w.name;
          Printf.printf "smoke %s trace=%b: %d metrics, %d ops\n%!" w.name traced
            (List.length (metrics o ~traced)) o.attempted)
        [ false; true ])
    Workload.all;
  (* a corrupted GET reply: the right framing, another key's value *)
  (match (Workload.smoke (Option.get (Workload.find "srv-get-hot"))).shape with
  | Server s ->
      let inp = Workload.server_inputs s ~seed:1 ~n:64 in
      let m = Loadgen.model inp and plan = inp.plans.(0) in
      let st = Loadgen.stream 0 plan in
      let i = ref 0 in
      while Bytes.get plan.kind !i <> 'G' do
        incr i
      done;
      let k = plan.key.(!i) in
      Loadgen.on_send m st !i;
      let accepts reply =
        let b = Bytes.of_string reply in
        Loadgen.check m st !i b 0 (Bytes.length b)
      in
      let bulk v = Printf.sprintf "$%d\r\n%s\r\n" (String.length v) v in
      if not (accepts (bulk (Gen.value inp.ks.tags.(k) 0))) then fail "a correct GET reply was rejected";
      if accepts (bulk (Gen.value inp.ks.tags.((k + 1) mod inp.ks.npre) 0)) then
        fail "a GET reply with another key's value was accepted";
      if accepts (bulk (Gen.value inp.ks.tags.(k) 7)) then fail "a GET reply with an unwritten version was accepted";
      if accepts "$-1\r\n" then fail "a null reply for a preloaded key was accepted"
  | Idx _ -> ());
  if !errors > 0 then exit 1;
  print_endline "smoke: all workloads ok"

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let usage () =
  prerr_endline
    "usage: hartbench --workload NAME --seed S [--seconds N] [--trace 0|1] [--spans FILE] [--json FILE] \
     [--out DIR]\n       hartbench --smoke [--out DIR]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref default_seconds and traced = ref false in
  let spans = ref None and json = ref None and out = ref "benchmark/out" and smoke_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        traced := v = "1";
        parse rest
    | "--spans" :: v :: rest ->
        spans := Some v;
        parse rest
    | "--json" :: v :: rest ->
        json := Some v;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--smoke" :: rest ->
        smoke_mode := true;
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  (* a peer that vanishes must surface as EPIPE, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p !out;
  if !smoke_mode then smoke !out
  else
    match Workload.find !workload with
    | None -> usage ()
    | Some w ->
        let cfg =
          { seed = !seed; seconds = !seconds; warmup = warmup_s; traced = !traced; out = !out; spans = !spans }
        in
        let o = run w cfg in
        List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) (metrics o ~traced:cfg.traced);
        let j = result_json o ~traced:cfg.traced in
        Option.iter (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (j ^ "\n"))) !json;
        print_endline j;
        if o.failed > 0 then exit 1
