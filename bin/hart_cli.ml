(* hart_cli — a persistent key-value store CLI over HART.

   The simulated PM pool is saved to / loaded from a host file, so data
   survives across invocations the way a PM device survives reboots:
   every run that opens an existing store exercises HART's recovery path
   (Algorithm 7).

   Examples:
     hart_cli set user:1 alice --db /tmp/store.pm
     hart_cli get user:1 --db /tmp/store.pm
     hart_cli range user: user:~ --db /tmp/store.pm
     hart_cli bench --records 50000 --db /tmp/store.pm
     hart_cli stats --db /tmp/store.pm *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hart = Hart_core.Hart
module Hart_error = Hart_core.Hart_error
open Cmdliner

let open_store db =
  let meter = Meter.create Latency.c300_300 in
  if Sys.file_exists db then begin
    let pool = Pmem.load meter db in
    (pool, Hart.recover pool)
  end
  else
    let pool = Pmem.create meter in
    (pool, Hart.create pool)

let close_store pool db =
  Pmem.persist_all pool;
  Pmem.save pool db

let db_arg =
  let doc = "Path of the persistent pool image." in
  Arg.(value & opt string "hart.pm" & info [ "db" ] ~docv:"FILE" ~doc)

let ok_or_die = function
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1

let wrap f db =
  ok_or_die
    (try
       let pool, hart = open_store db in
       let r = f pool hart in
       close_store pool db;
       r
     with
    | Hart_error.Error e -> Error (Hart_error.to_string e)
    | Invalid_argument m | Failure m -> Error m
    | Sys_error m -> Error m)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let set_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let value = Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE") in
  let run key value db =
    wrap
      (fun _ hart ->
        Hart.insert hart ~key ~value;
        Ok ())
      db
  in
  Cmd.v
    (Cmd.info "set" ~doc:"Insert or update a key (1-24 byte key, 0-31 byte value).")
    Term.(const run $ key $ value $ db_arg)

let get_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let run key db =
    wrap
      (fun _ hart ->
        match Hart.search hart key with
        | Some v ->
            print_endline v;
            Ok ()
        | None -> Error (Printf.sprintf "key %S not found" key))
      db
  in
  Cmd.v (Cmd.info "get" ~doc:"Look a key up.") Term.(const run $ key $ db_arg)

let del_cmd =
  let key = Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY") in
  let run key db =
    wrap
      (fun _ hart ->
        if Hart.delete hart key then Ok ()
        else Error (Printf.sprintf "key %S not found" key))
      db
  in
  Cmd.v (Cmd.info "del" ~doc:"Delete a key.") Term.(const run $ key $ db_arg)

let range_cmd =
  let lo = Arg.(required & pos 0 (some string) None & info [] ~docv:"LO") in
  let hi = Arg.(required & pos 1 (some string) None & info [] ~docv:"HI") in
  let run lo hi db =
    wrap
      (fun _ hart ->
        Hart.range hart ~lo ~hi (fun k v -> Printf.printf "%s\t%s\n" k v);
        Ok ())
      db
  in
  Cmd.v
    (Cmd.info "range" ~doc:"List keys in [LO, HI] in order.")
    Term.(const run $ lo $ hi $ db_arg)

let list_cmd =
  let run db =
    wrap
      (fun _ hart ->
        Hart.iter hart (fun k v -> Printf.printf "%s\t%s\n" k v);
        Ok ())
      db
  in
  Cmd.v (Cmd.info "list" ~doc:"Dump every binding.") Term.(const run $ db_arg)

let stats_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Full structural statistics.")
  in
  let run verbose db =
    wrap
      (fun pool hart ->
        if verbose then
          Format.printf "%a@." Hart_core.Hart_stats.pp
            (Hart_core.Hart_stats.collect hart)
        else begin
          Printf.printf "keys            %d\n" (Hart.count hart);
          Printf.printf "ARTs            %d\n" (Hart.art_count hart);
          Printf.printf "hash-key bytes  %d\n" (Hart.kh hart);
          Printf.printf "PM bytes        %d\n" (Hart.pm_bytes hart);
          Printf.printf "DRAM bytes      %d\n" (Hart.dram_bytes hart)
        end;
        let c = Meter.counters (Pmem.meter pool) in
        Printf.printf "session events  %d flushes, %d allocations, %.1f us simulated\n"
          c.Meter.flushes c.Meter.pm_allocs (c.Meter.sim_ns /. 1000.);
        Hart.check_integrity hart;
        Printf.printf "integrity       OK\n";
        Ok ())
      db
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show store statistics and verify integrity.")
    Term.(const run $ verbose $ db_arg)

let bench_cmd =
  let records =
    Arg.(value & opt int 10_000 & info [ "records" ] ~docv:"N" ~doc:"Records to load.")
  in
  let run records db =
    wrap
      (fun pool hart ->
        let keys = Hart_workloads.Keygen.generate Hart_workloads.Keygen.Random records in
        let t0 = Meter.sim_ns (Pmem.meter pool) in
        Array.iteri
          (fun i key ->
            Hart.insert hart ~key ~value:(Hart_workloads.Keygen.value_for i))
          keys;
        let dt = Meter.sim_ns (Pmem.meter pool) -. t0 in
        Printf.printf "loaded %d records in %.3f simulated s (%.3f us/op)\n" records
          (dt /. 1e9)
          (dt /. float_of_int records /. 1000.);
        Ok ())
      db
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Bulk-load random records and report simulated cost.")
    Term.(const run $ records $ db_arg)

let parallel_cmd =
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale the per-phase operation count (default 200k ops).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as JSON (BENCH_parallel.json format).")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "Fail (exit 1) unless uniform-insert throughput at \
             $(b,--speedup-domains) domains is at least X times the \
             1-domain figure. Skipped with a logged notice when the host \
             reports fewer usable cores than that domain count.")
  in
  let speedup_domains =
    Arg.(
      value & opt int 4
      & info [ "speedup-domains" ] ~docv:"N"
          ~doc:"Domain count the $(b,--min-speedup) threshold applies to.")
  in
  let run scale json min_speedup speedup_domains =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else begin
         let threshold =
           Option.map (fun x -> (speedup_domains, x)) min_speedup
         in
         match Hart_harness.Exp_parallel.run ?json_path:json ?threshold ~scale () with
         | () -> Ok ()
         | exception Failure msg -> Error msg
       end)
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Measure wall-clock multi-domain scalability of the concurrent \
          HART front end (uniform and Zipf key mixes, 1-8 domains). Real \
          [Domain.spawn] timings, not the simulated clock.")
    Term.(const run $ scale $ json $ min_speedup $ speedup_domains)

let ycsb_cmd =
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale the preload size (default 20k records, 2x ops).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as JSON (BENCH_ycsb.json format).")
  in
  let run scale json =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else
         match Hart_harness.Exp_ycsb.run ?json_path:json ~scale () with
         | () -> Ok ()
         | exception Failure msg -> Error msg)
  in
  Cmd.v
    (Cmd.info "ycsb"
       ~doc:
         "Run the six YCSB core workloads (A-F) over every index in the \
          repo, plus request-skew, composite-key and delete-churn \
          variants, on the simulated clock.")
    Term.(const run $ scale $ json)

let recovery_cmd =
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale the pool sizes (default 50k/200k/1M keys).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as JSON (BENCH_recovery.json format).")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:
            "Fail (exit 1) unless recovery at $(b,--speedup-domains) \
             domains on the largest pool is at least X times faster than \
             serial. Skipped with a logged notice when the host reports \
             fewer usable cores than that domain count.")
  in
  let speedup_domains =
    Arg.(
      value & opt int 4
      & info [ "speedup-domains" ] ~docv:"N"
          ~doc:"Domain count the $(b,--min-speedup) threshold applies to.")
  in
  let run scale json min_speedup speedup_domains =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else begin
         let threshold =
           Option.map (fun x -> (speedup_domains, x)) min_speedup
         in
         match
           Hart_harness.Exp_recovery.run_parallel ?json_path:json ?threshold
             ~scale ()
         with
         | () -> Ok ()
         | exception Failure msg -> Error msg
       end)
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Measure wall-clock parallel recovery (Hart.recover_parallel) \
          against pool size at 1-8 domains, verifying every rebuild \
          against the original contents. Real [Domain.spawn] timings.")
    Term.(const run $ scale $ json $ min_speedup $ speedup_domains)

let art_nodes_cmd =
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale the key counts (default 100k and 1M keys).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as JSON (BENCH_art_nodes.json format).")
  in
  let min_lookup_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-lookup-speedup" ] ~docv:"X"
          ~doc:
            "Fail (exit 1) unless uniform-random search on the bitmap \
             layer at the largest key count is at least X times faster \
             (wall clock) than the boxed layer. Skipped with a logged \
             notice when the scaled sizes are too small to time \
             meaningfully.")
  in
  let run scale json min_lookup_speedup =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else
         match
           Hart_harness.Exp_art_nodes.run ?json_path:json
             ?lookup_threshold:min_lookup_speedup ~scale ()
         with
         | () -> Ok ()
         | exception Failure msg -> Error msg)
  in
  Cmd.v
    (Cmd.info "art-nodes"
       ~doc:
         "Benchmark the bitmap ART node layer against the retained boxed \
          layer: wall-clock ns/op for insert, search, delete and range at \
          100k-1M keys, plus simulated ns/op as a cost-model fidelity \
          check (the two layers must agree exactly).")
    Term.(const run $ scale $ json $ min_lookup_speedup)

(* ------------------------------------------------------------------ *)
(* serve / loadgen                                                     *)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt string "/tmp/hart.sock"
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket path to listen on.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains for the wall-clock executor (default: the \
             host's recommended domain count, capped at 8).")
  in
  let run socket domains db =
    wrap
      (fun _pool hart ->
        let mt = Hart_core.Hart_mt.of_hart hart in
        let store = Hart_server.Server.store_of_hart mt in
        let wall = Hart_async.Scheduler.Wall.create () in
        let stats = { Hart_server.Server.commands = 0; batches = 0 } in
        let srv = Hart_server.Server.serve_unix ~stats ~wall ~path:socket store in
        Printf.printf "serving %s on %s (%d key(s) loaded; ctrl-C to stop)\n%!"
          db socket (Hart.count hart);
        Sys.set_signal Sys.sigint
          (Sys.Signal_handle
             (fun _ -> try Unix.close srv with Unix.Unix_error _ -> ()));
        Hart_async.Scheduler.Wall.run ?domains wall;
        Printf.printf "\nserved %d command(s) in %d write batch(es); saving %s\n%!"
          stats.Hart_server.Server.commands stats.Hart_server.Server.batches db;
        Ok ())
      db
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the store over a Unix-domain socket speaking a RESP subset \
          (GET/SET/DEL/SCAN/PING/QUIT), with per-connection fibers, request \
          pipelining and per-stripe write batching on the concurrent front \
          end. Ctrl-C stops accepting, drains live connections and saves \
          the pool image back to $(b,--db).")
    Term.(const run $ socket $ domains $ db_arg)

let loadgen_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Aim at a running server ($(b,hart_cli serve)) on this socket. \
             Default: an in-process loopback store, freshly preloaded.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale the per-connection request count (default 20k).")
  in
  let conns =
    Arg.(
      value
      & opt (some string) None
      & info [ "conns" ] ~docv:"N,N,..."
          ~doc:"Connection counts to sweep (default 1,2,4).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Also write the results as JSON (BENCH_server.json format).")
  in
  let run socket scale conns json =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else begin
         let conn_counts =
           Option.map
             (fun s ->
               List.map
                 (fun w ->
                   match int_of_string_opt w with
                   | Some n when n > 0 -> n
                   | Some _ | None ->
                       failwith
                         (Printf.sprintf "bad --conns element %S" w))
                 (String.split_on_char ',' s))
             conns
         in
         let target =
           match socket with
           | None -> Hart_harness.Exp_server.Loopback
           | Some p -> Hart_harness.Exp_server.Socket p
         in
         match
           Hart_harness.Exp_server.run ?json_path:json ?conn_counts ~target
             ~scale ()
         with
         | (_ : Hart_harness.Exp_server.run_result list) -> Ok ()
         | exception Failure msg -> Error msg
       end)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop load generator for the KV service: fixed request \
          schedule at 70% of a per-run calibrated rate, latency measured \
          from scheduled send to reply (queueing delay included), reported \
          as throughput plus p50/p99/p999 per connection count.")
    Term.(const run $ socket $ scale $ conns $ json)

(* ------------------------------------------------------------------ *)
(* fsck / scrub                                                        *)

let finding_json (f : Hart_error.finding) =
  let open Hart_harness.Report.Json in
  Obj
    [
      ("site", Str (Format.asprintf "%a" Hart_error.pp_site f.Hart_error.f_site));
      ("action", Str (Hart_error.action_name f.Hart_error.f_action));
      ("detail", Str f.Hart_error.f_detail);
      ("keys", List (List.map (fun k -> Str k) f.Hart_error.f_keys));
      ("capacity", Int f.Hart_error.f_capacity);
    ]

let integrity_report ~tool ~db hart findings =
  let repaired, quarantined, detected = Hart_error.partition findings in
  let open Hart_harness.Report.Json in
  Obj
    [
      ("tool", Str tool);
      ("db", Str db);
      ("keys", Int (Hart.count hart));
      ("checksums", Bool (Hart.checksums hart));
      ("clean", Bool (findings = []));
      ("repaired", Int (List.length repaired));
      ("quarantined", Int (List.length quarantined));
      ("detected", Int (List.length detected));
      ("findings", List (List.map finding_json findings));
    ]

let integrity_cmd ~tool ~doc ~deep =
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:
            "Write the integrity report as a JSON object to $(docv) \
             (findings, partition counts, a $(b,clean) flag).")
  in
  let run json_out db =
    ok_or_die
      (try
         if not (Sys.file_exists db) then
           Error (Printf.sprintf "no store at %s" db)
         else begin
           let pool = Pmem.load (Meter.create Latency.c300_300) db in
           (* a quarantining mount: media faults in the image become
              findings instead of aborting the check *)
           let hart = Hart.recover ~quarantine:true pool in
           let findings =
             Hart.quarantines hart
             @ (if deep then Hart.fsck ~deep:true hart else Hart.scrub hart)
           in
           List.iter
             (fun f -> Format.printf "%a@." Hart_error.pp_finding f)
             findings;
           let repaired, quarantined, detected =
             Hart_error.partition findings
           in
           Printf.printf
             "%s: %d key(s), %d finding(s) — %d repaired, %d quarantined, %d \
              detected\n"
             tool (Hart.count hart) (List.length findings)
             (List.length repaired) (List.length quarantined)
             (List.length detected);
           (match json_out with
           | None -> ()
           | Some path ->
               Hart_harness.Report.Json.write path
                 (integrity_report ~tool ~db hart findings));
           (* repairs were persisted into the pool as they were made;
              write the healed image back *)
           close_store pool db;
           if detected = [] then Ok ()
           else
             Error
               (Printf.sprintf "%d finding(s) detected but not repairable"
                  (List.length detected))
         end
       with
      | Hart_error.Error e -> Error (Hart_error.to_string e)
      | Pmem.Media_poisoned { off; line } ->
          Error
            (Printf.sprintf "poisoned media line %d (offset %d): pool \
                             unreadable" line off)
      | Invalid_argument m | Failure m | Sys_error m -> Error m)
  in
  Cmd.v (Cmd.info tool ~doc) Term.(const run $ json_out $ db_arg)

let fsck_cmd =
  integrity_cmd ~tool:"fsck" ~deep:true
    ~doc:
      "Check and self-heal a store image: quarantining mount, media \
       attribution, cross-structure invariants and the deep checksum walk. \
       Repairs are written back; exit is nonzero only when unrepairable \
       corruption remains."

let scrub_cmd =
  integrity_cmd ~tool:"scrub" ~deep:false
    ~doc:
      "Online integrity pass: fsck without the deep checksum walk — the \
       cheap scan a store would run periodically."

let fault_cmd =
  let workload =
    let all = List.map (fun (n, _, _) -> n) Hart_fault.Fault.builtin_workloads in
    let doc =
      Printf.sprintf
        "Workload to sweep (one of %s); omit to run the full gate."
        (String.concat ", " all)
    in
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc)
  in
  let target =
    let all =
      List.map
        (fun t -> t.Hart_fault.Fault.target_name)
        Hart_fault.Fault.all_targets
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Index to sweep (one of %s); omit for all."
               (String.concat ", " all)))
  in
  let torn =
    Arg.(
      value
      & opt (some int64) None
      & info [ "torn" ] ~docv:"SEED"
          ~doc:
            "Also evict a pseudo-random half of the dirty lines at each \
             crash, seeded with $(docv).")
  in
  let adversarial =
    Arg.(
      value & flag
      & info [ "adversarial" ]
          ~doc:
            "Adversarial torn sweep: one pass evicting exactly the \
             commit-point line the crash interrupted, then several \
             random-subset passes with derived seeds. Overrides \
             $(b,--torn).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"PATH"
          ~doc:
            "Write every violating schedule's replay coordinates as a \
             JSON array to $(docv) (an empty sweep writes []); meant \
             for CI to diff against an empty baseline.")
  in
  let no_nested =
    Arg.(
      value & flag
      & info [ "no-nested" ] ~doc:"Skip crash-during-recovery schedules.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:
            "Snapshot the pool every $(docv) flushes of the dry run and \
             replay each crash schedule from the nearest snapshot instead \
             of re-executing the whole prefix (O(F·K) instead of O(F²)).")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
        ~doc:
          "Collect and report every violating schedule instead of \
           stopping at the first; exit nonzero if any were found.")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "With $(docv) > 1, run the deterministic concurrent \
             explorer instead: $(docv) simulated domains (2-4) drive \
             the concurrent HART front end under a seed-replayable \
             interleaving, every flush boundary is crashed with \
             operations in flight, and recovery is checked against the \
             linearization-set oracle.")
  in
  let index =
    let all =
      List.map
        (fun t -> t.Hart_fault.Fault_mt.mt_name)
        Hart_fault.Fault_mt.all_mt_targets
    in
    Arg.(
      value & opt string "hart"
      & info [ "index" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Concurrent index for the $(b,--domains) sweep (one of %s)."
               (String.concat ", " all)))
  in
  let nested_mt =
    Arg.(
      value & flag
      & info [ "nested-mt" ]
          ~doc:
            "With $(b,--domains) > 1, also re-crash every passing \
             schedule's single-domain recovery at each of its own flush \
             boundaries, recover again, and check the doubly-recovered \
             state against the same linearization-set oracle.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "With $(b,--domains) > 1, delta-debug any violating workload \
             to a locally minimal reproducer (fewer domains, ops, keys; \
             canonical seed), re-verifying each candidate by \
             deterministic replay, and attach the shrunk (seed, \
             schedule, workload) coordinates to the violation (implies \
             $(b,--keep-going) for the concurrent sweep).")
  in
  let mt_workload =
    Arg.(
      value & opt string "default"
      & info [ "mt-workload" ] ~docv:"KIND"
          ~doc:
            "Workload for the $(b,--domains) sweep: $(b,default) \
             (disjoint per-domain prefixes), $(b,collide) (scripted \
             same-stripe collisions), $(b,split-race) (one FPTree leaf \
             driven past capacity so splits race fresh writers; pair \
             with $(b,--index fptree)), or $(b,gen) (seeded random op \
             mix, swept over $(b,--gen-seeds) seeds).")
  in
  let server =
    Arg.(
      value & flag
      & info [ "server" ]
          ~doc:
            "Deterministic simulation test of the full KV server stack: \
             $(b,--clients) pipelined RESP sessions drive per-connection \
             server fibers through a seeded simulated network (arbitrary \
             fragmentation, partial writes, mid-session drops) over the \
             concurrent HART; every flush boundary is crashed with \
             requests in flight in every layer, recovered, and checked \
             against a session-linearizability oracle (ack implies \
             durable; unacked operations land as an admissible subset). \
             Sweeps a clean-session and a dropped-session workload, in \
             Clean mode plus Torn when $(b,--torn) is given.")
  in
  let clients =
    Arg.(
      value & opt int 2
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Concurrent client sessions for the $(b,--server) sweep \
             (2-4).")
  in
  let gen_seeds =
    Arg.(
      value & opt int 3
      & info [ "gen-seeds" ] ~docv:"N"
          ~doc:
            "With $(b,--mt-workload gen), sweep $(docv) generated \
             workloads seeded $(b,--seed), $(b,--seed)+1, ...")
  in
  let seed =
    Arg.(
      value & opt int64 42L
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Interleaving seed for $(b,--domains); a (seed, schedule) \
             pair names one exact execution.")
  in
  let max_schedules =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-schedules" ] ~docv:"M"
          ~doc:
            "Evenly subsample the $(b,--domains) sweep to at most \
             $(docv) crash schedules (CI budget); omit for the \
             exhaustive sweep.")
  in
  let media_faults =
    Arg.(
      value & opt int 0
      & info [ "media-faults" ] ~docv:"N"
          ~doc:
            "With $(docv) > 0, run the media-fault sweep instead: \
             $(docv) seeded corruption sites (bit flips, line clobbers, \
             stuck-at lines, poisoned reads) per target x workload, each \
             mounted fault-tolerantly and checked against the oracle — \
             every injected fault must be repaired, quarantined-and-\
             reported, or raise a typed error; a silent wrong answer is \
             a violation. Targets default to the media roster (all \
             indexes plus checksummed HART).")
  in
  let media_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "media-json" ] ~docv:"PATH"
          ~doc:
            "With $(b,--media-faults), also write the full per-site \
             sweep reports as JSON to $(docv) (FAULT_media.json \
             format).")
  in
  let run workload target torn adversarial json_out no_nested checkpoint_every
      keep_going domains index nested_mt shrink mt_workload gen_seeds seed
      max_schedules media_faults media_json server clients =
    ok_or_die
      (try
         if server then begin
           if clients < 1 || clients > 4 then
             failwith "--clients supports 1-4 simulated sessions";
           let keep_going = keep_going || shrink in
           let modes =
             match torn with
             | None -> [ Hart_pmem.Pmem.Clean ]
             | Some tseed ->
                 [
                   Hart_pmem.Pmem.Clean;
                   Hart_pmem.Pmem.Torn { seed = tseed; fraction = 0.5 };
                 ]
           in
           let workloads =
             let setup, scripts =
               Hart_fault.Fault_server.default_workload ~clients
                 ~ops_per_client:28
             in
             let dsetup, dscripts, drops =
               Hart_fault.Fault_server.drop_workload ~clients
                 ~ops_per_client:28
             in
             [
               ("srv-default", setup, scripts, None);
               ("srv-drop", dsetup, dscripts, Some drops);
             ]
           in
           let reports =
             List.concat_map
               (fun mode ->
                 List.map
                   (fun (name, setup, scripts, drops) ->
                     let r =
                       Hart_fault.Fault_server.explore ~mode ~keep_going
                         ?max_schedules ?drops ~seed ~clients ~workload:name
                         ~setup scripts
                     in
                     Format.printf "%a@." Hart_fault.Fault_server.pp_report r;
                     if
                       shrink && drops = None
                       && r.Hart_fault.Fault_server.violations <> []
                     then begin
                       match
                         Hart_fault.Fault_server.shrink ~mode ~seed ~setup
                           scripts
                       with
                       | None ->
                           Format.printf
                             "shrink: violation did not reproduce under \
                              replay@.";
                           r
                       | Some s ->
                           Format.printf
                             "shrink: %d candidate replays, %d accepted@.%a@."
                             s.Hart_fault.Fault_mt.s_checks
                             s.Hart_fault.Fault_mt.s_accepted
                             Hart_fault.Fault.pp_repro
                             s.Hart_fault.Fault_mt.s_repro;
                           {
                             r with
                             Hart_fault.Fault_server.violations =
                               List.map
                                 (fun v ->
                                   {
                                     v with
                                     Hart_fault.Fault.v_repro =
                                       Some s.Hart_fault.Fault_mt.s_repro;
                                   })
                                 r.Hart_fault.Fault_server.violations;
                           }
                     end
                     else r)
                   workloads)
               modes
           in
           let vs =
             List.concat_map
               (fun r -> r.Hart_fault.Fault_server.violations)
               reports
           in
           (match json_out with
           | None -> ()
           | Some path ->
               let oc = open_out path in
               output_string oc (Hart_fault.Fault.violation_list_json vs);
               close_out oc);
           match vs with
           | [] ->
               print_endline "all server crash schedules consistent";
               Ok ()
           | vs ->
               List.iter
                 (fun v ->
                   Printf.eprintf "violation: %s\n"
                     (Hart_fault.Fault.violation_message v))
                 vs;
               Error
                 (Printf.sprintf "%d violating schedule(s)" (List.length vs))
         end
         else if domains > 1 then begin
           if domains > 4 then failwith "--domains supports 2-4 simulated domains";
           let mode =
             match torn with
             | None -> Hart_pmem.Pmem.Clean
             | Some seed -> Hart_pmem.Pmem.Torn { seed; fraction = 0.5 }
           in
           let mt_target =
             match Hart_fault.Fault_mt.find_mt_target index with
             | Some t -> t
             | None -> failwith (Printf.sprintf "unknown concurrent index %S" index)
           in
           let workloads =
             match mt_workload with
             | "default" ->
                 [
                   ( "mt-default",
                     Hart_fault.Fault_mt.default_workload ~domains
                       ~ops_per_domain:6 );
                 ]
             | "collide" ->
                 [
                   ( "mt-collide",
                     Hart_fault.Fault_mt.collide_workload ~domains
                       ~ops_per_domain:6 );
                 ]
             | "split-race" ->
                 [
                   ( "mt-split-race",
                     Hart_fault.Fault_mt.split_race_workload ~domains
                       ~ops_per_domain:6 );
                 ]
             | "gen" ->
                 List.init (max 1 gen_seeds) (fun k ->
                     let s = Int64.add seed (Int64.of_int k) in
                     ( Printf.sprintf "mt-gen#%Ld" s,
                       Hart_fault.Fault_mt.gen_workload ~seed:s ~domains
                         ~ops_per_domain:6 ))
             | w ->
                 failwith
                   (Printf.sprintf
                      "unknown --mt-workload %S (default, collide, \
                       split-race, gen)" w)
           in
           let keep_going = keep_going || shrink in
           let reports =
             List.map
               (fun (name, (setup, scripts)) ->
                 let r =
                   Hart_fault.Fault_mt.explore ~target:mt_target ~mode
                     ~keep_going ~nested:nested_mt ?max_schedules
                     ?checkpoint_every ~seed ~domains ~workload:name ~setup
                     scripts
                 in
                 Format.printf "%a@." Hart_fault.Fault_mt.pp_report r;
                 let r =
                   if shrink && r.Hart_fault.Fault_mt.violations <> [] then begin
                     match
                       Hart_fault.Fault_mt.shrink ~target:mt_target ~mode
                         ?checkpoint_every ~seed ~setup scripts
                     with
                     | None ->
                         Format.printf
                           "shrink: violation did not reproduce under \
                            replay@.";
                         r
                     | Some s ->
                         Format.printf
                           "shrink: %d candidate replays, %d accepted@.%a@."
                           s.Hart_fault.Fault_mt.s_checks
                           s.Hart_fault.Fault_mt.s_accepted
                           Hart_fault.Fault.pp_repro
                           s.Hart_fault.Fault_mt.s_repro;
                         {
                           r with
                           Hart_fault.Fault_mt.violations =
                             List.map
                               (fun v ->
                                 {
                                   v with
                                   Hart_fault.Fault.v_repro =
                                     Some s.Hart_fault.Fault_mt.s_repro;
                                 })
                               r.Hart_fault.Fault_mt.violations;
                         }
                   end
                   else r
                 in
                 r)
               workloads
           in
           let vs =
             List.concat_map
               (fun r -> r.Hart_fault.Fault_mt.violations)
               reports
           in
           (match json_out with
           | None -> ()
           | Some path ->
               let oc = open_out path in
               output_string oc (Hart_fault.Fault.violation_list_json vs);
               close_out oc);
           match vs with
           | [] ->
               print_endline "all concurrent crash schedules consistent";
               Ok ()
           | vs ->
               List.iter
                 (fun v ->
                   Printf.eprintf "violation: %s\n"
                     (Hart_fault.Fault.violation_message v))
                 vs;
               Error (Printf.sprintf "%d violating schedule(s)" (List.length vs))
         end
         else if media_faults > 0 then begin
           let targets =
             match target with
             | None -> Hart_fault.Fault.media_targets
             | Some n -> (
                 match Hart_fault.Fault.find_target n with
                 | Some t -> [ t ]
                 | None -> failwith (Printf.sprintf "unknown target %S" n))
           in
           let workloads =
             match workload with
             | None -> Hart_fault.Fault.builtin_workloads
             | Some n -> (
                 match Hart_fault.Fault.find_workload n with
                 | Some w -> [ w ]
                 | None -> failwith (Printf.sprintf "unknown workload %S" n))
           in
           let reports =
             List.concat_map
               (fun t ->
                 List.map
                   (fun (name, setup, ops) ->
                     let r =
                       Hart_fault.Fault.explore_media ~sites:media_faults
                         ~base_seed:seed ~setup ~keep_going ~workload:name t
                         ops
                     in
                     Format.printf "%a@." Hart_fault.Fault.pp_media_report r;
                     r)
                   workloads)
               targets
           in
           (match media_json with
           | None -> ()
           | Some path ->
               let oc = open_out path in
               output_string oc (Hart_fault.Fault.media_reports_json reports);
               close_out oc);
           (match json_out with
           | None -> ()
           | Some path ->
               let oc = open_out path in
               output_string oc
                 (Hart_fault.Fault.media_violations_to_json reports);
               close_out oc);
           let vs =
             List.concat_map
               (fun r -> r.Hart_fault.Fault.m_violations)
               reports
           in
           match vs with
           | [] ->
               print_endline "no silent wrong answers under media faults";
               Ok ()
           | vs ->
               List.iter
                 (fun v ->
                   Printf.eprintf "violation: %s\n"
                     (Hart_fault.Fault.violation_message v))
                 vs;
               Error
                 (Printf.sprintf "%d silent-wrong-answer violation(s)"
                    (List.length vs))
         end
         else
         let targets =
           match target with
           | None -> Hart_fault.Fault.all_targets
           | Some n -> (
               match Hart_fault.Fault.find_target n with
               | Some t -> [ t ]
               | None -> failwith (Printf.sprintf "unknown target %S" n))
         in
         let workloads =
           match workload with
           | None -> Hart_fault.Fault.builtin_workloads
           | Some n -> (
               match Hart_fault.Fault.find_workload n with
               | Some w -> [ w ]
               | None -> failwith (Printf.sprintf "unknown workload %S" n))
         in
         let mode =
           match torn with
           | None -> Hart_pmem.Pmem.Clean
           | Some seed -> Hart_pmem.Pmem.Torn { seed; fraction = 0.5 }
         in
         let reports = ref [] in
         List.iter
           (fun t ->
             List.iter
               (fun (name, setup, ops) ->
                 let rs =
                   if adversarial then
                     Hart_fault.Fault.explore_adversarial
                       ~nested:(not no_nested) ~setup ?checkpoint_every
                       ~keep_going ~workload:name t ops
                   else
                     [
                       Hart_fault.Fault.explore ~mode ~nested:(not no_nested)
                         ~setup ?checkpoint_every ~keep_going ~workload:name t
                         ops;
                     ]
                 in
                 List.iter
                   (fun r -> Format.printf "%a@." Hart_fault.Fault.pp_report r)
                   rs;
                 reports := !reports @ rs)
               workloads)
           targets;
         (match json_out with
         | None -> ()
         | Some path ->
             let oc = open_out path in
             output_string oc (Hart_fault.Fault.violations_to_json !reports);
             close_out oc);
         let vs =
           List.concat_map (fun r -> r.Hart_fault.Fault.violations) !reports
         in
         match vs with
         | [] ->
             print_endline "all crash schedules consistent";
             Ok ()
         | vs ->
             List.iter
               (fun v ->
                 Printf.eprintf "violation: %s\n"
                   (Hart_fault.Fault.violation_message v))
               vs;
             Error (Printf.sprintf "%d violating schedule(s)" (List.length vs))
       with
      | Hart_fault.Fault.Violation msg -> Error msg
      | Failure msg -> Error msg)
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Exhaustively sweep crash schedules: crash at every flush boundary \
          of a scripted workload, recover, and check integrity plus \
          prefix-consistency against a model. Nonzero exit on the first \
          violating schedule (or, with $(b,--keep-going), after reporting \
          all of them).")
    Term.(
      const run $ workload $ target $ torn $ adversarial $ json_out $ no_nested
      $ checkpoint_every $ keep_going $ domains $ index $ nested_mt $ shrink
      $ mt_workload $ gen_seeds $ seed $ max_schedules $ media_faults
      $ media_json $ server $ clients)

let () =
  let commands =
    [
      set_cmd;
      get_cmd;
      del_cmd;
      range_cmd;
      list_cmd;
      stats_cmd;
      bench_cmd;
      parallel_cmd;
      ycsb_cmd;
      recovery_cmd;
      art_nodes_cmd;
      fault_cmd;
      fsck_cmd;
      scrub_cmd;
      serve_cmd;
      loadgen_cmd;
    ]
  in
  let names = List.map Cmd.name commands in
  let listing = String.concat ", " names in
  (* An unknown subcommand should name every available one, not just
     suggest near-misses; cmdliner resolves unambiguous prefixes, so
     only reject words that prefix no command at all. *)
  (if Array.length Sys.argv > 1 then
     let w = Sys.argv.(1) in
     if
       String.length w > 0
       && w.[0] <> '-'
       && not (List.exists (fun n -> String.starts_with ~prefix:w n) names)
     then begin
       Printf.eprintf "hart_cli: unknown command %S\navailable commands: %s\n"
         w listing;
       exit 124
     end);
  let doc = "persistent key-value store over HART (simulated PM)" in
  let info = Cmd.info "hart_cli" ~version:"1.0.0" ~doc in
  (* bare `hart_cli` shows the full help (which enumerates COMMANDS)
     instead of a bare usage error *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit (Cmd.eval' (Cmd.group info ~default commands))
