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

let exp_cmd =
  let module E = Hart_harness.Experiments in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME"
          ~doc:"Experiments to run, in order; omit to run all of them.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F"
          ~doc:"Scale every experiment's record, operation and pool counts.")
  in
  let json_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-dir" ] ~docv:"DIR"
          ~doc:
            "Write each experiment's JSON artifact to $(docv)/BENCH_NAME.json \
             and, when the run includes an experiment without one, every \
             printed table to $(docv)/BENCH_figs.json.")
  in
  let gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Fail (exit 1) when a wall-clock speed-up misses its threshold \
             (listed under EXPERIMENTS). A threshold is skipped with a \
             logged notice when the host has fewer cores than it is defined \
             over, or the scaled sizes are too small to time.")
  in
  let run names scale json_dir gate =
    ok_or_die
      (if scale <= 0. then Error "scale must be positive"
       else
         match E.select names with
         | Error msg -> Error msg
         | Ok entries -> (
             try Ok (E.run ?json_dir ~gate ~scale entries)
             with Failure msg | Sys_error msg -> Error msg))
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:
         "Run experiments: the paper's figure reproductions (simulated \
          clock) and the beyond-paper suites."
       ~man:
         (`S "EXPERIMENTS"
         :: List.map (fun e -> `I (e.E.name, e.E.doc)) E.all))
    Term.(const run $ names $ scale $ json_dir $ gate)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

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

(* ------------------------------------------------------------------ *)
(* fsck / scrub                                                        *)

let finding_json (f : Hart_error.finding) =
  let open Hart_util.Json in
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
  let open Hart_util.Json in
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

let integrity_cmd ~tool ~doc =
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
           (* the quarantining mount is the whole check: media faults in
              the image become findings instead of aborting it *)
           let hart = Hart.recover ~quarantine:true pool in
           let findings = Hart.quarantines hart in
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
               Hart_util.Json.write path
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
  integrity_cmd ~tool:"fsck"
    ~doc:
      "Check and self-heal a store image with the quarantining mount: \
       every slot validated (media lines, key lengths, checksums), damaged \
       objects quarantined, flagged lines resealed. Repairs are written \
       back; exit is nonzero only when unrepairable corruption remains."

let scrub_cmd =
  integrity_cmd ~tool:"scrub"
    ~doc:
      "The same pass as $(b,fsck): an image at rest has no live index to \
       check against, so its scrub is the quarantining mount."

(* Replay one schedule of a concurrent sweep and dump it: crash and
   flush counts, the committed prefix, the operations in flight and
   waiting, the recovered bindings; [nested] adds each doubly recovered
   state, [shrink] a locally minimal reproducer. A violation's (seed,
   schedule) pair replays bit-identically (DESIGN.md §10, §12). *)
let replay_schedule ~target ~mode ?checkpoint_every ~seed ~schedule ~nested ~shrink
    (setup, scripts) =
  let module F = Hart_fault.Fault in
  let module Mt = Hart_fault.Fault_mt in
  let dump_bindings label bs =
    Printf.printf "%s: %s\n" label
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) bs))
  in
  match
    Mt.probe ~target ~mode ~capture_snapshot:nested ~seed ~schedule ~setup scripts
  with
  | exception e -> Error (Printexc.to_string e)
  | p ->
      Printf.printf "crashed=%b flushes=%d recovery-flushes=%d\n" p.F.p_crashed
        p.F.p_flushes p.F.p_recovery_flushes;
      dump_bindings "committed" p.F.p_committed;
      List.iter
        (fun (i, op) -> Format.printf "in-flight fiber %d: %a@." i F.pp_op op)
        p.F.p_in_flight;
      List.iter
        (fun (i, op) -> Format.printf "waiting fiber %d: %a@." i F.pp_op op)
        p.F.p_waiting;
      dump_bindings "recovered" p.F.p_state;
      (if nested then
         match p.F.p_snapshot with
         | None -> print_endline "nested: schedule did not crash, nothing to re-crash"
         | Some snapshot ->
             F.nested_recovery_sweep ~snapshot ~recovery_flushes:p.F.p_recovery_flushes
               ~recover:(fun ~nested:_ pool ->
                 ignore (target.F.reattach pool : F.instance))
               ~never_fired:(fun ~nested ->
                 Printf.printf "nested %d: recovery completed before boundary\n" nested)
               ~check:(fun ~nested pool ->
                 match
                   let inst = target.F.reattach pool in
                   inst.F.check ();
                   inst.F.dump ()
                 with
                 | state ->
                     dump_bindings
                       (Printf.sprintf "nested %d%s" nested
                          (if state = p.F.p_state then "" else " (DIFFERS)"))
                       state
                 | exception e ->
                     Printf.printf "nested %d: FAILURE: %s\n" nested
                       (Printexc.to_string e)));
      (if shrink then
         match Mt.shrink ~target ~mode ?checkpoint_every ~seed ~setup scripts with
         | None -> print_endline "shrink: workload does not violate under replay"
         | Some s ->
             Printf.printf "shrink: %d candidate replays, %d accepted\n" s.F.s_checks
               s.F.s_accepted;
             Format.printf "%a@." F.pp_repro s.F.s_repro;
             Printf.printf "detail at minimum: %s\n" s.F.s_detail);
      Ok ()

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
    let names ts =
      String.concat ", " (List.map (fun t -> t.Hart_fault.Fault.target_name) ts)
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Index to sweep (one of %s); omit for all. With \
                $(b,--domains) > 1, the concurrent index (one of %s; \
                default hart)."
               (names Hart_fault.Fault.media_targets)
               (names Hart_fault.Fault_mt.all_mt_targets)))
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
             the $(b,--target) concurrent index under a seed-replayable \
             interleaving, every flush boundary is crashed with \
             operations in flight, and recovery is checked against the \
             linearization-set oracle.")
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
             with $(b,--target fptree)), $(b,update-race) (per-domain \
             updates whose values share one value chunk), \
             $(b,recycle-race) (a lone key's leaf chunk emptied and \
             recycled by a delete while other domains insert into it, \
             taking its owning slot over across value classes), \
             $(b,recycle-classes) (a leaf chunk and a Val32 chunk emptied \
             and recycled by two domains at once, each under its own \
             class's log slot), $(b,takeover-race) (a deleted key's owning \
             slot taken over across value classes while another domain \
             updates in the owned value's chunk), or $(b,gen) (seeded \
             random op mix, swept \
             over $(b,--gen-seeds) seeds).")
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
             (1-4).")
  in
  let gen_seeds =
    Arg.(
      value & opt int 3
      & info [ "gen-seeds" ] ~docv:"N"
          ~doc:
            "With $(b,--mt-workload gen), sweep $(docv) generated \
             workloads seeded $(b,--seed), $(b,--seed)+1, ...")
  in
  let schedule =
    Arg.(
      value
      & opt (some int) None
      & info [ "schedule" ] ~docv:"I"
          ~doc:
            "With $(b,--domains) > 1, replay crash schedule $(docv) of \
             each sweep instead of exploring them (same $(b,--target), \
             $(b,--mt-workload), $(b,--seed) and $(b,--gen-seeds)) and \
             dump it: crashed and flush counts, the committed prefix, \
             the operations in flight and waiting, the recovered \
             bindings. $(b,--nested-mt) adds the state of each \
             re-crashed recovery, $(b,--shrink) a minimal reproducer. A \
             reported violation's (seed, schedule) pair replays \
             bit-identically.")
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
      keep_going domains nested_mt shrink mt_workload gen_seeds schedule seed
      max_schedules media_faults media_json server clients =
    let module F = Hart_fault.Fault in
    let module Mt = Hart_fault.Fault_mt in
    let module Srv = Hart_fault.Fault_server in
    let torn_mode seed = Pmem.Torn { seed; fraction = 0.5 } in
    let mode = Option.fold ~none:Pmem.Clean ~some:torn_mode torn in
    let lookup what names find n =
      match find n with
      | Some x -> x
      | None ->
          failwith
            (Printf.sprintf "unknown %s %S (one of %s)" what n
               (String.concat ", " names))
    in
    let target_names ts = List.map (fun t -> t.F.target_name) ts in
    (* the concurrent index and the (name, workload) of each sweep *)
    let mt_sweeps () =
      if domains > 4 then failwith "--domains supports 2-4 simulated domains";
      let t =
        lookup "concurrent target"
          (target_names Mt.all_mt_targets)
          Mt.find_mt_target
          (Option.value target ~default:"hart")
      in
      let build =
        lookup "--mt-workload" (List.map fst Mt.workloads) Mt.find_workload mt_workload
      in
      let gen = mt_workload = "gen" in
      ( t,
        List.init
          (if gen then max 1 gen_seeds else 1)
          (fun k ->
            let s = Int64.add seed (Int64.of_int k) in
            ( (if gen then Printf.sprintf "mt-gen#%Ld" s else "mt-" ^ mt_workload),
              build ~seed:s ~domains ~ops_per_domain:6 )) )
    in
    ok_or_die
      (try
         match schedule with
         | Some schedule ->
             if domains < 2 then failwith "--schedule replays a --domains sweep (2-4)";
             let t, sweeps = mt_sweeps () in
             List.fold_left
               (fun acc (name, workload) ->
                 Result.bind acc (fun () ->
                     if List.length sweeps > 1 then Printf.printf "== %s\n" name;
                     replay_schedule ~target:t ~mode ?checkpoint_every ~seed ~schedule
                       ~nested:nested_mt ~shrink workload))
               (Ok ()) sweeps
         | None ->
             (* every mode builds a list of jobs: a thunk running one sweep
                (or one adversarial family of passes), with a shrinker for
                its violations where the executor has one *)
             let ok_msg, jobs =
               if server then begin
                 if clients < 1 || clients > 4 then
                   failwith "--clients supports 1-4 simulated sessions";
                 let setup, scripts = Srv.default_workload ~clients ~ops_per_client:28 in
                 let dsetup, dscripts, drops =
                   Srv.drop_workload ~clients ~ops_per_client:28
                 in
                 ( "all server crash schedules consistent",
                   List.concat_map
                     (fun mode ->
                       List.map
                         (fun (name, setup, scripts, drops) ->
                           ( (fun () ->
                               [
                                 Srv.explore ~mode ~keep_going:(keep_going || shrink)
                                   ?max_schedules ?drops ~seed ~clients ~workload:name
                                   ~setup scripts;
                               ]),
                             if drops = None then
                               Some (fun () -> Srv.shrink ~mode ~seed ~setup scripts)
                             else None ))
                         [
                           ("srv-default", setup, scripts, None);
                           ("srv-drop", dsetup, dscripts, Some drops);
                         ])
                     (Pmem.Clean :: Option.to_list (Option.map torn_mode torn)) )
               end
               else if domains > 1 then begin
                 let t, sweeps = mt_sweeps () in
                 ( "all concurrent crash schedules consistent",
                   List.map
                     (fun (name, (setup, scripts)) ->
                       ( (fun () ->
                           [
                             Mt.explore ~target:t ~mode
                               ~keep_going:(keep_going || shrink) ~nested:nested_mt
                               ?max_schedules ?checkpoint_every ~seed ~domains
                               ~workload:name ~setup scripts;
                           ]),
                         Some
                           (fun () ->
                             Mt.shrink ~target:t ~mode ?checkpoint_every ~seed ~setup
                               scripts) ))
                     sweeps )
               end
               else begin
                 let media = media_faults > 0 in
                 let targets =
                   match target with
                   | None -> if media then F.media_targets else F.all_targets
                   | Some n ->
                       [ lookup "target" (target_names F.media_targets) F.find_target n ]
                 in
                 let workloads =
                   match workload with
                   | None -> F.builtin_workloads
                   | Some n ->
                       [
                         lookup "workload"
                           (List.map (fun (n, _, _) -> n) F.builtin_workloads)
                           F.find_workload n;
                       ]
                 in
                 let sweep t (name, setup, ops) () =
                   if media then
                     [
                       F.explore_media ~sites:media_faults ~base_seed:seed ~setup
                         ~keep_going ~workload:name t ops;
                     ]
                   else if adversarial then
                     F.explore_adversarial ~nested:(not no_nested) ~setup
                       ?checkpoint_every ~keep_going ~workload:name t ops
                   else
                     [
                       F.explore ~mode ~nested:(not no_nested) ~setup
                         ?checkpoint_every ~keep_going ~workload:name t ops;
                     ]
                 in
                 ( (if media then "no silent wrong answers under media faults"
                    else "all crash schedules consistent"),
                   List.concat_map
                     (fun t -> List.map (fun w -> (sweep t w, None)) workloads)
                     targets )
               end
             in
             (* the one reporting tail: print, shrink and attach reproducers,
                emit JSON, exit *)
             let reports =
               List.concat_map
                 (fun (run, shrinker) ->
                   List.map
                     (fun r ->
                       Format.printf "%a@." F.pp_report r;
                       match shrinker with
                       | Some shrink_it when shrink && r.F.violations <> [] -> (
                           match shrink_it () with
                           | None ->
                               Format.printf
                                 "shrink: violation did not reproduce under replay@.";
                               r
                           | Some s ->
                               Format.printf
                                 "shrink: %d candidate replays, %d accepted@.%a@."
                                 s.F.s_checks s.F.s_accepted F.pp_repro s.F.s_repro;
                               F.with_repro s.F.s_repro r)
                       | _ -> r)
                     (run ()))
                 jobs
             in
             let write path s =
               let oc = open_out path in
               output_string oc s;
               close_out oc
             in
             Option.iter (fun p -> write p (F.violations_to_json reports)) json_out;
             if media_faults > 0 then
               Option.iter (fun p -> write p (F.media_reports_json reports)) media_json;
             match List.concat_map (fun r -> r.F.violations) reports with
             | [] ->
                 print_endline ok_msg;
                 Ok ()
             | vs ->
                 List.iter
                   (fun v -> Printf.eprintf "violation: %s\n" (F.violation_message v))
                   vs;
                 Error (Printf.sprintf "%d violation(s)" (List.length vs))
       with F.Violation msg | Failure msg -> Error msg)
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
      $ checkpoint_every $ keep_going $ domains $ nested_mt $ shrink
      $ mt_workload $ gen_seeds $ schedule $ seed $ max_schedules $ media_faults
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
      exp_cmd;
      fault_cmd;
      fsck_cmd;
      scrub_cmd;
      serve_cmd;
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
