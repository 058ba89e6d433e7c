(* Exhaustive crash-schedule exploration (lib/fault): every flush
   boundary of every built-in workload, on HART and FPTree, under clean
   and torn crash modes, including nested crash-during-recovery. *)

module Pmem = Hart_pmem.Pmem
module Fault = Hart_fault.Fault
module Fault_mt = Hart_fault.Fault_mt
module Hart_error = Hart_core.Hart_error

(* roster targets without a named value of their own *)
let fptree = Option.get (Fault.find_target "fptree")
let mt_target name = Option.get (Fault_mt.find_mt_target name)

let find name =
  match Fault.find_workload name with
  | Some w -> w
  | None -> Alcotest.failf "unknown built-in workload %S" name

(* Every schedule must correspond to a distinct dry-run flush boundary:
   schedules = total_flushes proves 100%% coverage (explore itself raises
   if any armed schedule fails to fire). Nested coverage is likewise
   exhaustive over observed recovery flushes — zero for a target whose
   recovery never writes PM (FPTree rebuilds DRAM only, unless it had a
   torn split to repair), so [expect_nested] is per-target. *)
let check_report ?(nested = true) ?(expect_nested = false) r =
  Alcotest.(check bool)
    (Format.asprintf "%a: has flush boundaries" Fault.pp_report r)
    true
    (r.Fault.total_flushes > 0);
  Alcotest.(check int)
    (Format.asprintf "%a: full coverage" Fault.pp_report r)
    r.Fault.total_flushes r.Fault.schedules;
  if nested then begin
    Alcotest.(check int)
      (Format.asprintf "%a: full nested coverage" Fault.pp_report r)
      r.Fault.recovery_flushes r.Fault.nested_schedules;
    if expect_nested then
      Alcotest.(check bool)
        (Format.asprintf "%a: nested schedules ran" Fault.pp_report r)
        true
        (r.Fault.nested_schedules > 0)
  end

let sweep ?mode ?nested ?expect_nested target name () =
  let name, setup, ops = find name in
  let r = Fault.explore ?mode ?nested ~setup ~workload:name target ops in
  check_report ?nested ?expect_nested r

let clean_cases ?expect_nested target =
  List.map
    (fun (name, _, _) ->
      Alcotest.test_case
        (Printf.sprintf "%s/%s clean" target.Fault.target_name name)
        `Quick
        (sweep ?expect_nested target name))
    Fault.builtin_workloads

(* Torn mode is costlier (the eviction subset is re-drawn per schedule),
   so sweep the three light workloads and skip chunk-unlink's hundreds of
   setup ops here; the CLI gate still covers it. *)
let torn_cases target =
  List.concat_map
    (fun (name, _, _) ->
      List.map
        (fun seed ->
          let mode = Pmem.Torn { seed; fraction = 0.5 } in
          Alcotest.test_case
            (Printf.sprintf "%s/%s torn seed=%Ld" target.Fault.target_name name
               seed)
            `Quick
            (sweep ~mode target name))
        [ 7L; 42L ])
    (List.filter
       (fun (n, _, _) -> n <> "chunk-unlink" && n <> "split-chain")
       Fault.builtin_workloads)

(* The split-chain sweep must hit FPTree's torn-split window: some
   schedule crashes between the chain relink and the left bitmap shrink,
   recovery repairs it with a persisted bitmap write, and that write is
   itself nested-crash-swept. *)
let fptree_split_repair () =
  let name, setup, ops = find "split-chain" in
  let r = Fault.explore ~setup ~workload:name fptree ops in
  check_report ~expect_nested:true r

(* Torn with fraction 1.0 must behave exactly like a clean crash: every
   dirty line evicted = every dirty line durable, which is a state the
   protocol must already tolerate (it cannot rely on lines NOT being
   evicted). *)
let torn_full_eviction target () =
  let name, setup, ops = find "mixed-dense" in
  let r =
    Fault.explore
      ~mode:(Pmem.Torn { seed = 1L; fraction = 1.0 })
      ~nested:false ~setup ~workload:name target ops
  in
  check_report ~nested:false r

(* Parallel recovery must pass the same clean and torn matrices as the
   serial target, over the same schedule space: the rebuild phase issues
   no flushes, so sweeping with [recover_parallel] as the reattach must
   observe exactly the flush boundaries (outer and nested) that serial
   recovery does. *)
let parallel_recovery_matches_serial_space () =
  let name, setup, ops = find "delete-recycle" in
  let s = Fault.explore ~setup ~workload:name Fault.hart ops in
  let p =
    Fault.explore ~setup ~workload:name
      (Fault.hart_parallel_recovery ~domains:2)
      ops
  in
  Alcotest.(check int) "same flush boundaries" s.Fault.total_flushes
    p.Fault.total_flushes;
  Alcotest.(check int) "same schedules" s.Fault.schedules p.Fault.schedules;
  Alcotest.(check int) "same recovery flushes" s.Fault.recovery_flushes
    p.Fault.recovery_flushes;
  Alcotest.(check int) "same nested schedules" s.Fault.nested_schedules
    p.Fault.nested_schedules

let parallel_recovery_cases =
  let target = Fault.hart_parallel_recovery ~domains:2 in
  clean_cases ~expect_nested:true target
  @ List.map
      (fun name ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s torn seed=7" target.Fault.target_name name)
          `Quick
          (sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) target name))
      [ "update-log"; "mixed-dense" ]
  @ [
      Alcotest.test_case "schedule space matches serial hart" `Quick
        parallel_recovery_matches_serial_space;
    ]

(* The quarantining mount settles crash residue as the plain mount
   does: every built-in workload, clean and torn, with no finding from
   the mount or from fsck after it. *)
let quarantining_cases =
  let target = Fault.hart_quarantining in
  clean_cases ~expect_nested:true target
  @ List.map
      (fun (name, _, _) ->
        Alcotest.test_case
          (Printf.sprintf "%s/%s torn seed=7" target.Fault.target_name name)
          `Quick
          (sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) target name))
      Fault.builtin_workloads

(* Pin HART's crash-schedule space exactly. The triples move only when
   the persistence protocol's PM write/flush sequence changes (as with
   the one-line micro-log records); a change elsewhere, such as the
   DRAM node representation (DESIGN.md §14), must not move a single
   flush boundary. *)
let schedule_space_pin () =
  List.iter
    (fun (name, flushes, scheds, nested) ->
      let name, setup, ops = find name in
      let r = Fault.explore ~setup ~workload:name Fault.hart ops in
      Alcotest.(check int)
        (Printf.sprintf "%s: flush boundaries" name)
        flushes r.Fault.total_flushes;
      Alcotest.(check int)
        (Printf.sprintf "%s: schedules" name)
        scheds r.Fault.schedules;
      Alcotest.(check int)
        (Printf.sprintf "%s: nested schedules" name)
        nested r.Fault.nested_schedules)
    [
      ("update-log", 49, 49, 96);
      ("update-own", 36, 36, 24);
      ("delete-recycle", 51, 51, 105);
      ("mixed-dense", 47, 47, 48);
      ("chunk-unlink", 24, 24, 75);
      ("split-chain", 114, 114, 6);
    ]

let oracle_semantics () =
  let module SMap = Map.Make (String) in
  let m = List.fold_left Fault.apply_model SMap.empty in
  Alcotest.(check (list (pair string string)))
    "insert upserts"
    [ ("a", "2") ]
    (SMap.bindings (m [ Insert ("a", "1"); Insert ("a", "2") ]));
  Alcotest.(check (list (pair string string)))
    "update on absent key is a no-op" []
    (SMap.bindings (m [ Update ("a", "1") ]));
  Alcotest.(check (list (pair string string)))
    "delete removes" []
    (SMap.bindings (m [ Insert ("a", "1"); Delete "a" ]))

(* Checkpointed replay must be invisible: same coverage, same nested
   schedules, same recovery flushes as the full re-execution sweep, with
   at least one schedule actually served from a snapshot. *)
let checkpoint_equivalence target name () =
  let name, setup, ops = find name in
  let full = Fault.explore ~setup ~workload:name target ops in
  let cp = Fault.explore ~setup ~checkpoint_every:30 ~workload:name target ops in
  Alcotest.(check int) "same flush boundaries" full.Fault.total_flushes
    cp.Fault.total_flushes;
  Alcotest.(check int) "same schedules" full.Fault.schedules cp.Fault.schedules;
  Alcotest.(check int) "same nested schedules" full.Fault.nested_schedules
    cp.Fault.nested_schedules;
  Alcotest.(check int) "same recovery flushes" full.Fault.recovery_flushes
    cp.Fault.recovery_flushes;
  Alcotest.(check bool) "snapshots were taken" true (cp.Fault.checkpoints > 0);
  Alcotest.(check bool) "schedules were replayed from snapshots" true
    (cp.Fault.checkpoint_replays > 0)

(* The explorer must actually catch a broken target: a "store" that
   persists nothing recovers to an empty map mid-workload. *)
let detects_violation () =
  let broken =
    {
      Fault.target_name = "broken";
      fresh =
        (fun () ->
          let inner = Fault.hart.Fault.fresh () in
          (* drop every delete: completed ops are then NOT all applied *)
          { inner with apply = (function Fault.Delete _ -> () | op -> inner.apply op) });
      reattach = Fault.hart.Fault.reattach;
      media_mount = None;
    }
  in
  let name, setup, ops = find "delete-recycle" in
  match Fault.explore ~nested:false ~setup ~workload:name broken ops with
  | (_ : Fault.report) -> Alcotest.fail "explorer accepted a broken target"
  | exception Fault.Violation _ -> ()

(* A target that is correct crash-free (so the always-fatal dry-run
   check passes) but whose recovery silently drops a key — every
   schedule crashing after that key's insert committed is a violation.
   Shared by the keep-going and JSON tests. *)
let tampered_target () =
  {
    Fault.target_name = "tampered";
    fresh = Fault.hart.Fault.fresh;
    reattach =
      (fun pool ->
        let inner = Fault.hart.Fault.reattach pool in
        inner.Fault.apply (Fault.Delete "ab");
        inner);
    media_mount = None;
  }

let tampered_ops =
  [ Fault.Insert ("aa", "1"); Fault.Insert ("ab", "2");
    Fault.Insert ("ac", "3") ]

(* keep_going must complete the sweep and collect every violating
   schedule instead of raising on the first. *)
let keep_going_collects () =
  let r =
    Fault.explore ~nested:false ~keep_going:true ~workload:"tampered"
      (tampered_target ()) tampered_ops
  in
  Alcotest.(check bool) "violations were collected" true
    (List.length r.Fault.violations > 1);
  Alcotest.(check int) "sweep still covered every boundary"
    r.Fault.total_flushes r.Fault.schedules;
  (* every collected violation carries exact replay coordinates *)
  List.iter
    (fun v ->
      Alcotest.(check string) "violation names its target" "tampered"
        v.Fault.v_target;
      Alcotest.(check bool) "violation schedule is in range" true
        (v.Fault.v_schedule >= 0 && v.Fault.v_schedule < r.Fault.total_flushes))
    r.Fault.violations;
  (* a clean target under keep_going collects nothing *)
  let name, setup, ops = find "mixed-dense" in
  let ok =
    Fault.explore ~nested:false ~setup ~keep_going:true ~workload:name
      Fault.hart ops
  in
  Alcotest.(check (list string)) "clean target: no violations" []
    (List.map Fault.violation_message ok.Fault.violations)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A target whose recovery raises a typed error instead of [Failure]:
   every crashed schedule must become a violation with coordinates
   under keep_going, and a [Violation] otherwise — on the sequential
   and the concurrent executor alike, since both run the same sweep. *)
let typed_error_target inner =
  {
    inner with
    Fault.target_name = "typed-error";
    reattach =
      (fun _ ->
        Hart_core.Hart_error.error
          (Hart_core.Hart_error.Pool_line { line = 1 })
          "injected recovery failure");
  }

let typed_errors_become_violations () =
  let check_collected what r =
    Alcotest.(check bool)
      (what ^ ": every schedule violates")
      true
      (r.Fault.schedules > 0
      && List.length r.Fault.violations = r.Fault.schedules);
    List.iter
      (fun v ->
        Alcotest.(check bool)
          (what ^ ": schedule in range")
          true
          (v.Fault.v_schedule >= 0 && v.Fault.v_schedule < r.Fault.total_flushes);
        Alcotest.(check bool)
          (what ^ ": detail names the typed error")
          true
          (contains ~sub:"injected recovery failure" v.Fault.v_detail))
      r.Fault.violations
  in
  let seq ~keep_going =
    Fault.explore ~nested:false ~keep_going ~workload:"typed"
      (typed_error_target Fault.hart) tampered_ops
  in
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:3 in
  let mt ~keep_going =
    Fault_mt.explore ~target:(typed_error_target Fault_mt.hart_mt) ~keep_going
      ~seed:42L ~domains:2 ~workload:"typed" ~setup scripts
  in
  check_collected "sequential" (seq ~keep_going:true);
  check_collected "concurrent" (mt ~keep_going:true);
  List.iter
    (fun (what, run) ->
      match run () with
      | (_ : Fault.report) -> Alcotest.failf "%s: sweep accepted the target" what
      | exception Fault.Violation _ -> ())
    [
      ("sequential", fun () -> seq ~keep_going:false);
      ("concurrent", fun () -> mt ~keep_going:false);
    ]

(* ------------------------------------------------------------------ *)
(* All eight §II indexes as fault targets                              *)

let baseline_targets =
  List.filter
    (fun t ->
      t.Fault.target_name <> "hart" && t.Fault.target_name <> "fptree")
    Fault.all_targets

let all_targets_registered () =
  Alcotest.(check int) "eight targets" 8 (List.length Fault.all_targets);
  List.iter
    (fun t ->
      match Fault.find_target t.Fault.target_name with
      | Some t' ->
          Alcotest.(check string) "find_target round-trip" t.Fault.target_name
            t'.Fault.target_name
      | None -> Alcotest.failf "find_target misses %s" t.Fault.target_name)
    Fault.all_targets;
  Alcotest.(check bool) "unknown name is None" true
    (Fault.find_target "no-such-index" = None)

(* Each baseline gets the same treatment HART and FPTree get above:
   a clean sweep with nested crash-during-recovery coverage and a torn
   sweep, both driving its own [recover] entry point on every
   schedule. *)
let baseline_cases =
  List.concat_map
    (fun t ->
      [
        Alcotest.test_case
          (Printf.sprintf "%s/mixed-dense clean+nested" t.Fault.target_name)
          `Quick
          (sweep t "mixed-dense");
        Alcotest.test_case
          (Printf.sprintf "%s/mixed-dense torn" t.Fault.target_name)
          `Quick
          (sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) t "mixed-dense");
      ])
    baseline_targets

(* ------------------------------------------------------------------ *)
(* Media-fault sweep                                                   *)

(* Every target (the crash-gate eight plus checksummed HART) faces the
   same seeded corruption sites; the oracle forbids exactly one thing —
   a silent wrong answer. *)
let media_sweep_target tgt () =
  let name, setup, ops = find "mixed-dense" in
  let r =
    Fault.explore_media ~sites:6 ~keep_going:true ~setup ~workload:name tgt ops
  in
  Alcotest.(check int) "every site ran" 6 (List.length r.Fault.sites);
  Alcotest.(check (list string)) "no silent wrong answers" []
    (List.map Fault.violation_message r.Fault.violations);
  (* not vacuous: most drawn faults corrupt content the mount must react
     to (only an unwritten stuck line may stay benign) *)
  Alcotest.(check bool) "some sites were non-benign" true
    (List.exists
       (fun s -> s.Fault.site_outcome <> Fault.Media_benign)
       r.Fault.sites);
  (* a HART-family mount must have produced findings at some site; a
     baseline never does (it refuses with a typed error instead) *)
  let saw_findings =
    List.exists (fun s -> s.Fault.site_findings > 0) r.Fault.sites
  in
  Alcotest.(check bool) "findings match mount capability"
    (tgt.Fault.media_mount <> None)
    saw_findings

(* Determinism: the same (target, seed) re-draws the same faults and
   reaches the same per-site outcomes. *)
let media_sweep_deterministic () =
  let name, setup, ops = find "mixed-dense" in
  let run () =
    let r =
      Fault.explore_media ~sites:4 ~keep_going:true ~setup ~workload:name
        Fault.hart_checksummed ops
    in
    List.map
      (fun s ->
        Printf.sprintf "%d:%s:%s" s.Fault.site_index s.Fault.site_fault
          (Fault.media_outcome_name s.Fault.site_outcome))
      r.Fault.sites
  in
  Alcotest.(check (list string)) "replayable" (run ()) (run ())

let media_sweep_roster () =
  Alcotest.(check int) "nine media targets" 9 (List.length Fault.media_targets);
  Alcotest.(check bool) "hart-crc resolvable" true
    (Fault.find_target "hart-crc" <> None);
  (* a HART-family target repairs or quarantines; a baseline only
     detects — both without silent wrong answers *)
  List.iter
    (fun tgt ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mount capability matches family"
           tgt.Fault.target_name)
        (String.length tgt.Fault.target_name >= 4
        && String.sub tgt.Fault.target_name 0 4 = "hart")
        (tgt.Fault.media_mount <> None))
    Fault.media_targets

(* An exception outside the typed-detection set must become a violation
   at the site that raised it, not escape the sweep: a media mount that
   raises [Invalid_argument], and an integrity check that raises a
   typed [Hart_error] after the mount accepted the store. *)
let media_unexpected_exceptions () =
  let name, setup, ops = find "update-log" in
  let mount_raises =
    {
      Fault.hart with
      target_name = "mount-raises";
      media_mount = Some (fun _ -> invalid_arg "mount: injected");
    }
  and check_raises =
    {
      Fault.hart with
      target_name = "check-raises";
      media_mount =
        Option.map
          (fun mount pool ->
            let inst, findings = mount pool in
            ( {
                inst with
                Fault.check =
                  (fun () ->
                    Hart_error.error (Hart_error.Pool_line { line = 0 })
                      "check: injected");
              },
              findings ))
          Fault.hart.Fault.media_mount;
    }
  in
  List.iter
    (fun (tgt, what) ->
      let r =
        Fault.explore_media ~sites:3 ~keep_going:true ~setup ~workload:name tgt
          ops
      in
      Alcotest.(check int) (what ^ ": every site ran") 3 (List.length r.Fault.sites);
      (* a site detected before the faulty code runs has no violation *)
      List.iter
        (fun (v : Fault.violation) ->
          Alcotest.(check bool)
            (what ^ ": message carries the exception")
            true
            (contains ~sub:"injected" (Fault.violation_message v)))
        r.Fault.violations;
      Alcotest.(check bool) (what ^ ": violations recorded") true
        (r.Fault.violations <> []);
      match Fault.explore_media ~sites:3 ~setup ~workload:name tgt ops with
      | (_ : Fault.report) -> Alcotest.failf "%s: sweep accepted it" what
      | exception Fault.Violation _ -> ())
    [ (mount_raises, "mount raises Invalid_argument");
      (check_raises, "check raises Hart_error") ]

let media_json () =
  let name, setup, ops = find "update-log" in
  let r =
    Fault.explore_media ~sites:3 ~keep_going:true ~setup ~workload:name
      Fault.hart ops
  in
  let j = Fault.media_reports_json [ r ] in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON carries %s" sub)
        true (contains ~sub j))
    [
      {|"target":"hart"|}; {|"workload":"update-log"|}; {|"sites":3|};
      {|"outcome":"|}; {|"violations":[]|};
    ];
  Alcotest.(check string) "no violations -> empty baseline" "[]\n"
    (Fault.violations_to_json [ r ])

(* ------------------------------------------------------------------ *)
(* Adversarial torn mode                                               *)

let adversarial_sweep () =
  let name, setup, ops = find "update-log" in
  let rs =
    Fault.explore_adversarial ~nested:false ~directed:false ~subsets:2 ~setup
      ~workload:name Fault.hart ops
  in
  Alcotest.(check int) "one commit-point pass + K subset passes" 3
    (List.length rs);
  (match rs with
  | first :: rest ->
      (match first.Fault.mode with
      | Pmem.Torn_commit -> ()
      | _ -> Alcotest.fail "first pass must evict the commit-point line");
      List.iteri
        (fun k r ->
          match r.Fault.mode with
          | Pmem.Torn { seed; _ } ->
              Alcotest.(check int64) "subset seeds are consecutive"
                (Int64.add 0xF417L (Int64.of_int k))
                seed
          | _ -> Alcotest.fail "fallback passes must be random-subset Torn")
        rest
  | [] -> Alcotest.fail "no reports");
  List.iter (fun r -> check_report ~nested:false r) rs

(* Directed mode leads with a clean pass whose every crashed schedule
   is re-run with exactly the lines its recovery reads torn-evicted. *)
let adversarial_directed () =
  let name, setup, ops = find "update-log" in
  let rs =
    Fault.explore_adversarial ~nested:false ~subsets:1 ~setup ~workload:name
      Fault.hart ops
  in
  Alcotest.(check int) "directed + commit-point + 1 subset pass" 3
    (List.length rs);
  (match rs with
  | directed :: commit :: _ ->
      (match directed.Fault.mode with
      | Pmem.Clean -> ()
      | _ -> Alcotest.fail "directed pass sweeps clean crashes");
      Alcotest.(check bool) "directed torn re-runs happened" true
        (directed.Fault.directed_schedules > 0);
      (match commit.Fault.mode with
      | Pmem.Torn_commit -> ()
      | _ -> Alcotest.fail "second pass must evict the commit-point line")
  | _ -> Alcotest.fail "no reports");
  List.iter (fun r -> check_report ~nested:false r) rs

(* ------------------------------------------------------------------ *)
(* Machine-readable violation reports                                  *)

let violation_json () =
  Alcotest.(check string) "empty array diffs clean" "[]\n"
    (Fault.violation_list_json []);
  let r =
    Fault.explore ~nested:false ~keep_going:true ~workload:"tampered"
      (tampered_target ()) tampered_ops
  in
  let j = Fault.violations_to_json [ r ] in
  Alcotest.(check bool) "at least one violation serialized" true
    (List.length r.Fault.violations > 0);
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "JSON carries %s" sub)
        true (contains ~sub j))
    [
      {|"target":"tampered"|}; {|"workload":"tampered"|}; {|"mode":"clean"|};
      {|"schedule":|}; {|"detail":"|};
    ];
  (* a clean report list serializes to the empty baseline *)
  let name, setup, ops = find "update-log" in
  let ok = Fault.explore ~nested:false ~setup ~workload:name Fault.hart ops in
  Alcotest.(check string) "clean run -> empty baseline" "[]\n"
    (Fault.violations_to_json [ ok ])

(* ------------------------------------------------------------------ *)
(* Concurrent crash explorer (Fault_mt)                                *)

let mt_check_report ?(min_in_flight = 2) r =
  Alcotest.(check bool) "has flush boundaries" true
    (r.Fault.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Fault.total_flushes
    r.Fault.schedules;
  Alcotest.(check bool)
    (Printf.sprintf "saw >= %d ops in flight at some crash" min_in_flight)
    true
    (r.Fault.max_in_flight >= min_in_flight);
  Alcotest.(check bool) "some schedules crash with >= 2 ops in flight" true
    (r.Fault.multi_in_flight > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

let mt_sweep ~domains () =
  let setup, scripts = Fault_mt.default_workload ~domains ~ops_per_domain:4 in
  let r = Fault_mt.explore ~seed:42L ~domains ~workload:"mt-test" ~setup scripts in
  mt_check_report r

let mt_torn_sweep () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:3 in
  let r =
    Fault_mt.explore
      ~mode:(Pmem.Torn { seed = 5L; fraction = 0.5 })
      ~seed:11L ~domains:2 ~workload:"mt-torn" ~setup scripts
  in
  mt_check_report r

(* The same (seed, schedule) pair must replay bit-identically: committed
   prefix, in-flight set and recovered state all equal. *)
let mt_determinism () =
  let setup, scripts = Fault_mt.default_workload ~domains:3 ~ops_per_domain:4 in
  let p1 = Fault_mt.probe ~seed:7L ~schedule:20 ~setup scripts in
  let p2 = Fault_mt.probe ~seed:7L ~schedule:20 ~setup scripts in
  Alcotest.(check bool) "replay is bit-identical" true (p1 = p2);
  Alcotest.(check bool) "the armed schedule fired" true p1.Fault.p_crashed

let mt_subsample () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~max_schedules:10 ~seed:42L ~domains:2 ~workload:"mt-sub"
      ~setup scripts
  in
  Alcotest.(check bool) "subsampled below full coverage" true
    (r.Fault.schedules > 0
    && r.Fault.schedules <= 11
    && r.Fault.schedules < r.Fault.total_flushes);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

(* The generalised explorer over the other striped front ends: FPTree
   (leaf-group stripes, splits exclusive) and WOART (radix-prefix
   stripes, structural inserts/deletes exclusive). Their mutations
   mostly serialise, so the interesting coverage is the contended
   (waiting-writer) crash points, not multi-in-flight ones. *)
let mt_index_sweep target () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~target ~seed:42L ~domains:2 ~workload:"mt-test" ~setup
      scripts
  in
  Alcotest.(check bool) "has flush boundaries" true
    (r.Fault.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Fault.total_flushes
    r.Fault.schedules;
  Alcotest.(check bool) "saw an op in flight at some crash" true
    (r.Fault.max_in_flight >= 1);
  Alcotest.(check bool) "saw contended (waiting-writer) crash points" true
    (r.Fault.contended > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

(* Same-stripe collisions on purpose: the sweep must cross crash points
   where a colliding op is waiting for the stripe while another op is
   in flight — the serialized case the tightened oracle is about. *)
let mt_collide () =
  let setup, scripts = Fault_mt.collide_workload ~domains:2 ~ops_per_domain:8 in
  let r =
    Fault_mt.explore ~seed:42L ~domains:2 ~workload:"mt-collide" ~setup scripts
  in
  mt_check_report r;
  Alcotest.(check bool) "saw contended (waiting-writer) crash points" true
    (r.Fault.contended > 0)

(* Seeded generator: each seed is a different mix of commuting and
   colliding inserts/updates/deletes/searches; three seeds per CI run. *)
let mt_generated () =
  List.iter
    (fun seed ->
      let setup, scripts = Fault_mt.gen_workload ~seed ~domains:2 ~ops_per_domain:6 in
      let r =
        Fault_mt.explore ~seed ~domains:2
          ~workload:(Printf.sprintf "mt-gen#%Ld" seed)
          ~setup scripts
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld has flush boundaries" seed)
        true
        (r.Fault.total_flushes > 0);
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld no violations" seed)
        0
        (List.length r.Fault.violations))
    [ 42L; 43L; 44L ];
  (* determinism of the generator itself: same seed, same scripts *)
  Alcotest.(check bool) "generator is a pure function of the seed" true
    (Fault_mt.gen_workload ~seed:42L ~domains:2 ~ops_per_domain:6
    = Fault_mt.gen_workload ~seed:42L ~domains:2 ~ops_per_domain:6)

(* Checkpointed replay must check exactly what full re-execution checks:
   same flush census, same in-flight statistics, zero violations, and
   snapshots must actually have been taken and used. Eight ops per
   domain (40 flushes) give the dry run two quiescent points, each past
   another 15 flushes, with crash points after them (four ops, 17
   flushes, leave none). *)
let mt_checkpoint_equivalence () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:8 in
  let plain =
    Fault_mt.explore ~seed:42L ~domains:2 ~workload:"mt-cp" ~setup scripts
  in
  let cp =
    Fault_mt.explore ~checkpoint_every:15 ~seed:42L ~domains:2
      ~workload:"mt-cp" ~setup scripts
  in
  Alcotest.(check int) "same flush census" plain.Fault.total_flushes
    cp.Fault.total_flushes;
  Alcotest.(check int) "same schedule count" plain.Fault.schedules
    cp.Fault.schedules;
  Alcotest.(check int) "same max in-flight" plain.Fault.max_in_flight
    cp.Fault.max_in_flight;
  Alcotest.(check int) "same multi-in-flight census"
    plain.Fault.multi_in_flight cp.Fault.multi_in_flight;
  Alcotest.(check int) "same contention census" plain.Fault.contended
    cp.Fault.contended;
  Alcotest.(check int) "plain run took no checkpoints" 0
    plain.Fault.checkpoints;
  Alcotest.(check bool) "checkpointed run took snapshots" true
    (cp.Fault.checkpoints > 0);
  Alcotest.(check bool) "some schedules replayed from a snapshot" true
    (cp.Fault.checkpoint_replays > 0);
  Alcotest.(check int) "no violations either way" 0
    (List.length plain.Fault.violations
    + List.length cp.Fault.violations)

(* ------------------------------------------------------------------ *)
(* Nested concurrent recovery re-crash: after every mid-flight crash
   whose recovery passed the oracle, the single-domain recovery is
   itself crashed at each of its own flush boundaries, recovered again,
   and the doubly-recovered state judged against the same admissible
   set (DESIGN.md §12). *)

let mt_nested_sweep target () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:4 in
  let r =
    Fault_mt.explore ~target ~nested:true ~seed:42L ~domains:2
      ~workload:"mt-nested" ~setup scripts
  in
  Alcotest.(check int) "full coverage" r.Fault.total_flushes
    r.Fault.schedules;
  Alcotest.(check int) "full nested coverage" r.Fault.recovery_flushes
    r.Fault.nested_schedules;
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

(* HART's recovery rewrites PM only to finish what a crash cut short: a
   recycle-log replay, an emptied value chunk's unlink, a sever. The
   recycle-classes workload's crashes leave all of these, so the nested
   sweep must actually have boundaries to crash. *)
let mt_nested_hart_covers () =
  let setup, scripts = Fault_mt.recycle_classes_workload ~domains:2 ~ops_per_domain:6 in
  let r =
    Fault_mt.explore ~nested:true ~seed:42L ~domains:2 ~workload:"mt-nested"
      ~setup scripts
  in
  Alcotest.(check bool) "hart recovery flushes were re-crashed" true
    (r.Fault.nested_schedules > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

(* FPTree split-repair racing fresh writers: domain 0 drives one hot
   leaf past capacity (leaf_cap = 32) while domain 1 keeps updating the
   hot keys and inserting fresh private ones, so the sweep crosses
   split, repair and recovery boundaries with writers in flight. The
   schedule space is pinned: a silent change would mean the sweep no
   longer explores what this test claims it does. *)
let mt_split_race_pin () =
  let setup, scripts =
    Fault_mt.split_race_workload ~domains:2 ~ops_per_domain:6
  in
  List.iter
    (fun mode ->
      let r =
        Fault_mt.explore ?mode ~target:(mt_target "fptree") ~nested:true
          ~seed:42L ~domains:2 ~workload:"mt-split-race" ~setup scripts
      in
      Alcotest.(check int) "pinned schedule space" 99 r.Fault.total_flushes;
      Alcotest.(check int) "full coverage" r.Fault.total_flushes
        r.Fault.schedules;
      Alcotest.(check int) "full nested coverage" r.Fault.recovery_flushes
        r.Fault.nested_schedules;
      Alcotest.(check bool) "split-side contention crossed" true
        (r.Fault.contended > 0);
      Alcotest.(check bool) "writers in flight at crash points" true
        (r.Fault.multi_in_flight > 0);
      Alcotest.(check int) "no violations" 0
        (List.length r.Fault.violations))
    [ None; Some (Pmem.Torn { seed = 5L; fraction = 0.5 }) ]

(* ------------------------------------------------------------------ *)
(* Deterministic simulation of the full KV server stack (Fault_server):
   pipelined RESP clients over the seeded simulated network, crash at
   every flush boundary with requests in flight in every layer, and
   the session-linearizability oracle of DESIGN.md §17. *)

module Fault_server = Hart_fault.Fault_server

let srv_check_report r =
  Alcotest.(check bool) "has flush boundaries" true
    (r.Fault.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Fault.total_flushes
    r.Fault.schedules;
  Alcotest.(check bool) "pipelined batch ops in flight at some crash" true
    (r.Fault.max_in_flight >= 2);
  Alcotest.(check bool) "schedules with >= 2 ops in flight" true
    (r.Fault.multi_in_flight > 0);
  Alcotest.(check bool) "write acks parsed across crashed schedules" true
    (r.Fault.acked_writes > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

let srv_sweep ?mode () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:8
  in
  let r =
    Fault_server.explore ?mode ~seed:11L ~clients:2 ~workload:"srv" ~setup
      scripts
  in
  srv_check_report r

let srv_torn_sweep () =
  srv_sweep ~mode:(Pmem.Torn { seed = 7L; fraction = 0.5 }) ()

let srv_drop_sweep () =
  let setup, scripts, drops =
    Fault_server.drop_workload ~clients:2 ~ops_per_client:8
  in
  let r =
    Fault_server.explore ~drops ~seed:11L ~clients:2 ~workload:"srv-drop"
      ~setup scripts
  in
  Alcotest.(check bool) "has flush boundaries" true
    (r.Fault.total_flushes > 0);
  Alcotest.(check int) "full coverage" r.Fault.total_flushes
    r.Fault.schedules;
  Alcotest.(check bool) "sessions hard-dropped mid-pipelined-batch" true
    (r.Fault.dropped_sessions > 0);
  Alcotest.(check int) "no violations" 0 (List.length r.Fault.violations)

(* The whole stack — fragmentation, fiber choice, batching, crash — is
   a pure function of (seed, schedule). *)
let srv_determinism () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:6
  in
  let p1 = Fault_server.probe ~seed:7L ~schedule:14 ~setup scripts in
  let p2 = Fault_server.probe ~seed:7L ~schedule:14 ~setup scripts in
  Alcotest.(check bool) "byte-level replay is identical" true (p1 = p2);
  Alcotest.(check bool) "the armed schedule fired" true p1.Fault.p_crashed;
  Alcotest.(check (list string)) "no oracle errors" [] p1.Fault.p_errors

(* ------------------------------------------------------------------ *)
(* Counter pins for the concurrent and server sweeps, at the CLI's
   workload sizes. Like the HART schedule-space pin, these move only
   when an executor's persist, lock or network sequence changes — a
   refactor of the sweep machinery must leave every number alone. *)

let mt_counters r =
  [
    ("ops", r.Fault.n_ops);
    ("flush-boundaries", r.Fault.total_flushes);
    ("schedules", r.Fault.schedules);
    ("nested", r.Fault.nested_schedules);
    ("recovery-flushes", r.Fault.recovery_flushes);
    ("max-in-flight", r.Fault.max_in_flight);
    ("multi-in-flight", r.Fault.multi_in_flight);
    ("contended", r.Fault.contended);
    ("checkpoints", r.Fault.checkpoints);
    ("replays", r.Fault.checkpoint_replays);
    ("violations", List.length r.Fault.violations);
  ]

let mt_counter_pin () =
  List.iter
    (fun (name, (setup, scripts), expected) ->
      let r =
        Fault_mt.explore ~nested:true ~seed:42L ~domains:2 ~workload:name
          ~setup scripts
      in
      Alcotest.(check (list (pair string int))) name expected (mt_counters r))
    [
      ( "mt-default",
        Fault_mt.default_workload ~domains:2 ~ops_per_domain:6,
        [
          ("ops", 12); ("flush-boundaries", 27); ("schedules", 27);
          ("nested", 0); ("recovery-flushes", 0); ("max-in-flight", 2);
          ("multi-in-flight", 15); ("contended", 3); ("checkpoints", 0);
          ("replays", 0); ("violations", 0);
        ] );
      ( "mt-collide",
        Fault_mt.collide_workload ~domains:2 ~ops_per_domain:6,
        [
          ("ops", 12); ("flush-boundaries", 31); ("schedules", 31);
          ("nested", 0); ("recovery-flushes", 0); ("max-in-flight", 2);
          ("multi-in-flight", 6); ("contended", 9); ("checkpoints", 0);
          ("replays", 0); ("violations", 0);
        ] );
      ( "mt-recycle-classes",
        Fault_mt.recycle_classes_workload ~domains:2 ~ops_per_domain:6,
        [
          ("ops", 12); ("flush-boundaries", 51); ("schedules", 51);
          ("nested", 54); ("recovery-flushes", 54); ("max-in-flight", 2);
          ("multi-in-flight", 32); ("contended", 1); ("checkpoints", 0);
          ("replays", 0); ("violations", 0);
        ] );
    ]

let srv_counters r =
  [
    ("ops", r.Fault.n_ops);
    ("flush-boundaries", r.Fault.total_flushes);
    ("schedules", r.Fault.schedules);
    ("recovery-flushes", r.Fault.recovery_flushes);
    ("max-in-flight", r.Fault.max_in_flight);
    ("multi-in-flight", r.Fault.multi_in_flight);
    ("acked", r.Fault.acked_writes);
    ("dropped-sessions", r.Fault.dropped_sessions);
    ("violations", List.length r.Fault.violations);
  ]

(* seed 11 at the CLI's 28 requests per client: the 73 + 38 boundaries
   the server DST gate sweeps, clean and torn *)
let srv_counter_pin () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:28
  in
  let dsetup, dscripts, drops =
    Fault_server.drop_workload ~clients:2 ~ops_per_client:28
  in
  let default_pin =
    [
      ("ops", 56); ("flush-boundaries", 73); ("schedules", 73);
      ("recovery-flushes", 0); ("max-in-flight", 2);
      ("multi-in-flight", 24); ("acked", 1191); ("dropped-sessions", 0);
      ("violations", 0);
    ]
  and drop_pin =
    [
      ("ops", 56); ("flush-boundaries", 38); ("schedules", 38);
      ("recovery-flushes", 0); ("max-in-flight", 1);
      ("multi-in-flight", 0); ("acked", 283); ("dropped-sessions", 38);
      ("violations", 0);
    ]
  in
  List.iter
    (fun mode ->
      let r =
        Fault_server.explore ~mode ~seed:11L ~clients:2
          ~workload:"srv-default" ~setup scripts
      in
      Alcotest.(check (list (pair string int)))
        (Format.asprintf "srv-default %a" Fault.pp_mode mode)
        default_pin (srv_counters r);
      let r =
        Fault_server.explore ~mode ~drops ~seed:11L ~clients:2
          ~workload:"srv-drop" ~setup:dsetup dscripts
      in
      Alcotest.(check (list (pair string int)))
        (Format.asprintf "srv-drop %a" Fault.pp_mode mode)
        drop_pin (srv_counters r))
    [ Pmem.Clean; Pmem.Torn { seed = 111L; fraction = 0.5 } ]

(* ------------------------------------------------------------------ *)
(* Self-minimizing reproducers: re-inject a free-before-sever bug (an
   update commits its bits, freeing the old value, before its leaf's
   p_value stops naming it, so a racing domain can be handed the old
   value while the crashing domain's leaf still reaches it) and require
   the shrinker to carve a violating workload down to a locally minimal,
   deterministically replayable reproducer. *)

module Epalloc = Hart_core.Epalloc

let with_mutation m f =
  Epalloc.unsafe_mutation := Some m;
  Fun.protect ~finally:(fun () -> Epalloc.unsafe_mutation := None) f

let with_injected_bug f = with_mutation Epalloc.Bits_before_p_value f

(* Does this (seed, workload) violate under deterministic replay? *)
let mt_violates ~seed ~setup scripts =
  match
    Fault_mt.explore ~keep_going:true ~stop_after_first:true ~seed
      ~domains:(Array.length scripts) ~workload:"inject" ~setup scripts
  with
  | r -> r.Fault.violations <> []
  | exception Fault.Violation _ -> true
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  (* a corrupted target can also trip the explorer itself; like the
     shrinker, count any deterministic failure as a violation *)
  | exception _ -> true

let find_mt_violation () =
  let candidates =
    List.concat_map
      (fun seed ->
        let s = Int64.of_int seed in
        [
          (s, Fault_mt.default_workload ~domains:2 ~ops_per_domain:6);
          (s, Fault_mt.collide_workload ~domains:2 ~ops_per_domain:6);
          (s, Fault_mt.gen_workload ~seed:s ~domains:2 ~ops_per_domain:6);
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  List.find_opt
    (fun (seed, (setup, scripts)) -> mt_violates ~seed ~setup scripts)
    candidates

let mt_shrink_regression () =
  with_injected_bug (fun () ->
      match find_mt_violation () with
      | None -> Alcotest.fail "bug injection produced no violating schedule"
      | Some (seed, (setup, scripts)) -> (
          match Fault_mt.shrink ~seed ~setup scripts with
          | None -> Alcotest.fail "shrinker lost the violation"
          | Some s ->
              let repro = s.Fault.s_repro in
              let ops = Fault.repro_ops repro in
              Alcotest.(check bool)
                (Printf.sprintf "reproducer has <= 10 ops (got %d)" ops)
                true (ops <= 10);
              Alcotest.(check bool) "reproducer has <= 2 domains" true
                (repro.Fault.r_domains <= 2);
              Alcotest.(check bool) "shrink accepted at least one move" true
                (s.Fault.s_accepted > 0);
              (* the minimal coordinates still violate, twice: the replay
                 is deterministic *)
              let still () =
                mt_violates ~seed:repro.Fault.r_seed ~setup:repro.Fault.r_setup
                  repro.Fault.r_scripts
              in
              Alcotest.(check bool) "shrunk workload still violates" true
                (still ());
              Alcotest.(check bool) "deterministically so" true (still ())))

(* From a known violating shape the shrinker must reproduce a <= 3-op
   reproducer, and once the mutation is lifted the same coordinates must
   sweep clean: the gate is meaningful. *)
let shrinks_known_shape ?(seeds = 16) m ~setup scripts =
  let seed =
    with_mutation m (fun () ->
        List.find_opt
          (fun s -> mt_violates ~seed:s ~setup scripts)
          (List.init seeds (fun i -> Int64.of_int (i + 1))))
  in
  match seed with
  | None -> Alcotest.fail "minimal free-before-overwrite shape did not violate"
  | Some seed -> (
      match with_mutation m (fun () -> Fault_mt.shrink ~seed ~setup scripts) with
      | None -> Alcotest.fail "shrinker lost the violation"
      | Some s ->
          let ops = Fault.repro_ops s.Fault.s_repro in
          Alcotest.(check bool)
            (Printf.sprintf "<= 3-op reproducer (got %d)" ops)
            true (ops <= 3);
          Alcotest.(check bool) "clean once fixed" false
            (mt_violates ~seed ~setup scripts))

(* The known-minimal shape of a free-before-overwrite bug in the update
   protocol: with the bits committed before the leaf's p_value, one
   domain's update frees its old value while its leaf still names it,
   and the other domain's update in the same value chunk is handed that
   slot and overwrites it; crashing before the first update's leaf store
   makes its key read the other key's value. *)
let mt_shrink_minimal_shape () =
  shrinks_known_shape Epalloc.Bits_before_p_value
    ~setup:
      [
        Fault.Insert ("aa00", "v0");
        Fault.Insert ("bb00", "v1");
        Fault.Insert ("dd00", "v2");
      ]
    [| [ Fault.Update ("aa00", "u0") ]; [ Fault.Update ("bb00", "u1") ] |]

(* The known-minimal shape of a free-before-unname bug in the
   ownership rule: one domain's insert takes over a deleted key's slot
   with a value of another class, and under [Free_before_unname] frees
   the slot's owned value while the slot's durable p_value still names
   it, so the other domain's update is handed that value; crashing
   before the insert's leaf store overwrites the pointer makes
   recovery's sweep hand the slot ownership of a value a live key
   names. The liveness pass cannot tell: the value is named either way.
   The setup makes the inserting domain's first flushes its value write
   and the free, so the free can precede the update's allocation. The
   three filler keys keep the deleted slot off the updated leaf's line,
   whose p_value flush would otherwise persist the insert's leaf store
   too; the interleaving is rare, seed 144 being the first to reach
   it. *)
let mt_shrink_free_shape () =
  shrinks_known_shape ~seeds:200 Epalloc.Free_before_unname
    ~setup:
      [
        Fault.Insert ("aa00", "v0");
        Fault.Insert ("ab00", "f1");
        Fault.Insert ("ac00", "f2");
        Fault.Insert ("ad00", "f3");
        Fault.Insert ("bb00", "v1");
        Fault.Insert ("dd00", String.make 20 'd');
        Fault.Delete "bb00";
      ]
    [|
      [ Fault.Insert ("cc00", String.make 20 'c') ];
      [ Fault.Update ("aa00", "u0") ];
    |]

(* With the fix in place (p_value before the bits), the exact same
   search finds nothing: the regression gate is meaningful. *)
let mt_no_violation_when_fixed () =
  let setup, scripts = Fault_mt.default_workload ~domains:2 ~ops_per_domain:6 in
  Alcotest.(check bool) "fixed allocator passes the same sweep" false
    (mt_violates ~seed:1L ~setup scripts)

(* Each mutation of the ownership and update rules alone must fail
   HART's single-domain crash sweep of a built-in workload: an insert
   overwriting an owning slot's pointer (mixed-dense re-inserts into
   deleted keys' slots), and a recovery without the liveness pass (a crash between an update's p_value store
   and its bits leaves mixed-dense's updated key naming an uncommitted
   value). *)
let sweep_violates name =
  let name, setup, ops = find name in
  match Fault.explore ~keep_going:true ~setup ~workload:name Fault.hart ops with
  | r -> r.Fault.violations <> []
  | exception Fault.Violation _ -> true
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception _ -> true

let ownership_mutations_caught () =
  List.iter
    (fun (m, what, workload) ->
      Alcotest.(check bool) "clean sweep passes" false (sweep_violates workload);
      Alcotest.(check bool)
        (Printf.sprintf "%s fails the %s sweep" what workload)
        true
        (with_mutation m (fun () -> sweep_violates workload)))
    [
      (Epalloc.Ignore_owned, "ignoring the owned mark", "mixed-dense");
      (Epalloc.No_liveness_pass, "skipping the liveness pass", "mixed-dense");
    ]

(* Committing an update's bits before its leaf's p_value frees the old
   value while the leaf still names it. One domain alone cannot tell
   (recovery settles the bits from what the leaf names), so it takes
   the concurrent update-race sweep: the other domain is handed the
   freed slot and overwrites it before the crash. *)
let bits_before_p_value_caught () =
  let violates () =
    let setup, scripts = Fault_mt.update_race_workload ~domains:2 ~ops_per_domain:6 in
    mt_violates ~seed:42L ~setup scripts
  in
  Alcotest.(check bool) "clean sweep passes" false (violates ());
  Alcotest.(check bool) "bits before p_value fails the update-race sweep" true
    (with_mutation Epalloc.Bits_before_p_value violates);
  Alcotest.(check bool) "a single domain cannot tell" false
    (with_mutation Epalloc.Bits_before_p_value (fun () ->
         sweep_violates "mixed-dense"))

(* The number of violations of a sweep of the given workload. *)
let mt_violations ~seed ~setup scripts =
  let r =
    Fault_mt.explore ~keep_going:true ~seed ~domains:(Array.length scripts)
      ~workload:"recycle-race" ~setup scripts
  in
  List.length r.Fault.violations

(* A leaf chunk whose only slot owns a value, emptied by a delete while
   the other domain inserts: the insert takes the owning slot over or
   the recycle unlinks the chunk first, whichever locks it first. *)
let recycle_race_sweep () =
  let setup = [ Fault.Insert ("aa00", "v") ] in
  let scripts =
    [| [ Fault.Delete "aa00" ]; [ Fault.Insert ("bb00", "w"); Fault.Insert ("cc00", "x") ] |]
  in
  for seed = 1 to 8 do
    Alcotest.(check int)
      (Printf.sprintf "seed %d: violations" seed)
      0
      (mt_violations ~seed:(Int64.of_int seed) ~setup scripts)
  done

(* The recycle's order, unlink then free the owned values, under a
   schedule that puts an allocation of the freed value in between. The
   recycle-race setup leaves "aa00" alone in the second leaf chunk while
   its Val8 value shares a chunk with "zz00"'s that stays linked. The
   first domain deletes "aa00"; the other updates "zz00", whose new
   value goes into that chunk's lowest free slot. Under
   [Free_before_unname] the update is given the freed value and names
   it durably before the unlink's record is, first at seed 22: the free
   slot that still names it then owns a value a live key names. (An
   insert cannot get there first: with the first leaf chunk full and
   the second being recycled it must open a leaf chunk, under the leaf
   class lock the unlink holds.) *)
let recycle_frees_after_unlink () =
  let setup, _ = Fault_mt.recycle_race_workload ~domains:2 ~ops_per_domain:0 in
  let scripts =
    [| [ Fault.Delete "aa00" ]; [ Fault.Update ("zz00", "y"); Fault.Update ("zz00", "z") ] |]
  in
  Alcotest.(check int) "violations" 0 (mt_violations ~seed:7L ~setup scripts);
  let first =
    with_mutation Epalloc.Free_before_unname (fun () ->
        List.find_opt
          (fun seed -> mt_violations ~seed:(Int64.of_int seed) ~setup scripts > 0)
          (List.init 200 (fun i -> i + 1)))
  in
  Alcotest.(check (option int)) "freeing before the unlink is caught" (Some 22) first

(* Freeing an owned value before its slot stops naming it fails the
   sweeps CI runs, at both sites. The recycle-race sweep at seed 42 (the
   CLI's default) reaches the recycle site: the recycling domain frees
   the deleted key's value before the unlink, and the other domain is
   given it and commits it before the crash. The takeover-race sweep at
   seed 8 reaches the take-over site: the insert frees the owned value
   before its leaf store, and the updating domain is given it. (Checked
   site by site with each half of the mutation disabled: recycle-race
   reaches only the recycle site, takeover-race only the take-over
   site.) Both sweep clean without the mutation. *)
let free_before_unname_caught () =
  List.iter
    (fun (name, workload, seed) ->
      let setup, scripts = workload ~domains:2 ~ops_per_domain:6 in
      Alcotest.(check bool) (name ^ ": clean sweep passes") false
        (mt_violates ~seed ~setup scripts);
      Alcotest.(check bool)
        (Printf.sprintf "free before unname fails the %s sweep" name)
        true
        (with_mutation Epalloc.Free_before_unname (fun () ->
             mt_violates ~seed ~setup scripts)))
    [
      ("recycle-race", Fault_mt.recycle_race_workload, 42L);
      ("takeover-race", Fault_mt.takeover_race_workload, 8L);
    ]

(* A slot another domain commits and deletes while a recycle of its
   leaf chunk is being decided must leave nothing behind: whichever
   delete empties the chunk last recycles it, its owned values with it.
   Runs the two domains to completion (no crash) under the
   deterministic scheduler over 200 seeds. *)
let recycle_race_leaves_nothing () =
  let module Sched = Hart_async.Scheduler in
  let module Hart_mt = Hart_core.Hart_mt in
  let module Chunk = Hart_core.Chunk in
  for seed = 1 to 200 do
    let pool = Pmem.create ~capacity:(1 lsl 20) (Hart_pmem.Meter.create Hart_pmem.Latency.c300_100) in
    let t = Hart_mt.create pool in
    Hart_mt.insert t ~key:"aa00" ~value:"v";
    let sim = Sched.Sim.create ~rng:(Hart_util.Rng.create (Int64.of_int seed)) () in
    ignore (Sched.Sim.spawn sim (fun () -> ignore (Hart_mt.delete t "aa00" : bool)) : int);
    ignore
      (Sched.Sim.spawn sim (fun () ->
           Hart_mt.insert t ~key:"bb00" ~value:"w";
           ignore (Hart_mt.delete t "bb00" : bool))
        : int);
    Sched.install_sched_hook ();
    Fun.protect ~finally:Sched.uninstall_sched_hook (fun () -> Sched.Sim.run sim);
    let alloc = Hart_core.Hart.alloc (Hart_mt.underlying t) in
    List.iter
      (fun cls ->
        Alcotest.(check int)
          (Format.asprintf "seed %d: %a chunks left" seed Chunk.pp_cls cls)
          0
          (Epalloc.chunk_count alloc cls))
      Chunk.all_classes
  done

(* Two classes recycling at once: every schedule of the recycle-classes
   workload, clean and torn, recovers to an admissible state, and some
   crash boundary leaves both recycles' records pending, each in its
   own class's slot (leaf 0, val32 3). Seed 3 overlaps the two recycles
   at 6 of its 51 boundaries (seed 42, the CLI's default, at none). *)
let recycle_classes_sweep () =
  let module Microlog = Hart_core.Microlog in
  let seed = 3L in
  let setup, scripts = Fault_mt.recycle_classes_workload ~domains:2 ~ops_per_domain:6 in
  let sweep mode =
    Fault_mt.explore ~mode ~keep_going:true ~seed ~domains:2 ~workload:"recycle-classes"
      ~setup scripts
  in
  let r = sweep Pmem.Clean in
  Alcotest.(check int) "clean: violations" 0 (List.length r.Fault.violations);
  Alcotest.(check int) "torn: violations" 0
    (List.length (sweep (Pmem.Torn { seed = 7L; fraction = 0.5 })).Fault.violations);
  let pending schedule =
    let p = Fault_mt.probe ~capture_snapshot:true ~seed ~schedule ~setup scripts in
    match p.Fault.p_snapshot with
    | None -> Alcotest.fail "no crashed image captured"
    | Some image ->
        let logs =
          Microlog.attach image ~base:(Hart_core.Epalloc.root_off + Pmem.line_bytes)
        in
        let slots = ref [] in
        Microlog.iter_pending logs (fun ~slot -> slots := slot :: !slots);
        List.rev !slots
  in
  let both =
    List.filter
      (fun schedule -> pending schedule = [ 0; 3 ])
      (List.init r.Fault.total_flushes Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "a crash leaves both records pending (at %d of %d boundaries)"
       (List.length both) r.Fault.total_flushes)
    true (both <> [])

(* The server sweep must catch real durability bugs end to end: the
   same injected update bug, observed through RESP sessions instead of
   direct index calls, and carved down to a minimal replayable
   reproducer by the same delta-debugging core. Of seeds 1-120 only
   23, 71, 72 and 82 interleave two sessions' updates in one value
   chunk inside the window, and 82's violation shrinks to the fewest
   ops. *)

let srv_violates ~seed ~setup scripts =
  match
    Fault_server.explore ~keep_going:true ~stop_after_first:true ~seed
      ~clients:(Array.length scripts) ~workload:"srv-inject" ~setup scripts
  with
  | r -> r.Fault.violations <> []
  | exception Fault.Violation _ -> true
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception _ -> true

let srv_shrink_regression () =
  with_injected_bug (fun () ->
      let candidates =
        List.map
          (fun s ->
            ( Int64.of_int s,
              Fault_server.default_workload ~clients:2 ~ops_per_client:8 ))
          [ 1; 2; 3; 4; 5; 11; 82 ]
      in
      match
        List.find_opt
          (fun (seed, (setup, scripts)) -> srv_violates ~seed ~setup scripts)
          candidates
      with
      | None ->
          Alcotest.fail "bug injection produced no violating server schedule"
      | Some (seed, (setup, scripts)) -> (
          match Fault_server.shrink ~seed ~setup scripts with
          | None -> Alcotest.fail "shrinker lost the violation"
          | Some s ->
              let repro = s.Fault.s_repro in
              Alcotest.(check bool) "reproducer has <= 2 clients" true
                (repro.Fault.r_domains <= 2);
              Alcotest.(check bool)
                (Printf.sprintf "reproducer has <= 12 ops (got %d)"
                   (Fault.repro_ops repro))
                true
                (Fault.repro_ops repro <= 12);
              let still () =
                srv_violates ~seed:repro.Fault.r_seed
                  ~setup:repro.Fault.r_setup repro.Fault.r_scripts
              in
              Alcotest.(check bool) "shrunk session still violates" true
                (still ());
              Alcotest.(check bool) "deterministically so" true (still ())))

let srv_no_violation_when_fixed () =
  let setup, scripts =
    Fault_server.default_workload ~clients:2 ~ops_per_client:8
  in
  Alcotest.(check bool) "fixed allocator passes the same server sweep" false
    (srv_violates ~seed:1L ~setup scripts)

let () =
  Alcotest.run "fault"
    [
      ("oracle", [ Alcotest.test_case "apply_model" `Quick oracle_semantics ]);
      ("hart-clean", clean_cases ~expect_nested:true Fault.hart);
      ( "hart-schedule-pin",
        [ Alcotest.test_case "schedule space unchanged" `Quick schedule_space_pin ] );
      ( "fptree-clean",
        clean_cases fptree
        @ [ Alcotest.test_case "fptree/split-chain repairs torn split" `Quick
              fptree_split_repair ] );
      ("hart-parallel-recovery", parallel_recovery_cases);
      ("hart-quarantine", quarantining_cases);
      ("hart-torn", torn_cases Fault.hart);
      ("fptree-torn", torn_cases fptree);
      ( "torn-full",
        [
          Alcotest.test_case "hart full eviction = clean" `Quick
            (torn_full_eviction Fault.hart);
          Alcotest.test_case "fptree full eviction = clean" `Quick
            (torn_full_eviction fptree);
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "hart/mixed-dense replay equivalence" `Quick
            (checkpoint_equivalence Fault.hart "mixed-dense");
          Alcotest.test_case "hart/split-chain replay equivalence" `Quick
            (checkpoint_equivalence Fault.hart "split-chain");
          Alcotest.test_case "fptree/split-chain replay equivalence" `Quick
            (checkpoint_equivalence fptree "split-chain");
        ] );
      ( "meta",
        [
          Alcotest.test_case "detects broken target" `Quick detects_violation;
          Alcotest.test_case "keep-going collects all violations" `Quick
            keep_going_collects;
          Alcotest.test_case "all eight targets registered" `Quick
            all_targets_registered;
          Alcotest.test_case "typed recovery errors become violations" `Quick
            typed_errors_become_violations;
        ] );
      ("baselines", baseline_cases);
      ( "media",
        List.map
          (fun tgt ->
            Alcotest.test_case
              (Printf.sprintf "%s/mixed-dense media sweep" tgt.Fault.target_name)
              `Quick (media_sweep_target tgt))
          Fault.media_targets
        @ [
            Alcotest.test_case "deterministic replay" `Quick
              media_sweep_deterministic;
            Alcotest.test_case "roster and capabilities" `Quick
              media_sweep_roster;
            Alcotest.test_case "media JSON serialization" `Quick media_json;
            Alcotest.test_case "unexpected exceptions are violations" `Quick
              media_unexpected_exceptions;
          ] );
      ( "adversarial",
        [
          Alcotest.test_case "commit-line + subset passes" `Quick
            adversarial_sweep;
          Alcotest.test_case "directed read-set eviction" `Quick
            adversarial_directed;
        ] );
      ( "json",
        [ Alcotest.test_case "violation serialization" `Quick violation_json ] );
      ( "mt",
        [
          Alcotest.test_case "2-domain exhaustive sweep" `Quick (mt_sweep ~domains:2);
          Alcotest.test_case "4-domain exhaustive sweep" `Quick (mt_sweep ~domains:4);
          Alcotest.test_case "2-domain torn sweep" `Quick mt_torn_sweep;
          Alcotest.test_case "replay determinism" `Quick mt_determinism;
          Alcotest.test_case "max-schedules subsampling" `Quick mt_subsample;
          Alcotest.test_case "fptree-mt 2-domain sweep" `Quick
            (mt_index_sweep (mt_target "fptree"));
          Alcotest.test_case "woart-mt 2-domain sweep" `Quick
            (mt_index_sweep (mt_target "woart"));
          Alcotest.test_case "wb-tree-mt 2-domain sweep" `Quick
            (mt_index_sweep (mt_target "wb-tree"));
          Alcotest.test_case "same-stripe collision sweep" `Quick mt_collide;
          Alcotest.test_case "generated workloads, 3 seeds" `Quick mt_generated;
          Alcotest.test_case "nested recovery re-crash: hart" `Quick
            (mt_nested_sweep Fault_mt.hart_mt);
          Alcotest.test_case "nested recovery re-crash: fptree" `Quick
            (mt_nested_sweep (mt_target "fptree"));
          Alcotest.test_case "nested recovery re-crash: woart" `Quick
            (mt_nested_sweep (mt_target "woart"));
          Alcotest.test_case "nested sweep covers hart recovery" `Quick
            mt_nested_hart_covers;
          Alcotest.test_case "shrinker: injected bug to minimal repro" `Quick
            mt_shrink_regression;
          Alcotest.test_case "shrinker: known shape to <= 3 ops" `Quick
            mt_shrink_minimal_shape;
          Alcotest.test_case "shrinker: unheld free to <= 3 ops" `Quick
            mt_shrink_free_shape;
          Alcotest.test_case "no violation once fixed" `Quick
            mt_no_violation_when_fixed;
          Alcotest.test_case "checkpointed replay equivalence" `Quick
            mt_checkpoint_equivalence;
          Alcotest.test_case "fptree split-race pinned nested sweep" `Quick
            mt_split_race_pin;
          Alcotest.test_case "hart default+collide counter pin" `Quick
            mt_counter_pin;
        ] );
      ( "server-dst",
        [
          Alcotest.test_case "2-client exhaustive sweep" `Quick (srv_sweep ?mode:None);
          Alcotest.test_case "2-client torn sweep" `Quick srv_torn_sweep;
          Alcotest.test_case "hard-drop mid-batch sweep" `Quick srv_drop_sweep;
          Alcotest.test_case "byte-level replay determinism" `Quick
            srv_determinism;
          Alcotest.test_case "injected bug to minimal repro" `Quick
            srv_shrink_regression;
          Alcotest.test_case "no violation once fixed" `Quick
            srv_no_violation_when_fixed;
          Alcotest.test_case "seed-11 counter pin, clean and torn" `Quick
            srv_counter_pin;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "each mutation fails a crash sweep" `Quick
            ownership_mutations_caught;
          Alcotest.test_case "recycle raced by a concurrent insert" `Quick
            recycle_race_sweep;
          Alcotest.test_case "recycle frees owned values after the unlink" `Quick
            recycle_frees_after_unlink;
          Alcotest.test_case "recycle race leaves no chunk behind" `Quick
            recycle_race_leaves_nothing;
          Alcotest.test_case "free before unname fails the recycle-race sweep" `Quick
            free_before_unname_caught;
          Alcotest.test_case "bits before p_value fails the update-race sweep" `Quick
            bits_before_p_value_caught;
          Alcotest.test_case "two classes recycle at once" `Quick
            recycle_classes_sweep;
        ] );
    ]
