(* Deterministic concurrent crash explorer: the executor that drives any
   striped concurrent index ([Index_intf.MT], built by
   [Striped_mt.Make]) from several simulated domains under a
   seed-replayable interleaving. The sweep itself — crash at every flush
   boundary with operations still in flight, recover single-domain,
   judge the durable image against the linearization-set oracle — is
   [Fault.sweep]; this module supplies the execution and its
   (committed, in-flight, waiting) attribution.

   Concurrency is simulated with effect-handler fibers on ONE OS
   thread, scheduled by the deterministic executor of the shared fiber
   runtime ([Hart_async.Scheduler.Sim], extracted from this module):
   each "domain" is a fiber yielding at every cooperative switch point
   ([Pmem.persist] entry, lock acquire/release — see Sched_hook and
   Rwlock — plus an explicit op-boundary yield that makes quiescent
   checkpoints possible), and a seeded RNG picks which runnable fiber
   proceeds. Same (seed, schedule) pair → bit-identical execution, so a
   violating schedule replays exactly. Real [Domain.spawn] parallelism
   cannot be truncated at a precise flush boundary or replayed; the
   fibers reuse the very same yield-instrumented production code paths
   (the instrumentation is inert when no scheduler is installed).

   The oracle. [Striped_mt] fires [Mt_hook] exactly once per completed
   mutating operation, immediately before releasing the operation's
   write lock with no yield in between — so the sequence of commit
   firings IS the linearization order of completed operations (lock
   releases alone are not a commit signal: the functor's optimistic
   path can release a stripe and retry exclusively without completing).
   At the crash, the admissible recovered states are

     { committed + S  |  S ⊆ in-flight }

   where [committed] is the model folded over fired operations and
   [in-flight] are the operations holding a write lock at the crash.
   In-flight operations necessarily hold distinct locks (the event hook
   asserts single-writer admission per lock), therefore — by the
   [stripe_of_key] commuting contract — touch disjoint shards and
   commute durably: every subset is genuinely reachable, and each
   in-flight operation must be atomically present or absent.

   The serialized (same-stripe) case is tighter still: of several
   colliding operations only the current lock holder can have touched
   PM — the others are waiting for admission and have durably done
   nothing — so only lock-order-consistent prefixes of the colliding
   set are admissible. That is exactly what (committed, in-flight)
   bookkeeping yields: waiters appear in neither, and the report counts
   the crash points where such contention was actually observed
   ([contended]). *)

module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Sched_hook = Hart_util.Sched_hook
module Index_intf = Hart_core.Index_intf
module Hart_mt = Hart_core.Hart_mt
module Mt_hook = Hart_core.Mt_hook
module Rwlock = Hart_core.Rwlock
module Scheduler = Hart_async.Scheduler
module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Targets: every roster index with a striped front end                 *)

let hart_mt = Fault.of_index (module Hart_mt.M)

let all_mt_targets =
  List.filter_map
    (fun { Hart_baselines.Roster.mt; _ } ->
      Option.map (fun (module M : Index_intf.MT) -> Fault.of_index (module M)) mt)
    Hart_baselines.Roster.all

let find_mt_target name =
  List.find_opt (fun t -> t.Fault.target_name = name) all_mt_targets

(* ------------------------------------------------------------------ *)
(* One interleaved execution, to completion or to the armed crash       *)

(* The volatile half of a quiescent checkpoint: every fiber is at an op
   boundary (no locks held, no op partially applied), so the durable
   image plus (next-op cursors, committed model, RNG state) is the
   whole state — adopting the image resumes the very same
   interleaving. *)
type cursor = { next : int array; committed : string SMap.t; rng : Rng.t }

let execute ~target ~seed ?checkpoint_every ~setup scripts ~mode ~crash_at
    ~resume ~checkpoint =
  let n = Array.length scripts in
  let scr = Array.map Array.of_list scripts in
  let next_op = Array.make n 0 in
  (* the instance is built (or adopted) before any hook is installed:
     neither path may yield *)
  let inst, committed0, f_base, rng =
    match resume with
    | None ->
        let inst = target.Fault.fresh () in
        List.iter inst.Fault.apply setup;
        (inst, List.fold_left Fault.apply_model SMap.empty setup, 0, Rng.create seed)
    | Some (inst, cp) ->
        Array.blit cp.Fault.cp_state.next 0 next_op 0 n;
        (inst, cp.cp_state.committed, cp.cp_flushes, Rng.copy cp.cp_state.rng)
  in
  let pool = inst.Fault.pool in
  (* the shared runtime's deterministic executor, drawing from [rng];
     only the injected crash is an expected fiber death *)
  let sim =
    Scheduler.Sim.create
      ~swallow:(function Pmem.Crash_injected -> true | _ -> false)
      ~rng ()
  in
  let current () = Scheduler.Sim.current sim in
  let committed = ref committed0 in
  let cur_op = Array.make n None in
  let acquired = Array.make n None in
  let fired = Array.make n false in
  let at_boundary = Array.make n false in
  let holders : (Rwlock.t * int) list ref = ref [] in
  (* Attribution is by the currently scheduled fiber, not by lock
     identity: on one OS thread exactly one fiber runs between yields,
     and the hooks fire synchronously inside it. Events fired while
     fibers unwind from the injected crash are ignored — an unwind
     release must not linearize the interrupted operation. *)
  Rwlock.set_event_hook
    (Some
       (fun l ev ->
         match ev with
         | Rwlock.Write_acquired ->
             if not (Pmem.crash_fired pool) then begin
               if List.exists (fun (l', _) -> l' == l) !holders then
                 raise
                   (Fault.Violation
                      (Printf.sprintf
                         "[%s-mt] two writers admitted to one lock \
                          (fibers %d and %d)"
                         target.Fault.target_name
                         (snd (List.find (fun (l', _) -> l' == l) !holders))
                         (current ())));
               holders := (l, current ()) :: !holders;
               acquired.(current ()) <- cur_op.(current ())
             end
         | Rwlock.Write_released ->
             (* not a commit signal: the optimistic path releases and
                retries exclusively; Mt_hook carries the commits *)
             if not (Pmem.crash_fired pool) then begin
               holders := List.filter (fun (l', _) -> not (l' == l)) !holders;
               acquired.(current ()) <- None
             end
         | Rwlock.Read_acquired | Rwlock.Read_released -> ()));
  Mt_hook.install (fun () ->
      if not (Pmem.crash_fired pool) then
        match cur_op.(current ()) with
        | Some op ->
            committed := Fault.apply_model !committed op;
            fired.(current ()) <- true
        | None -> ());
  Scheduler.install_sched_hook ();
  let finish () =
    Scheduler.uninstall_sched_hook ();
    Mt_hook.uninstall ();
    Rwlock.set_event_hook None
  in
  match
    let f0 = Pmem.flush_count pool in
    (match crash_at with
    | Some i -> Pmem.arm_crash ~mode pool ~after_flushes:(i - f_base)
    | None -> ());
    (* Every fiber is spawned, even with no ops left (resume of a fiber
       that had completed): in the original run such a fiber is parked
       at its final boundary yield and still consumes exactly one
       scheduling decision before finishing — the empty loop below does
       the same, keeping the RNG stream aligned between the original
       and resumed executions. *)
    Array.iteri
      (fun i ops ->
        let fiber =
          Scheduler.Sim.spawn sim (fun () ->
              while next_op.(i) < Array.length ops do
                let op = ops.(next_op.(i)) in
                fired.(i) <- false;
                cur_op.(i) <- Some op;
                inst.Fault.apply op;
                cur_op.(i) <- None;
                next_op.(i) <- next_op.(i) + 1;
                (* op-boundary yield: the only point where a fiber is
                   parked with no op in progress and no lock held —
                   checkpoints are captured when every fiber is here
                   (or not started / finished) *)
                at_boundary.(i) <- true;
                Sched_hook.yield ();
                at_boundary.(i) <- false
              done)
        in
        assert (fiber = i))
      scr;
    let quiescent () =
      let ok = ref true in
      for i = 0 to n - 1 do
        match Scheduler.Sim.state sim i with
        | `Finished | `Not_started -> ()
        | `Runnable -> if not at_boundary.(i) then ok := false
        | `Blocked -> ok := false (* explorer fibers never park *)
      done;
      !ok
    in
    let last_cp = ref 0 in
    let maybe_checkpoint () =
      match (checkpoint_every, crash_at) with
      | Some k, None when k > 0 ->
          let fl = Pmem.flush_count pool - f0 in
          if
            fl - !last_cp >= k && quiescent ()
            && Scheduler.Sim.runnable sim <> []
          then begin
            last_cp := fl;
            checkpoint
              {
                Fault.cp_flushes = fl;
                cp_pool = Pmem.clone pool;
                cp_state =
                  { next = Array.copy next_op; committed = !committed; rng = Rng.copy rng };
              }
          end
      | _ -> ()
    in
    (* Once the crash fires, no parked fiber is resumed again: their
       volatile progress is lost power, exactly like interrupted
       domains. (A fiber parked mid-unwind — possible only if an unwind
       finalizer spins on a lock — is abandoned the same way.) *)
    Scheduler.Sim.run sim
      ~stop:(fun () -> Pmem.crash_fired pool)
      ~on_step:maybe_checkpoint;
    let crashed = Pmem.crash_fired pool in
    let flushes = f_base + (Pmem.flush_count pool - f0) in
    Pmem.disarm_crash pool;
    (crashed, flushes)
  with
  | exception e ->
      finish ();
      raise e
  | crashed, flushes ->
      finish ();
      let in_flight = ref [] and waiting = ref [] in
      for i = n - 1 downto 0 do
        match (acquired.(i), cur_op.(i)) with
        | Some op, _ -> in_flight := (i, op) :: !in_flight
        | None, Some (Fault.Search _) -> ()
        | None, Some op ->
            if not fired.(i) then waiting := (i, op) :: !waiting
        | None, None -> ()
      done;
      ( pool,
        {
          Fault.p_crashed = crashed;
          p_flushes = flushes;
          p_committed = SMap.bindings !committed;
          p_in_flight = !in_flight;
          p_waiting = !waiting;
          p_errors = [];
          p_acked = 0;
          p_dropped = false;
          p_state = (if crashed then [] else inst.Fault.dump ());
          p_recovery_flushes = 0;
          p_snapshot = None;
        } )

let explore ?(target = hart_mt) ?(mode = Pmem.Clean) ?(keep_going = false)
    ?(stop_after_first = false) ?(nested = false) ?max_schedules
    ?checkpoint_every ~seed ~domains ~workload ?(setup = []) scripts =
  if Array.length scripts <> domains then
    invalid_arg "Fault_mt.explore: scripts/domains mismatch";
  Fault.sweep ~nested ~keep_going ~stop_after_first ?max_schedules ~seed
    ~label:(Printf.sprintf "%s-mt@%dd" target.Fault.target_name domains)
    ~workload ~mode
    ~n_ops:(Array.fold_left (fun a s -> a + List.length s) 0 scripts)
    target
    (execute ~target ~seed ?checkpoint_every ~setup scripts)

let probe ?(target = hart_mt) ?(mode = Pmem.Clean) ?(capture_snapshot = false)
    ~seed ~schedule ?(setup = []) scripts =
  Fault.recover_crashed ~capture_snapshot target
    (execute ~target ~seed ~setup scripts ~mode ~crash_at:(Some schedule)
       ~resume:None ~checkpoint:ignore)

(* the core's ddmin shrinker, each candidate replayed by a bounded
   sweep that stops at its first violation *)
let shrink ?(target = hart_mt) ?(mode = Pmem.Clean) ?checkpoint_every ?budget
    ~seed ~setup scripts =
  Fault.shrink ?budget ~seed ~setup scripts ~replay:(fun ~seed ~setup scripts ->
      explore ~target ~mode ~keep_going:true ~stop_after_first:true
        ?checkpoint_every ~seed ~domains:(Array.length scripts)
        ~workload:"shrink" ~setup scripts)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* A scripted concurrent workload: each domain works its own 2-byte
   prefix ("d0".."d3"), so every domain drives a distinct shard — the
   regime in which operations genuinely overlap (same-shard writers
   would just serialize on the stripe lock). Two keys per domain
   pre-exist so updates and deletes contend from the first schedule. *)
let default_workload ~domains ~ops_per_domain =
  let key d i = Printf.sprintf "d%d-%02d" d i in
  let setup =
    List.concat
      (List.init domains (fun d ->
           [
             Fault.Insert (key d 0, Printf.sprintf "s%d" d);
             Fault.Insert (key d 1, Printf.sprintf "t%d" d);
           ]))
  in
  let script d =
    List.init ops_per_domain (fun j ->
        match j mod 5 with
        | 0 -> Fault.Insert (key d (2 + j), Printf.sprintf "v%d.%d" d j)
        | 1 -> Fault.Update (key d 0, Printf.sprintf "u%d.%d" d j)
        | 2 -> Fault.Insert (key d (20 + j), String.make ((j mod 24) + 1) 'x')
        | 3 -> Fault.Delete (key d 1)
        | _ -> Fault.Update (key d (2 + j - 4), Printf.sprintf "w%d.%d" d j))
  in
  (setup, Array.init domains script)

(* Same-stripe collisions on purpose: every domain also mutates keys
   under one shared "cc" prefix (same hash prefix → same ART → same
   stripe on HART; same leaf on FPTree; same radix prefix on WOART), so
   the sweep crosses crash points where colliding operations are
   waiting for one stripe while private-prefix operations are still in
   flight — the serialized case the tightened oracle is about. *)
let collide_workload ~domains ~ops_per_domain =
  let shared i = Printf.sprintf "cc%02d" i in
  let priv d i = Printf.sprintf "p%d-%02d" d i in
  let setup =
    [ Fault.Insert (shared 0, "s0"); Fault.Insert (shared 1, "s1") ]
    @ List.init domains (fun d -> Fault.Insert (priv d 0, Printf.sprintf "q%d" d))
  in
  let script d =
    List.init ops_per_domain (fun j ->
        match j mod 4 with
        | 0 -> Fault.Update (shared (j land 1), Printf.sprintf "c%d.%d" d j)
        | 1 -> Fault.Insert (priv d (1 + j), Printf.sprintf "v%d.%d" d j)
        | 2 -> Fault.Insert (shared (10 + d), Printf.sprintf "n%d.%d" d j)
        | _ -> Fault.Update (priv d 0, Printf.sprintf "w%d.%d" d j))
  in
  (setup, Array.init domains script)

(* Split-repair vs. fresh writers: the setup fills one FPTree leaf to
   the brink ([leaf_cap] = 32; 30 keys under one shared "sp" prefix),
   then domain 0 keeps inserting into that leaf — the overflowing
   insert runs the split on the exclusive stripe path — while domain 1
   writes its own prefix (distinct leaf stripe, so genuinely in flight
   across every flush of the split) and occasionally collides into the
   splitting leaf (a waiter, durably absent by the serialized-case
   oracle). Under [nested:true] the recovery of every mid-split crash —
   the torn-split repair — is itself re-crashed at each of its own
   flush boundaries. Sized for an exhaustive sweep: test_fault pins the
   schedule-space census so a codegen change that silently shrinks the
   explored space fails loudly. *)
let split_race_workload ~domains ~ops_per_domain =
  let hot i = Printf.sprintf "sp%02d" i in
  let priv d i = Printf.sprintf "r%d-%02d" d i in
  let setup =
    List.init 30 (fun i -> Fault.Insert (hot i, Printf.sprintf "s%02d" i))
  in
  let script d =
    if d = 0 then
      (* drives the leaf past capacity: inserts 30.. split the leaf *)
      List.init ops_per_domain (fun j ->
          Fault.Insert (hot (30 + j), Printf.sprintf "h%d" j))
    else
      List.init ops_per_domain (fun j ->
          match j mod 3 with
          | 0 -> Fault.Insert (priv d j, Printf.sprintf "v%d.%d" d j)
          | 1 -> Fault.Update (hot (j mod 30), Printf.sprintf "c%d.%d" d j)
          | _ -> Fault.Insert (priv d (10 + j), Printf.sprintf "w%d.%d" d j))
  in
  (setup, Array.init domains script)

(* Concurrent updates into one value chunk: each domain updates keys of
   its own prefix (its own stripe), whose values the setup places in one
   Val8 chunk, so one domain's header store commits while another's
   update is between its p_value store and its own bit commit, and each
   domain is handed the slots the other's updates free. Every third
   update changes class and back, taking the two-header path. *)
let update_race_workload ~domains ~ops_per_domain =
  let key d i = Printf.sprintf "u%d-%02d" d i in
  let setup =
    List.concat
      (List.init domains (fun d ->
           List.init 2 (fun i -> Fault.Insert (key d i, Printf.sprintf "s%d.%d" d i))))
  in
  let script d =
    List.init ops_per_domain (fun j ->
        let value =
          if j mod 3 = 2 then Printf.sprintf "a 16-byte val%d.%d" d j
          else Printf.sprintf "u%d.%d" d j
        in
        Fault.Update (key d (j mod 2), value))
  in
  (setup, Array.init domains script)

(* Owning leaf-chunk recycles racing inserts into the same chunk: 55
   Val16 keys and one Val8 key fill the first leaf chunk, so the lone
   key sits alone in the second, and its Val8 value shares a chunk that
   stays linked when the value is freed. Domain 0 deletes the lone key,
   which empties its leaf chunk, whose free slot now owns the value, and
   recycles it; then it re-inserts and deletes the key in turn. Every
   other domain inserts and deletes keys of its own prefix. An insert
   reserves the chunk's lowest free slot, so one that comes before the
   recycle takes the owning slot over; its Val16 values make that a
   class-changing take-over. *)
let recycle_race_workload ~domains ~ops_per_domain =
  let lone = "aa00" in
  let value d j =
    if d = 0 then Printf.sprintf "v%d.%d" d j else Printf.sprintf "a 16-byte v%d.%d" d j
  in
  let script d =
    List.init ops_per_domain (fun j ->
        let key = if d = 0 then lone else Printf.sprintf "r%d-%02d" d (j / 2) in
        if (j + Bool.to_int (d = 0)) mod 2 = 0 then Fault.Insert (key, value d j)
        else Fault.Delete key)
  in
  let setup =
    List.init 55 (fun i -> Fault.Insert (Printf.sprintf "k%02d0" i, "sixteen-4"))
    @ [ Fault.Insert ("zz00", "x"); Fault.Insert (lone, "v") ]
  in
  (setup, Array.init domains script)

(* Two object classes recycling at once, each record in its own
   class's log slot: 54 Val16 keys, one Val32 key and one Val8 key fill
   the first leaf chunk, so the lone key sits alone in the second, and
   the Val32 key's value sits alone in its chunk. Domain 0 deletes the
   lone key, which empties and recycles its leaf chunk, then re-inserts
   and deletes it in turn. Domain 1 updates the Val32 key to a Val8
   value, which empties and recycles the Val32 chunk, then back and
   forth. Every other domain inserts and deletes keys of its own
   prefix. *)
let recycle_classes_workload ~domains ~ops_per_domain =
  let lone = "aa00" and wide = "bb00" in
  let script d =
    List.init ops_per_domain (fun j ->
        match d with
        | 0 ->
            if j mod 2 = 0 then Fault.Delete lone
            else Fault.Insert (lone, Printf.sprintf "v%d" j)
        | 1 ->
            Fault.Update
              ( wide,
                if j mod 2 = 0 then Printf.sprintf "w%d" j
                else Printf.sprintf "a value of class val32 #%d" j )
        | _ ->
            let key = Printf.sprintf "r%d-%02d" d (j / 2) in
            if j mod 2 = 0 then Fault.Insert (key, Printf.sprintf "v%d.%d" d j)
            else Fault.Delete key)
  in
  let setup =
    List.init 54 (fun i -> Fault.Insert (Printf.sprintf "k%02d0" i, "sixteen-4"))
    @ [
        Fault.Insert (wide, "a value of class val32");
        Fault.Insert ("zz00", "x");
        Fault.Insert (lone, "v");
      ]
  in
  (setup, Array.init domains script)

(* Class-changing take-overs of owning slots racing updates in the
   owned values' chunks. The setup deletes "bb00", whose free slot then
   owns its Val8 value; three filler keys keep that slot off "aa00"'s
   line. Domain 0 inserts keys that take the owning slot over with a
   value of the other class (Val32, then Val8, and so on), each freeing
   the owned value, and deletes them again, so the slot owns the new
   value; every other domain updates "aa00", whose Val8 chunk is where
   a freed Val8 value goes back to. *)
let takeover_race_workload ~domains ~ops_per_domain =
  let script d =
    List.init ops_per_domain (fun j ->
        if d = 0 then
          let key = Printf.sprintf "c%d00" (j / 2) in
          if j mod 2 = 1 then Fault.Delete key
          else Fault.Insert (key, if j mod 4 = 0 then String.make 20 'c' else "c")
        else Fault.Update ("aa00", Printf.sprintf "u%d.%d" d j))
  in
  let setup =
    [
      Fault.Insert ("aa00", "v0");
      Fault.Insert ("ab00", "f1");
      Fault.Insert ("ac00", "f2");
      Fault.Insert ("ad00", "f3");
      Fault.Insert ("bb00", "v1");
      Fault.Insert ("dd00", String.make 20 'd');
      Fault.Delete "bb00";
    ]
  in
  (setup, Array.init domains script)

(* Seeded workload generator: a qcheck-style op mix (40% insert, 25%
   update, 15% delete, 20% search) over a small key universe that mixes
   per-domain private keys with keys shared across all domains, so
   every seed exercises a different blend of commuting and colliding
   interleavings. Purely a function of the seed: the same seed always
   yields the same scripts. *)
let gen_workload ~seed ~domains ~ops_per_domain =
  let rng = Rng.create seed in
  let shared i = Printf.sprintf "gs%02d" i in
  let priv d i = Printf.sprintf "g%d-%02d" d i in
  let pick_key d =
    let i = Rng.int rng 8 in
    if i < 3 then shared i else priv d i
  in
  let value d j =
    let len = 1 + Rng.int rng 12 in
    String.make len (Char.chr (Char.code 'a' + ((j + d) mod 26)))
  in
  let setup =
    List.init 3 (fun i -> Fault.Insert (shared i, Printf.sprintf "s%d" i))
    @ List.init domains (fun d -> Fault.Insert (priv d 3, Printf.sprintf "t%d" d))
  in
  let script d =
    List.init ops_per_domain (fun j ->
        let k = pick_key d in
        match Rng.int rng 20 with
        | x when x < 8 -> Fault.Insert (k, value d j)
        | x when x < 13 -> Fault.Update (k, value d j)
        | x when x < 16 -> Fault.Delete k
        | _ -> Fault.Search k)
  in
  (setup, Array.init domains script)

(* The concurrent workload table, shared by [hart_cli fault --domains]'s
   sweeps and its [--schedule] replay; [seed] matters only to the
   generator. *)
let workloads =
  [
    ("default", fun ~seed:_ -> default_workload);
    ("collide", fun ~seed:_ -> collide_workload);
    ("split-race", fun ~seed:_ -> split_race_workload);
    ("update-race", fun ~seed:_ -> update_race_workload);
    ("recycle-race", fun ~seed:_ -> recycle_race_workload);
    ("recycle-classes", fun ~seed:_ -> recycle_classes_workload);
    ("takeover-race", fun ~seed:_ -> takeover_race_workload);
    ("gen", gen_workload);
  ]

let find_workload name = List.assoc_opt name workloads
