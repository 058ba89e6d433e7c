module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Json = Hart_util.Json
module Hart = Hart_core.Hart
module Hart_error = Hart_core.Hart_error
module Roster = Hart_baselines.Roster
module SMap = Map.Make (String)

type op =
  | Insert of string * string
  | Update of string * string
  | Delete of string
  | Search of string

let pp_op ppf = function
  | Insert (k, v) -> Format.fprintf ppf "Insert(%S,%S)" k v
  | Update (k, v) -> Format.fprintf ppf "Update(%S,%S)" k v
  | Delete k -> Format.fprintf ppf "Delete(%S)" k
  | Search k -> Format.fprintf ppf "Search(%S)" k

let apply_model m = function
  | Insert (k, v) -> SMap.add k v m
  | Update (k, v) -> if SMap.mem k m then SMap.add k v m else m
  | Delete k -> SMap.remove k m
  | Search _ -> m

type instance = {
  pool : Pmem.t;
  apply : op -> unit;
  check : unit -> unit;
  dump : unit -> (string * string) list;
}

type target = {
  target_name : string;
  fresh : unit -> instance;
  reattach : Pmem.t -> instance;
  media_mount : (Pmem.t -> instance * Hart_error.finding list) option;
      (* fault-tolerant mount for the media sweep: adopt a pool whose
         device ECC may be reporting corruption, repair or quarantine
         what it can, and report findings. [None] = the index has no
         repair path; the sweep consults the device ECC itself and
         refuses a corrupt image with a typed error. *)
}

(* Small pools and a small simulated LLC: the explorer clones the pool
   once per nested schedule, so snapshot size dominates its cost. *)
let fresh_pool () =
  Pmem.create ~capacity:(1 lsl 18) (Meter.create ~llc_bytes:(1 lsl 16) Latency.c300_100)

let sorted_dump iter =
  let m = ref SMap.empty in
  iter (fun k v -> m := SMap.add k v !m);
  SMap.bindings !m

(* [findings] (default: the mount's quarantines) must be empty: crash
   schedules never involve media faults, so a finding here means
   recovery misclassified a legitimate torn state as corruption *)
let hart_instance ?(findings = Hart.quarantines) pool h =
  {
    pool;
    apply =
      (function
      | Insert (k, v) -> Hart.insert h ~key:k ~value:v
      | Update (k, v) -> ignore (Hart.update h ~key:k ~value:v : bool)
      | Delete k -> ignore (Hart.delete h k : bool)
      | Search k -> ignore (Hart.search h k : string option));
    check =
      (fun () ->
        Hart.check_integrity h;
        match findings h with
        | [] -> ()
        | fs ->
            failwith
              (Format.asprintf "media-clean recovery produced %d finding(s): %a"
                 (List.length fs)
                 (Format.pp_print_list
                    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                    Hart_error.pp_finding)
                 fs));
    dump = (fun () -> sorted_dump (Hart.iter h));
  }

(* the quarantining mount, the fault-tolerant HART mount the media
   sweep exercises, with its findings *)
let hart_media_mount recover pool =
  let h = recover pool in
  (hart_instance ~findings:(fun _ -> []) pool h, Hart.quarantines h)

let hart =
  {
    target_name = "hart";
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create pool));
    reattach = (fun pool -> hart_instance pool (Hart.recover pool));
    media_mount = Some (hart_media_mount (Hart.recover ~quarantine:true));
  }

(* HART with the checksummed object format: CRC-32 trailers on leaf
   keys, value objects and micro-log words. Not part of the crash-gate
   eight (it is the same index with a flag), but swept by the media gate
   so the quarantining mount's checksum checks are exercised end to
   end. *)
let hart_checksummed =
  {
    target_name = "hart-crc";
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create ~checksums:true pool));
    reattach = (fun pool -> hart_instance pool (Hart.recover pool));
    media_mount = Some (hart_media_mount (Hart.recover ~quarantine:true));
  }

(* Same index, but every post-crash reattach is the quarantining mount.
   A crash leaves no media damage, so that mount must settle the image
   as the plain one does: the check fails on any finding of the mount
   or of a following fsck. Kept out of [all_targets] and
   [media_targets]. *)
let hart_quarantining =
  {
    hart with
    target_name = "hart-quarantine";
    reattach =
      (fun pool ->
        hart_instance
          ~findings:(fun h -> Hart.quarantines h @ Hart.fsck h)
          pool
          (Hart.recover ~quarantine:true pool));
  }

(* Same index, but every post-crash reattach rebuilds with the
   multi-domain recovery. The scan and rebuild phases issue no flushes,
   so armed nested crashes still land only in the serial phases (log
   replay, liveness pass) — the schedule space is identical to
   [hart]'s, and so must be the verdicts. *)
let hart_parallel_recovery ~domains =
  {
    target_name = Printf.sprintf "hart-par%d" domains;
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        hart_instance pool (Hart.create pool));
    reattach =
      (fun pool -> hart_instance pool (Hart.recover_parallel ~domains pool));
    media_mount =
      Some
        (hart_media_mount (fun pool ->
             Hart.recover_parallel ~domains ~quarantine:true pool));
  }

module type INDEX = sig
  type t

  val name : string
  val create : Pmem.t -> t
  val recover : Pmem.t -> t
  val insert : t -> key:string -> value:string -> unit
  val search : t -> string -> string option
  val update : t -> key:string -> value:string -> bool
  val delete : t -> string -> bool
  val iter : t -> (string -> string -> unit) -> unit
  val check_integrity : t -> unit
end

let of_index (module I : INDEX) =
  let instance pool t =
    {
      pool;
      apply =
        (function
        | Insert (k, v) -> I.insert t ~key:k ~value:v
        | Update (k, v) -> ignore (I.update t ~key:k ~value:v : bool)
        | Delete k -> ignore (I.delete t k : bool)
        | Search k -> ignore (I.search t k : string option));
      check = (fun () -> I.check_integrity t);
      dump = (fun () -> sorted_dump (I.iter t));
    }
  in
  {
    target_name = I.name;
    fresh =
      (fun () ->
        let pool = fresh_pool () in
        instance pool (I.create pool));
    reattach = (fun pool -> instance pool (I.recover pool));
    media_mount = None;
  }

(* HART keeps its own target (quarantine check, media mount); every
   other roster index is swept through its [S] module *)
let all_targets =
  List.map
    (fun { Roster.index = (module I); _ } ->
      if I.name = hart.target_name then hart else of_index (module I))
    Roster.all

(* the media sweep's roster: the crash-gate eight plus the checksummed
   HART variant, so both HART detection tiers (line ECC alone, line ECC
   + object CRCs) face the same corruption sites *)
let media_targets = hart_checksummed :: all_targets

let find_target name =
  List.find_opt (fun t -> t.target_name = name) media_targets

exception Violation of string

let pp_mode ppf = function
  | Pmem.Clean -> Format.pp_print_string ppf "clean"
  | Pmem.Torn { seed; fraction } ->
      Format.fprintf ppf "torn(seed=%Ld,fraction=%.2f)" seed fraction
  | Pmem.Torn_commit -> Format.pp_print_string ppf "torn-commit"
  | Pmem.Torn_lines lines ->
      Format.fprintf ppf "torn-lines[%s]"
        (String.concat "," (List.map string_of_int lines))

(* A minimal replayable reproducer, attached to a violation by the
   shrinker: (scheduler seed, per-actor scripts, crash schedule) names
   one deterministic execution of a concurrent or server probe. *)
type repro = {
  r_seed : int64;  (* scheduler seed *)
  r_domains : int;
  r_schedule : int;  (* violating flush boundary in the shrunk workload *)
  r_setup : op list;
  r_scripts : op list array;  (* one measured script per domain *)
}

let repro_ops r = Array.fold_left (fun a s -> a + List.length s) 0 r.r_scripts

(* A violating schedule, with enough coordinates to replay it exactly:
   (target, workload, mode, schedule[, nested]) names one deterministic
   execution — the mode carries the torn-eviction seed when there is
   one. *)
type violation = {
  v_target : string;
  v_workload : string;
  v_mode : Pmem.crash_mode;
  v_schedule : int;  (* outer flush boundary index (media: site index) *)
  v_nested : int option;  (* recovery flush index of a nested schedule *)
  v_detail : string;
  v_repro : repro option;  (* shrunk coordinates, when a shrinker ran *)
}

let violation ~target ~workload ~mode ~schedule ?nested detail =
  {
    v_target = target;
    v_workload = workload;
    v_mode = mode;
    v_schedule = schedule;
    v_nested = nested;
    v_detail = detail;
    v_repro = None;
  }

let pp_ops ppf ops =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
    pp_op ppf ops

let pp_repro ppf r =
  Format.fprintf ppf "seed=%Ld domains=%d schedule=%d ops=%d" r.r_seed r.r_domains
    r.r_schedule (repro_ops r);
  if r.r_setup <> [] then Format.fprintf ppf "@ setup: %a" pp_ops r.r_setup;
  Array.iteri
    (fun d ops -> Format.fprintf ppf "@ domain %d: %a" d pp_ops ops)
    r.r_scripts

let pp_violation ppf v =
  Format.fprintf ppf "[%s/%s] mode=%a schedule=%d" v.v_target v.v_workload
    pp_mode v.v_mode v.v_schedule;
  Option.iter (Format.fprintf ppf " nested=%d") v.v_nested;
  Format.fprintf ppf ": %s" v.v_detail;
  Option.iter (Format.fprintf ppf "@ shrunk reproducer: %a" pp_repro) v.v_repro

let violation_message v = Format.asprintf "%a" pp_violation v

(* machine-readable form, for CI diffing against an empty baseline *)
let op_json op =
  let one tag k v =
    Json.Obj
      ([ ("op", Json.Str tag); ("key", Json.Str k) ]
      @ Option.to_list (Option.map (fun v -> ("value", Json.Str v)) v))
  in
  match op with
  | Insert (k, v) -> one "insert" k (Some v)
  | Update (k, v) -> one "update" k (Some v)
  | Delete k -> one "delete" k None
  | Search k -> one "search" k None

let ops_json ops = Json.List (List.map op_json ops)

let repro_json r =
  Json.Obj
    [
      ("seed", Json.Int64 r.r_seed);
      ("domains", Json.Int r.r_domains);
      ("schedule", Json.Int r.r_schedule);
      ("ops", Json.Int (repro_ops r));
      ("setup", ops_json r.r_setup);
      ("scripts", Json.List (Array.to_list (Array.map ops_json r.r_scripts)));
    ]

let violation_json v =
  let opt f = function None -> Json.Null | Some x -> f x in
  Json.Obj
    [
      ("target", Json.Str v.v_target);
      ("workload", Json.Str v.v_workload);
      ("mode", Json.Str (Format.asprintf "%a" pp_mode v.v_mode));
      ( "seed",
        match v.v_mode with Pmem.Torn { seed; _ } -> Json.Int64 seed | _ -> Json.Null );
      ("schedule", Json.Int v.v_schedule);
      ("nested", opt (fun m -> Json.Int m) v.v_nested);
      ("detail", Json.Str v.v_detail);
      ("repro", opt repro_json v.v_repro);
    ]

let violation_list_json vs = Json.to_lines (List.map violation_json vs)

type media_outcome =
  | Media_repaired
  | Media_quarantined
  | Media_detected
  | Media_benign

let media_outcome_name = function
  | Media_repaired -> "repaired"
  | Media_quarantined -> "quarantined"
  | Media_detected -> "detected"
  | Media_benign -> "benign"

type media_site = {
  site_index : int;
  site_fault : string;
  site_outcome : media_outcome;
  site_findings : int;
}

type report = {
  target : string;
  workload : string;
  mode : Pmem.crash_mode;
  seed : int64 option;
  n_ops : int;
  total_flushes : int;
  schedules : int;
  nested_schedules : int;
  recovery_flushes : int;
  max_in_flight : int;
  multi_in_flight : int;
  contended : int;
  acked_writes : int;
  dropped_sessions : int;
  directed_schedules : int;
  checkpoints : int;
  checkpoint_replays : int;
  sites : media_site list;
  violations : violation list;
}

let violations_to_json reports =
  violation_list_json (List.concat_map (fun r -> r.violations) reports)

let with_repro repro r =
  {
    r with
    violations = List.map (fun v -> { v with v_repro = Some repro }) r.violations;
  }

(* ------------------------------------------------------------------ *)
(* The exploration core: one sweep driver for every executor            *)

type probe = {
  p_crashed : bool;
  p_flushes : int;
  p_committed : (string * string) list;
  p_in_flight : (int * op) list;
  p_waiting : (int * op) list;
  p_errors : string list;
  p_acked : int;
  p_dropped : bool;
  p_state : (string * string) list;
  p_recovery_flushes : int;
  p_snapshot : Pmem.t option;
}

type 'st checkpoint = { cp_flushes : int; cp_pool : Pmem.t; cp_state : 'st }

type 'st executor =
  mode:Pmem.crash_mode ->
  crash_at:int option ->
  resume:(instance * 'st checkpoint) option ->
  checkpoint:('st checkpoint -> unit) ->
  Pmem.t * probe

(* every subset of the in-flight set, folded onto the committed model —
   operations waiting for a lock appear in no subset: they held none,
   so by the serialized-case oracle they are durably absent *)
let admissible_states committed in_flight =
  let subsets =
    List.fold_left
      (fun acc op -> acc @ List.map (fun s -> op :: s) acc)
      [ [] ] in_flight
  in
  let base = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty committed in
  List.sort_uniq compare
    (List.map (fun s -> SMap.bindings (List.fold_left apply_model base s)) subsets)

(* Re-crash a recovery at every one of its own flush boundaries: given a
   clone of a crashed durable image and the number of flushes its
   (uninterrupted) recovery performs, arm a crash after [m] flushes of
   a fresh clone and run [recover] on it, which is expected to be
   interrupted by [Pmem.Crash_injected]; the crashed-again image goes to
   [check]. A recovery that completes instead never reached the armed
   point, and [never_fired] reports it. *)
let nested_recovery_sweep ~snapshot ~recovery_flushes ~recover ~never_fired
    ~check =
  for m = 0 to recovery_flushes - 1 do
    let pool = Pmem.clone snapshot in
    Pmem.arm_crash pool ~after_flushes:m;
    match recover ~nested:m pool with
    | () -> never_fired ~nested:m
    | exception Pmem.Crash_injected -> check ~nested:m pool
  done

(* Adopt a checkpoint image: reattaching must be observably free of PM
   side effects (no flushes, no new dirty lines), or a replay from it
   would not be the execution it stands in for. *)
let adopt target snapshot =
  let pool = Pmem.clone snapshot in
  let f = Pmem.flush_count pool and d = Pmem.dirty_line_count pool in
  match target.reattach pool with
  | inst when Pmem.flush_count pool = f && Pmem.dirty_line_count pool = d ->
      Some inst
  | _ | (exception _) -> None

let recover_crashed ?(capture_snapshot = false) target (pool, p) =
  if not p.p_crashed then p
  else begin
    let p_snapshot = if capture_snapshot then Some (Pmem.clone pool) else None in
    let r0 = Pmem.flush_count pool in
    let inst = target.reattach pool in
    inst.check ();
    let p_state = inst.dump () in
    { p with p_state; p_recovery_flushes = Pmem.flush_count pool - r0; p_snapshot }
  end

let describe = function
  | Failure m | Violation m -> m
  | Hart_error.Error e -> Hart_error.to_string e
  | e -> Printexc.to_string e

let pp_bindings bs =
  String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) bs)

let pp_actors ops =
  String.concat ", "
    (List.map (fun (i, op) -> Format.asprintf "%d:%a" i pp_op op) ops)

(* one schedule's check failed: abandon the rest of that schedule *)
exception Failed of violation

let sweep ?(nested = false) ?(directed = false) ?(keep_going = false)
    ?(stop_after_first = false) ?max_schedules
    ?(after_recovery = fun _ _ -> ()) ?seed ~label ~workload ~mode ~n_ops
    target (execute : _ executor) =
  let fatal fmt =
    Printf.ksprintf
      (fun s -> raise (Violation (Printf.sprintf "[%s/%s] %s" label workload s)))
      fmt
  in
  (* dry run: flush-boundary census, the crash-free oracle, checkpoints *)
  let checkpoints = ref [] in
  let dry =
    match
      execute ~mode ~crash_at:None ~resume:None ~checkpoint:(fun cp ->
          checkpoints := cp :: !checkpoints)
    with
    | _, p -> p
    | exception ((Violation _ | Stack_overflow | Out_of_memory) as e) -> raise e
    | exception e -> fatal "crash-free run failed: %s" (describe e)
  in
  (match dry.p_errors with e :: _ -> fatal "crash-free run: %s" e | [] -> ());
  if dry.p_in_flight <> [] || dry.p_waiting <> [] then
    fatal "quiesced run left operations in flight";
  if dry.p_state <> dry.p_committed then
    fatal "crash-free run disagrees with its model";
  let f = dry.p_flushes in
  let indices =
    match max_schedules with
    | Some m when m > 0 && m < f ->
        (* evenly strided subsample, first boundary always included *)
        let stride = (f + m - 1) / m in
        List.filter (fun i -> i mod stride = 0) (List.init f Fun.id)
    | _ -> List.init f Fun.id
  in
  let max_in_flight = ref 0 and multi = ref 0 and contended = ref 0 in
  let acked = ref 0 and dropped = ref 0 in
  let nested_total = ref 0 and recovery_total = ref 0 and directed_total = ref 0 in
  let cp_ok = ref true and cp_replays = ref 0 in
  (* Replay from the newest checkpoint strictly before flush [i]: one
     taken at exactly [i] flushes may have quiesced after the crash
     point (operations commit and release without flushing again after
     their last persist), so resuming it could replay a different —
     valid but different — execution than the scratch run it stands in
     for. A replay whose adoption has side effects or that no longer
     crashes falls back to (and stays on) full re-execution. *)
  let execute_at ~mode i =
    let scratch () = execute ~mode ~crash_at:(Some i) ~resume:None ~checkpoint:ignore in
    match
      if !cp_ok then List.find_opt (fun cp -> cp.cp_flushes < i) !checkpoints
      else None
    with
    | None -> scratch ()
    | Some cp -> (
        let replay =
          Option.map
            (fun inst ->
              execute ~mode ~crash_at:(Some i) ~resume:(Some (inst, cp))
                ~checkpoint:ignore)
            (adopt target cp.cp_pool)
        in
        match replay with
        | Some ((_, p) as run) when p.p_crashed ->
            incr cp_replays;
            run
        | _ ->
            cp_ok := false;
            scratch ())
  in
  let rec run_schedule ~mode ~directed i =
    let fail ?nested fmt =
      Printf.ksprintf
        (fun s ->
          raise (Failed (violation ~target:label ~workload ~mode ~schedule:i ?nested s)))
        fmt
    in
    let guard ?nested what f =
      try f () with
      | (Failed _ | Pmem.Crash_injected | Stack_overflow | Out_of_memory) as e -> raise e
      | e -> fail ?nested "%s: %s" what (describe e)
    in
    let pool, p = guard "execution" (fun () -> execute_at ~mode i) in
    if not p.p_crashed then
      fail "never fired after %d flushes (flush count not reproducible?)" f;
    let k = List.length p.p_in_flight in
    if k > !max_in_flight then max_in_flight := k;
    if k >= 2 then incr multi;
    if p.p_waiting <> [] then incr contended;
    if p.p_dropped then incr dropped;
    acked := !acked + p.p_acked;
    (match p.p_errors with e :: _ -> fail "%s" e | [] -> ());
    let p =
      guard "recovery or integrity failed" (fun () ->
          recover_crashed ~capture_snapshot:(nested || directed) target (pool, p))
    in
    recovery_total := !recovery_total + p.p_recovery_flushes;
    (* the admissible-subset oracle; the sequential executor's single
       in-flight op makes it "exactly the state before or after it" *)
    let ok = admissible_states p.p_committed (List.map snd p.p_in_flight) in
    let judge ?nested what got =
      if not (List.mem got ok) then
        fail ?nested
          "%s state is not committed-prefix + in-flight subset (in flight: %s; \
           waiting: %s): got {%s}, committed {%s}"
          what (pp_actors p.p_in_flight) (pp_actors p.p_waiting)
          (pp_bindings got) (pp_bindings p.p_committed)
    in
    judge "recovered" p.p_state;
    guard "post-recovery check" (fun () -> after_recovery pool p.p_state);
    Option.iter
      (fun snapshot ->
        if nested then
          nested_recovery_sweep ~snapshot ~recovery_flushes:p.p_recovery_flushes
            ~recover:(fun ~nested pool ->
              guard ~nested "crashed recovery" (fun () ->
                  ignore (target.reattach pool : instance)))
            ~never_fired:(fun ~nested ->
              fail ~nested "nested crash never fired (%d recovery flushes)"
                p.p_recovery_flushes)
            ~check:(fun ~nested pool ->
              incr nested_total;
              judge ~nested "doubly recovered"
                (guard ~nested "recovery after nested crash failed" (fun () ->
                     let inst = target.reattach pool in
                     inst.check ();
                     inst.dump ())));
        (* directed torn re-run: find the PM lines this schedule's
           recovery actually reads (traced on a throwaway clone of the
           crash image), then replay the very same schedule with exactly
           those lines torn-evicted — the eviction subset most likely to
           disturb the repair, found without sweeping random subsets *)
        if directed then begin
          let lines =
            let p = Pmem.clone snapshot in
            Pmem.read_trace_start p;
            (try ignore (target.reattach p : instance) with _ -> ());
            Pmem.read_trace_stop p
          in
          if lines <> [] then begin
            incr directed_total;
            run_schedule ~mode:(Pmem.Torn_lines lines) ~directed:false i
          end
        end)
      p.p_snapshot
  in
  let violations = ref [] in
  let record v =
    if keep_going then violations := v :: !violations
    else raise (Violation (violation_message v))
  in
  let exception Stop in
  (try
     List.iter
       (fun i ->
         (try run_schedule ~mode ~directed i with
         | Failed v -> record v
         | (Stack_overflow | Out_of_memory) as e -> raise e
         | e ->
             record
               (violation ~target:label ~workload ~mode ~schedule:i (describe e)));
         if stop_after_first && !violations <> [] then raise Stop)
       indices
   with Stop -> ());
  {
    target = label;
    workload;
    mode;
    seed;
    n_ops;
    total_flushes = f;
    schedules = List.length indices;
    nested_schedules = !nested_total;
    recovery_flushes = !recovery_total;
    max_in_flight = !max_in_flight;
    multi_in_flight = !multi;
    contended = !contended;
    acked_writes = !acked;
    dropped_sessions = !dropped;
    directed_schedules = !directed_total;
    checkpoints = List.length !checkpoints;
    checkpoint_replays = !cp_replays;
    sites = [];
    violations = List.rev !violations;
  }

(* a key no workload uses, for the post-recovery usability probe *)
let probe_key = "~~probe~~"

let explore ?(mode = Pmem.Clean) ?(nested = true) ?(directed = false)
    ?(setup = []) ?checkpoint_every ?(keep_going = false) ~workload target ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  (* oracle prefix states: models.(j) = setup plus ops.(0..j-1), atomic *)
  let models = Array.make (n + 1) SMap.empty in
  models.(0) <- List.fold_left apply_model SMap.empty setup;
  for j = 1 to n do
    models.(j) <- apply_model models.(j - 1) ops.(j - 1)
  done;
  (* The sequential op loop. Checkpoints are op boundaries, every ~K
     flushes of the dry run: the clone captures no volatile state, and
     reattaching an image is side-effect free only between operations.
     A checkpoint's state is the index of the next op. *)
  let execute ~mode ~crash_at ~resume ~checkpoint =
    let inst, j0, f_base =
      match resume with
      | None ->
          let inst = target.fresh () in
          List.iter inst.apply setup;
          (inst, 0, 0)
      | Some (inst, cp) -> (inst, cp.cp_state, cp.cp_flushes)
    in
    let f0 = Pmem.flush_count inst.pool in
    Option.iter
      (fun i -> Pmem.arm_crash ~mode inst.pool ~after_flushes:(i - f_base))
      crash_at;
    let j = ref j0 and last_cp = ref 0 in
    let crashed =
      try
        while !j < n do
          inst.apply ops.(!j);
          incr j;
          match (checkpoint_every, crash_at) with
          | Some k, None when k > 0 ->
              let fl = Pmem.flush_count inst.pool - f0 in
              if fl - !last_cp >= k && !j < n then begin
                last_cp := fl;
                checkpoint
                  { cp_flushes = fl; cp_pool = Pmem.clone inst.pool; cp_state = !j }
              end
          | _ -> ()
        done;
        Pmem.disarm_crash inst.pool;
        false
      with Pmem.Crash_injected -> true
    in
    let j = !j in
    if crash_at = None then inst.check ();
    ( inst.pool,
      {
        p_crashed = crashed;
        p_flushes = f_base + Pmem.flush_count inst.pool - f0;
        p_committed = SMap.bindings models.(j);
        p_in_flight = (if crashed then [ (j, ops.(j)) ] else []);
        p_waiting = [];
        p_errors = [];
        p_acked = 0;
        p_dropped = false;
        p_state = (if crashed then [] else inst.dump ());
        p_recovery_flushes = 0;
        p_snapshot = None;
      } )
  in
  (* idempotence: recovering the recovered image changes nothing;
     usability: the recovered store accepts and repairs further ops *)
  let after_recovery pool recovered =
    Pmem.crash pool;
    let again = target.reattach pool in
    again.check ();
    if again.dump () <> recovered then failwith "recovery is not idempotent";
    again.apply (Insert (probe_key, "p"));
    again.apply (Delete probe_key);
    again.check ()
  in
  sweep ~nested ~directed ~keep_going ~after_recovery ~label:target.target_name
    ~workload ~mode ~n_ops:n target execute

(* ------------------------------------------------------------------ *)
(* Shrinking: delta-debug a violating concurrent workload to a locally
   minimal reproducer.

   Every candidate is judged by full deterministic replay: [replay] is
   a bounded sweep that stops at its first violation — a candidate
   "still violates" iff some flush boundary of its own execution fails
   the oracle. The violating boundary is re-discovered per candidate,
   which is what shrinks the crash coordinate along with the ops:
   editing the workload moves every flush index, so carrying the
   original schedule number over would be meaningless.

   Shrink moves, greedily to fixpoint: drop whole actors (domains or
   client sessions); remove consecutive op chunks (halving chunk sizes,
   ddmin-style) from each script and from the setup; merge the key
   universe down by substituting keys with the smallest surviving key;
   simplify values to one byte; finally canonicalize the scheduler seed
   towards 0. Each accepted move re-anchors on the new violation's
   coordinates, so the result names one exact execution. *)

type shrunk = {
  s_repro : repro;
  s_detail : string;  (* violation detail at the minimum *)
  s_checks : int;  (* candidate replays evaluated *)
  s_accepted : int;  (* shrink moves that preserved the violation *)
}

let shrink ?(budget = 400) ~replay ~seed ~setup scripts =
  let checks = ref 0 in
  let violates ~seed setup scripts =
    if Array.length scripts = 0 || !checks >= budget then None
    else begin
      incr checks;
      match replay ~seed ~setup scripts with
      | r -> (
          match r.violations with
          | [] -> None
          | v :: _ -> Some (v.v_schedule, v.v_detail))
      | exception Violation msg ->
          (* dry-run failure outside any crash schedule — still a
             reproducible failure of this candidate; no crash coordinate *)
          Some (-1, msg)
      | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
      | exception e ->
          (* a buggy target can corrupt itself badly enough that the
             executor itself trips (e.g. Not_found from a mangled
             structure); deterministic, so still a shrinkable failure *)
          Some (-1, Printexc.to_string e)
    end
  in
  match violates ~seed setup scripts with
  | None -> None
  | Some (sch0, det0) ->
      let cur_seed = ref seed in
      let cur_setup = ref setup in
      let cur_scripts = ref scripts in
      let cur_sch = ref sch0 in
      let cur_detail = ref det0 in
      let accepted = ref 0 in
      let try_candidate ~seed:sd setup scripts =
        match violates ~seed:sd setup scripts with
        | Some (sch, det) ->
            cur_seed := sd;
            cur_setup := setup;
            cur_scripts := scripts;
            cur_sch := sch;
            cur_detail := det;
            incr accepted;
            true
        | None -> false
      in
      let remove_chunk ops start len =
        List.filteri (fun i _ -> i < start || i >= start + len) ops
      in
      (* drop whole actor scripts (an empty-script fiber still consumes
         scheduling decisions, so even those are worth removing) *)
      let drop_domain_pass () =
        let changed = ref false in
        let d = ref 0 in
        while !d < Array.length !cur_scripts && Array.length !cur_scripts > 1 do
          let cand =
            Array.of_list
              (List.filteri (fun i _ -> i <> !d) (Array.to_list !cur_scripts))
          in
          if try_candidate ~seed:!cur_seed !cur_setup cand then changed := true
          else incr d
        done;
        !changed
      in
      (* remove consecutive chunks from one actor's script, halving the
         chunk size — greedy ddmin *)
      let drop_ops_pass () =
        let changed = ref false in
        for d = 0 to Array.length !cur_scripts - 1 do
          let size = ref (max 1 (List.length !cur_scripts.(d) / 2)) in
          while !size >= 1 do
            let start = ref 0 in
            while !start + !size <= List.length !cur_scripts.(d) do
              let cand = Array.copy !cur_scripts in
              cand.(d) <- remove_chunk cand.(d) !start !size;
              if try_candidate ~seed:!cur_seed !cur_setup cand then
                changed := true (* same start now holds the next chunk *)
              else start := !start + !size
            done;
            size := !size / 2
          done
        done;
        !changed
      in
      let drop_setup_pass () =
        let changed = ref false in
        let size = ref (max 1 (List.length !cur_setup / 2)) in
        while !size >= 1 do
          let start = ref 0 in
          while !start + !size <= List.length !cur_setup do
            let cand = remove_chunk !cur_setup !start !size in
            if try_candidate ~seed:!cur_seed cand !cur_scripts then
              changed := true
            else start := !start + !size
          done;
          size := !size / 2
        done;
        !changed
      in
      let key_of = function Insert (k, _) | Update (k, _) | Delete k | Search k -> k in
      let subst_key k k' = function
        | Insert (q, v) when q = k -> Insert (k', v)
        | Update (q, v) when q = k -> Update (k', v)
        | Delete q when q = k -> Delete k'
        | Search q when q = k -> Search k'
        | op -> op
      in
      (* shrink the key universe: fold each key onto the smallest one *)
      let merge_keys_pass () =
        let keys =
          List.sort_uniq compare
            (List.map key_of (!cur_setup @ List.concat (Array.to_list !cur_scripts)))
        in
        match keys with
        | [] | [ _ ] -> false
        | smallest :: rest ->
            let changed = ref false in
            List.iter
              (fun k ->
                let cand_setup = List.map (subst_key k smallest) !cur_setup in
                let cand_scripts =
                  Array.map (List.map (subst_key k smallest)) !cur_scripts
                in
                if try_candidate ~seed:!cur_seed cand_setup cand_scripts then
                  changed := true)
              rest;
            !changed
      in
      let simplify_value = function
        | Insert (k, v) when v <> "v" -> Insert (k, "v")
        | Update (k, v) when v <> "v" -> Update (k, "v")
        | op -> op
      in
      let shrink_values_pass () =
        let cand_setup = List.map simplify_value !cur_setup in
        let cand_scripts = Array.map (List.map simplify_value) !cur_scripts in
        if (cand_setup, cand_scripts) = (!cur_setup, !cur_scripts) then false
        else try_candidate ~seed:!cur_seed cand_setup cand_scripts
      in
      let progress = ref true in
      while !progress && !checks < budget do
        progress := false;
        if drop_domain_pass () then progress := true;
        if drop_ops_pass () then progress := true;
        if drop_setup_pass () then progress := true;
        if merge_keys_pass () then progress := true;
        if shrink_values_pass () then progress := true
      done;
      (* canonicalize the scheduler seed last (purely cosmetic): adopt
         the smallest of a few tiny seeds that still violates *)
      (try
         List.iter
           (fun sd ->
             if sd <> !cur_seed && try_candidate ~seed:sd !cur_setup !cur_scripts
             then raise Exit)
           [ 0L; 1L ]
       with Exit -> ());
      Some
        {
          s_repro =
            {
              r_seed = !cur_seed;
              r_domains = Array.length !cur_scripts;
              r_schedule = !cur_sch;
              r_setup = !cur_setup;
              r_scripts = !cur_scripts;
            };
          s_detail = !cur_detail;
          s_checks = !checks;
          s_accepted = !accepted;
        }

(* ------------------------------------------------------------------ *)
(* Built-in workloads (the standing gate)                              *)

let key prefix i = Printf.sprintf "%s%03d" prefix i

let update_log_workload =
  (* Algorithm 3 coverage: updates without the log (the name predates
     its removal; DESIGN.md §6 item 3), in their value's chunk or, on a
     size-class migration (Val8 <-> Val32), in another that the old
     value's chunk may empty and recycle, upsert-as-update, empty values,
     and updates interleaved with deletes *)
  [
    Insert ("AAa", "v7bytes");
    Insert ("AAb", "w");
    Insert ("ABc", String.make 30 'x');
    Update ("AAb", String.make 30 'y');
    Update ("AAb", "s");
    Insert ("AAa", "upserted");
    Update ("ABc", "");
    Delete ("AAb");
    Update ("zz-missing", "ignored");
    Delete ("AAa");
    Update ("ABc", "final16bytes!!!!");
    Delete ("ABc");
  ]

let update_own_workload =
  (* an updated value handed on through its leaf slot: once AAk is
     deleted, its free leaf slot owns the Val16 value of AAk's second
     update. AAn takes the slot over and is handed leaf and value
     together, then AAp the same leaf with a Val8 value, which frees the
     Val16 value, and AAq the same leaf again with a Val16 value, freshly
     allocated; AAo's update finishes. Recovery's liveness pass must
     settle every window from the leaves and the owning slot alone: the
     owned value stays live, a freed one is never named twice. *)
  [
    Insert ("AAk", "v0");
    Insert ("AAo", "other");
    Update ("AAk", "sixteen-1");
    Update ("AAk", "sixteen-2");
    Delete "AAk";
    Insert ("AAn", "sixteen-3");
    Delete "AAn";
    Insert ("AAp", "p");
    Delete "AAp";
    Insert ("AAq", "sixteen-4");
    Update ("AAo", "other-2");
  ]

let delete_recycle_workload =
  (* Algorithm 5 + 6: drain every key so the (single, head) leaf chunk
     and value chunks empty and unlink; the last delete of a prefix also
     frees its ART (directory cleanup); then reuse recycled space *)
  [
    Insert ("AAq", "1");
    Insert ("AAr", "2");
    Insert ("ABs", String.make 20 'z');
    Insert ("B", "short-key");
    Delete ("AAq");
    Delete ("AAr");
    Delete ("ABs");
    Delete ("B");
    Insert ("AAq", "reborn");
    Delete ("AAq");
  ]

let mixed_dense_workload =
  (* interleaved op mix over shared prefixes; key lengths 1..4 straddle
     kh = 2 (hash-key-only keys, empty ART keys, prefix relationships) *)
  [
    Insert ("A", "1");
    Insert ("AB", "2");
    Insert ("ABC", "3");
    Insert ("ABCD", "4");
    Update ("AB", "2nd");
    Delete ("ABC");
    Insert ("ABC", "3rd");
    Update ("A", String.make 25 'm');
    Delete ("AB");
    Insert ("B", "5");
    Delete ("A");
    Update ("ABCD", "");
    Delete ("B");
    Delete ("ABC");
    Delete ("ABCD");
  ]

let chunk_unlink_setup, chunk_unlink_workload =
  (* three full 56-slot leaf chunks (and four value chunks: a value
     chunk keeps its 56th slot as the update spare), then drain each leaf
     chunk down to one key in setup; the measured phase performs the
     three deletes that trigger Algorithm 6's unlink at the middle, head
     and tail positions of the leaf chunk list *)
  let per = 56 in
  let prefixes = [ "ka"; "kb"; "kc" ] in
  let inserts =
    List.concat_map
      (fun p -> List.init per (fun i -> Insert (key p i, "v")))
      prefixes
  in
  let drains =
    List.concat_map
      (fun p -> List.init (per - 1) (fun i -> Delete (key p (i + 1))))
      [ "kb"; "ka"; "kc" ]
  in
  ( inserts @ drains,
    [ Delete (key "kb" 0); Delete (key "ka" 0); Delete (key "kc" 0) ] )

let split_chain_setup, split_chain_workload =
  (* setup fills one FPTree leaf (leaf_cap = 32) minus one; the measured
     inserts overflow it and the next leaf, so the sweep crosses every
     flush of two leaf splits — including the window between the chain
     relink and the left bitmap shrink that recovery must repair. On
     HART the same script fills a leaf chunk towards its second chunk. *)
  let setup = List.init 31 (fun i -> Insert (key "s" (2 * i), "v")) in
  let measured =
    List.init 34 (fun i -> Insert (key "t" i, "w"))
    @ [ Delete (key "s" 0); Update (key "t" 0, "w2"); Delete (key "t" 33) ]
  in
  (setup, measured)

let builtin_workloads =
  [
    ("update-log", [], update_log_workload);
    ("update-own", [], update_own_workload);
    ("delete-recycle", [], delete_recycle_workload);
    ("mixed-dense", [], mixed_dense_workload);
    ("chunk-unlink", chunk_unlink_setup, chunk_unlink_workload);
    ("split-chain", split_chain_setup, split_chain_workload);
  ]

let find_workload name =
  List.find_opt (fun (n, _, _) -> n = name) builtin_workloads

(* ------------------------------------------------------------------ *)
(* Adversarial torn sweep, most-directed first: (1) evict exactly the
   lines each schedule's recovery is observed to read (the directed
   pass, [Torn_lines] via the read trace); (2) drop exactly the line
   whose flush the crash interrupted (the suspected commit point,
   [Torn_commit]); (3) [subsets] random-subset sweeps with distinct
   derived seeds as a fallback net for designs whose critical lines are
   neither read by recovery nor being flushed at the crash. *)

let explore_adversarial ?(nested = true) ?(directed = true) ?(setup = [])
    ?checkpoint_every ?(keep_going = false) ?(subsets = 4)
    ?(base_seed = 0xF417L) ?(fraction = 0.5) ~workload target ops =
  let sweep ?(directed = false) mode =
    explore ~mode ~nested ~directed ~setup ?checkpoint_every ~keep_going
      ~workload target ops
  in
  (if directed then [ sweep ~directed:true Pmem.Clean ] else [])
  @ sweep Pmem.Torn_commit
    :: List.init subsets (fun k ->
           sweep (Pmem.Torn { seed = Int64.add base_seed (Int64.of_int k); fraction }))

(* ------------------------------------------------------------------ *)
(* Media-fault sweep: seeded corruption of a populated durable image,
   with a no-silent-wrong-answer oracle.

   Per site: populate the target and power it off cleanly, inject one
   seeded media fault into the durable image, mount (fault-tolerantly
   for HART, behind a device-ECC verification for the baselines), read
   everything back, run a small write batch, power-cycle, mount and
   read again — a stuck line that silently swallowed a write-back only
   becomes visible at the second mount. Every key that diverges from
   the oracle must be accounted for by the mount's findings (by name,
   or by residual capacity where the damage made the key unreadable);
   a typed error anywhere is itself an accepted outcome (detection).
   A divergence nothing accounts for is a silent wrong answer — the
   one forbidden behaviour. *)

let describe_fault = function
  | Pmem.Flip_bit { off; bit } -> Printf.sprintf "flip-bit(off=%d,bit=%d)" off bit
  | Pmem.Flip_bits { seed; flips } ->
      Printf.sprintf "flip-bits(seed=%Ld,flips=%d)" seed flips
  | Pmem.Clobber_line { line; seed } ->
      Printf.sprintf "clobber-line(line=%d,seed=%Ld)" line seed
  | Pmem.Stuck_line { line } -> Printf.sprintf "stuck-line(line=%d)" line
  | Pmem.Poison_line { line } -> Printf.sprintf "poison-line(line=%d)" line

(* One seeded fault aimed inside the populated region. [live_bytes] is a
   lower bound on [brk] (the bump allocator hands offsets out
   contiguously), so the drawn line is always in-pool. *)
let pick_fault rng pool =
  let lines = max 3 (Pmem.live_bytes pool / Pmem.line_bytes) in
  let line = 1 + Rng.int rng (lines - 1) in
  match Rng.int rng 5 with
  | 0 ->
      Pmem.Flip_bit
        {
          off = (line * Pmem.line_bytes) + Rng.int rng Pmem.line_bytes;
          bit = Rng.int rng 8;
        }
  | 1 -> Pmem.Flip_bits { seed = Rng.next64 rng; flips = 1 + Rng.int rng 4 }
  | 2 -> Pmem.Clobber_line { line; seed = Rng.next64 rng }
  | 3 -> Pmem.Stuck_line { line }
  | _ -> Pmem.Poison_line { line }

let explore_media ?(sites = 25) ?(base_seed = 0x4D454449414CL) ?(setup = [])
    ?(keep_going = false) ~workload target ops =
  let exception Skip_site in
  let exception Site_detected in
  let violations = ref [] in
  let outcomes = ref [] in
  let model0 =
    List.fold_left apply_model (List.fold_left apply_model SMap.empty setup) ops
  in
  (* keys no builtin workload uses, for the post-mount write batch *)
  let bk0 = "~~media0~~" and bk1 = "~~media1~~" in
  let model2 = SMap.add bk1 (String.make 20 'q') model0 in
  for site = 0 to sites - 1 do
    let rng = Rng.create (Int64.add base_seed (Int64.of_int site)) in
    (* 1. populate and power off cleanly: the durable image = the oracle *)
    let inst0 = target.fresh () in
    List.iter inst0.apply setup;
    List.iter inst0.apply ops;
    Pmem.persist_all inst0.pool;
    Pmem.crash inst0.pool;
    let pool = inst0.pool in
    (* 2. one seeded media fault against the durable image *)
    let fault = pick_fault rng pool in
    Pmem.inject_media_fault pool fault;
    let fault_s = describe_fault fault in
    let violate s =
      let v =
        violation ~target:target.target_name ~workload ~mode:Pmem.Clean
          ~schedule:site (Printf.sprintf "%s: %s" fault_s s)
      in
      if keep_going then violations := v :: !violations
      else raise (Violation (violation_message v))
    in
    let viol fmt =
      Printf.ksprintf
        (fun s ->
          violate s;
          raise Skip_site)
        fmt
    in
    let findings = ref [] in
    let mount () =
      match target.media_mount with
      | Some f ->
          let inst, fs = f pool in
          findings := !findings @ fs;
          inst
      | None ->
          (* no repair path: consult the device ECC and refuse a corrupt
             image with a typed error rather than serving from it *)
          let rep = Pmem.media_verify pool in
          (match (rep.Pmem.corrupt_lines, rep.Pmem.poisoned_lines) with
          | [], [] -> ()
          | line :: _, _ | [], line :: _ ->
              Hart_error.error
                (Hart_error.Pool_line { line })
                "device ECC reports media corruption; refusing unverified mount");
          target.reattach pool
    in
    let classify () =
      let repaired, quarantined, detected = Hart_error.partition !findings in
      if detected <> [] then Media_detected
      else if quarantined <> [] then Media_quarantined
      else if repaired <> [] then Media_repaired
      else Media_benign
    in
    let emit outcome =
      outcomes :=
        {
          site_index = site;
          site_fault = fault_s;
          site_outcome = outcome;
          site_findings = List.length !findings;
        }
        :: !outcomes
    in
    (* every divergent key must be named by a finding or absorbed by
       residual (unidentifiable-key) capacity *)
    let covered ~phase divergent =
      let named = List.concat_map (fun f -> f.Hart_error.f_keys) !findings in
      let residual =
        List.fold_left
          (fun a f ->
            a
            + max 0 (f.Hart_error.f_capacity - List.length f.Hart_error.f_keys))
          0 !findings
      in
      let uncovered =
        List.filter (fun k -> not (List.mem k named)) divergent
      in
      if List.length uncovered > residual then
        viol
          "silent wrong answer at %s: %d divergent key(s) [%s] not covered by \
           findings (%d named, residual capacity %d)"
          phase (List.length uncovered)
          (String.concat ";" (List.map (Printf.sprintf "%S") uncovered))
          (List.length named) residual
    in
    let divergence model got =
      let gm = List.fold_left (fun m (k, v) -> SMap.add k v m) SMap.empty got in
      let d = ref [] in
      SMap.iter
        (fun k v ->
          match SMap.find_opt k gm with
          | Some v' when String.equal v' v -> ()
          | _ -> d := k :: !d)
        model;
      SMap.iter (fun k _ -> if not (SMap.mem k model) then d := k :: !d) gm;
      !d
    in
    let checked ~phase inst =
      match inst.check () with
      | () -> ()
      | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
      | exception e -> viol "integrity broken at %s: %s" phase (describe e)
    in
    (try
       (* 3. fault-tolerant mount *)
       let inst =
         try mount ()
         with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected
       in
       checked ~phase:"first mount" inst;
       (* 4. read everything back *)
       (match inst.dump () with
       | got -> covered ~phase:"first mount" (divergence model0 got)
       | exception (Hart_error.Error _ | Pmem.Media_poisoned _) ->
           raise Site_detected);
       (* 5. write batch: fresh inserts and a delete *)
       (try
          inst.apply (Insert (bk0, "mv0"));
          inst.apply (Insert (bk1, String.make 20 'q'));
          inst.apply (Delete bk0)
        with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected);
       (* 6. power-cycle and re-mount: a stuck line that swallowed one of
          the batch's write-backs is only discoverable now *)
       Pmem.crash pool;
       let inst2 =
         try mount ()
         with Hart_error.Error _ | Pmem.Media_poisoned _ -> raise Site_detected
       in
       checked ~phase:"re-mount" inst2;
       (match inst2.dump () with
       | got -> covered ~phase:"re-mount" (divergence model2 got)
       | exception (Hart_error.Error _ | Pmem.Media_poisoned _) ->
           raise Site_detected);
       emit (classify ())
     with
    | Site_detected -> emit Media_detected
    | Skip_site -> emit (classify ())
    | (Violation _ | Stack_overflow | Out_of_memory) as e -> raise e
    | e ->
        (* outside the typed-detection set: a harness or index bug, not
           an accepted outcome *)
        violate ("unexpected exception: " ^ describe e);
        emit (classify ()))
  done;
  {
    target = target.target_name;
    workload;
    mode = Pmem.Clean;
    seed = Some base_seed;
    n_ops = List.length ops;
    total_flushes = 0;
    schedules = sites;
    nested_schedules = 0;
    recovery_flushes = 0;
    max_in_flight = 0;
    multi_in_flight = 0;
    contended = 0;
    acked_writes = 0;
    dropped_sessions = 0;
    directed_schedules = 0;
    checkpoints = 0;
    checkpoint_replays = 0;
    sites = List.rev !outcomes;
    violations = List.rev !violations;
  }

let media_count outcome r =
  List.length (List.filter (fun s -> s.site_outcome = outcome) r.sites)

let media_site_json s =
  Json.Obj
    [
      ("site", Json.Int s.site_index);
      ("fault", Json.Str s.site_fault);
      ("outcome", Json.Str (media_outcome_name s.site_outcome));
      ("findings", Json.Int s.site_findings);
    ]

let media_report_json r =
  let count outcome = Json.Int (media_count outcome r) in
  Json.Obj
    [
      ("target", Json.Str r.target);
      ("workload", Json.Str r.workload);
      ("seed", Json.Int64 (Option.value r.seed ~default:0L));
      ("sites", Json.Int (List.length r.sites));
      ("repaired", count Media_repaired);
      ("quarantined", count Media_quarantined);
      ("detected", count Media_detected);
      ("benign", count Media_benign);
      ("site_list", Json.List (List.map media_site_json r.sites));
      ("violations", Json.List (List.map violation_json r.violations));
    ]

let media_reports_json rs = Json.to_lines (List.map media_report_json rs)

let pp_report ppf r =
  Format.fprintf ppf "%-12s %-14s" r.target r.workload;
  if r.sites <> [] then
    Format.fprintf ppf
      " media sites=%d repaired=%d quarantined=%d detected=%d benign=%d"
      (List.length r.sites)
      (media_count Media_repaired r)
      (media_count Media_quarantined r)
      (media_count Media_detected r)
      (media_count Media_benign r)
  else begin
    Format.fprintf ppf " mode=%a" pp_mode r.mode;
    Option.iter (Format.fprintf ppf " seed=%Ld") r.seed;
    Format.fprintf ppf
      " ops=%d flush-boundaries=%d schedules=%d nested=%d recovery-flushes=%d \
       max-in-flight=%d multi-in-flight=%d"
      r.n_ops r.total_flushes r.schedules r.nested_schedules r.recovery_flushes
      r.max_in_flight r.multi_in_flight;
    (* executor-specific counters, shown where they apply *)
    List.iter
      (fun (name, v) -> if v > 0 then Format.fprintf ppf " %s=%d" name v)
      [
        ("contended", r.contended);
        ("acked", r.acked_writes);
        ("dropped-sessions", r.dropped_sessions);
        ("directed", r.directed_schedules);
        ("checkpoints", r.checkpoints);
        ("replays", r.checkpoint_replays);
      ]
  end;
  if r.violations <> [] then
    Format.fprintf ppf " VIOLATIONS=%d" (List.length r.violations)
