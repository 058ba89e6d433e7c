(** Crash-schedule exploration with model-based recovery checking: one
    core, three executors.

    The paper's correctness claim is that Algorithms 1–7 keep the index
    crash-consistent under {e selective persistence}: at any power
    failure, the durable image must recover to a state in which every
    completed operation is applied atomically and every in-flight
    operation is either fully applied or fully absent. Hand-picked
    [arm_crash] call sites only sample that space; this module
    enumerates it.

    {!sweep} is the one exploration core. Given an {!executor} — a
    function that runs a workload from a fresh pool (or a checkpoint) to
    completion or to an armed flush boundary — it:

    + dry-runs the workload once to count its flush boundaries [F] (every
      [persist]ed cache line is one potential crash point), checking the
      crash-free state against the executor's model;
    + for every flush index [i < F] (or an evenly strided subset),
      re-executes — from the newest checkpoint strictly before [i] when
      one is usable — crashes at flush [i], recovers, and checks the
      target's integrity and the {e admissible-subset} oracle: the
      recovered map must equal the committed model plus some subset of
      the operations in flight at the crash;
    + optionally re-crashes every recovery at each of its own flush
      boundaries ({!nested_recovery_sweep}) and judges the doubly
      recovered state against the same admissible set.

    Three executors run on it: the sequential op loop of {!explore}
    (one op in flight at every crash, so the oracle is "exactly the
    state before or after it"), the simulated domains of [Fault_mt], and
    the RESP sessions of [Fault_server]. Every exception raised while
    executing, recovering or checking a schedule becomes a {!violation}
    with coordinates. *)

type op =
  | Insert of string * string
      (** upsert, like [Hart.insert]: an existing key is updated *)
  | Update of string * string  (** no-op when the key is absent *)
  | Delete of string  (** no-op when the key is absent *)
  | Search of string
      (** pure read; a model no-op, but it takes read admissions — the
          concurrent explorer's generated workloads use it to interleave
          readers with in-flight writers *)

val apply_model : string Map.Make(String).t -> op -> string Map.Make(String).t
(** The pure oracle: one atomically-applied operation. *)

val pp_op : Format.formatter -> op -> unit
val pp_mode : Format.formatter -> Hart_pmem.Pmem.crash_mode -> unit

(** {1 Targets} *)

type instance = {
  pool : Hart_pmem.Pmem.t;
  apply : op -> unit;
  check : unit -> unit;
      (** structural integrity; post-crash repairable states allowed *)
  dump : unit -> (string * string) list;
      (** all live bindings, sorted by key *)
}

type target = {
  target_name : string;
  fresh : unit -> instance;
  reattach : Hart_pmem.Pmem.t -> instance;
  media_mount :
    (Hart_pmem.Pmem.t -> instance * Hart_core.Hart_error.finding list) option;
      (** fault-tolerant mount for the media sweep: adopt a pool whose
          device ECC may be reporting corruption, repairing or
          quarantining what it can, and report the findings (HART:
          {!Hart_core.Hart.recover}[ ~quarantine:true] followed by
          {!Hart_core.Hart.fsck}). [None] — the index has no repair
          path; {!explore_media} then consults the device ECC itself
          and refuses a corrupt image with a typed error. *)
}

val fresh_pool : unit -> Hart_pmem.Pmem.t
(** A small pool with a small simulated LLC: explorers clone the pool
    once per nested schedule, so snapshot size dominates their cost. *)

val sorted_dump : ((string -> string -> unit) -> unit) -> (string * string) list
(** Collect an [iter]'s bindings, sorted by key. *)

val hart : target
(** HART (Algorithms 1–7), [kh = 2]. *)

val hart_checksummed : target
(** HART formatted with [~checksums:true] — CRC-32 trailers on leaf
    keys, value objects and micro-log words. Same index, second
    detection tier; member of {!media_targets} (not {!all_targets}) so
    the media sweep exercises the deep fsck checksum walk. *)

val hart_parallel_recovery : domains:int -> target
(** HART with every post-crash reattach running
    {!Hart_core.Hart.recover_parallel}[ ~domains] instead of serial
    recovery. The rebuild issues no flushes, so nested
    crash-during-recovery schedules land only in the serial log replay
    and the schedule space matches [hart]'s — sweeping this target clean
    proves parallel recovery is crash-equivalent to serial. *)

(** What {!of_index} needs of an index: its lifecycle, the four
    operations, a full [iter] for the oracle's dump and its integrity
    check. Both {!Hart_core.Index_intf.S} and
    {!Hart_core.Index_intf.MT} modules have this shape. *)
module type INDEX = sig
  type t

  val name : string
  val create : Hart_pmem.Pmem.t -> t
  val recover : Hart_pmem.Pmem.t -> t
  val insert : t -> key:string -> value:string -> unit
  val search : t -> string -> string option
  val update : t -> key:string -> value:string -> bool
  val delete : t -> string -> bool
  val iter : t -> (string -> string -> unit) -> unit
  val check_integrity : t -> unit
end

val of_index : (module INDEX) -> target
(** An explorer target named [I.name]: [fresh] builds on {!fresh_pool},
    [reattach] is [I.recover], [check] is [I.check_integrity]; no media
    mount. *)

val all_targets : target list
(** All eight indexes of the paper's §II comparison, one per
    [Hart_baselines.Roster] entry and in its order: {!hart}, then every
    other index through {!of_index} over its [S] module, so each is
    wired to its own [recover] entry point and integrity check and
    judged by the same prefix-consistency oracle. *)

val media_targets : target list
(** The media sweep's roster: {!all_targets} plus {!hart_checksummed},
    so both HART detection tiers face the same corruption sites. *)

val find_target : string -> target option
(** Look a target up by its [target_name] (searches {!media_targets},
    a superset of {!all_targets}). *)

exception Violation of string
(** A crash schedule broke integrity or oracle consistency, or a
    crash-free dry run disagreed with its model. The message carries the
    violation's coordinates. *)

(** {1 Violations and reports} *)

(** A minimal replayable reproducer attached to a violation by
    {!shrink}: scheduler seed, per-actor scripts and the violating flush
    boundary name one deterministic execution of a concurrent or server
    probe. *)
type repro = {
  r_seed : int64;  (** scheduler seed *)
  r_domains : int;  (** actors: simulated domains or client sessions *)
  r_schedule : int;  (** violating flush boundary in the shrunk workload *)
  r_setup : op list;
  r_scripts : op list array;  (** one measured script per actor *)
}

val repro_ops : repro -> int
(** Total measured operations across all actors of the reproducer. *)

val pp_repro : Format.formatter -> repro -> unit

val repro_json : repro -> string
(** The reproducer as a JSON object: seed, domains, schedule, op count,
    and the full setup/scripts op lists. *)

(** One violating schedule, with enough coordinates to replay it
    deterministically: (target, workload, mode, schedule[, nested])
    names a single execution — the mode carries the torn-eviction seed
    when there is one, the report the scheduler seed. *)
type violation = {
  v_target : string;
  v_workload : string;
  v_mode : Hart_pmem.Pmem.crash_mode;
  v_schedule : int;  (** outer flush boundary index (media: site index) *)
  v_nested : int option;  (** recovery flush index of a nested schedule *)
  v_detail : string;  (** what check failed, and how *)
  v_repro : repro option;  (** shrunk coordinates, when a shrinker ran *)
}

val violation :
  target:string ->
  workload:string ->
  mode:Hart_pmem.Pmem.crash_mode ->
  schedule:int ->
  ?nested:int ->
  string ->
  violation
(** The one violation builder (no reproducer attached). *)

val pp_violation : Format.formatter -> violation -> unit
val violation_message : violation -> string

type media_outcome =
  | Media_repaired  (** findings, all repaired in place; no data lost *)
  | Media_quarantined  (** damaged objects excised and reported *)
  | Media_detected
      (** typed refusal, or damage reported but not fixable in place *)
  | Media_benign  (** the fault never became observable (e.g. a stuck
                      line no write-back ever hit) *)

val media_outcome_name : media_outcome -> string

type media_site = {
  site_index : int;
  site_fault : string;  (** printable fault coordinates *)
  site_outcome : media_outcome;
  site_findings : int;  (** findings accumulated across both mounts *)
}

(** The one report of every sweep. Counters an executor does not
    produce stay zero. *)
type report = {
  target : string;
      (** index name; concurrent sweeps ["hart-mt@2d"], server sweeps
          ["server@2c"] *)
  workload : string;
  mode : Hart_pmem.Pmem.crash_mode;
  seed : int64 option;  (** scheduler seed (media: base seed) *)
  n_ops : int;  (** operations in the measured phase, across all actors *)
  total_flushes : int;  (** dry-run flush boundaries of the measured phase *)
  schedules : int;
      (** outer crash schedules explored — [total_flushes] unless
          [max_schedules] subsampled (media: sites) *)
  nested_schedules : int;  (** crash-during-recovery schedules explored *)
  recovery_flushes : int;
      (** recovery flushes observed across schedules (= the nested bound) *)
  max_in_flight : int;  (** most operations in flight at any crash *)
  multi_in_flight : int;  (** schedules with >= 2 operations in flight *)
  contended : int;
      (** schedules where some mutating op was waiting for a lock at the
          crash — the serialized same-stripe case ([Fault_mt]) *)
  acked_writes : int;
      (** write acks parsed across crashed schedules ([Fault_server]) *)
  dropped_sessions : int;
      (** schedules where a session hard-dropped ([Fault_server]) *)
  directed_schedules : int;
      (** directed {!Hart_pmem.Pmem.Torn_lines} re-runs performed *)
  checkpoints : int;  (** snapshots taken during the dry run *)
  checkpoint_replays : int;  (** schedules replayed from a snapshot *)
  sites : media_site list;  (** per-site outcomes of a media sweep *)
  violations : violation list;
      (** collected under [keep_going]; empty otherwise *)
}

val pp_report : Format.formatter -> report -> unit

val violation_list_json : violation list -> string
(** A JSON array with one object per violation (target, workload, mode,
    seed, schedule, nested, detail, repro). An empty list yields
    ["[]\n"], so CI can diff the emitted file against an empty
    baseline. *)

val violations_to_json : report list -> string
(** {!violation_list_json} over all violations of the given reports. *)

val with_repro : repro -> report -> report
(** Attach a shrunk reproducer to every violation of a report. *)

(** {1 The exploration core} *)

(** One execution's raw coordinates, before the oracle judges them. *)
type probe = {
  p_crashed : bool;
  p_flushes : int;  (** measured-phase flushes performed *)
  p_committed : (string * string) list;
      (** model of the operations that must be durable: the prefix before
          the in-flight op, the linearized commits, the committed
          batches *)
  p_in_flight : (int * op) list;
      (** (actor, op) pairs that may land atomically or not at all —
          the sequential executor's actor is the op index *)
  p_waiting : (int * op) list;
      (** mutating (actor, op) pairs started but holding no write lock
          and not yet committed: durably absent by the serialized-case
          oracle *)
  p_errors : string list;
      (** oracle failures observed during execution (server: ack ⇒
          durable, reply typing, read window; crash-free runs: premature
          closes) *)
  p_acked : int;  (** write acknowledgements parsed *)
  p_dropped : bool;  (** a session hard-dropped *)
  p_state : (string * string) list;
      (** bindings after recovery (crashed run; see {!recover_crashed})
          or after quiescing (crash-free run) *)
  p_recovery_flushes : int;
      (** flush boundaries the recovery performed — the bound of the
          nested sweep *)
  p_snapshot : Hart_pmem.Pmem.t option;
      (** clone of the crashed durable image, taken before recovery ran,
          when requested *)
}

(** A dry-run snapshot: the durable image at a quiescent point plus the
    executor's volatile cursor ['st] (next op index, committed model,
    RNG state, ...). *)
type 'st checkpoint = {
  cp_flushes : int;  (** measured flushes at capture *)
  cp_pool : Hart_pmem.Pmem.t;  (** re-cloned per replay *)
  cp_state : 'st;
}

type 'st executor =
  mode:Hart_pmem.Pmem.crash_mode ->
  crash_at:int option ->
  resume:(instance * 'st checkpoint) option ->
  checkpoint:('st checkpoint -> unit) ->
  Hart_pmem.Pmem.t * probe
(** Run the measured phase once: from a fresh pool (after its setup), or
    from [resume] — an instance adopted from the checkpoint's image —
    crashing after [crash_at] flushes when given. The dry run
    ([crash_at = None]) may hand snapshots to [checkpoint]. Returns the
    pool (the crashed image, not yet recovered) and the raw probe. *)

val admissible_states :
  (string * string) list -> op list -> (string * string) list list
(** [admissible_states committed in_flight] — every subset of the
    in-flight operations folded onto the committed model, sorted and
    deduplicated: the acceptable recovered states. *)

val recover_crashed :
  ?capture_snapshot:bool -> target -> Hart_pmem.Pmem.t * probe -> probe
(** Recover a crashed execution's pool through [target.reattach], run
    the integrity check and fill in [p_state] and [p_recovery_flushes]
    ([capture_snapshot] first clones the crashed image into
    [p_snapshot]). A crash-free probe is returned unchanged. *)

val nested_recovery_sweep :
  snapshot:Hart_pmem.Pmem.t ->
  recovery_flushes:int ->
  recover:(nested:int -> Hart_pmem.Pmem.t -> unit) ->
  never_fired:(nested:int -> unit) ->
  check:(nested:int -> Hart_pmem.Pmem.t -> unit) ->
  unit
(** [snapshot] is a clone of a crashed durable image whose
    uninterrupted recovery performs [recovery_flushes] flushes. For
    every flush boundary [m < recovery_flushes]: clone the snapshot, arm
    a crash after [m] flushes, and run [recover ~nested:m] on it —
    expected to be interrupted by [Hart_pmem.Pmem.Crash_injected], after
    which [check ~nested:m] receives the crashed-again pool (recover it
    once more and judge the result). If [recover] completes without
    crashing, [never_fired ~nested:m] is called instead. *)

val sweep :
  ?nested:bool ->
  ?directed:bool ->
  ?keep_going:bool ->
  ?stop_after_first:bool ->
  ?max_schedules:int ->
  ?after_recovery:(Hart_pmem.Pmem.t -> (string * string) list -> unit) ->
  ?seed:int64 ->
  label:string ->
  workload:string ->
  mode:Hart_pmem.Pmem.crash_mode ->
  n_ops:int ->
  target ->
  'st executor ->
  report
(** The one sweep driver. Dry-runs the executor, then crashes every
    flush boundary ([max_schedules] evenly subsamples, first boundary
    always included), recovers through the target, and judges
    {!admissible_states}. [after_recovery pool state] runs the
    executor's own post-recovery checks (raise to fail). [nested]
    (default [false]) adds the {!nested_recovery_sweep}; [directed]
    (default [false]) re-runs every crashed schedule with exactly the
    lines its recovery reads torn-evicted.

    Schedules replay from the newest dry-run checkpoint strictly before
    their crash point when adopting it is free of PM side effects and
    the replay still crashes; otherwise the sweep falls back to full
    re-execution for the rest of the run, so checkpointing never
    changes what is checked.

    Any exception raised while executing, recovering or checking a
    schedule ([Stack_overflow] and [Out_of_memory] aside) is a violation
    with that schedule's coordinates. [keep_going] (default [false])
    collects violations into the report — one per schedule, skipping
    the rest of it — instead of raising {!Violation} on the first;
    [stop_after_first] ends a [keep_going] sweep at its first violation
    (the shrinker's replay mode). [label] names the target in the
    report and its violations.
    @raise Violation on the first violating schedule (unless
    [keep_going]), or if the dry run fails or disagrees with its model
    (always fatal). *)

(** A locally minimal reproducer found by {!shrink}. *)
type shrunk = {
  s_repro : repro;
  s_detail : string;  (** violation detail at the minimum *)
  s_checks : int;  (** candidate replays evaluated *)
  s_accepted : int;  (** shrink moves that preserved the violation *)
}

val shrink :
  ?budget:int ->
  replay:(seed:int64 -> setup:op list -> op list array -> report) ->
  seed:int64 ->
  setup:op list ->
  op list array ->
  shrunk option
(** [shrink ~replay ~seed ~setup scripts] delta-debugs a violating
    multi-actor workload to a locally minimal reproducer, or returns
    [None] if the input does not violate at all. [replay] re-runs one
    candidate — a [keep_going] + [stop_after_first] sweep — and every
    candidate is re-verified by full deterministic replay, so the crash
    coordinate shrinks along with the ops. Shrink moves, greedy to
    fixpoint: drop whole actors, remove consecutive op chunks (halving
    sizes, ddmin-style) from each script and the setup, merge the key
    universe onto its smallest key, simplify values to one byte, and
    finally canonicalize the scheduler seed towards 0. [budget]
    (default 400) bounds the number of candidate replays. *)

(** {1 The sequential explorer} *)

val explore :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?nested:bool ->
  ?directed:bool ->
  ?setup:op list ->
  ?checkpoint_every:int ->
  ?keep_going:bool ->
  workload:string ->
  target ->
  op list ->
  report
(** [explore ~workload target ops] sweeps every flush boundary of [ops],
    run one at a time. [setup] (default empty) is executed before the
    measured phase on every re-execution but is not itself swept — use
    it to build a large precondition (e.g. three full chunks) cheaply.
    [nested] (default [true]) also sweeps every recovery flush of every
    outer schedule. [mode] (default [Clean]) selects the injected
    failure semantics.

    Beyond the core's oracle, every recovered image must be {e
    idempotent} (recovering it again yields the same map) and {e
    usable} (a probe insert/delete passes integrity).

    [directed] (default [false]) adds the directed torn pass: for every
    crashed schedule, the set of PM lines its recovery actually reads is
    captured on a throwaway clone (via the {!Hart_pmem.Pmem}
    read-trace), and the same schedule is then re-run with exactly those
    lines evicted ({!Hart_pmem.Pmem.Torn_lines}) and fully re-checked,
    including the nested sweep.

    [checkpoint_every] (default off) snapshots the pool with
    {!Hart_pmem.Pmem.clone} at the first op boundary after every [K]
    flushes of the dry run, turning the sweep's O(F²) flush work into
    O(F·K) (see {!sweep}). [keep_going] as in {!sweep}. *)

val explore_adversarial :
  ?nested:bool ->
  ?directed:bool ->
  ?setup:op list ->
  ?checkpoint_every:int ->
  ?keep_going:bool ->
  ?subsets:int ->
  ?base_seed:int64 ->
  ?fraction:float ->
  workload:string ->
  target ->
  op list ->
  report list
(** Adversarial torn sweep, most-directed eviction first. [directed]
    (default [true]) starts with a clean-mode sweep whose every crashed
    schedule is re-run with exactly the lines its recovery reads
    torn-evicted ({!explore}'s [directed] pass). Then a
    {!Hart_pmem.Pmem.Torn_commit} pass — at each crash point, evict
    exactly the line whose flush the crash interrupted, i.e. the
    suspected commit-point line — then [subsets] (default 4)
    {!Hart_pmem.Pmem.Torn} passes with seeds [base_seed + k] and the
    given [fraction] (default 0.5) as a random-subset fallback net for
    designs whose critical lines are neither read by recovery nor being
    flushed at the crash. Returns one {!report} per pass, in that
    order. *)

val builtin_workloads : (string * op list * op list) list
(** [(name, setup, ops)] — the standing correctness gate:

    - ["update-log"]: Algorithm 3 update-log states, including value
      size-class migrations and empty values;
    - ["stale-ulog"]: a kept update-log record whose key is deleted and
      whose leaf and new value are reused by other keys, then
      overwritten by an update of another key through the same slot;
    - ["delete-recycle"]: Algorithm 5 deletes draining leaf and value
      chunks through Algorithm 6's unlink, plus empty-ART directory
      cleanup and reuse after recycling;
    - ["mixed-dense"]: interleaved insert/update/delete over shared
      prefixes with key lengths straddling [kh];
    - ["chunk-unlink"]: three full leaf-chunk (and value-chunk) lists
      built in setup, then the final deletes that unlink chunks at
      head, middle and tail positions of their lists;
    - ["split-chain"]: a leaf filled to capacity in setup, then inserts
      that overflow it twice — on FPTree the sweep crosses every flush
      of two leaf splits, including the torn-split window its recovery
      must repair. *)

val find_workload : string -> (string * op list * op list) option

(** {1 Media-fault sweep}

    Crash schedules ask "does recovery survive losing unflushed
    lines?"; the media sweep asks "does the store survive the durable
    lines themselves rotting?". Per corruption site it populates the
    target, powers off cleanly, injects one seeded
    {!Hart_pmem.Pmem.media_fault} into the durable image, mounts
    fault-tolerantly (HART: quarantining recovery + fsck; baselines:
    device-ECC verification that refuses a corrupt image with a typed
    {!Hart_core.Hart_error.Error}), reads everything back, runs a small
    write batch, power-cycles and mounts again — a stuck line that
    silently swallowed a write-back only becomes visible at the second
    mount. The oracle: every key that diverges from the model must be
    named by a finding or absorbed by residual finding capacity, and
    any typed error is itself an accepted outcome. A divergence nothing
    accounts for is a {e silent wrong answer} — the one forbidden
    behaviour, reported as a {!violation}. *)

val explore_media :
  ?sites:int ->
  ?base_seed:int64 ->
  ?setup:op list ->
  ?keep_going:bool ->
  workload:string ->
  target ->
  op list ->
  report
(** [explore_media ~workload target ops] runs [sites] (default 25)
    seeded corruption sites; site [k] draws its fault from seed
    [base_seed + k], so a report is exactly reproducible. The report's
    [sites] carries each site's outcome, [schedules] the site count and
    [seed] the base seed. [keep_going] collects violations instead of
    raising on the first. A typed error ({!Hart_core.Hart_error.Error},
    {!Hart_pmem.Pmem.Media_poisoned}) from a mount, read-back or write
    is detection, an accepted outcome; any exception from an integrity
    check, and any other exception anywhere in a site, is a violation
    at that site — only [Stack_overflow] and [Out_of_memory] escape.
    @raise Violation on the first silent wrong answer or unexpected
    exception (unless [keep_going]). *)

val media_reports_json : report list -> string
(** A JSON array with one object per media report (site list, outcome
    counts, violations); ["[]\n"] when empty. *)
