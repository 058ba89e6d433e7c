(** Deterministic concurrent crash explorer for any striped concurrent
    index ({!Hart_core.Index_intf.MT}, i.e. anything built by
    [Striped_mt.Make]).

    Several simulated domains — effect-handler fibers on one OS thread —
    drive one concurrent index under a seed-replayable interleaving: a
    seeded RNG picks the next runnable fiber at every cooperative switch
    point (every [Pmem.persist], every lock acquire/release, every op
    boundary; see [Hart_util.Sched_hook] and [Hart_core.Rwlock]). A
    crash is injected at a chosen flush boundary — typically with
    several operations in flight on distinct shards — the pool is
    recovered single-domain, and the durable image is checked against a
    {e linearization-set oracle}:

    the recovered map must equal [committed + S] for some subset [S] of
    the in-flight operations, where [committed] is the model folded over
    the operations whose commit signal ([Hart_core.Mt_hook], fired by
    [Striped_mt] after completion, immediately before the final write
    unlock with no yield in between) preceded the crash, and the
    in-flight set is the operations holding a write lock at the crash.
    In-flight operations hold distinct locks (asserted), so by the
    [stripe_of_key] commuting contract they commute durably and every
    subset is reachable; each must be atomically present or absent.
    Colliding operations still {e waiting} for a lock have durably done
    nothing: they appear in no admissible subset, which is the
    tightened, serialized-case half of the oracle.

    Everything is deterministic: the same [(target, seed, schedule)]
    triple replays bit-identically, so a violation names one exact
    execution. This module is the executor; the sweep, the oracle and
    the report are {!Fault.sweep}'s. *)

val hart_mt : Fault.target
(** [Hart_mt] — 512 hash-prefix stripes, all operations shard-local. *)

val all_mt_targets : Fault.target list
(** {!Fault.of_index} over the [mt] front end of every
    [Hart_baselines.Roster] entry that has one, in roster order: HART,
    FPTree, WORT, WOART and the wB+-tree. *)

val find_mt_target : string -> Fault.target option
(** Look a concurrent target up by name ("hart", "fptree", "woart",
    "wort", "wb-tree" — the names of their sequential counterparts). *)

val explore :
  ?target:Fault.target ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?keep_going:bool ->
  ?stop_after_first:bool ->
  ?nested:bool ->
  ?max_schedules:int ->
  ?checkpoint_every:int ->
  seed:int64 ->
  domains:int ->
  workload:string ->
  ?setup:Fault.op list ->
  Fault.op list array ->
  Fault.report
(** [explore ~seed ~domains ~workload scripts] runs {!Fault.sweep} over
    the interleaved workload: one operation list per simulated domain
    ([Array.length scripts] must equal [domains]), [setup] run
    single-domain before the measured phase. The report's target is
    ["NAME-mt@Dd"]; [contended] counts crash points where a colliding
    operation was waiting for a lock. [target] (default {!hart_mt})
    selects the index under test, [mode] clean or torn crash semantics,
    [max_schedules] an evenly strided subsample (for CI budgets).

    [checkpoint_every] (default off) snapshots the execution during the
    dry run at the first fully-quiescent op boundary after every [K]
    flushes — every fiber parked between operations, no locks held, so
    [Pmem.clone] plus the per-fiber op cursors, committed model and RNG
    state capture the whole execution.

    [nested] (default [false]) re-crashes the single-domain recovery of
    every crashed schedule at each of its own flush boundaries and
    judges the doubly-recovered state against the {e same} admissible
    set — the committed prefix and in-flight set are properties of the
    original crash, which recovery completes or repairs but never
    extends. [keep_going] and [stop_after_first] as in {!Fault.sweep}.
    @raise Fault.Violation on the first inadmissible schedule (unless
    [keep_going]), or if the crash-free run disagrees with its own
    linearization model (always fatal). *)

val probe :
  ?target:Fault.target ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?capture_snapshot:bool ->
  seed:int64 ->
  schedule:int ->
  ?setup:Fault.op list ->
  Fault.op list array ->
  Fault.probe
(** Replay one exact [(seed, schedule)] execution and return its raw
    coordinates — committed prefix, in-flight set ([p_in_flight]: the
    (fiber, op) pairs holding a write lock at the crash), waiting set,
    recovered state — without judging them. Two probes of the same pair
    are identical (determinism), which the tests assert.
    [capture_snapshot] additionally clones the crashed image into
    [p_snapshot] before recovery runs. *)

val shrink :
  ?target:Fault.target ->
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?checkpoint_every:int ->
  ?budget:int ->
  seed:int64 ->
  setup:Fault.op list ->
  Fault.op list array ->
  Fault.shrunk option
(** {!Fault.shrink} over concurrent workloads: every candidate is
    re-judged by a bounded {!explore} sweep over its own flush
    boundaries. [budget] defaults to 400 candidate replays. *)

val default_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — each domain works a distinct 2-byte key prefix
    (hence a distinct shard on every target), mixing inserts, updates
    and deletes over two pre-seeded keys, so operations genuinely
    overlap at the crash points instead of serializing on one stripe. *)

val collide_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — every domain also mutates keys under one shared
    2-byte prefix, forcing same-stripe collisions: crash points where
    colliding operations wait for one stripe lock while private-prefix
    operations are in flight. Exercises the serialized case of the
    oracle; reports on it should show [contended > 0]. *)

val split_race_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — the setup fills one FPTree leaf to 30 of its
    32 slots under a shared prefix; domain 0 then inserts past capacity
    (every overflowing insert runs a leaf split on the exclusive stripe
    path) while the other domains keep fresh writers in flight on their
    own leaves and occasionally collide into the splitting leaf. Under
    [nested:true] this re-crashes the torn-split repair at each of its
    own flush boundaries. Meaningful on {!fptree_mt} (HART has no leaf
    splits); test_fault pins its schedule-space census. *)

val update_race_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — every domain updates keys of its own prefix
    whose values share one value chunk, so bit commits interleave with
    other domains' updates between their [p_value] store and their bit
    commit, and freed slots pass between domains; every third update
    changes class, committing in two chunks' words. *)

val recycle_race_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — the setup fills one leaf chunk and leaves one
    key alone in the next; domain 0 deletes it, emptying the chunk so
    that the delete recycles it while the key's free slot owns its
    value, then re-inserts and deletes it in turn. The other domains
    insert and delete keys of their own prefixes, so an insert can take
    the owning slot over before the recycle, changing the value's class
    (Val8 to Val16). *)

val takeover_race_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — class-changing take-overs racing updates: the
    setup leaves a deleted key's free slot owning a Val8 value. Domain 0
    inserts keys that take that slot over with a value of the other
    class (Val32, then Val8, in turn), each freeing the owned value once
    the slot names the new one, and deletes them again; every other
    domain updates a Val8 key in the chunk the freed Val8 values go back
    to. *)

val recycle_classes_workload :
  domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — two object classes recycling at once: the
    setup leaves one key alone in the second leaf chunk and one Val32
    value alone in its chunk. Domain 0 deletes the lone key, emptying
    and recycling its leaf chunk, then re-inserts and deletes it in
    turn; domain 1 updates the Val32 key to a Val8 value and back,
    emptying and recycling the Val32 chunk on every other update. Each
    recycle writes its own class's log slot, so a crash can leave both
    records pending. Further domains insert and delete keys of their own
    prefixes. *)

val gen_workload :
  seed:int64 ->
  domains:int ->
  ops_per_domain:int ->
  Fault.op list * Fault.op list array
(** Seeded workload generator: an op mix of 40% insert / 25% update /
    15% delete / 20% search over a key universe mixing per-domain
    private keys with keys shared across all domains. Purely a function
    of [seed] — the same seed always yields the same scripts — so a CI
    sweep over several seeds is replayable. *)

val workloads :
  (string
  * (seed:int64 ->
    domains:int ->
    ops_per_domain:int ->
    Fault.op list * Fault.op list array))
  list
(** The concurrent workload table — ["default"], ["collide"],
    ["split-race"], ["update-race"], ["recycle-race"],
    ["recycle-classes"], ["gen"] — shared
    by [hart_cli fault --domains]'s sweeps and its [--schedule] replay.
    [seed] matters only to ["gen"]. *)

val find_workload :
  string ->
  (seed:int64 -> domains:int -> ops_per_domain:int -> Fault.op list * Fault.op list array)
  option
