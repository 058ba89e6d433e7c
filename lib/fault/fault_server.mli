(** Deterministic simulation testing (DST) of the full KV server stack.

    FoundationDB-style: several client sessions pipeline scripted RESP
    requests through seeded simulated network connections
    ({!Hart_async.Sim_net} — arbitrary byte fragmentation, chunked
    delivery with a scheduling point per chunk, optional mid-session
    hard drops) into per-connection {!Hart_server.Server.serve_conn}
    fibers over one striped concurrent HART, all on the deterministic
    executor ({!Hart_async.Scheduler.Sim}). Every persist, lock edge
    and network edge is a scheduling point; one (seed, schedule) pair
    replays the exact byte-level session. The sweep crashes every flush
    boundary of the dry run — with requests in flight in every layer —
    recovers single-domain, and checks a session-linearizability
    oracle:

    - the commit-order model (from {!Hart_core.Mt_hook} batch
      attribution) is the linearization of acknowledged writes;
    - ack ⇒ durable: a write reply parsed before the crash names a
      committed operation, and the recovered image contains the whole
      committed model;
    - unacknowledged operations land as any admissible subset of the
      started-but-uncommitted batch ops (atomically present or absent,
      per {!Fault.admissible_states});
    - GETs return the value at call entry or one committed during the
      call; replies are well-typed, in request order.

    This module is the executor: the sweep, the admissible-subset
    oracle and the report are {!Fault.sweep}'s, recovery goes through
    {!Fault_mt.hart_mt}, and violations self-minimize through
    {!Fault.shrink}. See DESIGN.md §17. *)

val explore :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?keep_going:bool ->
  ?stop_after_first:bool ->
  ?max_schedules:int ->
  ?drops:int option array ->
  seed:int64 ->
  clients:int ->
  workload:string ->
  ?setup:Fault.op list ->
  Fault.op list array ->
  Fault.report
(** [explore ~seed ~clients ~workload scripts] runs {!Fault.sweep} over
    the full-stack session: the dry run counts its flush boundaries [F]
    and checks the crash-free oracle (every non-dropped session fully
    acknowledged, quiesced store equal to the commit-order model), then
    every boundary [i < F] ([max_schedules] evenly subsamples, first
    boundary always included) is crashed, recovered and checked against
    the session-linearizability oracle. The report's target is
    ["server@Nc"]; it counts [acked_writes] and [dropped_sessions]. [scripts] gives one request list per client session
    ([Insert]/[Update] → SET, [Delete] → DEL, [Search] → GET); [setup]
    populates the store directly, before any connection opens. [drops]
    arms a {!Hart_async.Sim_net} hard-drop byte fuse per client.
    @raise Fault.Violation on the first violating schedule (unless
    [keep_going]), or if the crash-free run itself fails (always
    fatal). *)

val probe :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?drops:int option array ->
  seed:int64 ->
  schedule:int ->
  ?setup:Fault.op list ->
  Fault.op list array ->
  Fault.probe
(** Replay one exact [(seed, schedule)] full-stack execution and return
    its raw coordinates without judging them: [p_in_flight] holds the
    (client, op) batch operations started under a stripe lock but not
    committed, [p_errors] the in-execution oracle failures. Deterministic: two probes
    of the same pair are identical, which the tests assert. *)

val shrink :
  ?mode:Hart_pmem.Pmem.crash_mode ->
  ?budget:int ->
  seed:int64 ->
  setup:Fault.op list ->
  Fault.op list array ->
  Fault.shrunk option
(** Delta-debug a violating server workload to a locally minimal
    reproducer through {!Fault.shrink} — client sessions
    play the role of domains (the repro's [r_domains] is its client
    count), every candidate re-judged by a bounded {!explore} sweep.
    Returns [None] if the input does not violate at all. Drop fuses are
    not threaded through: shrink serves the no-drop sweeps. *)

val default_workload :
  clients:int -> ops_per_client:int -> Fault.op list * Fault.op list array
(** [(setup, scripts)] — each client mixes writes on its own key prefix
    (distinct stripes, so batch ops overlap at crash points) with
    writes and reads on a shared prefix (colliding commits; GETs whose
    answer depends on the linearization). *)

val drop_workload :
  clients:int ->
  ops_per_client:int ->
  Fault.op list * Fault.op list array * int option array
(** {!default_workload} with the last client's connection armed to
    hard-drop after 120 delivered bytes — mid-pipelined-batch, writes
    received but never acknowledged. The server's epilogue contract
    (DESIGN.md §17) says those writes still commit; the sweep checks
    they survive every crash boundary like any other committed op. *)
