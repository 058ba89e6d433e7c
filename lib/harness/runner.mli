(** Experiment driver: builds a fresh (pool, meter, index) per grid cell
    and measures operation traces on the simulated clock — the paper's
    emulation methodology (§IV-A), where per-operation time is dominated
    by configured PM latencies charged to counted memory events. *)

type instance = {
  pool : Hart_pmem.Pmem.t;
  meter : Hart_pmem.Meter.t;
  ops : Hart_core.Index_intf.ops;
}

val harness_llc_bytes : int
(** Simulated LLC size used for all figure reproductions: scaled down
    with the record counts so dataset ≫ cache holds as it did on the
    paper's testbed (DESIGN.md). *)

val on_pool :
  Hart_pmem.Latency.config -> (Hart_pmem.Pmem.t -> Hart_core.Index_intf.ops) -> instance
(** Fresh meter (harness LLC) + pool, and the index [build] puts on it. *)

val make : Hart_baselines.Roster.entry -> Hart_pmem.Latency.config -> instance
(** Fresh pool + meter + empty index of the entry's kind. *)

type measurement = {
  n_ops : int;
  sim_ns : float;  (** simulated time for the measured trace *)
  wall_ns : float;  (** host wall-clock, for reference only *)
  counters : Hart_pmem.Meter.counters;  (** event deltas for the trace *)
}

val avg_us : measurement -> float
(** Average simulated microseconds per operation. *)

val measure : instance -> Hart_workloads.Workload.op array -> measurement
(** Apply the trace, measuring simulated time and event deltas. *)

val preload : instance -> string array -> (int -> string) -> unit
(** Insert all keys (measured on the simulated clock too, but callers
    normally diff around {!measure} so preload cost is excluded). *)

val fault_gate :
  ?torn_seeds:int64 list ->
  ?progress:(Hart_fault.Fault.report -> unit) ->
  unit ->
  Hart_fault.Fault.report list
(** The standing crash-correctness gate: run {!Hart_fault.Fault.explore}
    over every built-in workload, on every target, under [Clean] plus one
    [Torn] mode per seed in [torn_seeds] (default [[1L; 2L]], fraction
    0.5). [progress] is called after each completed sweep. Raises
    {!Hart_fault.Fault.Violation} on the first inconsistent schedule. *)
