(* The durability check that ends every run: with the workload
   quiesced, power-fail the pool (only flushed lines survive), recover
   it the way [hart_cli serve] does on restart, and check that every
   acknowledged write holds its last acknowledged value. The same
   recovery gives the recovery metrics. *)

module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Hart = Hart_core.Hart

let runs = 3

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

type recovery = {
  hart : Hart.t;  (** the recovered store, for the checks *)
  serial_s : float;  (** median of [runs] serial recoveries (traced only) *)
  parallel_s : float;  (** median of [runs] 2-domain recoveries (traced only) *)
  sim_ms : float;  (** simulated time of one cold serial recovery *)
  pm_reads : int;  (** PM reads of that recovery *)
}

(* Crash [pool] and recover the image itself, cold, under the meter.
   With [traced], first recover clones of the crashed image (serial and
   2-domain) for the wall-clock recovery diagnostics. Each recovery
   starts from a collected heap. *)
let crash_and_recover ~traced pool =
  Pmem.crash pool;
  let on_clone f =
    let c = Pmem.clone pool in
    Gc.full_major ();
    snd (timed (fun () -> ignore (f c)))
  in
  let clones n f = if traced then List.init n (fun _ -> on_clone f) else [] in
  let serial = clones (runs - 1) Hart.recover in
  let parallel = clones runs (Hart.recover_parallel ~domains:2) in
  let meter = Pmem.meter pool in
  Meter.invalidate_cache meter;
  Gc.full_major ();
  let c0 = Meter.counters meter in
  let hart, last = timed (fun () -> Hart.recover pool) in
  let c1 = Meter.counters meter in
  {
    hart;
    serial_s = Est.median (last :: serial);
    parallel_s = Est.median parallel;
    sim_ms = (c1.sim_ns -. c0.sim_ns) /. 1e6;
    pm_reads = c1.pm_reads - c0.pm_reads;
  }

(* Keys whose recovered binding differs from the expectation: [ver.(k)]
   is the last acknowledged version of [keys.(k)], -1 for absent. A
   wrong live-key count counts once more. *)
let lost hart ~keys ~tags ~ver =
  let bad = ref 0 and live = ref 0 in
  Array.iteri
    (fun k key ->
      if ver.(k) >= 0 then incr live;
      let ok =
        match Hart.search hart key with
        | None -> ver.(k) < 0
        | Some v -> ver.(k) >= 0 && Wire.version_of ~tag:tags.(k) v = ver.(k)
      in
      if not ok then incr bad)
    keys;
  if Hart.count hart <> !live then incr bad;
  !bad

let integrity_ok hart = match Hart.check_integrity hart with () -> true | exception _ -> false
