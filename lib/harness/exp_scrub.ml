(** Scrub/fsck overhead and the checksummed-format write cost
    (DESIGN.md §15).

    Two questions, one table each:

    - {e write cost}: what does formatting the pool with CRC-32 object
      trailers cost on the simulated clock? The trailers ride inside
      bytes the objects already occupy, so the {e flush} counts are
      identical; what remains is the metered loads that computing and
      verifying trailers adds (a few percent on insert, nothing on
      search, which validates lazily). The table quantifies it.
    - {e scan cost}: what do the online scrub and the deep fsck walk
      cost in wall-clock time per key? Both are volatile-side
      computation (the ECC compare is free on the simulated clock), so
      wall time on the host is the honest unit.

    Every scrub/fsck run here doubles as a correctness gate: a healthy
    pool must produce zero findings. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Hart = Hart_core.Hart
module Keygen = Hart_workloads.Keygen
module Json = Hart_util.Json

let base_sizes = [ 20_000; 100_000 ]

type cell = {
  c_records : int;
  c_format : string; (* "plain" | "crc" *)
  c_insert_ns : float; (* simulated, per op *)
  c_search_ns : float; (* simulated, per op *)
  c_scrub_ms : float; (* wall clock, whole pass *)
  c_fsck_ms : float; (* wall clock, whole pass *)
}

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

let run_cell ~checksums n =
  let pool = Pmem.create (Meter.create Latency.c300_100) in
  let h = Hart.create ~checksums pool in
  let keys = Keygen.generate Keygen.Random n in
  let t0 = Meter.sim_ns (Pmem.meter pool) in
  Array.iteri (fun i key -> Hart.insert h ~key ~value:(Keygen.value_for i)) keys;
  let insert_ns = (Meter.sim_ns (Pmem.meter pool) -. t0) /. float_of_int n in
  let t1 = Meter.sim_ns (Pmem.meter pool) in
  Array.iter
    (fun key ->
      match Hart.search h key with
      | Some _ -> ()
      | None -> failwith "scrub bench: preloaded key missing")
    keys;
  let search_ns = (Meter.sim_ns (Pmem.meter pool) -. t1) /. float_of_int n in
  let scrub_findings, scrub_ms = time_wall (fun () -> Hart.scrub h) in
  let fsck_findings, fsck_ms = time_wall (fun () -> Hart.fsck ~deep:true h) in
  if scrub_findings <> [] || fsck_findings <> [] then
    failwith "scrub bench: healthy pool produced findings";
  {
    c_records = n;
    c_format = (if checksums then "crc" else "plain");
    c_insert_ns = insert_ns;
    c_search_ns = search_ns;
    c_scrub_ms = scrub_ms;
    c_fsck_ms = fsck_ms;
  }

let cell_json c =
  Json.Obj
    [
      ("records", Json.Int c.c_records);
      ("format", Json.Str c.c_format);
      ("insert_sim_ns_per_op", Json.Float c.c_insert_ns);
      ("search_sim_ns_per_op", Json.Float c.c_search_ns);
      ("scrub_wall_ms", Json.Float c.c_scrub_ms);
      ("fsck_wall_ms", Json.Float c.c_fsck_ms);
      ("findings", Json.Int 0);
    ]

let run ~scale =
  let sizes =
    List.map
      (fun n -> max 1_000 (int_of_float (float_of_int n *. scale)))
      base_sizes
  in
  let cells =
    List.concat_map
      (fun n ->
        [ run_cell ~checksums:false n; run_cell ~checksums:true n ])
      sizes
  in
  let pick n fmt =
    List.find (fun c -> c.c_records = n && c.c_format = fmt) cells
  in
  Report.print_table
    ~title:
      "Checksummed-format write cost (simulated ns/op, Random, 300/100) -- \
       same flush counts, overhead is the trailer-computation loads"
    ~col_names:
      [ "insert plain"; "insert crc"; "search plain"; "search crc" ]
    ~rows:
      (List.map
         (fun n ->
           ( Printf.sprintf "%dk" (n / 1000),
             [
               (pick n "plain").c_insert_ns;
               (pick n "crc").c_insert_ns;
               (pick n "plain").c_search_ns;
               (pick n "crc").c_search_ns;
             ] ))
         sizes);
  Report.print_table
    ~title:
      "Scrub/fsck pass cost (wall-clock ms on the host; healthy pool, zero \
       findings)"
    ~col_names:[ "scrub plain"; "scrub crc"; "fsck plain"; "fsck crc" ]
    ~rows:
      (List.map
         (fun n ->
           ( Printf.sprintf "%dk" (n / 1000),
             [
               (pick n "plain").c_scrub_ms;
               (pick n "crc").c_scrub_ms;
               (pick n "plain").c_fsck_ms;
               (pick n "crc").c_fsck_ms;
             ] ))
         sizes);
  flush stdout;
  Json.Obj
    [
      ("experiment", Json.Str "scrub");
      ("cells", Json.List (List.map cell_json cells));
    ]
