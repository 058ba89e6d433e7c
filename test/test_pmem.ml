module Rng = Hart_util.Rng
module Crc32 = Hart_util.Crc32
module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem

let fresh ?(capacity = 1 lsl 16) () =
  let meter = Meter.create Latency.c300_300 in
  (Pmem.create ~capacity meter, meter)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)

let test_alloc_distinct () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 100 and b = Pmem.alloc pool 100 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "aligned" true (a mod 64 = 0 && b mod 64 = 0);
  Alcotest.(check bool) "null reserved" true (a > 0 && b > 0)

let test_alloc_zeroed () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  for i = 0 to 63 do
    Alcotest.(check int) "zero" 0 (Pmem.get_u8 pool (off + i))
  done

let test_alloc_reuse_after_free () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 128 in
  Pmem.set_u64 pool a 99L;
  Pmem.free pool ~off:a ~len:128;
  let b = Pmem.alloc pool 128 in
  Alcotest.(check int) "region recycled" a b;
  Alcotest.(check int64) "recycled space zeroed" 0L (Pmem.get_u64 pool b)

let test_live_bytes () =
  let pool, _ = fresh () in
  let base = Pmem.live_bytes pool in
  let a = Pmem.alloc pool 100 in
  Alcotest.(check int) "rounded to line" (base + 128) (Pmem.live_bytes pool);
  Pmem.free pool ~off:a ~len:100;
  Alcotest.(check int) "returns to base" base (Pmem.live_bytes pool)

(* An allocation made with [~publish_at] survives a crash only if the
   word at that offset reached PM naming it, or the caller declared it
   published: a crash before either frees it. *)
let test_alloc_publish () =
  let pool, _ = fresh () in
  let root = Pmem.alloc pool 64 in
  let base = Pmem.live_bytes pool in
  let a = Pmem.alloc pool 100 ~publish_at:root in
  Pmem.crash pool;
  Alcotest.(check int) "unpublished: freed by the crash" base (Pmem.live_bytes pool);
  Alcotest.(check bool) "on the free list" true (Pmem.is_free pool ~off:a ~len:100);
  let b = Pmem.alloc pool 100 ~publish_at:root in
  Pmem.set_u64 pool root (Int64.of_int b);
  Pmem.persist pool ~off:root ~len:8;
  Pmem.crash pool;
  Alcotest.(check int) "pointer durable: kept" (base + 128) (Pmem.live_bytes pool);
  let c = Pmem.alloc pool 100 ~publish_at:root in
  Pmem.published pool ~off:c;
  Pmem.set_u64 pool root 0L;
  Pmem.persist pool ~off:root ~len:8;
  Pmem.crash pool;
  Alcotest.(check int) "declared published: kept" (base + 256) (Pmem.live_bytes pool)

let test_alloc_grows () =
  let pool, _ = fresh ~capacity:4096 () in
  let off = Pmem.alloc pool 100_000 in
  Pmem.set_u64 pool (off + 99_000) 7L;
  Alcotest.(check int64) "write beyond initial capacity" 7L
    (Pmem.get_u64 pool (off + 99_000))

let test_alloc_grow_preserves () =
  let pool, _ = fresh ~capacity:4096 () in
  let a = Pmem.alloc pool 64 in
  Pmem.set_u64 pool a 41L;
  Pmem.persist pool ~off:a ~len:8;
  ignore (Pmem.alloc pool 1 lsl 20);
  Alcotest.(check int64) "cache preserved" 41L (Pmem.get_u64 pool a);
  Alcotest.(check int64) "shadow preserved" 41L (Pmem.read_shadow_u64 pool a)

let test_alloc_cap () =
  let meter = Meter.create Latency.c300_300 in
  let pool = Pmem.create ~capacity:4096 ~max_capacity:8192 meter in
  Alcotest.check_raises "out of PM" Pmem.Out_of_memory_pm (fun () ->
      ignore (Pmem.alloc pool 100_000))

(* ------------------------------------------------------------------ *)
(* Loads, stores, persistence                                          *)

let test_u64_roundtrip () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 0x1122334455667788L;
  Alcotest.(check int64) "roundtrip" 0x1122334455667788L (Pmem.get_u64 pool off)

let test_string_roundtrip () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_string pool ~off "hello, persistent world";
  Alcotest.(check string) "roundtrip" "hello, persistent world"
    (Pmem.get_string pool ~off ~len:23)

let test_bounds_checked () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Alcotest.(check bool) "oob get raises" true
    (match Pmem.get_u64 pool (off + 1 lsl 20) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative offset raises" true
    (match Pmem.get_u8 pool (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_persist_reaches_shadow () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 5L;
  Alcotest.(check int64) "shadow stale before persist" 0L (Pmem.read_shadow_u64 pool off);
  Pmem.persist pool ~off ~len:8;
  Alcotest.(check int64) "shadow updated" 5L (Pmem.read_shadow_u64 pool off)

let test_crash_drops_unflushed () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 64 and b = Pmem.alloc pool 64 in
  Pmem.set_u64 pool a 1L;
  Pmem.persist pool ~off:a ~len:8;
  Pmem.set_u64 pool b 2L;
  (* b not persisted *)
  Pmem.crash pool;
  Alcotest.(check int64) "persisted survives" 1L (Pmem.get_u64 pool a);
  Alcotest.(check int64) "unflushed lost" 0L (Pmem.get_u64 pool b)

let test_crash_line_granularity () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 128 in
  (* two lines: persist only the first *)
  Pmem.set_u64 pool off 10L;
  Pmem.set_u64 pool (off + 64) 20L;
  Pmem.persist pool ~off ~len:8;
  Pmem.crash pool;
  Alcotest.(check int64) "line 0 kept" 10L (Pmem.get_u64 pool off);
  Alcotest.(check int64) "line 1 lost" 0L (Pmem.get_u64 pool (off + 64))

let test_rewrite_after_persist () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  Pmem.set_u64 pool off 2L;
  Pmem.crash pool;
  Alcotest.(check int64) "earlier persisted value restored" 1L (Pmem.get_u64 pool off)

let test_dirty_line_count () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 256 in
  Alcotest.(check int) "clean" 0 (Pmem.dirty_line_count pool);
  Pmem.set_u8 pool off 1;
  Pmem.set_u8 pool (off + 64) 1;
  Alcotest.(check int) "two dirty lines" 2 (Pmem.dirty_line_count pool);
  Pmem.persist pool ~off ~len:128;
  Alcotest.(check int) "clean after persist" 0 (Pmem.dirty_line_count pool)

(* Two domains store to interleaved lines (one the even lines, the other
   the odd ones) from a synchronised start: every line written must end
   up dirty. A dirty map that packs several lines' flags into one byte
   loses flags to the racing read-modify-writes. *)
let test_dirty_lines_two_domains () =
  let lines = 1 lsl 16 in
  for _trial = 1 to 5 do
    let pool, _ = fresh ~capacity:((lines + 1) * 64) () in
    let base = Pmem.alloc pool (lines * 64) in
    let ready = Atomic.make 0 in
    let writer parity () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      let i = ref parity in
      while !i < lines do
        Pmem.set_u8 pool (base + (!i * 64)) 1;
        i := !i + 2
      done
    in
    let other = Domain.spawn (writer 1) in
    writer 0 ();
    Domain.join other;
    Alcotest.(check int) "every written line dirty" lines
      (Pmem.dirty_line_count pool)
  done

let test_persist_all () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 1024 in
  for i = 0 to 15 do
    Pmem.set_u64 pool (off + (i * 64)) (Int64.of_int i)
  done;
  Pmem.persist_all pool;
  Pmem.crash pool;
  for i = 0 to 15 do
    Alcotest.(check int64) "all persisted" (Int64.of_int i)
      (Pmem.get_u64 pool (off + (i * 64)))
  done

(* ------------------------------------------------------------------ *)
(* Crash injection and eviction                                        *)

let test_arm_crash_immediate () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 3L;
  Pmem.arm_crash pool ~after_flushes:0;
  Alcotest.check_raises "injected" Pmem.Crash_injected (fun () ->
      Pmem.persist pool ~off ~len:8);
  Alcotest.(check int64) "store lost" 0L (Pmem.get_u64 pool off)

let test_arm_crash_after_n () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 256 in
  (* four dirty lines, crash allowed after 2 flushes *)
  for i = 0 to 3 do
    Pmem.set_u64 pool (off + (i * 64)) 9L
  done;
  Pmem.arm_crash pool ~after_flushes:2;
  (try Pmem.persist pool ~off ~len:256 with Pmem.Crash_injected -> ());
  let survived = ref 0 in
  for i = 0 to 3 do
    if Pmem.get_u64 pool (off + (i * 64)) = 9L then incr survived
  done;
  Alcotest.(check int) "exactly two lines persisted" 2 !survived

let test_disarm_crash () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 4L;
  Pmem.arm_crash pool ~after_flushes:0;
  Pmem.disarm_crash pool;
  Pmem.persist pool ~off ~len:8;
  Alcotest.(check int64) "persisted normally" 4L (Pmem.read_shadow_u64 pool off)

let test_evict_random () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool (64 * 64) in
  for i = 0 to 63 do
    Pmem.set_u64 pool (off + (i * 64)) 1L
  done;
  let rng = Rng.create 42L in
  Pmem.evict_random pool rng ~fraction:0.5;
  let dirty = Pmem.dirty_line_count pool in
  Alcotest.(check bool) "some evicted, some not" true (dirty > 0 && dirty < 64);
  Pmem.crash pool;
  let survived = ref 0 in
  for i = 0 to 63 do
    if Pmem.get_u64 pool (off + (i * 64)) = 1L then incr survived
  done;
  Alcotest.(check int) "evicted lines survive the crash" (64 - dirty) !survived

(* ------------------------------------------------------------------ *)
(* Pool images                                                         *)

let tmpfile () = Filename.temp_file "hart_pool" ".pm"

let test_save_load_roundtrip () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 128 in
  Pmem.set_u64 pool a 11L;
  Pmem.set_string pool ~off:(a + 64) "persisted-string";
  Pmem.persist pool ~off:a ~len:128;
  let path = tmpfile () in
  Pmem.save pool path;
  let pool' = Pmem.load (Meter.create Latency.c300_300) path in
  Alcotest.(check int64) "u64 back" 11L (Pmem.get_u64 pool' a);
  Alcotest.(check string) "string back" "persisted-string"
    (Pmem.get_string pool' ~off:(a + 64) ~len:16);
  Alcotest.(check int) "live bytes preserved" (Pmem.live_bytes pool)
    (Pmem.live_bytes pool');
  Sys.remove path

let test_save_excludes_unflushed () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 64 in
  Pmem.set_u64 pool a 42L;
  (* no persist: saving is a power-off *)
  let path = tmpfile () in
  Pmem.save pool path;
  let pool' = Pmem.load (Meter.create Latency.c300_300) path in
  Alcotest.(check int64) "unflushed store lost" 0L (Pmem.get_u64 pool' a);
  Sys.remove path

let test_load_free_list_survives () =
  let pool, _ = fresh () in
  let a = Pmem.alloc pool 128 in
  ignore (Pmem.alloc pool 128);
  Pmem.free pool ~off:a ~len:128;
  let path = tmpfile () in
  Pmem.save pool path;
  let pool' = Pmem.load (Meter.create Latency.c300_300) path in
  Alcotest.(check int) "freed region reissued after reload" a
    (Pmem.alloc pool' 128);
  Sys.remove path

let test_load_rejects_garbage () =
  let path = tmpfile () in
  let oc = open_out_bin path in
  output_string oc "this is not a pool image";
  close_out oc;
  Alcotest.(check bool) "garbage rejected" true
    (match Pmem.load (Meter.create Latency.c300_300) path with
    | _ -> false
    | exception Failure _ -> true);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Metering                                                            *)

let test_meter_flush_counts () =
  let pool, meter = fresh () in
  let off = Pmem.alloc pool 256 in
  let before = Meter.counters meter in
  Pmem.set_u64 pool off 1L;
  Pmem.set_u64 pool (off + 64) 1L;
  Pmem.persist pool ~off ~len:128;
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "two flushes" 2 d.Meter.flushes;
  Alcotest.(check int) "two fences" 2 d.Meter.fences;
  Alcotest.(check int) "one persistent() call" 1 d.Meter.persist_calls

let test_meter_clean_persist_free () =
  let pool, meter = fresh () in
  let off = Pmem.alloc pool 64 in
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  let before = Meter.counters meter in
  Pmem.persist pool ~off ~len:8;
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "no flush for a clean line" 0 d.Meter.flushes

let test_meter_sim_clock_charges () =
  let pool, meter = fresh () in
  let off = Pmem.alloc pool 64 in
  let t0 = Meter.sim_ns meter in
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  Alcotest.(check bool) "clock advanced by at least the PM write" true
    (Meter.sim_ns meter -. t0 >= 300.)

let test_meter_cache_hit_vs_miss () =
  let meter = Meter.create ~llc_bytes:(1 lsl 16) Latency.c300_300 in
  let pool = Pmem.create meter in
  let off = Pmem.alloc pool 64 in
  let c0 = Meter.counters meter in
  ignore (Pmem.get_u64 pool off);
  let c1 = Meter.counters meter in
  ignore (Pmem.get_u64 pool off);
  let c2 = Meter.counters meter in
  Alcotest.(check int) "first read misses" 1
    (Meter.diff c0 c1).Meter.pm_read_misses;
  Alcotest.(check int) "second read hits" 0
    (Meter.diff c1 c2).Meter.pm_read_misses

let test_meter_flush_invalidates_cache () =
  let meter = Meter.create ~llc_bytes:(1 lsl 16) Latency.c300_300 in
  let pool = Pmem.create meter in
  let off = Pmem.alloc pool 64 in
  ignore (Pmem.get_u64 pool off);
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  let before = Meter.counters meter in
  ignore (Pmem.get_u64 pool off);
  let d = Meter.diff before (Meter.counters meter) in
  Alcotest.(check int) "CLFLUSH evicted the line: read misses again" 1
    d.Meter.pm_read_misses

let test_meter_dram_accounting () =
  let meter = Meter.create Latency.c300_300 in
  let a = Meter.dram_alloc meter 100 in
  let _b = Meter.dram_alloc meter 200 in
  Alcotest.(check int) "live bytes" 300 (Meter.dram_live_bytes meter);
  Meter.dram_free meter ~addr:a ~size:100;
  Alcotest.(check int) "after free" 200 (Meter.dram_live_bytes meter)

let test_meter_latency_configs () =
  List.iter
    (fun (cfg : Latency.config) ->
      let meter = Meter.create cfg in
      let pool = Pmem.create meter in
      let off = Pmem.alloc pool 64 in
      Pmem.set_u64 pool off 1L;
      let t0 = Meter.sim_ns meter in
      Pmem.persist pool ~off ~len:8;
      let dt = Meter.sim_ns meter -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: flush costs >= pm_write" cfg.Latency.name)
        true
        (dt >= cfg.Latency.pm_write_ns))
    Latency.all

let test_latency_equations () =
  (* equation (1): stalled cycles scale by (L_PM - L_DRAM)/L_DRAM *)
  let c = Latency.c600_300 in
  Alcotest.(check (float 1e-9)) "eq (1)" 2e6
    (Latency.stall_cycles ~stalled:1e6 c);
  (* at equal latencies (300/100) the read-side correction vanishes *)
  Alcotest.(check (float 1e-9)) "eq (1) vanishes at 300/100" 0.
    (Latency.stall_cycles ~stalled:1e6 Latency.c300_100);
  (* equation (2): divide by CPU frequency (the paper's 2.6 GHz Xeon) *)
  let s = Latency.extra_read_latency_s ~stalled:2.6e9 ~cpu_hz:2.6e9 c in
  Alcotest.(check (float 1e-9)) "eq (2)" 2.0 s

let test_latency_by_name () =
  Alcotest.(check bool) "300/100 resolves" true (Latency.by_name "300/100" <> None);
  Alcotest.(check bool) "nonsense rejected" true (Latency.by_name "1/2" = None);
  List.iter
    (fun (c : Latency.config) ->
      match Latency.by_name c.Latency.name with
      | Some c' -> Alcotest.(check string) "roundtrip" c.Latency.name c'.Latency.name
      | None -> Alcotest.fail "config not found by its own name")
    Latency.all

(* ------------------------------------------------------------------ *)
(* Model-based property: the shadow image equals replaying only the
   persisted stores.                                                   *)

let qcheck_shadow_model =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (pair (int_bound 63) (pair (int_bound 255) bool)))
  in
  QCheck.Test.make ~count:200 ~name:"crash state = persisted prefix of stores"
    (QCheck.make gen)
    (fun script ->
      let pool, _ = fresh () in
      let off = Pmem.alloc pool (64 * 64) in
      let model = Array.make 64 0 in
      List.iter
        (fun (slot, (v, do_persist)) ->
          Pmem.set_u8 pool (off + (slot * 64)) v;
          if do_persist then begin
            Pmem.persist pool ~off:(off + (slot * 64)) ~len:1;
            model.(slot) <- v
          end)
        script;
      Pmem.crash pool;
      let ok = ref true in
      Array.iteri
        (fun slot v -> if Pmem.get_u8 pool (off + (slot * 64)) <> v then ok := false)
        model;
      !ok)

(* ------------------------------------------------------------------ *)
(* Image-validation hardening                                          *)

(* Hand-craft a v2 pool image: magic, version, brk, live, free-entry
   table, body, trailing CRC-32 of everything before it. Mirrors the
   format written by [Pmem.save]. [crc_delta] is xor-ed into the stored
   trailer (non-zero = deliberately corrupt); [drop_tail] truncates that
   many bytes off the end of the finished image. *)
let write_image ?magic ?version ?(crc_delta = 0) ?(drop_tail = 0) ~brk ~live
    ~free ?body ?(trailing = "") path =
  let magic = Option.value magic ~default:0x48415254504F4F4CL (* HARTPOOL *) in
  let version = Option.value version ~default:2L in
  let body =
    match body with Some b -> b | None -> String.make (max brk 0) '\000'
  in
  let buf = Buffer.create (min (max brk 0) (1 lsl 20) + 64) in
  let w64 v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    Buffer.add_bytes buf b
  in
  w64 magic;
  w64 version;
  w64 (Int64.of_int brk);
  w64 (Int64.of_int live);
  w64 (Int64.of_int (List.length free));
  List.iter
    (fun (size, off) ->
      w64 (Int64.of_int size);
      w64 (Int64.of_int off))
    free;
  Buffer.add_string buf body;
  let crc = Crc32.string (Buffer.contents buf) in
  w64 (Int64.of_int (crc lxor crc_delta));
  Buffer.add_string buf trailing;
  let image = Buffer.contents buf in
  let image = String.sub image 0 (String.length image - drop_tail) in
  let oc = open_out_bin path in
  output_string oc image;
  close_out oc

let expect_load_failure name mk =
  let path = tmpfile () in
  mk path;
  (match Pmem.load (Meter.create Latency.c300_300) path with
  | (_ : Pmem.t) -> Alcotest.failf "%s: corrupt image was accepted" name
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: clear error (got %S)" name msg)
        true
        (String.length msg > 10))
  (* Sys_error would mean we crashed on I/O rather than validating *);
  Sys.remove path

let test_load_rejects_corrupt_headers () =
  expect_load_failure "bad magic" (fun p ->
      write_image ~magic:1L ~brk:128 ~live:0 ~free:[] p);
  expect_load_failure "unaligned brk" (fun p ->
      write_image ~brk:100 ~live:0 ~free:[] p);
  expect_load_failure "zero brk" (fun p ->
      write_image ~brk:0 ~live:0 ~free:[] p);
  expect_load_failure "negative brk" (fun p ->
      write_image ~brk:(-64) ~live:0 ~free:[] p);
  expect_load_failure "huge brk" (fun p ->
      write_image ~brk:(1 lsl 40) ~live:0 ~free:[] ~body:"" p);
  expect_load_failure "negative live" (fun p ->
      write_image ~brk:128 ~live:(-1) ~free:[] p);
  expect_load_failure "live beyond brk" (fun p ->
      write_image ~brk:128 ~live:129 ~free:[] p);
  expect_load_failure "absurd free-entry count" (fun p ->
      write_image ~brk:128 ~live:0 ~free:[ (64, 64); (64, 64); (64, 64) ] p)

let test_load_rejects_corrupt_free_entries () =
  let brk = 512 in
  expect_load_failure "zero-size region" (fun p ->
      write_image ~brk ~live:0 ~free:[ (0, 64) ] p);
  expect_load_failure "negative-size region" (fun p ->
      write_image ~brk ~live:0 ~free:[ (-64, 64) ] p);
  expect_load_failure "unaligned size" (fun p ->
      write_image ~brk ~live:0 ~free:[ (65, 64) ] p);
  expect_load_failure "unaligned offset" (fun p ->
      write_image ~brk ~live:0 ~free:[ (64, 65) ] p);
  expect_load_failure "offset in reserved line" (fun p ->
      write_image ~brk ~live:0 ~free:[ (64, 0) ] p);
  expect_load_failure "region beyond brk" (fun p ->
      write_image ~brk ~live:0 ~free:[ (128, brk - 64) ] p);
  expect_load_failure "exactly overlapping regions" (fun p ->
      write_image ~brk ~live:0 ~free:[ (64, 128); (64, 128) ] p);
  expect_load_failure "partially overlapping regions" (fun p ->
      write_image ~brk ~live:0 ~free:[ (128, 64); (128, 128) ] p)

let test_load_rejects_truncation_and_trailing () =
  expect_load_failure "empty file" (fun p ->
      let oc = open_out_bin p in
      close_out oc);
  expect_load_failure "truncated header" (fun p ->
      let oc = open_out_bin p in
      output_string oc "HART";
      close_out oc);
  expect_load_failure "truncated free table" (fun p ->
      (* header promises one entry but provides half of it *)
      write_image ~brk:128 ~live:0 ~free:[] ~body:"" p;
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 p in
      seek_out oc 32 (* n_free word in the v2 layout *);
      output_string oc "\001\000\000\000\000\000\000\000ABCD";
      close_out oc);
  expect_load_failure "truncated body" (fun p ->
      write_image ~brk:256 ~live:0 ~free:[] ~body:(String.make 100 'x') p);
  expect_load_failure "trailing bytes" (fun p ->
      write_image ~brk:128 ~live:0 ~free:[] ~trailing:"extra" p)

let test_load_rejects_version_and_checksum () =
  expect_load_failure "stale version" (fun p ->
      write_image ~version:1L ~brk:128 ~live:0 ~free:[] p);
  expect_load_failure "future version" (fun p ->
      write_image ~version:3L ~brk:128 ~live:0 ~free:[] p);
  expect_load_failure "corrupt checksum trailer" (fun p ->
      write_image ~crc_delta:1 ~brk:128 ~live:0 ~free:[] p);
  expect_load_failure "flipped body bit" (fun p ->
      (* valid trailer computed over a different body: corrupt the body
         after the fact, keeping the file length right *)
      write_image ~brk:128 ~live:0 ~free:[] p;
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 p in
      seek_out oc 70 (* inside the body *);
      output_string oc "\x01";
      close_out oc);
  expect_load_failure "missing checksum trailer" (fun p ->
      write_image ~drop_tail:8 ~brk:128 ~live:0 ~free:[] p);
  expect_load_failure "image truncated mid-trailer" (fun p ->
      write_image ~drop_tail:3 ~brk:128 ~live:0 ~free:[] p)

let test_load_accepts_valid_free_list () =
  (* the validation must not reject legitimate images: disjoint entries,
     same-size duplicates at different offsets, spans up to brk *)
  let path = tmpfile () in
  write_image ~brk:512 ~live:64
    ~free:[ (64, 64); (64, 192); (128, 384) ]
    path;
  let pool = Pmem.load (Meter.create Latency.c300_300) path in
  Alcotest.(check int) "live restored" 64 (Pmem.live_bytes pool);
  (* the recorded regions must be reallocatable *)
  Alcotest.(check bool) "recycles 64-byte region" true
    (List.mem (Pmem.alloc pool 64) [ 64; 192 ]);
  Alcotest.(check int) "recycles 128-byte region" 384 (Pmem.alloc pool 128);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Media faults and the line-ECC side table                            *)

let test_media_flip_detected_and_resealed () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 256 in
  Pmem.set_u64 pool off 0x1122334455667788L;
  Pmem.persist pool ~off ~len:256;
  let r = Pmem.media_verify pool in
  Alcotest.(check (list int)) "clean after persist" [] r.Pmem.corrupt_lines;
  Pmem.inject_media_fault pool (Pmem.Flip_bit { off = off + 3; bit = 5 });
  let r = Pmem.media_verify pool in
  Alcotest.(check (list int)) "flip detected" [ off / 64 ] r.Pmem.corrupt_lines;
  (* the rot is visible through the device, not hidden by the cache *)
  Alcotest.(check bool) "read sees the flipped bit" true
    (Pmem.get_u64 pool off <> 0x1122334455667788L);
  (* rewriting the full line write-backs fresh content and reseals it *)
  Pmem.set_string pool ~off (String.make 64 '\000');
  Pmem.persist pool ~off ~len:64;
  let r = Pmem.media_verify pool in
  Alcotest.(check (list int)) "resealed by rewrite" [] r.Pmem.corrupt_lines

let test_media_flips_deterministic () =
  let mk () =
    let pool, _ = fresh () in
    let off = Pmem.alloc pool 1024 in
    for i = 0 to 15 do
      Pmem.set_u64 pool (off + (i * 64)) (Int64.of_int (i + 1))
    done;
    Pmem.persist pool ~off ~len:1024;
    (pool, off)
  in
  let pool1, off1 = mk () and pool2, off2 = mk () in
  Alcotest.(check int) "same layout" off1 off2;
  Pmem.inject_media_fault pool1 (Pmem.Flip_bits { seed = 7L; flips = 5 });
  Pmem.inject_media_fault pool2 (Pmem.Flip_bits { seed = 7L; flips = 5 });
  let r1 = Pmem.media_verify pool1 and r2 = Pmem.media_verify pool2 in
  Alcotest.(check (list int))
    "same seed, same corrupt lines" r1.Pmem.corrupt_lines r2.Pmem.corrupt_lines;
  Alcotest.(check bool) "flips landed" true (r1.Pmem.corrupt_lines <> []);
  Pmem.inject_media_fault pool1 (Pmem.Clobber_line { line = off1 / 64; seed = 9L });
  let r = Pmem.media_verify pool1 in
  Alcotest.(check bool) "clobbered line flagged" true
    (List.mem (off1 / 64) r.Pmem.corrupt_lines)

let test_media_stuck_line () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 128 in
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  Pmem.inject_media_fault pool (Pmem.Stuck_line { line = off / 64 });
  (* the write-back reports success but the durable line keeps the old
     content; the ECC table records the intended data, which is exactly
     what makes the silent drop detectable *)
  Pmem.set_u64 pool off 2L;
  Pmem.persist pool ~off ~len:8;
  Alcotest.(check int64) "volatile view has the new value" 2L
    (Pmem.get_u64 pool off);
  Alcotest.(check int64) "durable image kept the old" 1L
    (Pmem.read_shadow_u64 pool off);
  let r = Pmem.media_verify pool in
  Alcotest.(check (list int)) "silent drop detected" [ off / 64 ]
    r.Pmem.corrupt_lines;
  (* a power cycle exposes the loss through the device *)
  Pmem.crash pool;
  Alcotest.(check int64) "old value after crash" 1L (Pmem.get_u64 pool off)

let test_media_poison_line () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 128 in
  Pmem.set_u64 pool off 42L;
  Pmem.persist pool ~off ~len:8;
  Pmem.inject_media_fault pool (Pmem.Poison_line { line = off / 64 });
  (match Pmem.get_u64 pool off with
  | (_ : int64) -> Alcotest.fail "poisoned read did not raise"
  | exception Pmem.Media_poisoned { line; _ } ->
      Alcotest.(check int) "poisoned line reported" (off / 64) line);
  let r = Pmem.media_verify pool in
  Alcotest.(check (list int)) "verify lists the poison" [ off / 64 ]
    r.Pmem.poisoned_lines;
  Alcotest.(check (list int)) "not double-counted as corrupt" []
    r.Pmem.corrupt_lines;
  (* a full-line write-back replaces the contents and clears the poison *)
  Pmem.set_string pool ~off (String.make 64 '\000');
  Pmem.persist pool ~off ~len:64;
  Alcotest.(check int64) "readable again" 0L (Pmem.get_u64 pool off);
  Alcotest.(check (list int)) "unpoisoned" []
    (Pmem.media_verify pool).Pmem.poisoned_lines

(* Write-backs from two domains mutate the fault tables at once: each
   domain's stuck lines seal [expected] entries (growing the table) while
   its poisoned lines are rewritten and unpoisoned. Whatever the
   interleaving, exactly the stuck lines end corrupt and no poison is
   left. *)
let test_media_tables_two_domains () =
  let lines = 1024 in
  for _trial = 1 to 5 do
    let pool, _ = fresh ~capacity:((lines + 1) * 64) () in
    let base = Pmem.alloc pool (lines * 64) in
    let line i = (base / 64) + i in
    for i = 0 to lines - 1 do
      Pmem.inject_media_fault pool
        (if i land 2 = 0 then Pmem.Stuck_line { line = line i }
         else Pmem.Poison_line { line = line i })
    done;
    let ready = Atomic.make 0 in
    let writer parity () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      for i = 0 to (lines / 2) - 1 do
        let off = base + (((2 * i) + parity) * 64) in
        Pmem.set_string pool ~off (String.make 64 'x');
        Pmem.persist pool ~off ~len:64
      done
    in
    let other = Domain.spawn (writer 1) in
    writer 0 ();
    Domain.join other;
    let r = Pmem.media_verify pool in
    Alcotest.(check (list int)) "no poison left" [] r.Pmem.poisoned_lines;
    Alcotest.(check (list int)) "exactly the stuck lines corrupt"
      (List.filter_map
         (fun i -> if i land 2 = 0 then Some (line i) else None)
         (List.init lines Fun.id))
      r.Pmem.corrupt_lines
  done

let test_media_fault_bounds () =
  let pool, _ = fresh () in
  let rejected f =
    match Pmem.inject_media_fault pool f with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "out-of-pool flip" true
    (rejected (Pmem.Flip_bit { off = 1 lsl 30; bit = 0 }));
  Alcotest.(check bool) "negative offset" true
    (rejected (Pmem.Flip_bit { off = -1; bit = 0 }));
  Alcotest.(check bool) "out-of-pool line" true
    (rejected (Pmem.Clobber_line { line = 1 lsl 24; seed = 1L }));
  Alcotest.(check bool) "out-of-pool poison" true
    (rejected (Pmem.Poison_line { line = 1 lsl 24 }))

(* ------------------------------------------------------------------ *)
(* Differential property: the sparse ECC table sealed at fault injection
   reports exactly what an eager per-line CRC table would.             *)

(* The reference: every line below brk carries the CRC of the bytes its
   last legitimate write-back (or scrub, or mount) left there. The model
   also mirrors both byte views and the dirty map, replaying the pool's
   seeded eviction and fault draws, so it knows which lines each step
   writes back. *)
module Eager = struct
  type t = {
    cache : Bytes.t;
    shadow : Bytes.t;
    dirty : bool array;
    crc : int array;
    stuck : (int, unit) Hashtbl.t;
    poisoned : (int, unit) Hashtbl.t;
  }

  let create lines =
    let zero = Bytes.make (lines * 64) '\000' in
    {
      cache = Bytes.copy zero;
      shadow = zero;
      dirty = Array.make lines false;
      crc = Array.make lines (Crc32.bytes_sub (Bytes.make 64 '\000') ~off:0 ~len:64);
      stuck = Hashtbl.create 4;
      poisoned = Hashtbl.create 4;
    }

  let copy m =
    {
      cache = Bytes.copy m.cache;
      shadow = Bytes.copy m.shadow;
      dirty = Array.copy m.dirty;
      crc = Array.copy m.crc;
      stuck = Hashtbl.copy m.stuck;
      poisoned = Hashtbl.copy m.poisoned;
    }

  let lines m = Array.length m.dirty
  let line_crc b line = Crc32.bytes_sub b ~off:(line * 64) ~len:64

  let writeback m line =
    if Hashtbl.mem m.stuck line then m.crc.(line) <- line_crc m.cache line
    else begin
      Bytes.blit m.cache (line * 64) m.shadow (line * 64) 64;
      m.crc.(line) <- line_crc m.shadow line;
      Hashtbl.remove m.poisoned line
    end

  let store m off v =
    Bytes.set_uint8 m.cache off v;
    m.dirty.(off / 64) <- true

  let persist m line =
    if m.dirty.(line) then begin
      writeback m line;
      m.dirty.(line) <- false
    end

  let evict m seed fraction =
    let rng = Rng.create seed in
    for line = 0 to lines m - 1 do
      if m.dirty.(line) && Rng.float rng 1.0 < fraction then persist m line
    done

  let crash ?torn m =
    (match torn with
    | None -> ()
    | Some (seed, fraction) ->
        let rng = Rng.create seed in
        for line = 0 to lines m - 1 do
          if m.dirty.(line) && Rng.float rng 1.0 < fraction then writeback m line
        done);
    Bytes.blit m.shadow 0 m.cache 0 (Bytes.length m.cache);
    Array.fill m.dirty 0 (lines m) false

  let scrub m ~off ~len =
    Bytes.fill m.cache off len '\000';
    Bytes.fill m.shadow off len '\000';
    for line = off / 64 to ((off + len) / 64) - 1 do
      m.crc.(line) <- line_crc m.shadow line;
      Hashtbl.remove m.poisoned line
    done

  let refresh m line =
    Bytes.blit m.shadow (line * 64) m.cache (line * 64) 64;
    m.dirty.(line) <- false

  let flip m off bit =
    Bytes.set_uint8 m.shadow off (Bytes.get_uint8 m.shadow off lxor (1 lsl (bit land 7)));
    refresh m (off / 64)

  let inject m = function
    | Pmem.Flip_bit { off; bit } -> flip m off bit
    | Pmem.Flip_bits { seed; flips } ->
        let rng = Rng.create seed in
        for _ = 1 to flips do
          let bit = Rng.int rng 8 in
          flip m (Rng.int rng (Bytes.length m.shadow)) bit
        done
    | Pmem.Clobber_line { line; seed } ->
        let rng = Rng.create seed in
        for i = 0 to 63 do
          Bytes.set_uint8 m.shadow ((line * 64) + i) (Rng.int rng 256)
        done;
        refresh m line
    | Pmem.Stuck_line { line } -> Hashtbl.replace m.stuck line ()
    | Pmem.Poison_line { line } -> Hashtbl.replace m.poisoned line ()

  (* a mount reseals every line and starts with no faulty cells *)
  let reload m =
    crash m;
    Array.iteri (fun line _ -> m.crc.(line) <- line_crc m.shadow line) m.crc;
    Hashtbl.reset m.stuck;
    Hashtbl.reset m.poisoned

  let verify m =
    let corrupt = ref [] and poisoned = ref [] in
    for line = lines m - 1 downto 0 do
      if Hashtbl.mem m.poisoned line then poisoned := line :: !poisoned
      else if line_crc m.shadow line <> m.crc.(line) then corrupt := line :: !corrupt
    done;
    { Pmem.corrupt_lines = !corrupt; poisoned_lines = !poisoned }
end

type media_step =
  | Store of int * int  (* byte offset, value *)
  | Persist of int  (* line *)
  | Evict of int64 * float
  | Crash_clean
  | Crash_torn of int64 * float
  | Rescrub of int  (* region: free, then re-allocate *)
  | Fault of Pmem.media_fault
  | Clone
  | Save_load

let regions = 6 (* of [region_bytes] each, after the null line *)
let region_bytes = 128
let media_lines = 1 + (regions * region_bytes / 64)

let pp_media_step = function
  | Store (off, v) -> Printf.sprintf "Store(%d,%d)" off v
  | Persist l -> Printf.sprintf "Persist %d" l
  | Evict (s, f) -> Printf.sprintf "Evict(%Ld,%.2f)" s f
  | Crash_clean -> "Crash_clean"
  | Crash_torn (s, f) -> Printf.sprintf "Crash_torn(%Ld,%.2f)" s f
  | Rescrub r -> Printf.sprintf "Rescrub %d" r
  | Fault (Pmem.Flip_bit { off; bit }) -> Printf.sprintf "Flip_bit(%d,%d)" off bit
  | Fault (Pmem.Flip_bits { seed; flips }) ->
      Printf.sprintf "Flip_bits(%Ld,%d)" seed flips
  | Fault (Pmem.Clobber_line { line; seed }) ->
      Printf.sprintf "Clobber_line(%d,%Ld)" line seed
  | Fault (Pmem.Stuck_line { line }) -> Printf.sprintf "Stuck_line %d" line
  | Fault (Pmem.Poison_line { line }) -> Printf.sprintf "Poison_line %d" line
  | Clone -> "Clone"
  | Save_load -> "Save_load"

let media_step_gen =
  let open QCheck.Gen in
  let bytes = media_lines * 64 and line = int_bound (media_lines - 1) in
  let seed = map Int64.of_int (int_bound 1000) and fraction = float_bound_inclusive 1. in
  frequency
    [
      (8, map2 (fun off v -> Store (off, v)) (int_range 64 (bytes - 1)) (int_bound 255));
      (5, map (fun l -> Persist l) line);
      (1, map2 (fun s f -> Evict (s, f)) seed fraction);
      (1, return Crash_clean);
      (1, map2 (fun s f -> Crash_torn (s, f)) seed fraction);
      (1, map (fun r -> Rescrub r) (int_bound (regions - 1)));
      (1, map2 (fun off bit -> Fault (Pmem.Flip_bit { off; bit })) (int_bound (bytes - 1))
            (int_bound 7));
      (* few sites, so a later flip often undoes an earlier one: the
         line must then verify clean again *)
      (2, map (fun line -> Fault (Pmem.Flip_bit { off = line * 64; bit = 0 })) line);
      (1, map2 (fun seed flips -> Fault (Pmem.Flip_bits { seed; flips })) seed
            (int_range 1 4));
      (1, map2 (fun line seed -> Fault (Pmem.Clobber_line { line; seed })) line seed);
      (2, map (fun line -> Fault (Pmem.Stuck_line { line })) line);
      (1, map (fun line -> Fault (Pmem.Poison_line { line })) line);
      (1, return Clone);
      (1, return Save_load);
    ]

let qcheck_sealed_ecc_matches_eager =
  QCheck.Test.make ~count:300
    ~name:"sealed ECC table reports what an eager per-line CRC table does"
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map pp_media_step steps))
       QCheck.Gen.(list_size (int_bound 80) media_step_gen))
    (fun steps ->
      let pool, meter = fresh () in
      let offs = Array.init regions (fun _ -> Pmem.alloc pool region_bytes) in
      assert (offs.(0) = 64 && offs.(regions - 1) = (media_lines * 64) - region_bytes);
      let path = Filename.temp_file "media" ".pool" in
      let model = ref (Eager.create media_lines) and pool = ref pool in
      let same_shadow () =
        let ok = ref true in
        for w = 0 to (media_lines * 8) - 1 do
          if Pmem.read_shadow_u64 !pool (w * 8) <> Bytes.get_int64_le !model.Eager.shadow (w * 8)
          then ok := false
        done;
        !ok
      in
      let step s =
        match s with
        | Store (off, v) ->
            Pmem.set_u8 !pool off v;
            Eager.store !model off v
        | Persist line ->
            Pmem.persist !pool ~off:(line * 64) ~len:1;
            Eager.persist !model line
        | Evict (seed, fraction) ->
            Pmem.evict_random !pool (Rng.create seed) ~fraction;
            Eager.evict !model seed fraction
        | Crash_clean ->
            Pmem.crash !pool;
            Eager.crash !model
        | Crash_torn (seed, fraction) ->
            Pmem.arm_crash !pool ~mode:(Pmem.Torn { seed; fraction }) ~after_flushes:0;
            Pmem.crash !pool;
            Eager.crash ~torn:(seed, fraction) !model
        | Rescrub r ->
            Pmem.free !pool ~off:offs.(r) ~len:region_bytes;
            let off = Pmem.alloc !pool region_bytes in
            assert (off = offs.(r));
            Eager.scrub !model ~off ~len:region_bytes
        | Fault f ->
            Pmem.inject_media_fault !pool f;
            Eager.inject !model f
        | Clone ->
            let copy = Pmem.clone !pool in
            (* the original keeps running too: mutate it and drop it *)
            Pmem.inject_media_fault !pool (Pmem.Clobber_line { line = 1; seed = 3L });
            Pmem.persist_all !pool;
            pool := copy;
            model := Eager.copy !model
        | Save_load ->
            Pmem.save !pool path;
            pool := Pmem.load meter path;
            Eager.reload !model
      in
      let ok =
        List.for_all
          (fun s ->
            step s;
            Pmem.media_verify !pool = Eager.verify !model && same_shadow ())
          steps
      in
      Sys.remove path;
      ok)

(* ------------------------------------------------------------------ *)
(* Allocation pins: the per-event simulator path allocates nothing. A
   boxed float or Int64 on it costs minor-GC work on every metered
   access, flush and fence (DESIGN.md §9).                             *)

let alloc_calls = 10_000

let minor_words_of f =
  f 0 (* warm: first-touch effects stay out of the count *);
  let before = Gc.minor_words () in
  for i = 1 to alloc_calls do
    f i
  done;
  Gc.minor_words () -. before

let check_alloc_free name f =
  let words = minor_words_of f in
  Alcotest.(check (float 0.)) (name ^ ": words/call") 0.
    (Float.round (words /. float_of_int alloc_calls))

let test_alloc_meter_access () =
  let meter = Meter.create Latency.c300_300 in
  check_alloc_free "Meter.access" (fun i ->
      Meter.access meter Meter.Pm ~addr:(i * 64) ~write:(i land 1 = 0))

let test_alloc_meter_flush_fence () =
  let meter = Meter.create Latency.c300_300 in
  check_alloc_free "Meter.flush_line + fence" (fun i ->
      Meter.flush_line meter ~addr:(i * 64);
      Meter.fence meter)

let test_alloc_get_u8 () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 4096 in
  check_alloc_free "Pmem.get_u8" (fun i -> ignore (Pmem.get_u8 pool (off + (i land 4095)) : int))

let test_alloc_store_persist () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 4096 in
  check_alloc_free "Pmem.set_u8 + persist" (fun i ->
      let o = off + (i land 4095) in
      Pmem.set_u8 pool o i;
      Pmem.persist pool ~off:o ~len:1)

let test_alloc_hash_dir () =
  let keys = Array.init 64 (fun i -> Printf.sprintf "key%05d" i) in
  check_alloc_free "Hash_dir.hash" (fun i ->
      ignore (Hart_core.Hash_dir.hash keys.(i land 63) : int))

(* ------------------------------------------------------------------ *)
(* Flush counting, cloning, torn crash mode                            *)

let test_flush_count_monotonic () =
  let pool, meter = fresh () in
  let f0 = Pmem.flush_count pool in
  let off = Pmem.alloc pool 128 in
  Pmem.set_u64 pool off 1L;
  Pmem.persist pool ~off ~len:8;
  let f1 = Pmem.flush_count pool in
  Alcotest.(check int) "one line flushed" (f0 + 1) f1;
  (* clean persist flushes nothing *)
  Pmem.persist pool ~off ~len:8;
  Alcotest.(check int) "clean persist adds none" f1 (Pmem.flush_count pool);
  (* a Meter.reset (e.g. between measured phases) must not disturb the
     crash-schedule ordinal space *)
  Meter.reset meter;
  Pmem.set_u64 pool (off + 64) 2L;
  Pmem.persist pool ~off:(off + 64) ~len:8;
  Alcotest.(check int) "survives Meter.reset" (f1 + 1) (Pmem.flush_count pool)

let test_clone_is_independent () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 128 in
  Pmem.set_u64 pool off 11L;
  Pmem.persist pool ~off ~len:8;
  Pmem.set_u64 pool (off + 8) 22L (* dirty, unflushed *);
  let dup = Pmem.clone pool in
  (* state matches at the instant of cloning *)
  Alcotest.(check int) "cache copied" 22 (Int64.to_int (Pmem.get_u64 dup (off + 8)));
  (* crash of the clone drops ITS unflushed data, not the original's *)
  Pmem.crash dup;
  Alcotest.(check int) "clone lost unflushed" 0
    (Int64.to_int (Pmem.get_u64 dup (off + 8)));
  Alcotest.(check int) "original untouched" 22
    (Int64.to_int (Pmem.get_u64 pool (off + 8)));
  (* allocations diverge without cross-talk *)
  let a = Pmem.alloc dup 64 and b = Pmem.alloc pool 64 in
  Alcotest.(check int) "same next offset" a b;
  Pmem.free dup ~off:a ~len:64;
  Alcotest.(check bool) "free lists independent" true
    (Pmem.alloc pool 64 <> Pmem.alloc dup 64)

let torn_crash_with ~seed ~fraction =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 1024 in
  for i = 0 to 15 do
    Pmem.set_u64 pool (off + (i * 64)) (Int64.of_int (i + 1))
  done;
  (* no persist: all 16 lines dirty; a torn crash may evict any subset *)
  Pmem.arm_crash ~mode:(Pmem.Torn { seed; fraction }) pool ~after_flushes:0;
  (try
     Pmem.persist pool ~off ~len:8;
     Alcotest.fail "armed crash did not fire"
   with Pmem.Crash_injected -> ());
  List.filter_map
    (fun i ->
      let v = Int64.to_int (Pmem.get_u64 pool (off + (i * 64))) in
      if v <> 0 then Some (i, v) else None)
    (List.init 16 Fun.id)

let test_torn_crash_mode () =
  let survivors = torn_crash_with ~seed:5L ~fraction:0.5 in
  (* every surviving line carries its full pre-crash contents *)
  List.iter
    (fun (i, v) ->
      Alcotest.(check int) (Printf.sprintf "line %d intact" i) (i + 1) v)
    survivors;
  Alcotest.(check bool) "some lines evicted, some dropped" true
    (let n = List.length survivors in
     n > 0 && n < 16);
  (* deterministic: same seed, same subset *)
  Alcotest.(check bool) "reproducible for a seed" true
    (survivors = torn_crash_with ~seed:5L ~fraction:0.5);
  (* different seed: (very likely) different subset, same invariant *)
  Alcotest.(check bool) "seed varies the subset" true
    (survivors <> torn_crash_with ~seed:6L ~fraction:0.5)

let test_torn_crash_extremes () =
  Alcotest.(check (list (pair int int))) "fraction 0 = clean crash" []
    (torn_crash_with ~seed:1L ~fraction:0.0);
  Alcotest.(check int) "fraction 1 persists every dirty line" 16
    (List.length (torn_crash_with ~seed:1L ~fraction:1.0));
  let pool, _ = fresh () in
  Alcotest.check_raises "fraction out of range rejected"
    (Invalid_argument "Pmem.arm_crash: torn fraction must be in [0, 1]")
    (fun () ->
      Pmem.arm_crash ~mode:(Pmem.Torn { seed = 1L; fraction = 1.5 }) pool
        ~after_flushes:0)

let test_torn_mode_disarms_after_crash () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 128 in
  Pmem.set_u64 pool off 1L;
  Pmem.arm_crash ~mode:(Pmem.Torn { seed = 3L; fraction = 1.0 }) pool
    ~after_flushes:0;
  (try Pmem.persist pool ~off ~len:8 with Pmem.Crash_injected -> ());
  (* the torn mode applied once; a later un-armed crash is clean again *)
  Pmem.set_u64 pool (off + 64) 9L;
  Pmem.crash pool;
  Alcotest.(check int) "subsequent crash is clean" 0
    (Int64.to_int (Pmem.get_u64 pool (off + 64)))

let test_torn_lines_mode () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 1024 in
  for i = 0 to 15 do
    Pmem.set_u64 pool (off + (i * 64)) (Int64.of_int (i + 1))
  done;
  (* all 16 lines dirty; the crash evicts exactly the named lines and
     drops every other dirty line — the directed-adversarial primitive *)
  let line i = (off + (i * 64)) / 64 in
  Pmem.arm_crash
    ~mode:(Pmem.Torn_lines [ line 3; line 7; 1_000_000 (* out of bounds: ignored *) ])
    pool ~after_flushes:0;
  (try
     Pmem.persist pool ~off ~len:8;
     Alcotest.fail "armed crash did not fire"
   with Pmem.Crash_injected -> ());
  List.iter
    (fun i ->
      let v = Int64.to_int (Pmem.get_u64 pool (off + (i * 64))) in
      if i = 3 || i = 7 then
        Alcotest.(check int) (Printf.sprintf "line %d evicted intact" i) (i + 1) v
      else Alcotest.(check int) (Printf.sprintf "line %d dropped" i) 0 v)
    (List.init 16 Fun.id)

let test_torn_lines_skips_clean () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 256 in
  Pmem.set_u64 pool off 7L;
  Pmem.persist pool ~off ~len:8;
  (* naming an already-persisted line is harmless: eviction = flush *)
  Pmem.set_u64 pool (off + 64) 8L;
  Pmem.arm_crash ~mode:(Pmem.Torn_lines [ off / 64 ]) pool ~after_flushes:0;
  (try Pmem.persist pool ~off:(off + 64) ~len:8 with Pmem.Crash_injected -> ());
  Alcotest.(check int) "persisted line survives" 7
    (Int64.to_int (Pmem.get_u64 pool off));
  Alcotest.(check int) "unlisted dirty line drops" 0
    (Int64.to_int (Pmem.get_u64 pool (off + 64)))

let test_read_trace () =
  let pool, _ = fresh () in
  let off = Pmem.alloc pool 512 in
  Pmem.set_u64 pool off 1L;
  Pmem.set_string pool ~off:(off + 126) "abcd";
  (* reads before the trace starts are not recorded *)
  ignore (Pmem.get_u64 pool off : int64);
  Pmem.read_trace_start pool;
  ignore (Pmem.get_u64 pool (off + 256) : int64);
  ignore (Pmem.get_u64 pool (off + 256) : int64) (* duplicate: deduped *);
  (* a 4-byte read straddling a line boundary records both lines *)
  ignore (Pmem.get_string pool ~off:(off + 126) ~len:4 : string);
  let lines = Pmem.read_trace_stop pool in
  Alcotest.(check (list int)) "sorted, deduped, spanning reads"
    (List.sort_uniq compare
       [ (off + 256) / 64; (off + 126) / 64; (off + 129) / 64 ])
    lines;
  (* stop clears the hook: later reads are untraced *)
  ignore (Pmem.get_u64 pool off : int64);
  Alcotest.(check (list int)) "off after stop" [] (Pmem.read_trace_stop pool)

let () =
  Alcotest.run "pmem"
    [
      ( "alloc",
        [
          Alcotest.test_case "distinct aligned offsets" `Quick test_alloc_distinct;
          Alcotest.test_case "zero-filled" `Quick test_alloc_zeroed;
          Alcotest.test_case "reuse after free" `Quick test_alloc_reuse_after_free;
          Alcotest.test_case "live byte accounting" `Quick test_live_bytes;
          Alcotest.test_case "publish or lose on crash" `Quick test_alloc_publish;
          Alcotest.test_case "grows on demand" `Quick test_alloc_grows;
          Alcotest.test_case "growth preserves both views" `Quick test_alloc_grow_preserves;
          Alcotest.test_case "capped pool raises" `Quick test_alloc_cap;
        ] );
      ( "stores",
        [
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "persist reaches shadow" `Quick test_persist_reaches_shadow;
          Alcotest.test_case "dirty line count" `Quick test_dirty_line_count;
          Alcotest.test_case "dirty lines, two domains" `Quick
            test_dirty_lines_two_domains;
          Alcotest.test_case "persist_all" `Quick test_persist_all;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash drops unflushed" `Quick test_crash_drops_unflushed;
          Alcotest.test_case "line granularity" `Quick test_crash_line_granularity;
          Alcotest.test_case "rewrite after persist" `Quick test_rewrite_after_persist;
          Alcotest.test_case "armed crash, immediate" `Quick test_arm_crash_immediate;
          Alcotest.test_case "armed crash after N flushes" `Quick test_arm_crash_after_n;
          Alcotest.test_case "disarm" `Quick test_disarm_crash;
          Alcotest.test_case "random eviction" `Quick test_evict_random;
          QCheck_alcotest.to_alcotest qcheck_shadow_model;
        ] );
      ( "images",
        [
          Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
          Alcotest.test_case "save excludes unflushed" `Quick test_save_excludes_unflushed;
          Alcotest.test_case "free list survives reload" `Quick test_load_free_list_survives;
          Alcotest.test_case "garbage rejected" `Quick test_load_rejects_garbage;
          Alcotest.test_case "corrupt headers rejected" `Quick
            test_load_rejects_corrupt_headers;
          Alcotest.test_case "corrupt free entries rejected" `Quick
            test_load_rejects_corrupt_free_entries;
          Alcotest.test_case "truncation and trailing bytes rejected" `Quick
            test_load_rejects_truncation_and_trailing;
          Alcotest.test_case "valid free lists still accepted" `Quick
            test_load_accepts_valid_free_list;
          Alcotest.test_case "version and checksum trailer enforced" `Quick
            test_load_rejects_version_and_checksum;
        ] );
      ( "media",
        [
          Alcotest.test_case "bit flip detected and resealed" `Quick
            test_media_flip_detected_and_resealed;
          Alcotest.test_case "seeded flips deterministic" `Quick
            test_media_flips_deterministic;
          Alcotest.test_case "stuck line drops write-backs" `Quick
            test_media_stuck_line;
          Alcotest.test_case "poisoned line raises until rewritten" `Quick
            test_media_poison_line;
          Alcotest.test_case "fault coordinates bounds-checked" `Quick
            test_media_fault_bounds;
          Alcotest.test_case "fault tables, two domains" `Quick
            test_media_tables_two_domains;
          QCheck_alcotest.to_alcotest qcheck_sealed_ecc_matches_eager;
        ] );
      ( "alloc-free",
        [
          Alcotest.test_case "Meter.access" `Quick test_alloc_meter_access;
          Alcotest.test_case "Meter.flush_line + fence" `Quick
            test_alloc_meter_flush_fence;
          Alcotest.test_case "Pmem.get_u8" `Quick test_alloc_get_u8;
          Alcotest.test_case "Pmem.set_u8 + persist" `Quick test_alloc_store_persist;
          Alcotest.test_case "hash_dir: Hash_dir.hash" `Quick test_alloc_hash_dir;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "flush_count monotonic across resets" `Quick
            test_flush_count_monotonic;
          Alcotest.test_case "clone is independent" `Quick test_clone_is_independent;
          Alcotest.test_case "torn crash mode" `Quick test_torn_crash_mode;
          Alcotest.test_case "torn extremes and validation" `Quick
            test_torn_crash_extremes;
          Alcotest.test_case "torn-lines directed eviction" `Quick
            test_torn_lines_mode;
          Alcotest.test_case "torn-lines skips clean lines" `Quick
            test_torn_lines_skips_clean;
          Alcotest.test_case "read trace" `Quick test_read_trace;
          Alcotest.test_case "torn mode disarms after firing" `Quick
            test_torn_mode_disarms_after_crash;
        ] );
      ( "meter",
        [
          Alcotest.test_case "flush/fence counts" `Quick test_meter_flush_counts;
          Alcotest.test_case "clean persist is free" `Quick test_meter_clean_persist_free;
          Alcotest.test_case "sim clock charges writes" `Quick test_meter_sim_clock_charges;
          Alcotest.test_case "cache hit vs miss" `Quick test_meter_cache_hit_vs_miss;
          Alcotest.test_case "CLFLUSH invalidates" `Quick test_meter_flush_invalidates_cache;
          Alcotest.test_case "dram accounting" `Quick test_meter_dram_accounting;
          Alcotest.test_case "latency configs charge" `Quick test_meter_latency_configs;
          Alcotest.test_case "latency equations (1)-(2)" `Quick test_latency_equations;
          Alcotest.test_case "latency by_name" `Quick test_latency_by_name;
        ] );
    ]
