module Art = Hart_art.Art
module Rng = Hart_util.Rng
module SMap = Map.Make (String)

let check_opt = Alcotest.(check (option string))

(* A tree of whole keys binding values it is handed: offset 0 and a
   constant leaf maker. *)
let insert0 t k v = Art.insert t k ~off:0 (fun _ v -> v) v

(* the model of [insert0]: a bound key keeps its binding *)
let add_absent k v m = if SMap.mem k m then m else SMap.add k v m

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)

let test_empty () =
  let t : string Art.t = Art.create () in
  Alcotest.(check int) "count" 0 (Art.count t);
  Alcotest.(check bool) "is_empty" true (Art.is_empty t);
  check_opt "find on empty" None (Art.find t ~off:0 "k");
  check_opt "delete on empty" None (Art.delete t ~off:0 "k");
  Alcotest.(check int) "height" 0 (Art.height t)

let test_single () =
  let t = Art.create () in
  Alcotest.(check (option int)) "inserted" None (insert0 t "alpha" 1);
  Alcotest.(check (option int)) "found" (Some 1) (Art.find t ~off:0 "alpha");
  Alcotest.(check (option int)) "other missing" None (Art.find t ~off:0 "beta");
  Alcotest.(check int) "count" 1 (Art.count t)

let test_bound_key_kept () =
  let t = Art.create () in
  ignore (insert0 t "k" 1);
  let made = ref 0 in
  let make _ v =
    incr made;
    v
  in
  Alcotest.(check (option int)) "bound key: its binding" (Some 1)
    (Art.insert t "k" ~off:0 make 2);
  Alcotest.(check int) "maker not called" 0 !made;
  Alcotest.(check (option int)) "binding kept" (Some 1) (Art.find t ~off:0 "k");
  Alcotest.(check int) "count unchanged" 1 (Art.count t)

(* The tree key is the caller's key from [off] on; the maker sees the
   whole key. *)
let test_offset_keys () =
  let t = Art.create () in
  let seen = ref [] in
  let make key v =
    seen := key :: !seen;
    v
  in
  List.iteri
    (fun i k -> ignore (Art.insert t k ~off:2 make i : int option))
    [ "AAart"; "BBartist"; "CCa"; "DD" ];
  Alcotest.(check (list string)) "maker gets whole keys"
    [ "DD"; "CCa"; "BBartist"; "AAart" ] !seen;
  Alcotest.(check (list string)) "tree keys"
    [ ""; "a"; "art"; "artist" ]
    (List.rev (Art.fold t ~init:[] ~f:(fun acc k _ -> k :: acc)));
  Alcotest.(check (option int)) "found at offset" (Some 1) (Art.find t "xxartist" ~off:2);
  Alcotest.(check (option int)) "empty tree key" (Some 3) (Art.find t "ZZ" ~off:2);
  Alcotest.(check (option int)) "prefix of a tree key" None (Art.find t "QQart" ~off:3);
  Alcotest.(check (option int)) "deleted at offset" (Some 0) (Art.delete t "art" ~off:0);
  Alcotest.(check (option int)) "gone" None (Art.find t "AAart" ~off:2);
  Art.check_invariants t

(* A maker that raises leaves the tree as it was, at every kind of
   insertion point: empty root, leaf join, prefix split, ends-here slot
   and a free child byte. *)
let test_maker_raises () =
  let t = Art.create () in
  let boom _ _ = failwith "boom" in
  let attempt k =
    match Art.insert t k ~off:0 boom 0 with
    | _ -> Alcotest.failf "insert of %S did not raise" k
    | exception Failure _ -> ()
  in
  attempt "first";
  Alcotest.(check int) "empty root untouched" 0 (Art.count t);
  List.iteri (fun i k -> ignore (insert0 t k i)) [ "abcd"; "abce"; "xyz" ];
  let fp = Art.footprint_bytes t in
  List.iter attempt [ "xyw"; "abX"; "abc"; "abcz"; "q" ];
  Alcotest.(check int) "count untouched" 3 (Art.count t);
  Alcotest.(check int) "footprint untouched" fp (Art.footprint_bytes t);
  Alcotest.(check (list string)) "keys untouched" [ "abcd"; "abce"; "xyz" ]
    (List.rev (Art.fold t ~init:[] ~f:(fun acc k _ -> k :: acc)));
  Art.check_invariants t

let test_empty_string_key () =
  let t = Art.create () in
  ignore (insert0 t "" 42);
  Alcotest.(check (option int)) "empty key found" (Some 42) (Art.find t ~off:0 "");
  ignore (insert0 t "x" 1);
  Alcotest.(check (option int)) "still found" (Some 42) (Art.find t ~off:0 "");
  Alcotest.(check (option int)) "deleted" (Some 42) (Art.delete t ~off:0 "");
  Alcotest.(check (option int)) "gone" None (Art.find t ~off:0 "");
  Alcotest.(check (option int)) "sibling intact" (Some 1) (Art.find t ~off:0 "x")

let test_prefix_keys () =
  let t = Art.create () in
  ignore (insert0 t "art" 1);
  ignore (insert0 t "artist" 2);
  ignore (insert0 t "artistic" 3);
  ignore (insert0 t "a" 4);
  Alcotest.(check (option int)) "art" (Some 1) (Art.find t ~off:0 "art");
  Alcotest.(check (option int)) "artist" (Some 2) (Art.find t ~off:0 "artist");
  Alcotest.(check (option int)) "artistic" (Some 3) (Art.find t ~off:0 "artistic");
  Alcotest.(check (option int)) "a" (Some 4) (Art.find t ~off:0 "a");
  Alcotest.(check (option int)) "ar missing" None (Art.find t ~off:0 "ar");
  Art.check_invariants t;
  Alcotest.(check (option int)) "delete middle" (Some 2) (Art.delete t ~off:0 "artist");
  Alcotest.(check (option int)) "art survives" (Some 1) (Art.find t ~off:0 "art");
  Alcotest.(check (option int)) "artistic survives" (Some 3) (Art.find t ~off:0 "artistic");
  Art.check_invariants t

let test_binary_keys () =
  let t = Art.create () in
  let keys = [ "\x00"; "\x00\x00"; "\xff\x00\xff"; "\x00\x01"; "\x01" ] in
  List.iteri (fun i k -> ignore (insert0 t k i)) keys;
  List.iteri
    (fun i k -> Alcotest.(check (option int)) ("binary " ^ string_of_int i) (Some i) (Art.find t ~off:0 k))
    keys;
  Art.check_invariants t

let test_shared_prefix_split () =
  let t = Art.create () in
  ignore (insert0 t "abcdefgh1" 1);
  ignore (insert0 t "abcdefgh2" 2);
  ignore (insert0 t "abcdXfgh3" 3);
  Alcotest.(check (option int)) "1" (Some 1) (Art.find t ~off:0 "abcdefgh1");
  Alcotest.(check (option int)) "2" (Some 2) (Art.find t ~off:0 "abcdefgh2");
  Alcotest.(check (option int)) "3" (Some 3) (Art.find t ~off:0 "abcdXfgh3");
  Art.check_invariants t

(* ------------------------------------------------------------------ *)
(* Node growth and shrink                                              *)

let spread_keys n =
  (* n keys differing only in one byte at a shared position *)
  List.init n (fun i -> Printf.sprintf "node%c" (Char.chr i))

let test_grow_to_n16 () =
  let t = Art.create () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 9);
  let n4, n16, _, _ = Art.node_histogram t in
  Alcotest.(check int) "one NODE16" 1 n16;
  Alcotest.(check int) "no NODE4" 0 n4;
  Art.check_invariants t

let test_grow_to_n48 () =
  let t = Art.create () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 30);
  let _, _, n48, _ = Art.node_histogram t in
  Alcotest.(check int) "one NODE48" 1 n48;
  Art.check_invariants t

let test_grow_to_n256 () =
  let t = Art.create () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 200);
  let _, _, _, n256 = Art.node_histogram t in
  Alcotest.(check int) "one NODE256" 1 n256;
  List.iteri
    (fun i k -> Alcotest.(check (option int)) k (Some i) (Art.find t ~off:0 k))
    (spread_keys 200);
  Art.check_invariants t

let test_shrink_on_delete () =
  let t = Art.create () in
  let keys = spread_keys 200 in
  List.iteri (fun i k -> ignore (insert0 t k i)) keys;
  let big = Art.footprint_bytes t in
  List.iteri
    (fun i k -> if i >= 2 then ignore (Art.delete t ~off:0 k))
    keys;
  Art.check_invariants t;
  let n4, n16, n48, n256 = Art.node_histogram t in
  Alcotest.(check (list int)) "shrunk back to NODE4" [ 1; 0; 0; 0 ] [ n4; n16; n48; n256 ];
  Alcotest.(check bool) "footprint shrank" true (Art.footprint_bytes t < big)

let test_delete_all_frees_everything () =
  let t = Art.create () in
  let keys = spread_keys 100 in
  List.iteri (fun i k -> ignore (insert0 t k i)) keys;
  List.iter (fun k -> ignore (Art.delete t ~off:0 k)) keys;
  Alcotest.(check bool) "empty" true (Art.is_empty t);
  Alcotest.(check int) "base footprint" 16 (Art.footprint_bytes t);
  Art.check_invariants t

let test_path_recompression () =
  let t = Art.create () in
  ignore (insert0 t "prefix-one" 1);
  ignore (insert0 t "prefix-two" 2);
  ignore (Art.delete t ~off:0 "prefix-two");
  (* the remaining single leaf should collapse back: no inner nodes *)
  let n4, n16, n48, n256 = Art.node_histogram t in
  Alcotest.(check (list int)) "no inner nodes" [ 0; 0; 0; 0 ] [ n4; n16; n48; n256 ];
  Alcotest.(check (option int)) "survivor intact" (Some 1) (Art.find t ~off:0 "prefix-one");
  Art.check_invariants t

(* ------------------------------------------------------------------ *)
(* Ordering, range, min/max                                            *)

let random_keys rng n =
  List.init n (fun _ ->
      let len = Rng.int_in rng 1 12 in
      String.init len (fun _ -> Rng.char_alnum rng))

let test_iter_sorted () =
  let rng = Rng.create 1L in
  let t = Art.create () in
  let keys = random_keys rng 500 in
  List.iter (fun k -> ignore (insert0 t k k)) keys;
  let collected = ref [] in
  Art.iter t (fun k _ -> collected := k :: !collected);
  let got = List.rev !collected in
  let expected = List.sort_uniq String.compare keys in
  Alcotest.(check (list string)) "sorted distinct iteration" expected got

let test_min_max () =
  let t = Art.create () in
  List.iter (fun k -> ignore (insert0 t k k)) [ "m"; "zz"; "a"; "aa"; "z" ];
  Alcotest.(check (option (pair string string))) "min" (Some ("a", "a")) (Art.min_binding t);
  Alcotest.(check (option (pair string string))) "max" (Some ("zz", "zz")) (Art.max_binding t)

let test_range_inclusive () =
  let t = Art.create () in
  List.iter (fun k -> ignore (insert0 t k k)) [ "a"; "b"; "c"; "d"; "e" ];
  let got = ref [] in
  Art.range t ~lo:"b" ~hi:"d" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "inclusive bounds" [ "b"; "c"; "d" ] (List.rev !got)

let test_range_matches_filter () =
  let rng = Rng.create 7L in
  let t = Art.create () in
  let keys = List.sort_uniq String.compare (random_keys rng 800) in
  List.iter (fun k -> ignore (insert0 t k k)) keys;
  let lo = "A" and hi = "m" in
  let expected = List.filter (fun k -> lo <= k && k <= hi) keys in
  let got = ref [] in
  Art.range t ~lo ~hi (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "range = filter" expected (List.rev !got)

let test_range_prefix_boundaries () =
  let t = Art.create () in
  List.iter (fun k -> ignore (insert0 t k k)) [ "ab"; "abc"; "abd"; "ac"; "b" ];
  let got = ref [] in
  Art.range t ~lo:"ab" ~hi:"abz" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "prefix-aware" [ "ab"; "abc"; "abd" ] (List.rev !got)

let test_height_bounded () =
  let rng = Rng.create 3L in
  let t = Art.create () in
  List.iter (fun k -> ignore (insert0 t k ())) (random_keys rng 2000);
  Alcotest.(check bool) "height <= max key len + 1" true (Art.height t <= 13)

(* ------------------------------------------------------------------ *)
(* Metering integration                                                *)

let test_metered_footprint () =
  let meter = Hart_pmem.Meter.create Hart_pmem.Latency.c300_100 in
  let t = Art.create ~meter () in
  let rng = Rng.create 5L in
  List.iter (fun k -> ignore (insert0 t k ())) (random_keys rng 300);
  Alcotest.(check bool) "meter sees the modelled footprint" true
    (Hart_pmem.Meter.dram_live_bytes meter >= Art.footprint_bytes t - 16);
  let before = Hart_pmem.Meter.counters meter in
  ignore (Art.find t ~off:0 "somekey");
  let d = Hart_pmem.Meter.diff before (Hart_pmem.Meter.counters meter) in
  Alcotest.(check bool) "descent reported DRAM reads" true (d.Hart_pmem.Meter.dram_reads > 0)

(* ------------------------------------------------------------------ *)
(* Structural event stream: the WOART/ART+CoW consistency protocols are
   driven by these events, so their fidelity matters.                   *)

let collect_events () =
  let events = ref [] in
  let t : int Art.t = Art.create ~on_event:(fun e -> events := e :: !events) () in
  (t, fun () -> List.rev !events)

let count_events pred events = List.length (List.filter pred events)

let test_events_first_insert () =
  let t, got = collect_events () in
  ignore (insert0 t "solo" 1);
  Alcotest.(check int) "one root child-added" 1
    (count_events (function Art.Child_added _ -> true | _ -> false) (got ()))

let test_events_leaf_split () =
  let t, got = collect_events () in
  ignore (insert0 t "ax" 1);
  ignore (insert0 t "ay" 2);
  let events = got () in
  Alcotest.(check int) "one node created" 1
    (count_events (function Art.Node_created _ -> true | _ -> false) events);
  (* children placed during construction are quiet: exactly the root
     link update beyond the first insert *)
  Alcotest.(check int) "no in-place child adds" 1
    (count_events (function Art.Child_added _ -> true | _ -> false) events)

let test_events_in_place_add () =
  let t, got = collect_events () in
  ignore (insert0 t "ax" 1);
  ignore (insert0 t "ay" 2);
  let before = got () in
  ignore (insert0 t "az" 3);
  let after = got () in
  let added l = count_events (function Art.Child_added _ -> true | _ -> false) l in
  Alcotest.(check int) "third insert is one in-place child add" 1
    (added after - added before)

let test_events_grow_reports_node () =
  let t, got = collect_events () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 5);
  let events = got () in
  (* growing N4 -> N16 frees the old node and creates the new one *)
  Alcotest.(check bool) "node freed on grow" true
    (count_events (function Art.Node_freed _ -> true | _ -> false) events >= 1);
  Alcotest.(check bool) "grown node created" true
    (count_events (function Art.Node_created _ -> true | _ -> false) events >= 2)

let test_events_kind_tags () =
  let t, got = collect_events () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 60);
  let kinds =
    List.filter_map
      (function Art.Child_added { kind; _ } -> Some kind | _ -> None)
      (got ())
  in
  List.iter
    (fun k ->
      if not (List.mem k [ 0; 4; 16; 48; 256 ]) then
        Alcotest.failf "unexpected kind %d" k)
    kinds;
  Alcotest.(check bool) "N256 adds observed" true (List.mem 256 kinds);
  Alcotest.(check bool) "N4 adds observed" true (List.mem 4 kinds)

let test_events_delete_reports_removal () =
  let t, got = collect_events () in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 8);
  let before = got () in
  ignore (Art.delete t ~off:0 (List.hd (spread_keys 8)));
  let after = got () in
  let removed l = count_events (function Art.Child_removed _ -> true | _ -> false) l in
  Alcotest.(check int) "one child removed" 1 (removed after - removed before)

let test_events_prefix_split () =
  let t, got = collect_events () in
  ignore (insert0 t "prefix-aa" 1);
  ignore (insert0 t "prefix-ab" 2);
  ignore (insert0 t "preXix" 3);
  Alcotest.(check bool) "prefix change reported" true
    (count_events (function Art.Prefix_changed _ -> true | _ -> false) (got ()) >= 1)

let test_pm_space_nodes_alloc_from_pool () =
  let meter = Hart_pmem.Meter.create Hart_pmem.Latency.c300_300 in
  let pool = Hart_pmem.Pmem.create meter in
  let live0 = Hart_pmem.Pmem.live_bytes pool in
  let t : int Art.t =
    Art.create ~meter ~space:Pm
      ~alloc_node:(fun size -> Hart_pmem.Pmem.alloc pool size)
      ~free_node:(fun ~addr ~size -> Hart_pmem.Pmem.free pool ~off:addr ~len:size)
      ()
  in
  List.iteri (fun i k -> ignore (insert0 t k i)) (spread_keys 100);
  Alcotest.(check bool) "nodes consumed pool space" true
    (Hart_pmem.Pmem.live_bytes pool > live0);
  List.iter (fun k -> ignore (Art.delete t ~off:0 k)) (spread_keys 100);
  Alcotest.(check int) "all node space returned" live0
    (Hart_pmem.Pmem.live_bytes pool)

(* ------------------------------------------------------------------ *)
(* Model-based properties                                              *)

type op = Insert of string * int | Delete of string | Find of string

let key_gen =
  (* small alphabet provokes shared prefixes, splits and node growth *)
  QCheck.Gen.(
    let char = map (fun i -> "ab0".[i]) (int_bound 2) in
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_bound 6) char))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) key_gen (int_bound 1000));
        (2, map (fun k -> Delete k) key_gen);
        (2, map (fun k -> Find k) key_gen);
      ])

let pp_op = function
  | Insert (k, v) -> Printf.sprintf "Insert(%S,%d)" k v
  | Delete k -> Printf.sprintf "Delete(%S)" k
  | Find k -> Printf.sprintf "Find(%S)" k

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_bound 200) op_gen)

let qcheck_vs_map =
  QCheck.Test.make ~count:300 ~name:"ART behaves like Map under random ops"
    ops_arbitrary
    (fun ops ->
      let t = Art.create () in
      let model = ref SMap.empty in
      List.for_all
        (fun op ->
          match op with
          | Insert (k, v) ->
              let expect = SMap.find_opt k !model in
              (* a bound key keeps its binding *)
              model := add_absent k v !model;
              insert0 t k v = expect
          | Delete k ->
              let expect = SMap.find_opt k !model in
              model := SMap.remove k !model;
              Art.delete t ~off:0 k = expect
          | Find k -> Art.find t ~off:0 k = SMap.find_opt k !model)
        ops
      &&
      (Art.check_invariants t;
       Art.count t = SMap.cardinal !model
       && SMap.for_all (fun k v -> Art.find t ~off:0 k = Some v) !model))

let qcheck_iter_sorted =
  QCheck.Test.make ~count:200 ~name:"iteration is sorted and complete"
    ops_arbitrary
    (fun ops ->
      let t = Art.create () in
      let model = ref SMap.empty in
      List.iter
        (function
          | Insert (k, v) ->
              ignore (insert0 t k v);
              model := add_absent k v !model
          | Delete k ->
              ignore (Art.delete t ~off:0 k);
              model := SMap.remove k !model
          | Find _ -> ())
        ops;
      let got = ref [] in
      Art.iter t (fun k v -> got := (k, v) :: !got);
      List.rev !got = SMap.bindings !model)

let qcheck_range_model =
  QCheck.Test.make ~count:200 ~name:"range = model filter"
    QCheck.(
      pair ops_arbitrary (pair (QCheck.make key_gen) (QCheck.make key_gen)))
    (fun (ops, (b1, b2)) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let t = Art.create () in
      let model = ref SMap.empty in
      List.iter
        (function
          | Insert (k, v) ->
              ignore (insert0 t k v);
              model := add_absent k v !model
          | Delete k ->
              ignore (Art.delete t ~off:0 k);
              model := SMap.remove k !model
          | Find _ -> ())
        ops;
      let got = ref [] in
      Art.range t ~lo ~hi (fun k v -> got := (k, v) :: !got);
      let expected =
        SMap.bindings (SMap.filter (fun k _ -> lo <= k && k <= hi) !model)
      in
      List.rev !got = expected)

(* ------------------------------------------------------------------ *)
(* Capacity-boundary churn: the physical layer doubles at 4/8/16/32/64/
   128 and halves at quarter occupancy, while the modelled classes flip
   at 4/16/48. Drive single-node child counts back and forth across the
   modelled boundaries (3<->4<->5, 15<->16<->17, 47<->48<->49) under
   delete churn and hold the tree to the Map oracle + invariants at
   every step.                                                          *)

let byte_key c = Printf.sprintf "node%c" (Char.chr c)

let check_against_model t model ctx =
  Art.check_invariants t;
  if Art.count t <> SMap.cardinal model then
    Alcotest.failf "%s: count %d <> model %d" ctx (Art.count t)
      (SMap.cardinal model);
  SMap.iter
    (fun k v ->
      if Art.find t ~off:0 k <> Some v then Alcotest.failf "%s: lost key %S" ctx k)
    model

let test_boundary_oscillation () =
  List.iter
    (fun b ->
      let t = Art.create () in
      let model = ref SMap.empty in
      let add c =
        ignore (insert0 t (byte_key c) c);
        model := SMap.add (byte_key c) c !model
      and del c =
        ignore (Art.delete t ~off:0 (byte_key c));
        model := SMap.remove (byte_key c) !model
      in
      (* fill to b-1, then oscillate b-1 <-> b+1 across the class flip,
         deleting from both ends to exercise rank-shifted removals *)
      for c = 0 to b - 2 do
        add c
      done;
      check_against_model t !model (Printf.sprintf "fill %d" (b - 1));
      for round = 0 to 3 do
        add (b - 1);
        check_against_model t !model (Printf.sprintf "b=%d round %d at b" b round);
        add b;
        check_against_model t !model
          (Printf.sprintf "b=%d round %d above" b round);
        del (if round mod 2 = 0 then b else 0);
        check_against_model t !model
          (Printf.sprintf "b=%d round %d back to b" b round);
        del (if round mod 2 = 0 then b - 1 else 1);
        check_against_model t !model
          (Printf.sprintf "b=%d round %d below" b round);
        (* restore the low bytes deleted on odd rounds *)
        if round mod 2 = 1 then begin
          add 0;
          add 1;
          del (b - 1);
          del b
        end
      done)
    [ 4; 16; 48 ]

(* qcheck over the same regime: ops restricted to single-divergent-byte
   keys from a 60-wide pool, so one inner node wanders across every
   class boundary as the sequence inserts and deletes. *)
let boundary_op_gen =
  QCheck.Gen.(
    let key = map byte_key (int_bound 59) in
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) key (int_bound 1000));
        (4, map (fun k -> Delete k) key);
        (1, map (fun k -> Find k) key);
      ])

let qcheck_boundary_churn =
  QCheck.Test.make ~count:200
    ~name:"single fan-out node vs Map across class boundaries"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 50 400) boundary_op_gen))
    (fun ops ->
      let t = Art.create () in
      let model = ref SMap.empty in
      List.for_all
        (fun op ->
          match op with
          | Insert (k, v) ->
              ignore (insert0 t k v);
              model := add_absent k v !model;
              true
          | Delete k ->
              let expect = SMap.find_opt k !model in
              model := SMap.remove k !model;
              Art.delete t ~off:0 k = expect
          | Find k -> Art.find t ~off:0 k = SMap.find_opt k !model)
        ops
      &&
      (Art.check_invariants t;
       Art.count t = SMap.cardinal !model
       && SMap.for_all (fun k v -> Art.find t ~off:0 k = Some v) !model))

(* ------------------------------------------------------------------ *)
(* Differential fidelity: the bitmap layer must be observationally
   identical to the retained boxed layer — results, event stream
   (addresses, slot offsets, kinds, order), simulated clock, modelled
   footprint and histogram — on the same workload under identically
   configured meters.                                                   *)

module Boxed = Hart_art.Art_boxed

let fp_new = function
  | Art.Node_created { addr; bytes } -> Printf.sprintf "C%d:%d" addr bytes
  | Art.Node_freed { addr; bytes } -> Printf.sprintf "F%d:%d" addr bytes
  | Art.Child_added { addr; slot_off; kind } ->
      Printf.sprintf "A%d:%d:%d" addr slot_off kind
  | Art.Child_replaced { addr; slot_off; kind } ->
      Printf.sprintf "R%d:%d:%d" addr slot_off kind
  | Art.Child_removed { addr; slot_off; kind } ->
      Printf.sprintf "D%d:%d:%d" addr slot_off kind
  | Art.Prefix_changed { addr } -> Printf.sprintf "P%d" addr
  | Art.Here_changed { addr } -> Printf.sprintf "H%d" addr

let fp_boxed = function
  | Boxed.Node_created { addr; bytes } -> Printf.sprintf "C%d:%d" addr bytes
  | Boxed.Node_freed { addr; bytes } -> Printf.sprintf "F%d:%d" addr bytes
  | Boxed.Child_added { addr; slot_off; kind } ->
      Printf.sprintf "A%d:%d:%d" addr slot_off kind
  | Boxed.Child_replaced { addr; slot_off; kind } ->
      Printf.sprintf "R%d:%d:%d" addr slot_off kind
  | Boxed.Child_removed { addr; slot_off; kind } ->
      Printf.sprintf "D%d:%d:%d" addr slot_off kind
  | Boxed.Prefix_changed { addr } -> Printf.sprintf "P%d" addr
  | Boxed.Here_changed { addr } -> Printf.sprintf "H%d" addr

let diff_workload rng n =
  (* random ops over a smallish key universe: plenty of replaces,
     deletes of present keys, boundary crossings and prefix splits *)
  List.init n (fun i ->
      let k = Printf.sprintf "%c%c%c" (Rng.char_alnum rng) (Rng.char_alnum rng)
                (Rng.char_alnum rng) in
      let k = String.sub k 0 (1 + Rng.int rng 3) in
      match Rng.int rng 10 with
      | 0 | 1 | 2 -> Delete k
      | 3 -> Find k
      | _ -> Insert (k, i))

let run_workload (type t e) ~insert ~delete ~find
    ~(make : (e -> unit) -> Hart_pmem.Meter.t -> t) ~fp ops =
  let meter = Hart_pmem.Meter.create Hart_pmem.Latency.c300_100 in
  let events = Buffer.create 4096 in
  let t = make (fun e -> Buffer.add_string events (fp e); Buffer.add_char events ';') meter in
  (* per-op slices of the event stream, so a divergence names the op *)
  let marks = ref [] in
  let results =
    List.map
      (fun op ->
        let r =
          match op with
          | Insert (k, v) -> (
              match insert t k v with None -> -1 | Some o -> o)
          | Delete k -> ( match delete t k with None -> -1 | Some o -> o)
          | Find k -> ( match find t k with None -> -1 | Some o -> o)
        in
        marks := Buffer.length events :: !marks;
        r)
      ops
  in
  (t, meter, Buffer.contents events, Array.of_list (List.rev !marks), results)

let op_to_string = function
  | Insert (k, v) -> Printf.sprintf "Insert %S %d" k v
  | Delete k -> Printf.sprintf "Delete %S" k
  | Find k -> Printf.sprintf "Find %S" k

let op_slice events marks i =
  let lo = if i = 0 then 0 else marks.(i - 1) in
  let hi = min marks.(i) (String.length events) in
  String.sub events lo (max 0 (hi - lo))

let test_boxed_bitmap_equivalence () =
  let rng = Rng.create 91L in
  for round = 0 to 4 do
    let ops = diff_workload rng 2_000 in
    let tn, mn, en, kn, rn =
      run_workload ~insert:insert0
        ~delete:(fun t k -> Art.delete t k ~off:0)
        ~find:(fun t k -> Art.find t k ~off:0)
        ~make:(fun on_event meter -> Art.create ~meter ~on_event ())
        ~fp:fp_new ops
    in
    let tb, mb, eb, kb, rb =
      run_workload ~insert:Boxed.insert ~delete:Boxed.delete ~find:Boxed.find
        ~make:(fun on_event meter -> Boxed.create ~meter ~on_event ())
        ~fp:fp_boxed ops
    in
    Alcotest.(check (list int))
      (Printf.sprintf "round %d: op results" round)
      rb rn;
    if not (String.equal eb en) then begin
      (* locate the first divergent op for a useful failure message *)
      let arr = Array.of_list ops in
      let bad = ref None in
      Array.iteri
        (fun i _ ->
          if
            !bad = None
            && not (String.equal (op_slice eb kb i) (op_slice en kn i))
          then bad := Some i)
        arr;
      match !bad with
      | Some i ->
          Alcotest.failf
            "round %d: event streams diverge at op %d (%s): boxed %S, bitmap %S"
            round i
            (op_to_string arr.(i))
            (op_slice eb kb i) (op_slice en kn i)
      | None ->
          Alcotest.failf "round %d: event streams diverge after the last op"
            round
    end;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "round %d: simulated clock" round)
      (Hart_pmem.Meter.sim_ns mb) (Hart_pmem.Meter.sim_ns mn);
    Alcotest.(check int)
      (Printf.sprintf "round %d: modelled footprint" round)
      (Boxed.footprint_bytes tb) (Art.footprint_bytes tn);
    let hb = Boxed.node_histogram tb and hn = Art.node_histogram tn in
    if hb <> hn then Alcotest.failf "round %d: node histograms differ" round;
    Art.check_invariants tn;
    Boxed.check_invariants tb
  done

(* ------------------------------------------------------------------ *)
(* Physical pool census                                                 *)

let test_pool_stats_census () =
  let t = Art.create () in
  let rng = Rng.create 23L in
  let keys = random_keys rng 3_000 in
  List.iteri (fun i k -> ignore (insert0 t k i)) keys;
  (* churn: delete a third, reinsert half of those *)
  List.iteri (fun i k -> if i mod 3 = 0 then ignore (Art.delete t ~off:0 k)) keys;
  List.iteri (fun i k -> if i mod 6 = 0 then ignore (insert0 t k i)) keys;
  Art.check_invariants t;
  let p = Art.pool_stats t in
  let n4, n16, n48, n256 = Art.node_histogram t in
  Alcotest.(check int) "by-capacity sum = live nodes"
    p.Art.live_nodes
    (List.fold_left (fun a (_, c) -> a + c) 0 p.Art.nodes_by_cap);
  Alcotest.(check int) "live nodes = modelled histogram total"
    (n4 + n16 + n48 + n256) p.Art.live_nodes;
  Alcotest.(check int) "handle partition"
    p.Art.node_slots
    (p.Art.live_nodes + p.Art.free_node_slots);
  Alcotest.(check bool) "dense used within reserved" true
    (p.Art.dense_used <= p.Art.dense_reserved
    && p.Art.dense_reserved <= p.Art.dense_slab_slots);
  (* quarter-occupancy shrink hysteresis bounds waste in live blocks *)
  Alcotest.(check bool) "dense occupancy floor" true
    (4 * p.Art.dense_used > p.Art.dense_reserved);
  Alcotest.(check int) "live leaves = keys" (Art.count t) p.Art.live_leaves;
  Alcotest.(check bool) "leaf table bounded" true
    (p.Art.live_leaves <= p.Art.leaf_slots);
  Alcotest.(check bool) "pool bytes accounted" true (p.Art.pool_bytes > 0);
  (* drain completely: everything returns to the free lists *)
  List.iter (fun k -> ignore (Art.delete t ~off:0 k)) keys;
  let p = Art.pool_stats t in
  Alcotest.(check int) "no live nodes after drain" 0 p.Art.live_nodes;
  Alcotest.(check int) "no used slots after drain" 0 p.Art.dense_used;
  Alcotest.(check int) "no reserved slots after drain" 0 p.Art.dense_reserved;
  Alcotest.(check int) "no live leaves after drain" 0 p.Art.live_leaves;
  Alcotest.(check int) "all handles free-listed" p.Art.node_slots
    p.Art.free_node_slots;
  Art.check_invariants t

(* ------------------------------------------------------------------ *)
(* Bulk build: [Art.of_sorted] against the insert-built tree            *)

(* Key sets with the empty key, strict-prefix keys, binary bytes, and
   nodes whose child counts sit at and across 4/16/48/256. *)
let bulk_keys_gen =
  QCheck.Gen.(
    let binary =
      map
        (fun bs -> String.concat "" (List.map (fun b -> String.make 1 (Char.chr b)) bs))
        (list_size (int_bound 4) (int_bound 255))
    in
    let fan =
      map2
        (fun prefix n -> List.init n (fun c -> prefix ^ String.make 1 (Char.chr (255 - c))))
        key_gen
        (oneofl [ 3; 4; 5; 15; 16; 17; 47; 48; 49; 255; 256 ])
    in
    map3
      (fun small bin fans -> List.sort_uniq String.compare (small @ bin @ List.concat fans))
      (list_size (int_bound 60) key_gen)
      (list_size (int_bound 30) binary)
      (list_size (int_bound 3) fan))

(* Everything a recovered store reports of its ARTs, and more *)
let shape t =
  ( Art.node_histogram t,
    Art.footprint_bytes t,
    Art.height t,
    (Art.pool_stats t).Art.nodes_by_cap,
    Art.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc) )

let qcheck_of_sorted =
  QCheck.Test.make ~count:200 ~name:"of_sorted builds the insert-built tree"
    (QCheck.make ~print:(fun ks -> String.concat "; " (List.map (Printf.sprintf "%S") ks))
       bulk_keys_gen)
    (fun keys ->
      let sorted = Array.of_list keys in
      let bulk = Art.of_sorted sorted (Array.map String.length sorted) in
      (* inserted in an order unrelated to key order *)
      let ins = Art.create () in
      List.iter
        (fun k -> ignore (insert0 ins k (String.length k)))
        (List.sort (fun a b -> compare (Hashtbl.hash a, a) (Hashtbl.hash b, b)) keys);
      Art.check_invariants bulk;
      shape bulk = shape ins
      && Art.count bulk = Array.length sorted
      && Array.for_all (fun k -> Art.find bulk ~off:0 k = Some (String.length k)) sorted)

(* One write of each node's modelled bytes and one [Node_created] per
   node; no read, no other event; one pass per inner node, over the
   range of keys below it. *)
let test_of_sorted_costs () =
  let meter = Hart_pmem.Meter.create Hart_pmem.Latency.c300_100 in
  let keys = Array.of_list (List.sort_uniq compare (random_keys (Rng.create 9L) 400)) in
  let events = ref [] and passes = ref [] in
  let t =
    Art.of_sorted ~meter
      ~on_event:(fun e -> events := e :: !events)
      ~on_pass:(fun ~lo ~hi ~byte -> passes := (lo, hi, byte) :: !passes)
      keys keys
  in
  let n4, n16, n48, n256 = Art.node_histogram t in
  let nodes = n4 + n16 + n48 + n256 in
  let created =
    List.filter_map (function Art.Node_created { bytes; _ } -> Some bytes | _ -> None) !events
  in
  Alcotest.(check int) "one Node_created per node" nodes (List.length created);
  Alcotest.(check int) "no other event" nodes (List.length !events);
  Alcotest.(check int) "created bytes are the footprint" (Art.footprint_bytes t - 16)
    (List.fold_left ( + ) 0 created);
  Alcotest.(check int) "live DRAM bytes" (Art.footprint_bytes t - 16)
    (Hart_pmem.Meter.dram_live_bytes meter);
  let c = Hart_pmem.Meter.counters meter in
  Alcotest.(check int) "no read" 0 c.Hart_pmem.Meter.dram_reads;
  Alcotest.(check int) "one write per node line"
    (List.fold_left (fun a b -> a + ((b + 63) / 64)) 0 created)
    c.Hart_pmem.Meter.dram_writes;
  Alcotest.(check int) "one pass per node" nodes (List.length !passes);
  List.iter
    (fun (lo, hi, byte) ->
      let first = keys.(lo) and last = keys.(hi - 1) in
      if
        not
          (hi - lo >= 2
          && String.length last > byte
          && String.sub first 0 byte = String.sub last 0 byte
          && (String.length first = byte || first.[byte] <> last.[byte]))
      then Alcotest.failf "pass [%d, %d) at byte %d" lo hi byte)
    !passes

let test_of_sorted_rejects () =
  let rejects what keys vals =
    Alcotest.(check bool) what true
      (match Art.of_sorted keys vals with
      | (_ : int Art.t) -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "unsorted" [| "b"; "a" |] [| 1; 2 |];
  rejects "duplicate" [| "a"; "a" |] [| 1; 2 |];
  rejects "lengths differ" [| "a" |] [||];
  Alcotest.(check int) "empty" 0 (Art.count (Art.of_sorted [||] [||]))

let () =
  Alcotest.run "art"
    [
      ( "basics",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "single key" `Quick test_single;
          Alcotest.test_case "bound key kept" `Quick test_bound_key_kept;
          Alcotest.test_case "keys at an offset" `Quick test_offset_keys;
          Alcotest.test_case "raising maker leaves the tree" `Quick test_maker_raises;
          Alcotest.test_case "empty-string key" `Quick test_empty_string_key;
          Alcotest.test_case "prefix keys" `Quick test_prefix_keys;
          Alcotest.test_case "binary keys" `Quick test_binary_keys;
          Alcotest.test_case "shared prefix split" `Quick test_shared_prefix_split;
        ] );
      ( "nodes",
        [
          Alcotest.test_case "grow to NODE16" `Quick test_grow_to_n16;
          Alcotest.test_case "grow to NODE48" `Quick test_grow_to_n48;
          Alcotest.test_case "grow to NODE256" `Quick test_grow_to_n256;
          Alcotest.test_case "shrink on delete" `Quick test_shrink_on_delete;
          Alcotest.test_case "delete all frees nodes" `Quick test_delete_all_frees_everything;
          Alcotest.test_case "path re-compression" `Quick test_path_recompression;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "iter sorted" `Quick test_iter_sorted;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "range inclusive" `Quick test_range_inclusive;
          Alcotest.test_case "range = filter" `Quick test_range_matches_filter;
          Alcotest.test_case "range prefix boundaries" `Quick test_range_prefix_boundaries;
          Alcotest.test_case "height bounded by key length" `Quick test_height_bounded;
        ] );
      ( "metering",
        [ Alcotest.test_case "footprint and accesses" `Quick test_metered_footprint ] );
      ( "events",
        [
          Alcotest.test_case "first insert" `Quick test_events_first_insert;
          Alcotest.test_case "leaf split is quiet" `Quick test_events_leaf_split;
          Alcotest.test_case "in-place child add" `Quick test_events_in_place_add;
          Alcotest.test_case "grow reports node churn" `Quick test_events_grow_reports_node;
          Alcotest.test_case "kind tags" `Quick test_events_kind_tags;
          Alcotest.test_case "delete reports removal" `Quick test_events_delete_reports_removal;
          Alcotest.test_case "prefix split" `Quick test_events_prefix_split;
          Alcotest.test_case "PM-space nodes use the pool" `Quick test_pm_space_nodes_alloc_from_pool;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_vs_map;
          QCheck_alcotest.to_alcotest qcheck_iter_sorted;
          QCheck_alcotest.to_alcotest qcheck_range_model;
        ] );
      ( "bitmap layer",
        [
          Alcotest.test_case "class-boundary oscillation" `Quick
            test_boundary_oscillation;
          QCheck_alcotest.to_alcotest qcheck_boundary_churn;
          Alcotest.test_case "boxed/bitmap observational equivalence" `Quick
            test_boxed_bitmap_equivalence;
          Alcotest.test_case "pool census" `Quick test_pool_stats_census;
        ] );
      ( "bulk build",
        [
          QCheck_alcotest.to_alcotest qcheck_of_sorted;
          Alcotest.test_case "one write per node" `Quick test_of_sorted_costs;
          Alcotest.test_case "invalid input" `Quick test_of_sorted_rejects;
        ] );
    ]
