module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Woart = Hart_baselines.Pm_art.Woart
module Wort = Hart_baselines.Wort
module Nv_tree = Hart_baselines.Nv_tree
module Wb_tree = Hart_baselines.Wb_tree
module Cdds = Hart_baselines.Cdds_btree
module Fptree = Hart_baselines.Fptree
module Roster = Hart_baselines.Roster
module Index_intf = Hart_core.Index_intf
module SMap = Map.Make (String)

let fresh_pool () = Pmem.create (Meter.create Latency.c300_300)

(* a fresh, empty roster index *)
let make name () = Roster.create (Roster.find name) (fresh_pool ())

let all_makers =
  List.map (fun e -> (e.Roster.label, make e.Roster.name)) Roster.all

(* ------------------------------------------------------------------ *)
(* Uniform behaviour of all four trees                                 *)

let basic_roundtrip (ops : Index_intf.ops) () =
  ops.insert ~key:"alpha" ~value:"1";
  ops.insert ~key:"beta" ~value:"2";
  ops.insert ~key:"alphabet" ~value:"3";
  Alcotest.(check (option string)) "alpha" (Some "1") (ops.search "alpha");
  Alcotest.(check (option string)) "beta" (Some "2") (ops.search "beta");
  Alcotest.(check (option string)) "alphabet" (Some "3") (ops.search "alphabet");
  Alcotest.(check (option string)) "missing" None (ops.search "gamma");
  Alcotest.(check int) "count" 3 (ops.count ());
  Alcotest.(check bool) "update hit" true (ops.update ~key:"alpha" ~value:"1b");
  Alcotest.(check (option string)) "updated" (Some "1b") (ops.search "alpha");
  Alcotest.(check bool) "update miss" false (ops.update ~key:"nope" ~value:"x");
  Alcotest.(check bool) "delete hit" true (ops.delete "beta");
  Alcotest.(check (option string)) "deleted" None (ops.search "beta");
  Alcotest.(check bool) "delete miss" false (ops.delete "beta");
  Alcotest.(check int) "final count" 2 (ops.count ())

let range_agreement (ops : Index_intf.ops) () =
  let keys = [ "aa"; "ab"; "abc"; "b"; "ba"; "cc"; "cd" ] in
  List.iter (fun k -> ops.insert ~key:k ~value:(String.uppercase_ascii k)) keys;
  let got = ref [] in
  ops.range ~lo:"ab" ~hi:"cc" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "range window" [ "ab"; "abc"; "b"; "ba"; "cc" ]
    (List.sort compare !got)

let bulk_load (ops : Index_intf.ops) () =
  for i = 0 to 1999 do
    ops.insert ~key:(Printf.sprintf "blk%06d" i) ~value:(Printf.sprintf "v%d" i)
  done;
  Alcotest.(check int) "2000 keys" 2000 (ops.count ());
  for i = 0 to 1999 do
    let k = Printf.sprintf "blk%06d" i in
    if ops.search k <> Some (Printf.sprintf "v%d" i) then Alcotest.failf "lost %s" k
  done;
  for i = 0 to 999 do
    ignore (ops.delete (Printf.sprintf "blk%06d" (i * 2)))
  done;
  Alcotest.(check int) "half deleted" 1000 (ops.count ());
  for i = 0 to 1999 do
    let k = Printf.sprintf "blk%06d" i in
    let expect = if i mod 2 = 0 then None else Some (Printf.sprintf "v%d" i) in
    if ops.search k <> expect then Alcotest.failf "wrong state for %s" k
  done

let per_tree_cases name maker =
  [
    Alcotest.test_case (name ^ " roundtrip") `Quick (fun () ->
        basic_roundtrip (maker ()) ());
    Alcotest.test_case (name ^ " range") `Quick (fun () ->
        range_agreement (maker ()) ());
    Alcotest.test_case (name ^ " bulk load") `Quick (fun () ->
        bulk_load (maker ()) ());
  ]

(* ------------------------------------------------------------------ *)
(* Model-based equivalence for every tree                              *)

let key_gen =
  QCheck.Gen.(
    let c = map (fun i -> "ab1".[i]) (int_bound 2) in
    map
      (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 6) c))

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> `Insert (k, v)) key_gen (map string_of_int (int_bound 9999)));
        (2, map (fun k -> `Delete k) key_gen);
        (2, map (fun k -> `Search k) key_gen);
        (2, map2 (fun k v -> `Update (k, v)) key_gen (map string_of_int (int_bound 9999)));
      ])

let ops_print ops =
  String.concat "; "
    (List.map
       (function
         | `Insert (k, v) -> Printf.sprintf "I(%S,%S)" k v
         | `Delete k -> Printf.sprintf "D(%S)" k
         | `Search k -> Printf.sprintf "S(%S)" k
         | `Update (k, v) -> Printf.sprintf "U(%S,%S)" k v)
       ops)

let ops_arb = QCheck.make ~print:ops_print QCheck.Gen.(list_size (int_bound 150) op_gen)

let qcheck_tree_vs_map name maker =
  QCheck.Test.make ~count:150
    ~name:(name ^ " behaves like Map under random ops")
    ops_arb
    (fun script ->
      let ops = maker () in
      let model = ref SMap.empty in
      List.for_all
        (function
          | `Insert (k, v) ->
              ops.Index_intf.insert ~key:k ~value:v;
              model := SMap.add k v !model;
              true
          | `Delete k ->
              let expect = SMap.mem k !model in
              model := SMap.remove k !model;
              ops.Index_intf.delete k = expect
          | `Search k -> ops.Index_intf.search k = SMap.find_opt k !model
          | `Update (k, v) ->
              let expect = SMap.mem k !model in
              if expect then model := SMap.add k v !model;
              ops.Index_intf.update ~key:k ~value:v = expect)
        script
      && ops.Index_intf.count () = SMap.cardinal !model
      && SMap.for_all (fun k v -> ops.Index_intf.search k = Some v) !model)

(* ------------------------------------------------------------------ *)
(* FPTree specifics                                                    *)

let test_fptree_split_chain () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  (* force many leaf splits *)
  for i = 0 to 499 do
    Fptree.insert fp ~key:(Printf.sprintf "sp%06d" i) ~value:"v"
  done;
  Fptree.check_integrity fp;
  Alcotest.(check bool) "tree grew inner levels" true (Fptree.height fp > 1);
  (* the chain delivers a full ordered scan *)
  let got = ref [] in
  Fptree.range fp ~lo:"sp000000" ~hi:"sp999999" (fun k _ -> got := k :: !got);
  Alcotest.(check int) "all keys in range" 500 (List.length !got);
  Alcotest.(check (list string)) "ordered"
    (List.init 500 (fun i -> Printf.sprintf "sp%06d" i))
    (List.rev !got)

let test_fptree_update_inplace_flip () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  Fptree.insert fp ~key:"flip" ~value:"old";
  Fptree.insert fp ~key:"flap" ~value:"x";
  ignore (Fptree.update fp ~key:"flip" ~value:"new");
  Alcotest.(check (option string)) "updated" (Some "new") (Fptree.search fp "flip");
  Alcotest.(check (option string)) "sibling" (Some "x") (Fptree.search fp "flap");
  Alcotest.(check int) "count stable" 2 (Fptree.count fp);
  Fptree.check_integrity fp

let test_fptree_update_on_full_leaf () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  (* fill one leaf exactly to capacity *)
  for i = 0 to Fptree.leaf_cap - 1 do
    Fptree.insert fp ~key:(Printf.sprintf "fl%03d" i) ~value:"a"
  done;
  (* updating with a full bitmap forces a split-then-update *)
  ignore (Fptree.update fp ~key:"fl000" ~value:"b");
  Alcotest.(check (option string)) "updated across split" (Some "b")
    (Fptree.search fp "fl000");
  Alcotest.(check int) "count stable" Fptree.leaf_cap (Fptree.count fp);
  Fptree.check_integrity fp

let test_fptree_recovery () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  for i = 0 to 999 do
    Fptree.insert fp ~key:(Printf.sprintf "rc%06d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 299 do
    ignore (Fptree.delete fp (Printf.sprintf "rc%06d" i))
  done;
  Pmem.crash pool;
  let fp' = Fptree.recover pool in
  Alcotest.(check int) "700 keys recovered" 700 (Fptree.count fp');
  Fptree.check_integrity fp';
  for i = 0 to 999 do
    let expect = if i < 300 then None else Some (string_of_int i) in
    if Fptree.search fp' (Printf.sprintf "rc%06d" i) <> expect then
      Alcotest.failf "wrong recovered state for %d" i
  done;
  (* recovered tree keeps working *)
  Fptree.insert fp' ~key:"rc000000" ~value:"back";
  Alcotest.(check (option string)) "post-recovery insert" (Some "back")
    (Fptree.search fp' "rc000000");
  Fptree.check_integrity fp'

let test_fptree_recover_empty () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  ignore fp;
  Pmem.crash pool;
  let fp' = Fptree.recover pool in
  Alcotest.(check int) "empty" 0 (Fptree.count fp');
  Fptree.insert fp' ~key:"first" ~value:"v";
  Alcotest.(check (option string)) "usable" (Some "v") (Fptree.search fp' "first")

let test_fptree_limits () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  Alcotest.(check bool) "long key rejected" true
    (match Fptree.insert fp ~key:(String.make 25 'k') ~value:"v" with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "long value rejected" true
    (match Fptree.insert fp ~key:"k" ~value:(String.make 32 'v') with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_fptree_fingerprint_collisions () =
  (* craft several keys sharing one fingerprint byte: the fingerprint
     filter must fall back to key comparison and stay correct *)
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  let target = Fptree.fingerprint "collide-0" in
  let colliders = ref [ "collide-0" ] in
  let i = ref 1 in
  while List.length !colliders < 6 && !i < 100_000 do
    let k = Printf.sprintf "c%d" !i in
    if Fptree.fingerprint k = target then colliders := k :: !colliders;
    incr i
  done;
  Alcotest.(check bool) "found collisions" true (List.length !colliders >= 3);
  List.iteri (fun i k -> Fptree.insert fp ~key:k ~value:(string_of_int i)) !colliders;
  List.iteri
    (fun i k ->
      Alcotest.(check (option string)) ("collider " ^ k) (Some (string_of_int i))
        (Fptree.search fp k))
    !colliders;
  (* delete one collider; the rest must remain findable *)
  ignore (Fptree.delete fp (List.nth !colliders 1));
  Alcotest.(check (option string)) "deleted collider gone" None
    (Fptree.search fp (List.nth !colliders 1));
  Alcotest.(check bool) "other colliders intact" true
    (Fptree.search fp (List.nth !colliders 0) <> None);
  Fptree.check_integrity fp

let test_fptree_multi_level () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  (* > leaf_cap * inner_cap entries forces at least three levels *)
  let n = (Fptree.leaf_cap * 40) + 7 in
  for i = 0 to n - 1 do
    Fptree.insert fp ~key:(Printf.sprintf "ml%06d" i) ~value:"v"
  done;
  Alcotest.(check bool) "three levels or more" true (Fptree.height fp >= 3);
  Fptree.check_integrity fp;
  for i = 0 to n - 1 do
    if Fptree.search fp (Printf.sprintf "ml%06d" i) = None then
      Alcotest.failf "lost ml%06d" i
  done

let test_fptree_slot_reuse () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  for i = 0 to 9 do
    Fptree.insert fp ~key:(Printf.sprintf "sr%02d" i) ~value:"v"
  done;
  let pm = Fptree.pm_bytes fp in
  for _ = 1 to 50 do
    ignore (Fptree.delete fp "sr05");
    Fptree.insert fp ~key:"sr05" ~value:"v"
  done;
  Alcotest.(check int) "delete/reinsert cycles reuse slots" pm (Fptree.pm_bytes fp);
  Fptree.check_integrity fp

let test_fptree_range_with_holes () =
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  for i = 0 to 299 do
    Fptree.insert fp ~key:(Printf.sprintf "rh%04d" i) ~value:"v"
  done;
  for i = 100 to 199 do
    ignore (Fptree.delete fp (Printf.sprintf "rh%04d" i))
  done;
  let got = ref 0 in
  Fptree.range fp ~lo:"rh0050" ~hi:"rh0250" (fun _ _ -> incr got);
  (* 50..99 and 200..250 survive in the window *)
  Alcotest.(check int) "range skips deleted entries" 101 !got

let test_fptree_no_coalesce () =
  (* deleting everything leaves the chain in place: FPTree never merges
     leaves, which the paper cites for its PM consumption *)
  let pool = fresh_pool () in
  let fp = Fptree.create pool in
  for i = 0 to 199 do
    Fptree.insert fp ~key:(Printf.sprintf "nc%04d" i) ~value:"v"
  done;
  let pm_full = Fptree.pm_bytes fp in
  for i = 0 to 199 do
    ignore (Fptree.delete fp (Printf.sprintf "nc%04d" i))
  done;
  Alcotest.(check int) "pm unchanged after deletes" pm_full (Fptree.pm_bytes fp);
  Alcotest.(check int) "empty" 0 (Fptree.count fp)

(* ------------------------------------------------------------------ *)
(* WORT specifics                                                      *)

let test_wort_basic_shape () =
  let pool = fresh_pool () in
  let w = Wort.create pool in
  Wort.insert w ~key:"abcd" ~value:"1";
  Alcotest.(check int) "single leaf" 1 (Wort.height w);
  Wort.insert w ~key:"abce" ~value:"2";
  (* the two keys share 7 nibbles: one compressed node + leaves *)
  Alcotest.(check int) "compressed join" 2 (Wort.height w);
  Wort.check_integrity w

let test_wort_deeper_than_woart () =
  (* 16-ary non-adaptive nodes: two levels per byte, so WORT descents
     are deeper than WOART's 256-ary ones — its known trade-off *)
  let mk_keys n = List.init n (fun i -> Printf.sprintf "depth%04d" i) in
  let pool_w = fresh_pool () in
  let w = Wort.create pool_w in
  List.iter (fun k -> Wort.insert w ~key:k ~value:"v") (mk_keys 500);
  Wort.check_integrity w;
  let pool_a = fresh_pool () in
  let a = Woart.create pool_a in
  List.iter (fun k -> Woart.insert a ~key:k ~value:"v") (mk_keys 500);
  Alcotest.(check bool)
    (Printf.sprintf "WORT height %d > ART-based height" (Wort.height w))
    true
    (Wort.height w > 3)

let test_wort_prefix_keys () =
  let pool = fresh_pool () in
  let w = Wort.create pool in
  List.iteri (fun i k -> Wort.insert w ~key:k ~value:(string_of_int i))
    [ "a"; "ab"; "abc"; "abcd" ];
  List.iteri
    (fun i k ->
      Alcotest.(check (option string)) k (Some (string_of_int i)) (Wort.search w k))
    [ "a"; "ab"; "abc"; "abcd" ];
  ignore (Wort.delete w "ab");
  Alcotest.(check (option string)) "middle prefix gone" None (Wort.search w "ab");
  Alcotest.(check (option string)) "deeper survives" (Some "3") (Wort.search w "abcd");
  Wort.check_integrity w

let test_wort_collapse_on_delete () =
  let pool = fresh_pool () in
  let w = Wort.create pool in
  let live0 = Pmem.live_bytes pool in
  for i = 0 to 199 do
    Wort.insert w ~key:(Printf.sprintf "wc%04d" i) ~value:"v"
  done;
  for i = 0 to 199 do
    ignore (Wort.delete w (Printf.sprintf "wc%04d" i))
  done;
  Alcotest.(check int) "empty" 0 (Wort.count w);
  Alcotest.(check int) "all PM returned" live0 (Pmem.live_bytes pool);
  Wort.check_integrity w

let test_wort_range_ordered () =
  let pool = fresh_pool () in
  let w = Wort.create pool in
  let keys = [ "b"; "a"; "c"; "ab"; "bb"; "ba" ] in
  List.iter (fun k -> Wort.insert w ~key:k ~value:k) keys;
  let got = ref [] in
  Wort.range w ~lo:"a" ~hi:"bb" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "ordered window" [ "a"; "ab"; "b"; "ba"; "bb" ]
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* NV-Tree specifics                                                   *)

let test_nv_append_only_growth () =
  (* updates append rather than overwrite: the leaf's PM usage is
     bounded by history until a split garbage-collects it *)
  let pool = fresh_pool () in
  let nv = Nv_tree.create pool in
  Nv_tree.insert nv ~key:"appended" ~value:"v0";
  for i = 1 to 10 do
    ignore (Nv_tree.update nv ~key:"appended" ~value:(Printf.sprintf "v%d" i))
  done;
  Alcotest.(check (option string)) "latest wins" (Some "v10")
    (Nv_tree.search nv "appended");
  Alcotest.(check int) "still one key" 1 (Nv_tree.count nv);
  Nv_tree.check_integrity nv

let test_nv_delete_is_tombstone () =
  let pool = fresh_pool () in
  let nv = Nv_tree.create pool in
  Nv_tree.insert nv ~key:"ghost" ~value:"v";
  Alcotest.(check bool) "deleted" true (Nv_tree.delete nv "ghost");
  Alcotest.(check (option string)) "gone" None (Nv_tree.search nv "ghost");
  (* reinsert over the tombstone *)
  Nv_tree.insert nv ~key:"ghost" ~value:"back";
  Alcotest.(check (option string)) "resurrected" (Some "back")
    (Nv_tree.search nv "ghost");
  Alcotest.(check int) "count" 1 (Nv_tree.count nv);
  Nv_tree.check_integrity nv

let test_nv_split_rebuilds_index () =
  let pool = fresh_pool () in
  let nv = Nv_tree.create pool in
  Alcotest.(check int) "no rebuilds yet" 0 (Nv_tree.rebuild_count nv);
  for i = 0 to 299 do
    Nv_tree.insert nv ~key:(Printf.sprintf "nv%04d" i) ~value:"v"
  done;
  Alcotest.(check bool) "splits rebuilt the whole index" true
    (Nv_tree.rebuild_count nv > 2);
  Nv_tree.check_integrity nv;
  for i = 0 to 299 do
    if Nv_tree.search nv (Printf.sprintf "nv%04d" i) = None then
      Alcotest.failf "lost nv%04d" i
  done

let test_nv_history_churn () =
  (* hammering one key with update/delete cycles exercises compaction
     splits where few or no live entries remain *)
  let pool = fresh_pool () in
  let nv = Nv_tree.create pool in
  for round = 0 to 200 do
    Nv_tree.insert nv ~key:"churn" ~value:(string_of_int round);
    if round mod 3 = 0 then ignore (Nv_tree.delete nv "churn")
  done;
  Nv_tree.check_integrity nv;
  Alcotest.(check bool) "final state consistent" true
    (match Nv_tree.search nv "churn" with
    | Some _ -> Nv_tree.count nv = 1
    | None -> Nv_tree.count nv = 0)

(* ------------------------------------------------------------------ *)
(* wB+Tree specifics                                                   *)

let test_wb_sorted_chain () =
  let pool = fresh_pool () in
  let wb = Wb_tree.create pool in
  for i = 299 downto 0 do
    Wb_tree.insert wb ~key:(Printf.sprintf "wb%04d" i) ~value:"v"
  done;
  Wb_tree.check_integrity wb;
  Alcotest.(check bool) "grew inner levels" true (Wb_tree.height wb > 1);
  let got = ref [] in
  Wb_tree.range wb ~lo:"wb0000" ~hi:"wb9999" (fun k _ -> got := k :: !got);
  Alcotest.(check (list string)) "ordered full scan"
    (List.init 300 (fun i -> Printf.sprintf "wb%04d" i))
    (List.rev !got)

let test_wb_split_logging_charged () =
  (* the split path must charge noticeably more flushes than in-node
     inserts: measure flushes across a split boundary *)
  let pool = fresh_pool () in
  let wb = Wb_tree.create pool in
  for i = 0 to Wb_tree.node_cap - 1 do
    Wb_tree.insert wb ~key:(Printf.sprintf "sp%04d" i) ~value:"v"
  done;
  let before = (Meter.counters (Pmem.meter pool)).Meter.flushes in
  Wb_tree.insert wb ~key:"sp9999" ~value:"v" (* forces the first split *);
  let split_cost = (Meter.counters (Pmem.meter pool)).Meter.flushes - before in
  let before = (Meter.counters (Pmem.meter pool)).Meter.flushes in
  Wb_tree.insert wb ~key:"sp99990" ~value:"v" (* plain insert *);
  let plain_cost = (Meter.counters (Pmem.meter pool)).Meter.flushes - before in
  Alcotest.(check bool)
    (Printf.sprintf "split (%d flushes) >> insert (%d flushes)" split_cost plain_cost)
    true
    (split_cost > 3 * plain_cost)

(* ------------------------------------------------------------------ *)
(* CDDS B-Tree specifics                                               *)

let test_cdds_versioning () =
  let pool = fresh_pool () in
  let c = Cdds.create pool in
  let v0 = Cdds.version c in
  Cdds.insert c ~key:"versioned" ~value:"v1";
  Alcotest.(check bool) "version bumped" true (Cdds.version c > v0);
  ignore (Cdds.update c ~key:"versioned" ~value:"v2");
  Alcotest.(check (option string)) "latest version visible" (Some "v2")
    (Cdds.search c "versioned");
  Alcotest.(check int) "one dead version" 1 (Cdds.dead_entries c);
  ignore (Cdds.delete c "versioned");
  Alcotest.(check (option string)) "end-dated" None (Cdds.search c "versioned");
  Alcotest.(check int) "two corpses" 2 (Cdds.dead_entries c);
  Cdds.check_integrity c

let test_cdds_dead_entry_growth_and_collection () =
  (* the paper's §II-C criticism: versioning generates many dead
     entries... until splits collect them *)
  let pool = fresh_pool () in
  let c = Cdds.create pool in
  Cdds.insert c ~key:"churned" ~value:"v";
  for i = 0 to 9 do
    ignore (Cdds.update c ~key:"churned" ~value:(string_of_int i))
  done;
  Alcotest.(check int) "ten dead versions" 10 (Cdds.dead_entries c);
  (* filling the leaf forces compaction/split: corpses are collected *)
  for i = 0 to 99 do
    Cdds.insert c ~key:(Printf.sprintf "fill%04d" i) ~value:"v"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "corpses collected (%d left)" (Cdds.dead_entries c))
    true
    (Cdds.dead_entries c < 10);
  Alcotest.(check (option string)) "live version survived collection"
    (Some "9") (Cdds.search c "churned");
  Cdds.check_integrity c

(* ------------------------------------------------------------------ *)
(* Memory accounting expectations (Fig. 10b directions)                *)

let load_tree (ops : Index_intf.ops) n =
  for i = 0 to n - 1 do
    ops.insert ~key:(Printf.sprintf "mm%06d" i) ~value:"seven"
  done

let test_pure_pm_trees_use_no_dram () =
  List.iter
    (fun maker ->
      let ops = maker () in
      load_tree ops 500;
      Alcotest.(check int) (ops.Index_intf.name ^ " uses no DRAM") 0
        (ops.Index_intf.dram_bytes ()))
    [ make "woart"; make "art-cow" ]

let test_hybrid_trees_use_dram () =
  List.iter
    (fun maker ->
      let ops = maker () in
      load_tree ops 500;
      Alcotest.(check bool) (ops.Index_intf.name ^ " uses DRAM") true
        (ops.Index_intf.dram_bytes () > 0))
    [ make "hart"; make "fptree" ]

let test_hart_dram_exceeds_fptree () =
  (* the paper: HART consumes much more DRAM than FPTree (Fig. 10b) *)
  let hart = make "hart" () and fp = make "fptree" () in
  load_tree hart 3000;
  load_tree fp 3000;
  Alcotest.(check bool) "HART DRAM > FPTree DRAM" true
    (hart.Index_intf.dram_bytes () > fp.Index_intf.dram_bytes ())

let test_fptree_pm_exceeds_hart () =
  (* the paper: FPTree consumes more PM than HART (fingerprints, no
     coalescing) *)
  let hart = make "hart" () and fp = make "fptree" () in
  load_tree hart 3000;
  load_tree fp 3000;
  Alcotest.(check bool) "FPTree PM > HART PM" true
    (fp.Index_intf.pm_bytes () > hart.Index_intf.pm_bytes ())

(* ------------------------------------------------------------------ *)
(* Cost-model direction checks: the event counts that drive every
   figure must order the trees the way the paper's results do.         *)

let flushes_for name n =
  let pool = fresh_pool () in
  let ops = Roster.create (Roster.find name) pool in
  let before = Meter.counters (Pmem.meter pool) in
  for i = 0 to n - 1 do
    ops.Index_intf.insert ~key:(Printf.sprintf "cost%06d" i) ~value:"seven"
  done;
  let d = Meter.diff before (Meter.counters (Pmem.meter pool)) in
  d.Meter.flushes

let test_insert_flush_ordering () =
  let n = 2000 in
  let hart = flushes_for "hart" n
  and woart = flushes_for "woart" n
  and cow = flushes_for "art-cow" n in
  Alcotest.(check bool)
    (Printf.sprintf "HART (%d) flushes less than WOART (%d)" hart woart)
    true (hart < woart);
  Alcotest.(check bool)
    (Printf.sprintf "WOART (%d) flushes less than ART+CoW (%d)" woart cow)
    true (woart < cow)

let search_pm_reads name n =
  let pool = fresh_pool () in
  let ops = Roster.create (Roster.find name) pool in
  for i = 0 to n - 1 do
    ops.Index_intf.insert ~key:(Printf.sprintf "sr%06d" i) ~value:"seven"
  done;
  let before = Meter.counters (Pmem.meter pool) in
  for i = 0 to n - 1 do
    ignore (ops.Index_intf.search (Printf.sprintf "sr%06d" i))
  done;
  let d = Meter.diff before (Meter.counters (Pmem.meter pool)) in
  d.Meter.pm_reads

let test_search_pm_read_ordering () =
  (* WOART descends through PM nodes, HART only validates the leaf: HART
     must issue far fewer PM reads per search *)
  let n = 2000 in
  let hart = search_pm_reads "hart" n and woart = search_pm_reads "woart" n in
  Alcotest.(check bool)
    (Printf.sprintf "HART PM reads (%d) < WOART PM reads (%d)" hart woart)
    true (hart < woart)

let () =
  Alcotest.run "baselines"
    [
      ("uniform", List.concat_map (fun (n, m) -> per_tree_cases n m) all_makers);
      ( "model",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (qcheck_tree_vs_map n m))
          all_makers );
      ( "fptree",
        [
          Alcotest.test_case "splits and ordered chain" `Quick test_fptree_split_chain;
          Alcotest.test_case "in-leaf update flip" `Quick test_fptree_update_inplace_flip;
          Alcotest.test_case "update on full leaf" `Quick test_fptree_update_on_full_leaf;
          Alcotest.test_case "recovery" `Quick test_fptree_recovery;
          Alcotest.test_case "recover empty" `Quick test_fptree_recover_empty;
          Alcotest.test_case "limits" `Quick test_fptree_limits;
          Alcotest.test_case "fingerprint collisions" `Quick test_fptree_fingerprint_collisions;
          Alcotest.test_case "multi-level inner" `Quick test_fptree_multi_level;
          Alcotest.test_case "slot reuse" `Quick test_fptree_slot_reuse;
          Alcotest.test_case "range with holes" `Quick test_fptree_range_with_holes;
          Alcotest.test_case "no leaf coalescing" `Quick test_fptree_no_coalesce;
        ] );
      ( "wort",
        [
          Alcotest.test_case "basic shape" `Quick test_wort_basic_shape;
          Alcotest.test_case "deeper than WOART" `Quick test_wort_deeper_than_woart;
          Alcotest.test_case "prefix keys" `Quick test_wort_prefix_keys;
          Alcotest.test_case "collapse on delete" `Quick test_wort_collapse_on_delete;
          Alcotest.test_case "ordered range" `Quick test_wort_range_ordered;
        ] );
      ( "nv-tree",
        [
          Alcotest.test_case "append-only updates" `Quick test_nv_append_only_growth;
          Alcotest.test_case "tombstone deletes" `Quick test_nv_delete_is_tombstone;
          Alcotest.test_case "splits rebuild the index" `Quick test_nv_split_rebuilds_index;
          Alcotest.test_case "history churn" `Quick test_nv_history_churn;
        ] );
      ( "wb+tree",
        [
          Alcotest.test_case "sorted chain" `Quick test_wb_sorted_chain;
          Alcotest.test_case "split logging charged" `Quick test_wb_split_logging_charged;
        ] );
      ( "cdds",
        [
          Alcotest.test_case "versioned updates" `Quick test_cdds_versioning;
          Alcotest.test_case "dead entries grow and collect" `Quick
            test_cdds_dead_entry_growth_and_collection;
        ] );
      ( "memory",
        [
          Alcotest.test_case "pure-PM trees use no DRAM" `Quick test_pure_pm_trees_use_no_dram;
          Alcotest.test_case "hybrid trees use DRAM" `Quick test_hybrid_trees_use_dram;
          Alcotest.test_case "HART DRAM > FPTree DRAM" `Quick test_hart_dram_exceeds_fptree;
          Alcotest.test_case "FPTree PM > HART PM" `Quick test_fptree_pm_exceeds_hart;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "insert flush ordering" `Quick test_insert_flush_ordering;
          Alcotest.test_case "search PM-read ordering" `Quick test_search_pm_read_ordering;
        ] );
    ]
