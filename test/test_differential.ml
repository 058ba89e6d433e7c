(* Property-based differential testing: random operation sequences are
   applied simultaneously to each persistent index and to a pure OCaml
   [Map] oracle; every observable result (search, update/delete return
   values, count, range contents) must agree, and each structure's own
   integrity check must pass at regular intervals.

   Keys are drawn from a deliberately tiny alphabet with lengths from 1
   to [Leaf.max_key_len], so sequences constantly revisit keys, share
   prefixes, straddle HART's hash-key boundary (kh = 2) and exercise
   both hash-key-only keys (len <= kh, empty ART key) and deep ART
   paths. *)

module Latency = Hart_pmem.Latency
module Meter = Hart_pmem.Meter
module Pmem = Hart_pmem.Pmem
module Index_intf = Hart_core.Index_intf
module Roster = Hart_baselines.Roster
module SMap = Map.Make (String)

type dop =
  | Insert of string * string
  | Update of string * string
  | Delete of string
  | Search of string
  | Range of string * string
  | Count

let pp_dop = function
  | Insert (k, v) -> Printf.sprintf "Insert(%S,%S)" k v
  | Update (k, v) -> Printf.sprintf "Update(%S,%S)" k v
  | Delete k -> Printf.sprintf "Delete(%S)" k
  | Search k -> Printf.sprintf "Search(%S)" k
  | Range (lo, hi) -> Printf.sprintf "Range(%S,%S)" lo hi
  | Count -> "Count"

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let key_gen =
  QCheck.Gen.(
    int_range 1 Hart_core.Leaf.max_key_len >>= fun len ->
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (return len))

let value_gen =
  QCheck.Gen.(
    int_range 0 31 >>= fun len ->
    string_size ~gen:(char_range 'A' 'Z') (return len))

let dop_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Insert (k, v)) key_gen value_gen);
        (3, map2 (fun k v -> Update (k, v)) key_gen value_gen);
        (4, map (fun k -> Delete k) key_gen);
        (3, map (fun k -> Search k) key_gen);
        ( 1,
          map2
            (fun a b -> if a <= b then Range (a, b) else Range (b, a))
            key_gen key_gen );
        (1, return Count);
      ])

let print_dops ops = String.concat "; " (List.map pp_dop ops)

let dops_arb =
  QCheck.make
    ~print:print_dops
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 1 160) dop_gen)

(* ------------------------------------------------------------------ *)
(* Targets: every roster index, driven through Index_intf.ops and
   checked with its own S.check_integrity                               *)

let fresh_pool () =
  Pmem.create ~capacity:(1 lsl 21)
    (Meter.create ~llc_bytes:(1 lsl 16) Latency.c300_100)

(* the case names predate the roster's names; kept so test ids stay put *)
let case_name = function
  | "cdds" -> "cdds_btree"
  | n -> String.map (function '-' -> '_' | c -> c) n

let targets : (string * (unit -> Index_intf.ops * (unit -> unit))) list =
  List.map
    (fun { Roster.name; index = (module I); _ } ->
      ( case_name name,
        fun () ->
          let t = I.create (fresh_pool ()) in
          (Roster.ops (module I) t, fun () -> I.check_integrity t) ))
    Roster.all

let max_key = String.make Hart_core.Leaf.max_key_len '\xff'

let collect_range (ops : Index_intf.ops) ~lo ~hi =
  let acc = ref [] in
  ops.Index_intf.range ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
  (* in-leaf order is unspecified for some structures; compare as sets *)
  List.sort compare !acc

let oracle_range m ~lo ~hi =
  SMap.bindings (SMap.filter (fun k _ -> lo <= k && k <= hi) m)

let run_differential name make ops_list =
  let ops, check = make () in
  let oracle = ref SMap.empty in
  let failf step op fmt =
    Printf.ksprintf
      (fun s ->
        QCheck.Test.fail_reportf "%s: op %d (%s): %s" name step (pp_dop op) s)
      fmt
  in
  List.iteri
    (fun step op ->
      (match op with
      | Insert (k, v) ->
          ops.Index_intf.insert ~key:k ~value:v;
          oracle := SMap.add k v !oracle
      | Update (k, v) ->
          let hit = ops.Index_intf.update ~key:k ~value:v in
          if hit <> SMap.mem k !oracle then
            failf step op "update returned %b, oracle has-key %b" hit
              (SMap.mem k !oracle);
          if hit then oracle := SMap.add k v !oracle
      | Delete k ->
          let hit = ops.Index_intf.delete k in
          if hit <> SMap.mem k !oracle then
            failf step op "delete returned %b, oracle has-key %b" hit
              (SMap.mem k !oracle);
          oracle := SMap.remove k !oracle
      | Search k ->
          let got = ops.Index_intf.search k
          and want = SMap.find_opt k !oracle in
          if got <> want then
            failf step op "search: got %s, oracle %s"
              (match got with Some v -> Printf.sprintf "%S" v | None -> "None")
              (match want with Some v -> Printf.sprintf "%S" v | None -> "None")
      | Range (lo, hi) ->
          if collect_range ops ~lo ~hi <> oracle_range !oracle ~lo ~hi then
            failf step op "range contents diverge from oracle"
      | Count ->
          let got = ops.Index_intf.count ()
          and want = SMap.cardinal !oracle in
          if got <> want then failf step op "count: got %d, oracle %d" got want);
      if (step + 1) mod 16 = 0 then
        try check ()
        with Failure msg -> failf step op "integrity: %s" msg)
    ops_list;
  (try check ()
   with Failure msg -> QCheck.Test.fail_reportf "%s: final integrity: %s" name msg);
  let final = collect_range ops ~lo:"" ~hi:max_key in
  if final <> SMap.bindings !oracle then
    QCheck.Test.fail_reportf
      "%s: final contents diverge from oracle (%d vs %d bindings)" name
      (List.length final)
      (SMap.cardinal !oracle);
  if ops.Index_intf.count () <> SMap.cardinal !oracle then
    QCheck.Test.fail_reportf "%s: final count diverges from oracle" name;
  true

let differential_tests =
  List.map
    (fun (name, make) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:25 ~name:("differential " ^ name) dops_arb
           (run_differential name make)))
    targets

(* A deterministic dense sequence as a fast regression anchor: every key
   length from 1 to max on a shared prefix, inserted, updated, half
   deleted, against every target. *)
let dense_ladder name make () =
  let ops, check = make () in
  let keys =
    List.init Hart_core.Leaf.max_key_len (fun i -> String.make (i + 1) 'a')
  in
  let oracle = ref SMap.empty in
  List.iter
    (fun k ->
      ops.Index_intf.insert ~key:k ~value:k;
      oracle := SMap.add k k !oracle)
    keys;
  List.iter
    (fun k ->
      assert (ops.Index_intf.update ~key:k ~value:(k ^ "!"));
      oracle := SMap.add k (k ^ "!") !oracle)
    keys;
  List.iteri
    (fun i k ->
      if i mod 2 = 0 then begin
        assert (ops.Index_intf.delete k);
        oracle := SMap.remove k !oracle
      end)
    keys;
  check ();
  Alcotest.(check (list (pair string string)))
    (name ^ ": ladder contents")
    (SMap.bindings !oracle)
    (collect_range ops ~lo:"" ~hi:max_key)

let ladder_tests =
  List.map
    (fun (name, make) ->
      Alcotest.test_case ("ladder " ^ name) `Quick (dense_ladder name make))
    targets

(* ------------------------------------------------------------------ *)
(* Variable-length and composite application keys through encode_key    *)

(* Application-layer keys run 0 to [Keygen.max_app_key_len] bytes; the
   indexes only accept 1-24. [Keygen.encode_key] bridges the gap:
   identity for native keys, ['\xfe'] + fingerprint for everything else
   (including the empty string and reserved-prefix keys). These tests
   drive every index through that encoding against a Map oracle keyed by
   the *application* key, so a fingerprint collision or any
   encode/decode asymmetry shows up as an oracle divergence.

   Range is deliberately absent: the fingerprint encoding is not
   order-preserving past 24 bytes, so ordered iteration over encoded
   keys is not an application-level guarantee. Final contents are still
   compared exhaustively by mapping the oracle through [encode_key]. *)

module Keygen = Hart_workloads.Keygen

let app_key_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0);
        (5, int_range 1 24);
        (3, int_range 25 96);
        (1, return Keygen.max_app_key_len);
      ]
    >>= fun len ->
    (* include '\xfe' so reserved-prefix short keys are generated *)
    string_size ~gen:(oneofl [ 'a'; 'b'; '\xfe' ]) (return len))

let composite_key_gen =
  QCheck.Gen.(
    map3
      (fun t u o -> Keygen.composite_key ~tenant:t ~user:u ~obj:o)
      (int_range 0 3) (int_range 0 9) (int_range 0 30))

let vkey_gen = QCheck.Gen.(frequency [ (3, app_key_gen); (1, composite_key_gen) ])

let vop_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Insert (k, v)) vkey_gen value_gen);
        (3, map2 (fun k v -> Update (k, v)) vkey_gen value_gen);
        (4, map (fun k -> Delete k) vkey_gen);
        (4, map (fun k -> Search k) vkey_gen);
        (1, return Count);
      ])

let vops_arb =
  QCheck.make ~print:print_dops
    ~shrink:QCheck.Shrink.(list ?shrink:None)
    QCheck.Gen.(list_size (int_range 1 160) vop_gen)

let run_varlen name make ops_list =
  let ops, check = make () in
  let oracle = ref SMap.empty in
  let failf step op fmt =
    Printf.ksprintf
      (fun s ->
        QCheck.Test.fail_reportf "%s: op %d (%s): %s" name step (pp_dop op) s)
      fmt
  in
  List.iteri
    (fun step op ->
      (match op with
      | Insert (k, v) ->
          ops.Index_intf.insert ~key:(Keygen.encode_key k) ~value:v;
          oracle := SMap.add k v !oracle
      | Update (k, v) ->
          let hit = ops.Index_intf.update ~key:(Keygen.encode_key k) ~value:v in
          if hit <> SMap.mem k !oracle then
            failf step op "update returned %b, oracle has-key %b" hit
              (SMap.mem k !oracle);
          if hit then oracle := SMap.add k v !oracle
      | Delete k ->
          let hit = ops.Index_intf.delete (Keygen.encode_key k) in
          if hit <> SMap.mem k !oracle then
            failf step op "delete returned %b, oracle has-key %b" hit
              (SMap.mem k !oracle);
          oracle := SMap.remove k !oracle
      | Search k ->
          let got = ops.Index_intf.search (Keygen.encode_key k)
          and want = SMap.find_opt k !oracle in
          if got <> want then
            failf step op "search: got %s, oracle %s"
              (match got with Some v -> Printf.sprintf "%S" v | None -> "None")
              (match want with Some v -> Printf.sprintf "%S" v | None -> "None")
      | Range _ -> (* not generated: encoding is not order-preserving *) ()
      | Count ->
          let got = ops.Index_intf.count ()
          and want = SMap.cardinal !oracle in
          if got <> want then failf step op "count: got %d, oracle %d" got want);
      if (step + 1) mod 16 = 0 then
        try check ()
        with Failure msg -> failf step op "integrity: %s" msg)
    ops_list;
  (try check ()
   with Failure msg ->
     QCheck.Test.fail_reportf "%s: final integrity: %s" name msg);
  let final = collect_range ops ~lo:"" ~hi:max_key in
  let want =
    List.sort compare
      (List.map (fun (k, v) -> (Keygen.encode_key k, v)) (SMap.bindings !oracle))
  in
  if final <> want then
    QCheck.Test.fail_reportf
      "%s: final encoded contents diverge from oracle (%d vs %d bindings)" name
      (List.length final) (List.length want);
  true

let varlen_tests =
  List.map
    (fun (name, make) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:25 ~name:("varlen " ^ name) vops_arb
           (run_varlen name make)))
    targets

(* Deterministic boundary anchor: [Keygen.app_varlen_keys] always leads
   with lengths 0, 1, 24, 25 and 4096, so this exercises the empty
   string, both sides of the identity/fingerprint boundary and the
   longest supported application key against every index. *)
let varlen_ladder name make () =
  let ops, check = make () in
  let keys = Array.to_list (Keygen.app_varlen_keys 64) in
  assert (List.mem "" keys);
  assert (List.exists (fun k -> String.length k = Keygen.max_app_key_len) keys);
  let oracle = ref SMap.empty in
  List.iteri
    (fun i k ->
      ops.Index_intf.insert ~key:(Keygen.encode_key k)
        ~value:(Keygen.value_for i);
      oracle := SMap.add k (Keygen.value_for i) !oracle)
    keys;
  List.iter
    (fun k ->
      assert (ops.Index_intf.update ~key:(Keygen.encode_key k) ~value:"upd!");
      oracle := SMap.add k "upd!" !oracle)
    keys;
  List.iteri
    (fun i k ->
      if i mod 2 = 0 then begin
        assert (ops.Index_intf.delete (Keygen.encode_key k));
        oracle := SMap.remove k !oracle
      end)
    keys;
  SMap.iter
    (fun k v ->
      Alcotest.(check (option string))
        (Printf.sprintf "%s: survivor len %d" name (String.length k))
        (Some v)
        (ops.Index_intf.search (Keygen.encode_key k)))
    !oracle;
  check ();
  Alcotest.(check int)
    (name ^ ": varlen ladder count")
    (SMap.cardinal !oracle)
    (ops.Index_intf.count ())

let varlen_ladder_tests =
  List.map
    (fun (name, make) ->
      Alcotest.test_case ("varlen ladder " ^ name) `Quick
        (varlen_ladder name make))
    targets

let () =
  Alcotest.run "differential"
    [
      ("qcheck", differential_tests);
      ("ladder", ladder_tests);
      ("varlen-qcheck", varlen_tests);
      ("varlen-ladder", varlen_ladder_tests);
    ]
