module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload
module Index_intf = Hart_core.Index_intf

let distinct keys =
  let h = Hashtbl.create (Array.length keys) in
  Array.for_all
    (fun k ->
      if Hashtbl.mem h k then false
      else begin
        Hashtbl.add h k ();
        true
      end)
    keys

(* ------------------------------------------------------------------ *)
(* Key generators                                                      *)

let test_sequential_ordered () =
  let keys = Keygen.generate Keygen.Sequential 5000 in
  Alcotest.(check int) "count" 5000 (Array.length keys);
  Alcotest.(check bool) "distinct" true (distinct keys);
  for i = 1 to 4999 do
    if not (keys.(i - 1) < keys.(i)) then Alcotest.failf "not ordered at %d" i
  done;
  Array.iter
    (fun k -> Alcotest.(check int) "fixed width" 8 (String.length k))
    keys

let test_sequential_shares_prefixes () =
  let keys = Keygen.generate Keygen.Sequential 100 in
  (* the first 62 keys share the 7-byte prefix: only the last byte moves *)
  let prefix k = String.sub k 0 7 in
  Alcotest.(check string) "stable prefix" (prefix keys.(0)) (prefix keys.(61))

let test_random_properties () =
  let keys = Keygen.generate Keygen.Random 5000 in
  Alcotest.(check bool) "distinct" true (distinct keys);
  Array.iter
    (fun k ->
      let n = String.length k in
      if n < 5 || n > 16 then Alcotest.failf "length %d outside 5..16" n;
      String.iter
        (fun c ->
          let ok =
            (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')
            || (c >= '0' && c <= '9')
          in
          if not ok then Alcotest.failf "bad character %C" c)
        k)
    keys

let test_random_deterministic () =
  let a = Keygen.generate ~seed:7L Keygen.Random 1000 in
  let b = Keygen.generate ~seed:7L Keygen.Random 1000 in
  let c = Keygen.generate ~seed:8L Keygen.Random 1000 in
  Alcotest.(check bool) "same seed same keys" true (a = b);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_dictionary_properties () =
  let keys = Keygen.generate Keygen.Dictionary 20_000 in
  Alcotest.(check bool) "distinct" true (distinct keys);
  Array.iter
    (fun k ->
      let n = String.length k in
      if n < 1 || n > 24 then Alcotest.failf "word length %d outside 1..24" n;
      String.iter
        (fun c -> if not (c >= 'a' && c <= 'z') then Alcotest.failf "bad char %C" c)
        k)
    keys;
  (* first-letter distribution must be skewed like English: the most
     common initial should cover well over 1/26th of the words *)
  let firsts = Array.make 26 0 in
  Array.iter
    (fun k -> firsts.(Char.code k.[0] - Char.code 'a') <- firsts.(Char.code k.[0] - Char.code 'a') + 1)
    keys;
  let top = Array.fold_left max 0 firsts in
  Alcotest.(check bool) "skewed initials" true (top > 20_000 / 26 * 2)

let test_dictionary_universe () =
  Alcotest.(check bool) "supports the paper's 466k words" true
    (Keygen.dictionary_universe >= 466_544);
  Alcotest.(check bool) "overflow rejected" true
    (match Keygen.generate Keygen.Dictionary (Keygen.dictionary_universe + 1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_value_sizes () =
  Alcotest.(check int) "value_for is 7 bytes (Val8 class)" 7
    (String.length (Keygen.value_for 123));
  Alcotest.(check int) "wide_value_for is 15 bytes (Val16 class)" 15
    (String.length (Keygen.wide_value_for 123))

let test_spec_names () =
  List.iter
    (fun spec ->
      match Keygen.of_name (Keygen.name spec) with
      | Some s -> Alcotest.(check string) "roundtrip" (Keygen.name spec) (Keygen.name s)
      | None -> Alcotest.fail "name roundtrip failed")
    Keygen.all;
  Alcotest.(check bool) "unknown rejected" true (Keygen.of_name "zipf" = None)

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)

let test_basic_traces () =
  let keys = Keygen.generate Keygen.Random 500 in
  let ins = Workload.insert_trace keys Keygen.value_for in
  Alcotest.(check int) "one insert per key" 500 (Array.length ins);
  let sea = Workload.search_trace keys in
  let searched =
    Array.map (function Workload.Search k -> k | _ -> Alcotest.fail "not a search") sea
  in
  Alcotest.(check bool) "search covers all keys" true
    (List.sort compare (Array.to_list searched)
    = List.sort compare (Array.to_list keys));
  Alcotest.(check bool) "search order shuffled" true (searched <> keys)

let test_ycsb_mix_ratios () =
  let preloaded = Keygen.generate Keygen.Random 2000 in
  let fresh = Keygen.generate ~seed:99L Keygen.Random 20_000 in
  List.iter
    (fun mix ->
      let n_ops = 20_000 in
      let trace = Workload.ycsb mix ~preloaded ~fresh ~n_ops in
      let i = ref 0 and s = ref 0 and u = ref 0 and d = ref 0 in
      let sc = ref 0 and rm = ref 0 in
      Array.iter
        (function
          | Workload.Insert _ -> incr i
          | Workload.Search _ -> incr s
          | Workload.Update _ -> incr u
          | Workload.Delete _ -> incr d
          | Workload.Scan _ -> incr sc
          | Workload.Rmw _ -> incr rm)
        trace;
      let close pct count =
        abs ((count * 100 / n_ops) - pct) <= 2 (* within 2 points *)
      in
      if not (close mix.Workload.insert_pct !i) then
        Alcotest.failf "%s: insert share %d" mix.Workload.mix_name !i;
      if not (close mix.Workload.search_pct !s) then
        Alcotest.failf "%s: search share %d" mix.Workload.mix_name !s;
      if not (close mix.Workload.update_pct !u) then
        Alcotest.failf "%s: update share %d" mix.Workload.mix_name !u;
      if not (close mix.Workload.delete_pct !d) then
        Alcotest.failf "%s: delete share %d" mix.Workload.mix_name !d;
      if not (close mix.Workload.scan_pct !sc) then
        Alcotest.failf "%s: scan share %d" mix.Workload.mix_name !sc;
      if not (close mix.Workload.rmw_pct !rm) then
        Alcotest.failf "%s: rmw share %d" mix.Workload.mix_name !rm)
    (Workload.mixes @ List.map fst Workload.ycsb_standard)

let test_ycsb_uniform_coverage () =
  let preloaded = Keygen.generate Keygen.Random 100 in
  let fresh = Keygen.generate ~seed:99L Keygen.Random 1 in
  let trace = Workload.ycsb Workload.read_modified_write ~preloaded ~fresh ~n_ops:10_000 in
  let seen = Hashtbl.create 128 in
  Array.iter
    (function
      | Workload.Search k | Workload.Update (k, _) -> Hashtbl.replace seen k ()
      | Workload.Insert _ | Workload.Delete _ | Workload.Scan _ | Workload.Rmw _
        -> ())
    trace;
  Alcotest.(check bool) "uniform distribution touches every record" true
    (Hashtbl.length seen = 100)

let test_ycsb_validation () =
  let preloaded = Keygen.generate Keygen.Random 100 in
  Alcotest.(check bool) "too few fresh keys rejected" true
    (match
       Workload.ycsb Workload.write_intensive ~preloaded ~fresh:[||] ~n_ops:1000
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty preload rejected" true
    (match
       Workload.ycsb Workload.read_intensive ~preloaded:[||]
         ~fresh:(Keygen.generate Keygen.Random 1000) ~n_ops:1000
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_zipf_sampler_shape () =
  let rng = Hart_util.Rng.create 0x21FL in
  let sample = Workload.zipf_sampler rng ~n:1000 ~s:0.99 in
  let counts = Array.make 1000 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    let k = sample () in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* rank 0 must dominate: ~1/H_1000 = 13% of mass at s=0.99 *)
  Alcotest.(check bool)
    (Printf.sprintf "head heavy (rank0=%d)" counts.(0))
    true
    (counts.(0) > draws / 20);
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(10));
  Alcotest.(check bool) "tail thin" true (counts.(999) < counts.(0) / 10)

let test_zipf_sampler_validation () =
  let rng = Hart_util.Rng.create 1L in
  Alcotest.(check bool) "empty support rejected" true
    (match Workload.zipf_sampler rng ~n:0 ~s:1.0 () with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "bad exponent rejected" true
    (match Workload.zipf_sampler rng ~n:10 ~s:(-1.0) () with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true)

let test_ycsb_zipfian_skew () =
  let preloaded = Keygen.generate Keygen.Random 1000 in
  let fresh = Keygen.generate ~seed:99L Keygen.Random 1 in
  let trace =
    Workload.ycsb ~dist:(Workload.Zipfian 0.99) Workload.read_modified_write
      ~preloaded ~fresh ~n_ops:20_000
  in
  let counts = Hashtbl.create 128 in
  Array.iter
    (function
      | Workload.Search k | Workload.Update (k, _) ->
          Hashtbl.replace counts k (1 + Option.value (Hashtbl.find_opt counts k) ~default:0)
      | Workload.Insert _ | Workload.Delete _ | Workload.Scan _ | Workload.Rmw _
        -> ())
    trace;
  let top =
    Hashtbl.fold (fun _ c acc -> max acc c) counts 0
  in
  (* uniform would give ~20 per key; zipf must concentrate far more *)
  Alcotest.(check bool)
    (Printf.sprintf "hottest key hit %d times" top)
    true (top > 200)

(* ------------------------------------------------------------------ *)
(* Determinism pins: the first 32 draws of every request distribution,
   per seed, rendered compactly and compared against literals. The ycsb
   generator splits its root seed into independent op/key/length
   streams precisely so these stay stable; if any future change shifts
   a stream, this test names the exact distribution and seed that
   drifted. Regenerate the literals with
   [PIN_DUMP=1 dune exec test/test_workloads.exe]. *)

let render_op = function
  | Workload.Insert (k, _) -> "I:" ^ k
  | Workload.Search k -> "S:" ^ k
  | Workload.Update (k, _) -> "U:" ^ k
  | Workload.Delete k -> "D:" ^ k
  | Workload.Scan (k, len) -> Printf.sprintf "C:%s:%d" k len
  | Workload.Rmw (k, _) -> "M:" ^ k

(* every op class present, so all three rng streams are consumed *)
let pin_mix =
  {
    Workload.mix_name = "pin";
    insert_pct = 10;
    search_pct = 30;
    update_pct = 20;
    delete_pct = 10;
    scan_pct = 20;
    rmw_pct = 10;
  }

let pin_trace ?seed dist =
  let preloaded = Array.init 40 (Printf.sprintf "p%02d") in
  let fresh = Array.init 20 (Printf.sprintf "f%02d") in
  let trace =
    Workload.ycsb ?seed ~dist ~scan_max:9 pin_mix ~preloaded ~fresh ~n_ops:32
  in
  String.concat " " (Array.to_list (Array.map render_op trace))

let pin_cases =
  [
    ("uniform/default", None, Workload.Uniform);
    ("uniform/seed7", Some 7L, Workload.Uniform);
    ("zipf99/default", None, Workload.Zipfian 0.99);
    ("zipf99/seed7", Some 7L, Workload.Zipfian 0.99);
    ("latest99/default", None, Workload.Latest 0.99);
    ("latest99/seed7", Some 7L, Workload.Latest 0.99);
    ("hotspot/default", None, Workload.Hotspot { hot_fraction = 0.2; hot_prob = 0.8 });
    ("hotspot/seed7", Some 7L, Workload.Hotspot { hot_fraction = 0.2; hot_prob = 0.8 });
  ]

let pinned_draws =
  [
    ("uniform/default", "C:p00:6 D:p05 U:p17 M:p17 I:f00 U:p30 M:p35 S:p10 S:p23 U:p15 D:p05 S:p29 C:p35:6 S:p12 U:p15 C:p29:4 S:p13 U:p32 S:p09 U:p22 U:p32 D:p11 C:p08:6 I:f01 S:p36 S:p02 U:p28 S:p15 C:p31:4 S:p32 C:p14:3 C:p25:6");
    ("uniform/seed7", "I:f00 U:p09 I:f01 S:p00 D:p36 D:p08 U:p27 U:p31 S:p06 M:p31 C:p20:8 C:p35:3 I:f02 S:p29 S:p32 U:p18 I:f03 M:p38 U:p02 S:p02 S:p39 S:p23 S:p24 U:p03 C:p01:1 U:p10 S:p00 U:p24 S:p07 D:p27 S:p03 U:p39");
    ("zipf99/default", "C:p24:6 D:p01 U:p26 M:p14 I:f00 U:p09 M:p09 S:p01 S:p02 U:p01 D:p09 S:p15 C:p07:6 S:p00 U:p00 C:p00:4 S:p00 U:p00 S:p29 U:p08 U:p00 D:p00 C:p00:6 I:f01 S:p00 S:p02 U:p04 S:p24 C:p05:4 S:p39 C:p04:3 C:p34:6");
    ("zipf99/seed7", "I:f00 U:p04 I:f01 S:p13 D:p26 D:p21 U:p01 U:p04 S:p12 M:p00 C:p00:8 C:p00:3 I:f02 S:p01 S:p19 U:p03 I:f03 M:p35 U:p00 S:p11 S:p15 S:p00 S:p22 U:p00 C:p13:1 U:p32 S:p09 U:p01 S:p04 D:p10 S:p00 U:p00");
    ("latest99/default", "C:p04:6 D:p38 U:p00 M:p20 I:f00 U:p28 M:p28 S:p39 S:p37 U:p39 D:p29 S:p18 C:p30:6 S:f00 U:f00 C:f00:4 S:f00 U:f00 S:p29 U:f00 U:f00 D:f00 C:f00:6 I:f01 S:p39 S:p35 U:p06 S:p35 C:p36:4 S:p35 C:p38:3 C:p13:6");
    ("latest99/seed7", "I:f00 U:p35 I:f01 S:p23 D:p03 D:p12 U:p39 U:p36 S:p24 M:f01 C:f01:8 C:f01:3 I:f02 S:f00 S:p15 U:p38 I:f03 M:f03 U:p28 S:p22 S:f03 S:p12 S:f03 U:p25 C:p31:1 U:f02 S:p38 U:p29 S:f03 D:f03 S:f02 U:p05");
    ("hotspot/default", "C:p37:6 D:p09 U:p03 M:p07 I:f00 U:p05 M:p03 S:p07 S:p05 U:p01 D:p00 S:p00 C:p02:6 S:p07 U:p00 C:p01:4 S:p03 U:p26 S:p02 U:p00 U:p05 D:p03 C:p04:6 I:f01 S:p04 S:p06 U:p20 S:p01 C:p01:4 S:p07 C:p06:3 C:p21:6");
    ("hotspot/seed7", "I:f00 U:p00 I:f01 S:p24 D:p07 D:p07 U:p03 U:p00 S:p06 M:p02 C:p07:8 C:p35:3 I:f02 S:p02 S:p00 U:p03 I:f03 M:p07 U:p05 S:p04 S:p01 S:p05 S:p03 U:p23 C:p03:1 U:p20 S:p06 U:p01 S:p23 D:p01 S:p28 U:p14");
  ]

let () =
  if Sys.getenv_opt "PIN_DUMP" <> None then begin
    List.iter
      (fun (label, seed, dist) ->
        Printf.printf "    (%S, %S);\n" label (pin_trace ?seed dist))
      pin_cases;
    exit 0
  end

let test_pinned_draws () =
  List.iter
    (fun (label, seed, dist) ->
      match List.assoc_opt label pinned_draws with
      | None -> Alcotest.failf "no pinned literal for %s" label
      | Some expected ->
          Alcotest.(check string) label expected (pin_trace ?seed dist))
    pin_cases

let test_stream_independence () =
  (* changing scan_max only consumes the length stream differently: the
     op sequence and every key drawn must stay identical *)
  let preloaded = Keygen.generate Keygen.Random 300 in
  let fresh = Keygen.generate ~seed:99L Keygen.Random 100 in
  let strip = function
    | Workload.Scan (k, _) -> Workload.Scan (k, 0)
    | op -> op
  in
  let trace sm =
    Array.map strip
      (Workload.ycsb ~dist:(Workload.Zipfian 0.99) ~scan_max:sm pin_mix
         ~preloaded ~fresh ~n_ops:600)
  in
  Alcotest.(check bool) "keys independent of scan_max" true
    (trace 5 = trace 500)

let test_scan_lengths_bounded () =
  let preloaded = Keygen.generate Keygen.Random 100 in
  let fresh = Keygen.generate ~seed:99L Keygen.Random 200 in
  let scan_max = 13 in
  let trace =
    Workload.ycsb ~scan_max Workload.ycsb_e ~preloaded ~fresh ~n_ops:2000
  in
  Array.iter
    (function
      | Workload.Scan (_, len) ->
          if len < 1 || len > scan_max then
            Alcotest.failf "scan length %d outside 1..%d" len scan_max
      | _ -> ())
    trace;
  Alcotest.(check bool) "scan_max 0 rejected" true
    (match
       Workload.ycsb ~scan_max:0 Workload.ycsb_e ~preloaded ~fresh ~n_ops:10
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_latest_skew_recency () =
  let n_pre = 500 in
  let preloaded = Array.init n_pre (Printf.sprintf "pre%04d") in
  let fresh = Array.init 200 (Printf.sprintf "new%04d") in
  let trace =
    Workload.ycsb ~dist:(Workload.Latest 0.99) Workload.ycsb_d ~preloaded
      ~fresh ~n_ops:4000
  in
  let total = ref 0 and recent = ref 0 and on_fresh = ref 0 in
  let is_recent k =
    (* the most recent tenth of the preload, or any freshly inserted key *)
    if String.length k >= 3 && String.sub k 0 3 = "new" then begin
      incr on_fresh;
      true
    end
    else Scanf.sscanf k "pre%d" (fun i -> i >= n_pre * 9 / 10)
  in
  Array.iter
    (function
      | Workload.Search k ->
          incr total;
          if is_recent k then incr recent
      | _ -> ())
    trace;
  Alcotest.(check bool)
    (Printf.sprintf "latest mass on recent keys (%d/%d)" !recent !total)
    true
    (!recent * 100 / !total > 40);
  Alcotest.(check bool) "freshly inserted keys get read" true (!on_fresh > 0)

let test_hotspot_proportions () =
  let n_pre = 1000 in
  let preloaded = Array.init n_pre (Printf.sprintf "hs%04d") in
  let fresh = [| "unused" |] in
  let trace =
    Workload.ycsb
      ~dist:(Workload.Hotspot { hot_fraction = 0.2; hot_prob = 0.8 })
      Workload.ycsb_c ~preloaded ~fresh ~n_ops:10_000
  in
  let hot = ref 0 and total = ref 0 in
  Array.iter
    (function
      | Workload.Search k ->
          incr total;
          Scanf.sscanf k "hs%d" (fun i -> if i < n_pre / 5 then incr hot)
      | _ -> ())
    trace;
  let pct = !hot * 100 / !total in
  Alcotest.(check bool)
    (Printf.sprintf "hot set takes ~80%% of requests (got %d%%)" pct)
    true
    (pct >= 75 && pct <= 85);
  Alcotest.(check bool) "hotspot validation" true
    (match
       Workload.ycsb
         ~dist:(Workload.Hotspot { hot_fraction = 0.; hot_prob = 0.5 })
         Workload.ycsb_c ~preloaded ~fresh ~n_ops:10
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_churn_trace_structure () =
  let keys = Array.init 30 (Printf.sprintf "ck%02d") in
  let waves = 2 in
  let trace = Workload.churn_trace ~waves keys Keygen.value_for in
  let n = Array.length keys in
  Alcotest.(check int) "length = (2*waves+1)*n" ((2 * waves) + 1) (Array.length trace / n);
  let sorted_keys = List.sort compare (Array.to_list keys) in
  let wave i =
    List.sort compare
      (Array.to_list (Array.sub trace (i * n) n) |> List.map (function
        | Workload.Insert (k, _) | Workload.Delete k -> k
        | op -> Alcotest.failf "unexpected op %s" (render_op op)))
  in
  for w = 0 to 2 * waves do
    (* every wave covers every key exactly once *)
    Alcotest.(check (list string))
      (Printf.sprintf "wave %d covers all keys" w)
      sorted_keys (wave w);
    let expect_insert = w mod 2 = 0 in
    Array.iter
      (fun op ->
        match (op, expect_insert) with
        | Workload.Insert _, true | Workload.Delete _, false -> ()
        | op, _ ->
            Alcotest.failf "wave %d: unexpected op %s" w (render_op op))
      (Array.sub trace (w * n) n)
  done;
  (* waves are independently shuffled, not replayed *)
  let order i =
    Array.to_list (Array.sub trace (i * n) n) |> List.map render_op
  in
  Alcotest.(check bool) "waves shuffled independently" true (order 0 <> order 2);
  Alcotest.(check bool) "waves must be >= 1" true
    (match Workload.churn_trace ~waves:0 keys Keygen.value_for with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Application-key encoding and generators                             *)

let test_encode_key_identity () =
  (* 1-24-byte keys without the reserved prefix pass through untouched *)
  for len = 1 to 24 do
    let k = String.make len 'q' in
    Alcotest.(check string) (Printf.sprintf "identity len %d" len) k
      (Keygen.encode_key k)
  done

let test_encode_key_fingerprint () =
  let fingerprinted =
    [ ""; String.make 25 'a'; String.make 4096 'x'; "\xfe"; "\xfeshort" ]
  in
  List.iter
    (fun k ->
      let e = Keygen.encode_key k in
      Alcotest.(check int)
        (Printf.sprintf "fingerprint is 24 bytes (app len %d)" (String.length k))
        24 (String.length e);
      Alcotest.(check char) "reserved prefix" '\xfe' e.[0];
      Alcotest.(check string) "deterministic" e (Keygen.encode_key k))
    fingerprinted;
  let encoded = List.map Keygen.encode_key fingerprinted in
  Alcotest.(check int) "no collisions among encodings"
    (List.length encoded)
    (List.length (List.sort_uniq compare encoded))

let test_app_varlen_keys () =
  let keys = Keygen.app_varlen_keys 64 in
  Alcotest.(check bool) "distinct" true (distinct keys);
  let lens = Array.to_list (Array.map String.length keys) in
  List.iter
    (fun boundary ->
      Alcotest.(check bool)
        (Printf.sprintf "boundary length %d present" boundary)
        true (List.mem boundary lens))
    [ 0; 1; 24; 25; Keygen.max_app_key_len ];
  let a = Keygen.app_varlen_keys ~seed:3L 200 in
  let b = Keygen.app_varlen_keys ~seed:3L 200 in
  Alcotest.(check bool) "deterministic per seed" true (a = b);
  let encoded = Array.map Keygen.encode_key a in
  Alcotest.(check bool) "encodings stay distinct" true (distinct encoded);
  Array.iter
    (fun e ->
      let n = String.length e in
      if n < 1 || n > 24 then Alcotest.failf "encoded length %d outside 1..24" n)
    encoded

let test_composite_keys () =
  let k = Keygen.composite_key ~tenant:3 ~user:42 ~obj:12345 in
  Alcotest.(check string) "canonical rendering" "t03:u0042:o00012345" k;
  Alcotest.(check int) "fixed 19-byte width" 19 (String.length k);
  let keys = Keygen.generate Keygen.Composite 5000 in
  Alcotest.(check bool) "distinct" true (distinct keys);
  Array.iter
    (fun k ->
      if String.length k <> 19 then Alcotest.failf "width %d" (String.length k);
      Alcotest.(check string) "native keys encode as themselves" k
        (Keygen.encode_key k))
    keys;
  (* per-field skew: the hottest tenant prefix must dominate *)
  let tenants = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      let t = String.sub k 0 3 in
      Hashtbl.replace tenants t
        (1 + Option.value (Hashtbl.find_opt tenants t) ~default:0))
    keys;
  let top = Hashtbl.fold (fun _ c acc -> max acc c) tenants 0 in
  Alcotest.(check bool)
    (Printf.sprintf "tenant skew (top=%d of 5000)" top)
    true
    (top > 5000 / Hashtbl.length tenants * 2)

let test_apply_counts_hits () =
  let pool = Hart_pmem.Pmem.create (Hart_pmem.Meter.create Hart_pmem.Latency.c300_100) in
  let ops = Hart_baselines.Roster.(create hart) pool in
  let keys = Keygen.generate Keygen.Random 100 in
  let hits = Workload.apply ops (Workload.insert_trace keys Keygen.value_for) in
  Alcotest.(check int) "all inserts counted" 100 hits;
  let hits = Workload.apply ops (Workload.search_trace keys) in
  Alcotest.(check int) "all searches hit" 100 hits;
  let miss_trace = [| Workload.Search "absent-key"; Workload.Delete "nope" |] in
  Alcotest.(check int) "misses not counted" 0 (Workload.apply ops miss_trace)

let () =
  Alcotest.run "workloads"
    [
      ( "keygen",
        [
          Alcotest.test_case "sequential ordered" `Quick test_sequential_ordered;
          Alcotest.test_case "sequential prefixes" `Quick test_sequential_shares_prefixes;
          Alcotest.test_case "random properties" `Quick test_random_properties;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "dictionary properties" `Quick test_dictionary_properties;
          Alcotest.test_case "dictionary universe" `Quick test_dictionary_universe;
          Alcotest.test_case "value sizes" `Quick test_value_sizes;
          Alcotest.test_case "spec names" `Quick test_spec_names;
        ] );
      ( "traces",
        [
          Alcotest.test_case "basic traces" `Quick test_basic_traces;
          Alcotest.test_case "ycsb mix ratios" `Quick test_ycsb_mix_ratios;
          Alcotest.test_case "ycsb uniform coverage" `Quick test_ycsb_uniform_coverage;
          Alcotest.test_case "ycsb validation" `Quick test_ycsb_validation;
          Alcotest.test_case "zipf sampler shape" `Quick test_zipf_sampler_shape;
          Alcotest.test_case "zipf sampler validation" `Quick test_zipf_sampler_validation;
          Alcotest.test_case "ycsb zipfian skew" `Quick test_ycsb_zipfian_skew;
          Alcotest.test_case "apply counts hits" `Quick test_apply_counts_hits;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pinned first draws" `Quick test_pinned_draws;
          Alcotest.test_case "stream independence" `Quick test_stream_independence;
          Alcotest.test_case "scan lengths bounded" `Quick test_scan_lengths_bounded;
          Alcotest.test_case "latest skew recency" `Quick test_latest_skew_recency;
          Alcotest.test_case "hotspot proportions" `Quick test_hotspot_proportions;
          Alcotest.test_case "churn trace structure" `Quick test_churn_trace_structure;
        ] );
      ( "app-keys",
        [
          Alcotest.test_case "encode identity" `Quick test_encode_key_identity;
          Alcotest.test_case "encode fingerprint" `Quick test_encode_key_fingerprint;
          Alcotest.test_case "app varlen keys" `Quick test_app_varlen_keys;
          Alcotest.test_case "composite keys" `Quick test_composite_keys;
        ] );
    ]
