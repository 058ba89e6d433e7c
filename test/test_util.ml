module Rng = Hart_util.Rng
module Bits = Hart_util.Bits
module Json = Hart_util.Json

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" false (Rng.next64 a = Rng.next64 b)

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let test_rng_int_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 9L in
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 16 in
    Alcotest.(check bool) "in [5,16]" true (v >= 5 && v <= 16)
  done

let test_rng_int_covers_range () =
  let r = Rng.create 11L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 10) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_float_bounds () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0. && v < 2.5)
  done

let test_rng_bool_mixes () =
  let r = Rng.create 6L in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly fair" true (!trues > 400 && !trues < 600)

let test_rng_char_alnum () =
  let r = Rng.create 8L in
  for _ = 1 to 500 do
    let c = Rng.char_alnum r in
    let ok =
      (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
    in
    Alcotest.(check bool) "alphanumeric" true ok
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 10L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 12L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.next64 a) in
  let ys = List.init 10 (fun _ -> Rng.next64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_bits_set_clear () =
  let w = ref 0L in
  for i = 0 to 55 do
    w := Bits.set !w i
  done;
  Alcotest.(check int) "56 bits" 56 (Bits.popcount !w);
  for i = 0 to 55 do
    Alcotest.(check bool) "set" true (Bits.test !w i)
  done;
  w := Bits.clear !w 17;
  Alcotest.(check bool) "cleared" false (Bits.test !w 17);
  Alcotest.(check int) "55 bits" 55 (Bits.popcount !w)

let test_bits_lowest_zero () =
  Alcotest.(check (option int)) "empty word" (Some 0) (Bits.lowest_zero 0L ~width:56);
  Alcotest.(check (option int)) "bit 0 set" (Some 1) (Bits.lowest_zero 1L ~width:56);
  let full = Int64.sub (Int64.shift_left 1L 56) 1L in
  Alcotest.(check (option int)) "full" None (Bits.lowest_zero full ~width:56);
  Alcotest.(check (option int))
    "hole at 3"
    (Some 3)
    (Bits.lowest_zero (Bits.clear full 3) ~width:56)

let test_bits_lowest_one () =
  Alcotest.(check (option int)) "empty" None (Bits.lowest_one 0L ~width:56);
  Alcotest.(check (option int)) "bit 5" (Some 5)
    (Bits.lowest_one (Bits.set 0L 5) ~width:56)

let test_bits_u64_roundtrip () =
  let b = Bytes.make 32 '\000' in
  Bits.set_u64 b 3 0x0123456789ABCDEFL;
  Alcotest.(check int64) "roundtrip" 0x0123456789ABCDEFL (Bits.get_u64 b 3)

(* The SWAR popcount/rank and their 32-bit [_w] variants, checked
   against the naive one-bit-at-a-time loop: exhaustively over every
   16-bit word (both in the low bits and shifted to the top of the
   range, where the multiply-fold overflow bug would bite), then over
   random full-width samples. *)
let naive_popcount64 w =
  let c = ref 0 in
  for i = 0 to 63 do
    if Bits.test w i then incr c
  done;
  !c

let naive_rank64 w i =
  (* bits strictly below [i], [i] <= 64 *)
  let c = ref 0 in
  for j = 0 to i - 1 do
    if Bits.test w j then incr c
  done;
  !c

let naive_popcount_w w =
  let c = ref 0 in
  for i = 0 to 31 do
    if (w lsr i) land 1 = 1 then incr c
  done;
  !c

let test_swar_exhaustive_16bit () =
  for x = 0 to 0xFFFF do
    let w64 = Int64.of_int x in
    let hi = Int64.shift_left w64 48 in
    Alcotest.(check int)
      (Printf.sprintf "popcount %#x" x)
      (naive_popcount64 w64) (Bits.popcount w64);
    Alcotest.(check int)
      (Printf.sprintf "popcount %#x << 48" x)
      (naive_popcount64 hi) (Bits.popcount hi);
    Alcotest.(check int)
      (Printf.sprintf "popcount_w %#x" x)
      (naive_popcount_w x) (Bits.popcount_w x);
    Alcotest.(check int)
      (Printf.sprintf "popcount_w %#x << 16" x)
      (naive_popcount_w (x lsl 16))
      (Bits.popcount_w (x lsl 16));
    if x <> 0 then begin
      let naive_ctz w =
        let rec go i = if (w lsr i) land 1 = 1 then i else go (i + 1) in
        go 0
      in
      Alcotest.(check int)
        (Printf.sprintf "ctz_w %#x" x)
        (naive_ctz x) (Bits.ctz_w x);
      Alcotest.(check int)
        (Printf.sprintf "ctz_w %#x << 16" x)
        (naive_ctz (x lsl 16))
        (Bits.ctz_w (x lsl 16))
    end
  done

let test_rank_below_exhaustive () =
  (* every 16-bit word at both ends of the 64-bit range, every i in
     0..64 (65 included boundary: rank over the full word) *)
  for x = 0 to 0xFFFF do
    let w = Int64.logor (Int64.of_int x) (Int64.shift_left (Int64.of_int x) 48) in
    for i = 0 to 64 do
      Alcotest.(check int)
        (Printf.sprintf "rank_below %#x %d" x i)
        (naive_rank64 w i) (Bits.rank_below w i)
    done;
    for i = 0 to 32 do
      Alcotest.(check int)
        (Printf.sprintf "rank_below_w %#x %d" x i)
        (naive_popcount_w (x land ((1 lsl i) - 1)))
        (Bits.rank_below_w x i)
    done
  done

let qcheck_swar_random64 =
  QCheck.Test.make ~name:"SWAR popcount/rank match naive on random int64"
    ~count:2000
    QCheck.(pair int64 (int_bound 64))
    (fun (w, i) ->
      Bits.popcount w = naive_popcount64 w
      && Bits.rank_below w i = naive_rank64 w i)

let qcheck_swar_random_w =
  QCheck.Test.make ~name:"popcount_w/rank_below_w/ctz_w match naive on random \
                          32-bit words"
    ~count:2000
    QCheck.(pair (int_bound 0xFFFFFFFF) (int_bound 32))
    (fun (w, i) ->
      Bits.popcount_w w = naive_popcount_w w
      && Bits.rank_below_w w i = naive_popcount_w (w land ((1 lsl i) - 1))
      && (w = 0
         || Bits.ctz_w w
            = (let rec go j = if (w lsr j) land 1 = 1 then j else go (j + 1) in
               go 0)))

(* [ctz] covers what [ctz_w] cannot: words of 2^32 and more, such as a
   chunk's 56-bit free mask with its lowest free slot at 31..55. *)
let test_ctz_wide () =
  let full56 = (1 lsl 56) - 1 in
  for i = 31 to 55 do
    Alcotest.(check int) (Printf.sprintf "ctz 1 << %d" i) i (Bits.ctz (1 lsl i));
    Alcotest.(check int)
      (Printf.sprintf "ctz of the 56-bit mask above bit %d" i)
      i
      (Bits.ctz (full56 land lnot ((1 lsl i) - 1)))
  done;
  Alcotest.(check int) "ctz min_int" 62 (Bits.ctz min_int)

let qcheck_ctz_random =
  QCheck.Test.make ~name:"ctz matches naive on random native ints" ~count:2000
    QCheck.int
    (fun w ->
      w = 0
      || Bits.ctz w
         = (let rec go j = if (w lsr j) land 1 = 1 then j else go (j + 1) in
            go 0))

let qcheck_popcount_set =
  QCheck.Test.make ~name:"popcount after set grows by 0 or 1" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (w, i) ->
      let p = Bits.popcount w and p' = Bits.popcount (Bits.set w i) in
      if Bits.test w i then p = p' else p' = p + 1)

let qcheck_set_clear_inverse =
  QCheck.Test.make ~name:"clear after set restores" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (w, i) ->
      Bits.clear (Bits.set w i) i = Bits.clear w i
      && Bits.set (Bits.clear w i) i = Bits.set w i)

let qcheck_lowest_zero_is_zero =
  QCheck.Test.make ~name:"lowest_zero returns a zero bit below width" ~count:500
    QCheck.int64
    (fun w ->
      match Bits.lowest_zero w ~width:56 with
      | None -> List.for_all (Bits.test w) (List.init 56 Fun.id)
      | Some i -> i < 56 && not (Bits.test w i))

(* The compact layout is what the fault reports are made of, and CI
   diffs those byte for byte. *)
let test_json_compact_layouts () =
  let op = Json.Obj [ ("op", Json.Str "insert"); ("key", Json.Str "a\"b\\\n\r\t\001") ] in
  let v =
    Json.Obj
      [
        ("seed", Json.Int64 Int64.min_int);
        ("n", Json.Int (-3));
        ("none", Json.Null);
        ("ok", Json.Bool true);
        ("ops", Json.List [ op; Json.List [] ]);
        ("empty", Json.Obj []);
      ]
  in
  let compact =
    {|{"seed":-9223372036854775808,"n":-3,"none":null,"ok":true,"ops":[{"op":"insert","key":"a\"b\\\n\r\t\u0001"},[]],"empty":{}}|}
  in
  Alcotest.(check string) "compact" compact (Json.to_compact v);
  Alcotest.(check string) "lines" ("[\n  " ^ compact ^ ",\n  []\n]\n")
    (Json.to_lines [ v; Json.List [] ]);
  Alcotest.(check string) "no lines" "[]\n" (Json.to_lines [])

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bool mixes" `Quick test_rng_bool_mixes;
          Alcotest.test_case "char_alnum alphabet" `Quick test_rng_char_alnum;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        ] );
      ( "bits",
        [
          Alcotest.test_case "set/clear/test/popcount" `Quick test_bits_set_clear;
          Alcotest.test_case "lowest_zero" `Quick test_bits_lowest_zero;
          Alcotest.test_case "lowest_one" `Quick test_bits_lowest_one;
          Alcotest.test_case "u64 roundtrip" `Quick test_bits_u64_roundtrip;
          Alcotest.test_case "SWAR vs naive, exhaustive 16-bit" `Quick
            test_swar_exhaustive_16bit;
          Alcotest.test_case "rank_below vs naive, exhaustive 16-bit" `Slow
            test_rank_below_exhaustive;
          QCheck_alcotest.to_alcotest qcheck_swar_random64;
          QCheck_alcotest.to_alcotest qcheck_swar_random_w;
          QCheck_alcotest.to_alcotest qcheck_popcount_set;
          QCheck_alcotest.to_alcotest qcheck_set_clear_inverse;
          QCheck_alcotest.to_alcotest qcheck_lowest_zero_is_zero;
          Alcotest.test_case "ctz on words of 2^32 and more" `Quick test_ctz_wide;
          QCheck_alcotest.to_alcotest qcheck_ctz_random;
        ] );
      ( "json",
        [ Alcotest.test_case "compact layouts" `Quick test_json_compact_layouts ] );
    ]
