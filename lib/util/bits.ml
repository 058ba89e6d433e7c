let test word i = Int64.(logand (shift_right_logical word i) 1L) = 1L
let set word i = Int64.(logor word (shift_left 1L i))
let clear word i = Int64.(logand word (lognot (shift_left 1L i)))

(* Branchless SWAR popcount (Hacker's Delight 5-1): sum bit pairs, then
   nibbles, then fold the eight byte counts together with a multiply.
   Replaces the data-dependent Kernighan loop, which cost one iteration
   per set bit — the ART bitmap nodes rank children by popcount on every
   lookup, so the constant-time version matters there. *)
let popcount word =
  let open Int64 in
  let w = sub word (logand (shift_right_logical word 1) 0x5555555555555555L) in
  let w =
    add
      (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

let rank_below word i =
  if i >= 64 then popcount word
  else popcount (Int64.logand word (Int64.sub (Int64.shift_left 1L i) 1L))

(* 32-bit variants on the native int, for bitset words stored in an int
   Bigarray (a 64-bit SWAR constant would not fit in OCaml's 63-bit
   int literal range). Arguments must be < 2^32. *)
let[@inline] popcount_w w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  let w = (w + (w lsr 4)) land 0x0f0f0f0f in
  (* the multiply folds byte counts into bits 24..31; unlike a 32-bit
     register, OCaml's wider int keeps partial sums above them, so mask
     the 6-bit total out explicitly *)
  ((w * 0x01010101) lsr 24) land 0x3f

let[@inline] rank_below_w w i = popcount_w (w land ((1 lsl i) - 1))

(* Trailing zeros of a non-zero word: isolate the lowest set bit, turn
   the bits below it into a mask, count them. *)
let[@inline] ctz_w w = popcount_w ((w land -w) - 1)

(* The same on a full native int: the mask below the lowest set bit can
   reach 62 bits, so count it in two 32-bit halves. *)
let[@inline] ctz w =
  let below = (w land -w) - 1 in
  popcount_w (below land 0xFFFF_FFFF) + popcount_w (below lsr 32)

let lowest_zero word ~width =
  let rec go i =
    if i >= width then None
    else if not (test word i) then Some i
    else go (i + 1)
  in
  go 0

let lowest_one word ~width =
  let rec go i =
    if i >= width then None
    else if test word i then Some i
    else go (i + 1)
  in
  go 0

let get_u64 b off = Bytes.get_int64_le b off
let set_u64 b off v = Bytes.set_int64_le b off v
