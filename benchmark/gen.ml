(* Seeded inputs: a splitmix64 generator, distinct alphanumeric keys,
   values that name their key, and a Zipf sampler. The benchmark owns
   all of them (nothing here comes from the program under test), so a
   change to the program cannot change what it is fed. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Uniform in [0, n). The modulo bias is below 2^-40 for every bound
   the benchmark uses. *)
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

(* Uniform in [0, 1). *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

let alnum = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

(* [n] distinct keys of 5-16 alphanumeric characters, in generation
   order (which is random with respect to key order). *)
let keys r n =
  let seen = Hashtbl.create (2 * n) and out = Array.make n "" in
  let i = ref 0 in
  while !i < n do
    let k = String.init (5 + int r 12) (fun _ -> alnum.[int r 62]) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out.(!i) <- k;
      incr i
    end
  done;
  out

(* A value is its key's 6-character tag followed by an 8-digit
   version, so a reply can be checked to belong to the key it answers
   and to be a version that was actually written. Preloaded values are
   version 0. *)
let tag_len = 6
let value_len = tag_len + 8

let tag key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  let r = { s = !h } in
  String.init tag_len (fun _ -> alnum.[int r 62])

let value tag ver = Printf.sprintf "%s%08d" tag ver

(* Zipf over ranks [0, n) with exponent [theta], sampled by inverting
   the cumulative distribution. *)
type zipf = float array

let zipf n theta =
  let c = Array.make n 0. and acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
    c.(i) <- !acc
  done;
  Array.map (fun x -> x /. !acc) c

let zipf_draw (z : zipf) r =
  let u = float r in
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
