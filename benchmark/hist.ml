(* Log-linear histogram of nanosecond samples: exact below 1024 ns,
   then 128 buckets per power of two (under 0.8% relative error).
   Percentiles interpolate linearly inside their bucket. Recording does
   not allocate, so it can sit on the timed path. *)

type t = { counts : int array; mutable n : int }

let sub_bits = 7
let sub = 1 lsl sub_bits
let base_shift = 10 - sub_bits (* the shift of [1024, 2048) *)
let nbuckets = 1024 + (54 * sub)
let create () = { counts = Array.make nbuckets 0; n = 0 }

let index v =
  if v < 1024 then max 0 v
  else begin
    let msb = ref 10 in
    while v lsr (!msb + 1) <> 0 do
      incr msb
    done;
    let shift = !msb - sub_bits in
    1024 + ((shift - base_shift) * sub) + ((v lsr shift) - sub)
  end

let add t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n

let bucket_low_width i =
  if i < 1024 then (float_of_int i, 1.)
  else
    let shift = ((i - 1024) / sub) + base_shift in
    let m = ((i - 1024) mod sub) + sub in
    (float_of_int (m lsl shift), float_of_int (1 lsl shift))

(* The [p]-quantile in ns, 0 for an empty histogram. *)
let percentile t p =
  if t.n = 0 then 0.
  else begin
    let target = p *. float_of_int t.n in
    let rec go i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= target then
        let low, width = bucket_low_width i in
        low +. (width *. Float.max 0. ((target -. float_of_int cum) /. float_of_int c))
      else if i + 1 < nbuckets then go (i + 1) (cum + c)
      else fst (bucket_low_width i)
    in
    go 0 0
  end

let p_us t p = percentile t p /. 1e3
