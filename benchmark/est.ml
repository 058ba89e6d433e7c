(* Throughput estimates. A closed-loop pass keeps both cores busy, so its
   rate is the most exposed to the neighbours of a shared host: per
   50 ms slice it swings by a third within one run. The benchmark marks
   every [slice_s] and reports the 90th percentile of the slices'
   rates: slices a neighbour (or a collection) slowed down fall below
   it, while a change that slows every slice still moves it. *)

let slice_s = 0.05

(* The [q]-quantile (nearest rank) of a list of values, 0 when empty. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median = quantile 0.5
let high_rate = quantile 0.9
