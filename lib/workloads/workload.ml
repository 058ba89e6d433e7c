module Rng = Hart_util.Rng

type op =
  | Insert of string * string
  | Search of string
  | Update of string * string
  | Delete of string
  | Scan of string * int
  | Rmw of string * string

type mix = {
  mix_name : string;
  insert_pct : int;
  search_pct : int;
  update_pct : int;
  delete_pct : int;
  scan_pct : int;
  rmw_pct : int;
}

let read_intensive =
  { mix_name = "Read-Intensive"; insert_pct = 10; search_pct = 70; update_pct = 10;
    delete_pct = 10; scan_pct = 0; rmw_pct = 0 }

let read_modified_write =
  { mix_name = "Read-Modified-Write"; insert_pct = 0; search_pct = 50; update_pct = 50;
    delete_pct = 0; scan_pct = 0; rmw_pct = 0 }

let write_intensive =
  { mix_name = "Write-Intensive"; insert_pct = 40; search_pct = 20; update_pct = 40;
    delete_pct = 0; scan_pct = 0; rmw_pct = 0 }

let mixes = [ read_intensive; read_modified_write; write_intensive ]

(* ------------------------------------------------------------------ *)
(* The six standard YCSB core workloads (A-F).                         *)

let blank =
  { mix_name = ""; insert_pct = 0; search_pct = 0; update_pct = 0; delete_pct = 0;
    scan_pct = 0; rmw_pct = 0 }

let ycsb_a = { blank with mix_name = "YCSB-A"; search_pct = 50; update_pct = 50 }
let ycsb_b = { blank with mix_name = "YCSB-B"; search_pct = 95; update_pct = 5 }
let ycsb_c = { blank with mix_name = "YCSB-C"; search_pct = 100 }
let ycsb_d = { blank with mix_name = "YCSB-D"; search_pct = 95; insert_pct = 5 }
let ycsb_e = { blank with mix_name = "YCSB-E"; scan_pct = 95; insert_pct = 5 }
let ycsb_f = { blank with mix_name = "YCSB-F"; search_pct = 50; rmw_pct = 50 }

type distribution =
  | Uniform
  | Zipfian of float
  | Latest of float
  | Hotspot of { hot_fraction : float; hot_prob : float }

let dist_name = function
  | Uniform -> "uniform"
  | Zipfian s -> Printf.sprintf "zipf(%.2f)" s
  | Latest s -> Printf.sprintf "latest(%.2f)" s
  | Hotspot { hot_fraction; hot_prob } ->
      Printf.sprintf "hotspot(%.0f%%->%.0f%%)" (100. *. hot_fraction) (100. *. hot_prob)

(* Each workload pairs with its canonical request distribution: D reads
   mostly the records just inserted, the rest default to zipfian 0.99. *)
let ycsb_standard =
  [
    (ycsb_a, Zipfian 0.99);
    (ycsb_b, Zipfian 0.99);
    (ycsb_c, Zipfian 0.99);
    (ycsb_d, Latest 0.99);
    (ycsb_e, Zipfian 0.99);
    (ycsb_f, Zipfian 0.99);
  ]

(* Zipf(s) over ranks [0, n): cumulative table + binary search —
   O(n) setup, O(log n) per draw, exact. *)
let zipf_sampler rng ~n ~s =
  if n <= 0 then invalid_arg "Workload.zipf_sampler: empty support";
  if s <= 0. then invalid_arg "Workload.zipf_sampler: s must be positive";
  let cum = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (float_of_int (k + 1) ** -.s);
    cum.(k) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Rng.float rng total in
    (* first rank whose cumulative mass reaches u *)
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (n - 1)

let ycsb ?(seed = 0xFACEL) ?(dist = Uniform) ?(scan_max = 100) mix ~preloaded
    ~fresh ~n_ops =
  if Array.length preloaded = 0 then invalid_arg "Workload.ycsb: empty preload";
  if scan_max < 1 then invalid_arg "Workload.ycsb: scan_max must be >= 1";
  let pct_sum =
    mix.insert_pct + mix.search_pct + mix.update_pct + mix.delete_pct
    + mix.scan_pct + mix.rmw_pct
  in
  if pct_sum > 100 || pct_sum < 0 then
    invalid_arg (Printf.sprintf "Workload.ycsb: mix percentages sum to %d" pct_sum);
  let expected_inserts = n_ops * mix.insert_pct / 100 in
  if Array.length fresh < expected_inserts then
    invalid_arg
      (Printf.sprintf "Workload.ycsb: %d fresh keys cannot cover ~%d inserts"
         (Array.length fresh) expected_inserts);
  (* Every stream is seeded explicitly by splitting the root seed, so
     adding a draw to one stream (a new op type, a scan length) can never
     shift the keys another stream picks: traces for existing mixes stay
     pinned while new distributions evolve independently. *)
  let root = Rng.create seed in
  let op_rng = Rng.split root in
  let key_rng = Rng.split root in
  let len_rng = Rng.split root in
  let n_pre = Array.length preloaded in
  let next_fresh = ref 0 in
  (* [Latest] needs the live recency order: preloaded records in load
     order, then each consumed fresh key appended as it is inserted. *)
  let pick_preloaded =
    match dist with
    | Uniform -> fun () -> preloaded.(Rng.int key_rng n_pre)
    | Zipfian s ->
        let sample = zipf_sampler key_rng ~n:n_pre ~s in
        fun () -> preloaded.(sample ())
    | Latest s ->
        let n_max = n_pre + Array.length fresh in
        let sample = zipf_sampler key_rng ~n:n_max ~s in
        fun () ->
          (* zipf over recency rank; rejection keeps draws inside the
             records inserted so far (acceptance is high: zipf mass
             concentrates at the low, always-valid ranks) *)
          let live = n_pre + !next_fresh in
          let rec draw () =
            let rank = sample () in
            if rank < live then rank else draw ()
          in
          let rank = draw () in
          let idx = live - 1 - rank in
          if idx < n_pre then preloaded.(idx) else fresh.(idx - n_pre)
    | Hotspot { hot_fraction; hot_prob } ->
        if hot_fraction <= 0. || hot_fraction > 1. then
          invalid_arg "Workload.ycsb: hot_fraction must be in (0, 1]";
        if hot_prob < 0. || hot_prob > 1. then
          invalid_arg "Workload.ycsb: hot_prob must be in [0, 1]";
        let hot_n = max 1 (int_of_float (float_of_int n_pre *. hot_fraction)) in
        fun () ->
          if Rng.float key_rng 1.0 < hot_prob then preloaded.(Rng.int key_rng hot_n)
          else if hot_n = n_pre then preloaded.(Rng.int key_rng n_pre)
          else preloaded.(hot_n + Rng.int key_rng (n_pre - hot_n))
  in
  Array.init n_ops (fun i ->
      let r = Rng.int op_rng 100 in
      let t1 = mix.insert_pct in
      let t2 = t1 + mix.search_pct in
      let t3 = t2 + mix.update_pct in
      let t4 = t3 + mix.scan_pct in
      let t5 = t4 + mix.rmw_pct in
      if r < t1 && !next_fresh < Array.length fresh then begin
        let k = fresh.(!next_fresh) in
        incr next_fresh;
        Insert (k, Keygen.value_for i)
      end
      else if r < t2 then Search (pick_preloaded ())
      else if r < t3 then Update (pick_preloaded (), Keygen.value_for i)
      else if r < t4 then Scan (pick_preloaded (), 1 + Rng.int len_rng scan_max)
      else if r < t5 then Rmw (pick_preloaded (), Keygen.value_for i)
      else Delete (pick_preloaded ()))

let insert_trace keys value_of =
  Array.mapi (fun i k -> Insert (k, value_of i)) keys

let shuffled ?(seed = 0xD15CL) keys =
  let a = Array.copy keys in
  Rng.shuffle (Rng.create seed) a;
  a

let search_trace ?seed keys = Array.map (fun k -> Search k) (shuffled ?seed keys)

let update_trace ?seed keys value_of =
  Array.mapi (fun i k -> Update (k, value_of i)) (shuffled ?seed keys)

let delete_trace ?seed keys = Array.map (fun k -> Delete k) (shuffled ?seed keys)

(* Delete-churn plan: [waves] rounds of insert-everything then
   delete-everything (each in an independent shuffled order), ending on a
   final insert wave so the index finishes populated. Every wave empties
   whole allocator chunks and immediately refills them, cycling chunks
   through the Epalloc recycler. *)
let churn_trace ?(seed = 0xC0DEL) ?(waves = 3) keys value_of =
  if waves < 1 then invalid_arg "Workload.churn_trace: waves must be >= 1";
  let rng = Rng.create seed in
  let n = Array.length keys in
  let out = ref [] in
  let push_wave mk =
    let a = Array.copy keys in
    Rng.shuffle rng a;
    out := Array.map mk a :: !out
  in
  for w = 0 to waves - 1 do
    let base = w * n in
    push_wave (fun k -> Insert (k, value_of base));
    push_wave (fun k -> Delete k)
  done;
  push_wave (fun k -> Insert (k, value_of (waves * n)));
  Array.concat (List.rev !out)

(* keys never exceed Leaf.max_key_len = 24 bytes, so this upper bound
   covers every stored key without importing hart_core here *)
let scan_hi = String.make 24 '\xff'

exception Scan_done

let apply (ops : Hart_core.Index_intf.ops) trace =
  let hits = ref 0 in
  Array.iter
    (function
      | Insert (key, value) ->
          ops.Hart_core.Index_intf.insert ~key ~value;
          incr hits
      | Search k -> if ops.Hart_core.Index_intf.search k <> None then incr hits
      | Update (key, value) ->
          if ops.Hart_core.Index_intf.update ~key ~value then incr hits
      | Delete k -> if ops.Hart_core.Index_intf.delete k then incr hits
      | Scan (lo, len) ->
          let got = ref 0 in
          (try
             ops.Hart_core.Index_intf.range ~lo ~hi:scan_hi (fun _ _ ->
                 incr got;
                 if !got >= len then raise Scan_done)
           with Scan_done -> ());
          if !got > 0 then incr hits
      | Rmw (key, value) ->
          (* read-modify-write: the read half counts as the hit; the write
             half lands as update-or-insert *)
          if ops.Hart_core.Index_intf.search key <> None then incr hits;
          if not (ops.Hart_core.Index_intf.update ~key ~value) then
            ops.Hart_core.Index_intf.insert ~key ~value)
    trace;
  !hits
