(* The four workloads and the inputs they are built from. Every rate,
   size and connection count is a constant tied to the workload's name,
   so every run of a name measures the same thing; only --seed changes
   the inputs, and all of them are built before any timing starts. *)

type dist = Zipf of float | Uniform

type server = {
  preload : int;  (** keys loaded before the run *)
  get_pct : int;
  set_pct : int;  (** the rest of the mix is SCAN *)
  dist : dist;  (** how GET and SET keys are drawn *)
  fresh_sets : bool;  (** SETs insert new keys instead of overwriting *)
  per_send : int;  (** requests pipelined per scheduled send *)
  rate : int;  (** offered ops/s over both connections *)
  peak_window : int;  (** requests in flight per connection, peak pass *)
  peak_ops : int;  (** requests in the closed-loop peak pass *)
}

type idx = {
  domains : int;  (** worker domains, each over its own share of the keys *)
  keys : int;  (** preloaded keys *)
  spare : int;  (** extra keys that inserts can add *)
  max_rate : int;  (** ops/s per domain the op arrays are sized for *)
}

type shape = Server of server | Idx of idx
type t = { name : string; shape : shape }

(* Two connections per server workload, for a two-core machine; each
   connection writes only its own half of the key space, so the last
   acknowledged value of every key is exact. *)
let parts = 2
let owner k = k land 1

let all =
  [
    {
      name = "srv-get-hot";
      shape =
        Server
          {
            preload = 100_000;
            get_pct = 95;
            set_pct = 5;
            dist = Zipf 0.99;
            fresh_sets = false;
            per_send = 1;
            rate = 30_000;
            peak_window = 16;
            peak_ops = 300_000;
          };
    };
    {
      name = "srv-set-burst";
      shape =
        Server
          {
            preload = 300_000;
            get_pct = 50;
            set_pct = 50;
            dist = Uniform;
            fresh_sets = false;
            per_send = 32;
            rate = 25_000;
            peak_window = 64;
            peak_ops = 100_000;
          };
    };
    {
      name = "srv-scan";
      shape =
        Server
          {
            preload = 100_000;
            get_pct = 0;
            set_pct = 5;
            dist = Uniform;
            fresh_sets = true;
            per_send = 1;
            rate = 1_000;
            peak_window = 16;
            peak_ops = 10_000;
          };
    };
    (* One domain: Pmem's dirty-line map is updated without
       synchronisation, so a pool written from two domains can lose a
       flushed line and fail the crash check (see README.md). *)
    {
      name = "idx-mixed-1d";
      shape = Idx { domains = 1; keys = 300_000; spare = 30_000; max_rate = 300_000 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* About 1% of the size, for the smoke test. *)
let smoke w =
  let small n = max 500 (n / 100) in
  match w.shape with
  | Server s ->
      { w with shape = Server { s with preload = small s.preload; peak_ops = small s.peak_ops } }
  | Idx i -> { w with shape = Idx { i with keys = small i.keys; spare = small i.spare } }

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)

type keyset = {
  keys : string array;  (** preloaded keys first, then spare keys *)
  tags : string array;
  npre : int;
}

let keyset r ~npre ~spare =
  let keys = Gen.keys r (npre + spare) in
  { keys; tags = Array.map Gen.tag keys; npre }

let preload_values ks = Array.init ks.npre (fun k -> Gen.value ks.tags.(k) 0)

(* One connection's requests, in send order. *)
type plan = {
  bytes : Bytes.t;  (** every request's RESP bytes, back to back *)
  off : int array;  (** request i is bytes[off.(i), off.(i+1)) *)
  kind : Bytes.t;  (** 'G', 'S' or 'C' (SCAN) *)
  key : int array;  (** GET/SET: key index; SCAN: rank of the first key *)
  arg : int array;  (** SET: version written; SCAN: keys in range *)
}

let length p = Array.length p.key

type server_inputs = {
  ks : keyset;
  sorted : int array;  (** preloaded key indices in key order *)
  fresh : (string, int) Hashtbl.t;  (** spare key -> index *)
  plans : plan array;  (** one per connection *)
}

(* [n] requests per connection. Kinds are drawn first so the number of
   spare keys that fresh SETs need is known before keys are made. *)
let server_inputs (s : server) ~seed ~n =
  let r = Gen.rng seed in
  let kinds =
    Array.init parts (fun _ ->
        Bytes.init n (fun _ ->
            let u = Gen.int r 100 in
            if u < s.get_pct then 'G' else if u < s.get_pct + s.set_pct then 'S' else 'C'))
  in
  let fresh_per_conn =
    if not s.fresh_sets then 0
    else Array.fold_left (fun m k -> max m (Bytes.fold_left (fun c x -> if x = 'S' then c + 1 else c) 0 k)) 0 kinds
  in
  let ks = keyset r ~npre:s.preload ~spare:(parts * fresh_per_conn) in
  let sorted = Array.init s.preload Fun.id in
  Array.sort (fun a b -> compare ks.keys.(a) ks.keys.(b)) sorted;
  let fresh = Hashtbl.create (parts * fresh_per_conn) in
  for k = s.preload to Array.length ks.keys - 1 do
    Hashtbl.replace fresh ks.keys.(k) k
  done;
  let zipf = match s.dist with Zipf theta -> Some (Gen.zipf s.preload theta) | Uniform -> None in
  let draw () = match zipf with Some z -> Gen.zipf_draw z r | None -> Gen.int r s.preload in
  let next_ver = Array.make (Array.length ks.keys) 1 in
  let plan c =
    let kind = kinds.(c) in
    let key = Array.make n 0 and arg = Array.make n 0 in
    let b = Buffer.create (n * 40) and off = Array.make (n + 1) 0 in
    let fresh_used = ref 0 in
    for i = 0 to n - 1 do
      (match Bytes.get kind i with
      | 'G' ->
          let k = draw () in
          key.(i) <- k;
          Wire.request b [ "GET"; ks.keys.(k) ]
      | 'S' ->
          let k =
            if s.fresh_sets then begin
              let k = s.preload + (parts * !fresh_used) + c in
              incr fresh_used;
              k
            end
            else
              (* the drawn key's neighbour in this connection's half *)
              let k = (draw () land lnot 1) lor c in
              if k >= s.preload then k - parts else k
          in
          key.(i) <- k;
          arg.(i) <- next_ver.(k);
          next_ver.(k) <- next_ver.(k) + 1;
          Wire.request b [ "SET"; ks.keys.(k); Gen.value ks.tags.(k) arg.(i) ]
      | _ ->
          let len = 1 + Gen.int r 100 in
          let rank = Gen.int r (s.preload - len + 1) in
          key.(i) <- rank;
          arg.(i) <- len;
          Wire.request b
            [ "SCAN"; ks.keys.(sorted.(rank)); ks.keys.(sorted.(rank + len - 1)) ]);
      off.(i + 1) <- Buffer.length b
    done;
    { bytes = Buffer.to_bytes b; off; kind; key; arg }
  in
  { ks; sorted; fresh; plans = Array.init parts plan }

(* idx-mixed-1d: per domain, the paper's read-intensive mix (10%
   insert, 70% search, 10% update, 10% delete) over the domain's own
   share of the keys. Each op is [kind lor (key lsl 2)]; writes take
   their values from [vals] in order, the w-th write storing version
   w + 1. *)
let op_search = 0
let op_insert = 1
let op_update = 2
let op_delete = 3

type idx_inputs = { iks : keyset; ops : int array array; vals : string array array }

(* A set of key indices with O(1) membership moves and uniform picks. *)
type dense = { items : int array; pos : int array; mutable size : int }

let dense_add d k =
  d.items.(d.size) <- k;
  d.pos.(k) <- d.size;
  d.size <- d.size + 1

let dense_remove d k =
  let i = d.pos.(k) and last = d.items.(d.size - 1) in
  d.items.(i) <- last;
  d.pos.(last) <- i;
  d.pos.(k) <- -1;
  d.size <- d.size - 1

let idx_inputs (x : idx) ~seed ~n =
  let r = Gen.rng seed in
  let iks = keyset r ~npre:x.keys ~spare:x.spare in
  let nk = Array.length iks.keys in
  let domain d =
    let mk () = { items = Array.make nk 0; pos = Array.make nk (-1); size = 0 } in
    let present = mk () and absent = mk () in
    let universe = Array.of_list (List.filter (fun k -> k mod x.domains = d) (List.init nk Fun.id)) in
    Array.iter (fun k -> if k < x.keys then dense_add present k else dense_add absent k) universe;
    let pick s = s.items.(Gen.int r s.size) in
    let vals = ref [] and w = ref 0 in
    let write k =
      incr w;
      vals := Gen.value iks.tags.(k) !w :: !vals
    in
    let ops =
      Array.init n (fun _ ->
          let u = Gen.int r 100 in
          let kind =
            if u < 10 then if absent.size > 0 then op_insert else op_search
            else if u < 80 then op_search
            else if present.size = 0 then op_insert
            else if u < 90 then op_update
            else op_delete
          in
          let k =
            if kind = op_search then universe.(Gen.int r (Array.length universe))
            else if kind = op_insert then pick absent
            else pick present
          in
          if kind = op_insert then begin
            dense_remove absent k;
            dense_add present k;
            write k
          end
          else if kind = op_update then write k
          else if kind = op_delete then begin
            dense_remove present k;
            dense_add absent k
          end;
          kind lor (k lsl 2))
    in
    (ops, Array.of_list (List.rev !vals))
  in
  let doms = Array.init x.domains domain in
  { iks; ops = Array.map fst doms; vals = Array.map snd doms }
