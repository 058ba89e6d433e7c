(** Operation-trace generation: the per-figure basic-operation traces,
    the three mixed workloads of §IV-C, and — beyond the paper — the six
    standard YCSB core workloads (A-F) with latest/hotspot request skew,
    scan and read-modify-write operations, and delete-churn plans. *)

type op =
  | Insert of string * string
  | Search of string
  | Update of string * string
  | Delete of string
  | Scan of string * int
      (** [Scan (start, len)]: range scan of up to [len] records from
          [start] upward (YCSB-E's SCAN). *)
  | Rmw of string * string
      (** [Rmw (key, v)]: read the record, then write [v] back
          (YCSB-F's READMODIFYWRITE). *)

type mix = {
  mix_name : string;
  insert_pct : int;
  search_pct : int;
  update_pct : int;
  delete_pct : int;
  scan_pct : int;
  rmw_pct : int;
}

val read_intensive : mix
(** 10 % insert / 70 % search / 10 % update / 10 % delete. *)

val read_modified_write : mix
(** 50 % search / 50 % update. *)

val write_intensive : mix
(** 40 % insert / 20 % search / 40 % update. *)

val mixes : mix list
(** The paper's three §IV-C mixes. *)

val ycsb_a : mix
(** 50 % read / 50 % update. *)

val ycsb_b : mix
(** 95 % read / 5 % update. *)

val ycsb_c : mix
(** 100 % read. *)

val ycsb_d : mix
(** 95 % read / 5 % insert — canonically paired with [Latest] skew. *)

val ycsb_e : mix
(** 95 % scan / 5 % insert. *)

val ycsb_f : mix
(** 50 % read / 50 % read-modify-write. *)

type distribution =
  | Uniform
  | Zipfian of float
  | Latest of float
      (** Zipf over recency rank: the most recently inserted records are
          the most popular (YCSB's latest distribution; exponent as in
          [Zipfian]). *)
  | Hotspot of { hot_fraction : float; hot_prob : float }
      (** [hot_prob] of requests land uniformly in the first
          [hot_fraction] of the preloaded records; the rest land
          uniformly in the cold remainder (YCSB's hotspot
          distribution). *)

val dist_name : distribution -> string
(** Short label for table columns, e.g. ["zipf(0.99)"]. *)

val ycsb_standard : (mix * distribution) list
(** The six core workloads A-F, each with its canonical request
    distribution (zipfian 0.99, except D which uses latest). *)

val ycsb :
  ?seed:int64 ->
  ?dist:distribution ->
  ?scan_max:int ->
  mix ->
  preloaded:string array ->
  fresh:string array ->
  n_ops:int ->
  op array
(** An [n_ops]-long trace over a database preloaded with [preloaded]:
    search/update/delete/scan/rmw address preloaded records per [dist]
    (default [Uniform], as in the paper); insert consumes keys from
    [fresh] in order; scan lengths are uniform in \[1, [scan_max]\]
    (default 100, YCSB's default). Op-type, key-pick and scan-length
    randomness run on independent explicitly-seeded streams split from
    [seed], so traces for one mix are stable under changes to another.
    @raise Invalid_argument when [fresh] cannot cover the insert share,
    [preloaded] is empty, the percentages exceed 100, or a distribution
    parameter is out of range. *)

val zipf_sampler : Hart_util.Rng.t -> n:int -> s:float -> unit -> int
(** A sampler of Zipf-distributed ranks in \[0, n): rank k drawn with
    probability proportional to 1/(k+1)^s. Cumulative table + binary
    search: O(n) setup, O(log n) per draw, exact. *)

val insert_trace : string array -> (int -> string) -> op array
(** One insert per key, in array order, values from the index mapper. *)

val search_trace : ?seed:int64 -> string array -> op array
(** One search per key, in shuffled order (the paper measures point
    lookups of every inserted record). *)

val update_trace : ?seed:int64 -> string array -> (int -> string) -> op array
val delete_trace : ?seed:int64 -> string array -> op array

val churn_trace :
  ?seed:int64 -> ?waves:int -> string array -> (int -> string) -> op array
(** Delete-churn plan: [waves] (default 3) rounds of insert-everything /
    delete-everything, each in an independent shuffled order, then a
    final insert wave so the index ends populated. Each round drains and
    refills whole allocator chunks, storming the [Epalloc] recycler. *)

val apply : Hart_core.Index_intf.ops -> op array -> int
(** Run a trace against an index; returns the number of operations that
    found their key (hits), for sanity checks. Scans count as a hit when
    they return at least one record; RMW's read half is the hit and its
    write half lands as update-or-insert. *)
