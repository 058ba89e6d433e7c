(** Plain-text table rendering for the figure reproductions: one table
    per sub-figure, columns = trees, rows = latency configs (or sweep
    points), matching how the paper's bar groups are organised. *)

val print_table :
  title:string -> col_names:string list -> rows:(string * float list) list -> unit
(** Numeric cells rendered with 3 decimals, aligned. *)

val print_table_s :
  title:string -> col_names:string list -> rows:(string * string list) list -> unit

val ratio : float -> float -> float
(** [ratio baseline ours] = baseline / ours, i.e. "ours is Nx faster";
    0 when either input is non-positive. *)

val fmt_f : float -> string
(** 3-decimal rendering used in tables ("1.234"). *)

val capture : (unit -> 'a) -> 'a * Hart_util.Json.t
(** [capture f] runs [f] and also returns every table it printed, in
    print order: [[{title; columns; rows: [{label; cells}]}]]. Numeric
    tables keep full float precision; string tables keep the rendered
    cells. *)

val core_gate :
  label:string ->
  host:int ->
  (int * float) option ->
  (int -> float -> unit) ->
  unit
(** [core_gate ~label ~host threshold check] applies a wall-clock
    speed-up [threshold] of [(domains, min_speedup)]: such a ratio means
    something only when the host has the cores, so with [host] below
    [domains] it logs "[label] SKIPPED: ..." instead of failing; otherwise
    it runs [check domains min_speedup]. [None] does nothing. *)
