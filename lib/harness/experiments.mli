(** The experiment registry behind [hart_cli exp]: every figure
    reproduction and beyond-paper suite, by name. *)

type entry = {
  name : string;
  doc : string;  (** one line, for [hart_cli exp --help] *)
  run : gate:bool -> scale:float -> Report.Json.t option;
      (** Prints the entry's tables and returns its JSON artifact, if it
          has one. With [~gate:true], raises [Failure] when a measured
          ratio (a wall-clock speed-up, or Fig. 8(d)'s deletion-time
          growth) misses the entry's CI threshold. *)
}

val all : entry list

val select : string list -> (entry list, string) result
(** The named entries in the given order, or all of them for [[]].
    [Error] names the first unknown name and lists the valid ones. *)

val run : ?json_dir:string -> gate:bool -> scale:float -> entry list -> unit
(** Print a preamble, then run the entries in order. With [json_dir]
    (created if missing), write each artifact to [BENCH_<name>.json]
    there, and, when some entry has no artifact of its own, every table
    the run printed to [BENCH_figs.json]. *)
