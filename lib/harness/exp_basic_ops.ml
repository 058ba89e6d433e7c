(** Figs. 4–7: average time per operation for insertion, search, update
    and deletion — 4 trees × 3 workloads × 3 PM latency configurations —
    plus the §I best-case speedup summary.

    For each (workload, config, tree) cell one index instance is built;
    insertion is measured while building it, then search, update and
    deletion run over the same instance, as the paper does. *)

module Latency = Hart_pmem.Latency
module Roster = Hart_baselines.Roster
module Keygen = Hart_workloads.Keygen
module Workload = Hart_workloads.Workload

type cell = {
  insertion : float;
  search : float;
  update : float;
  deletion : float;
}

let op_names = [ "insertion"; "search"; "update"; "deletion" ]
let get_op c = function
  | "insertion" -> c.insertion
  | "search" -> c.search
  | "update" -> c.update
  | "deletion" -> c.deletion
  | op -> invalid_arg op

(* One cell: build, then exercise the four basic operations. *)
let run_cell entry config keys =
  let inst = Runner.make entry config in
  let m_ins = Runner.measure inst (Workload.insert_trace keys Keygen.value_for) in
  let m_sea = Runner.measure inst (Workload.search_trace keys) in
  let m_upd = Runner.measure inst (Workload.update_trace keys Keygen.value_for) in
  let m_del = Runner.measure inst (Workload.delete_trace keys) in
  assert (inst.Runner.ops.Hart_core.Index_intf.count () = 0);
  {
    insertion = Runner.avg_us m_ins;
    search = Runner.avg_us m_sea;
    update = Runner.avg_us m_upd;
    deletion = Runner.avg_us m_del;
  }

let default_records = 30_000

let records_for ~scale spec =
  let n = int_of_float (float_of_int default_records *. scale) in
  match spec with
  | Keygen.Dictionary -> min n 466_544 (* the paper's full dictionary size *)
  | Keygen.Sequential | Keygen.Random | Keygen.Composite -> n

(* grid.(w).(c).(t) *)
let run_grid ~scale =
  List.map
    (fun spec ->
      let n = records_for ~scale spec in
      let keys = Keygen.generate spec n in
      let per_config =
        List.map
          (fun config ->
            ( config,
              List.map
                (fun e -> (e.Roster.name, run_cell e config keys))
                Roster.paper ))
          Latency.all
      in
      (spec, n, per_config))
    Keygen.all

let print_figures grid =
  List.iteri
    (fun op_idx op ->
      List.iteri
        (fun w_idx (spec, n, per_config) ->
          let sub = Char.chr (Char.code 'a' + w_idx) in
          Report.print_table
            ~title:
              (Printf.sprintf "Fig %d(%c): %s avg us/op -- %s (%d records)"
                 (4 + op_idx) sub
                 (String.capitalize_ascii op)
                 (Keygen.name spec) n)
            ~col_names:(List.map (fun e -> e.Roster.label) Roster.paper)
            ~rows:
              (List.map
                 (fun (config, cells) ->
                   ( config.Latency.name,
                     List.map (fun (_, c) -> get_op c op) cells ))
                 per_config))
        grid)
    op_names

(* §I: "In the best scenarios, HART outperforms WOART, ART+CoW and
   FPTree by ..x/..x/..x/..x in insertion/search/update/deletion". *)
let print_best_case grid =
  let best competitor op =
    List.fold_left
      (fun acc (_, _, per_config) ->
        List.fold_left
          (fun acc (_, cells) ->
            let find t = List.assoc t cells in
            let hart = get_op (find Roster.hart.name) op
            and other = get_op (find competitor.Roster.name) op in
            Float.max acc (Report.ratio other hart))
          acc per_config)
      0. grid
  in
  Report.print_table
    ~title:"Best-case HART speedup across the Fig 4-7 grid (x faster)"
    ~col_names:op_names
    ~rows:
      (List.map
         (fun competitor ->
           ( "vs " ^ competitor.Roster.label,
             List.map (fun op -> best competitor op) op_names ))
         (List.filter (fun e -> e.Roster.name <> Roster.hart.name) Roster.paper))

let run ~scale =
  let grid = run_grid ~scale in
  print_figures grid;
  print_best_case grid
