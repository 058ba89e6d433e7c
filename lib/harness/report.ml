let fmt_f v = Printf.sprintf "%.3f" v

(* ------------------------------------------------------------------ *)
(* Minimal JSON emitter — the repo deliberately has no JSON dependency *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf ~indent t =
    let pad n = String.make n ' ' in
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if not (Float.is_finite f) then Buffer.add_string buf "null"
        else Buffer.add_string buf (Printf.sprintf "%.6g" f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad (indent + 2));
            emit buf ~indent:(indent + 2) x)
          xs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad (indent + 2));
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            emit buf ~indent:(indent + 2) v)
          kvs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad indent);
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 4096 in
    emit buf ~indent:0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let write path t =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string t))
end

(* ------------------------------------------------------------------ *)
(* Capture: while enabled, every printed table is also recorded so the
   experiment registry can write all figure numbers as JSON *)

let capture_on = ref false
let captured_tables : Json.t list ref = ref []

let record ~title ~col_names rows =
  if !capture_on then
    captured_tables :=
      Json.Obj
        [
          ("title", Json.Str title);
          ("columns", Json.List (List.map (fun s -> Json.Str s) col_names));
          ( "rows",
            Json.List
              (List.map
                 (fun (label, cells) ->
                   Json.Obj [ ("label", Json.Str label); ("cells", Json.List cells) ])
                 rows) );
        ]
      :: !captured_tables

let capture f =
  capture_on := true;
  captured_tables := [];
  let r = Fun.protect ~finally:(fun () -> capture_on := false) f in
  (r, Json.List (List.rev !captured_tables))

let render_table ~title ~col_names ~rows =
  let headers = "" :: col_names in
  let body = List.map (fun (label, cells) -> label :: cells) rows in
  let all = headers :: body in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init n_cols width in
  Printf.printf "\n%s\n" title;
  Printf.printf "%s\n" (String.make (String.length title) '-');
  List.iter
    (fun row ->
      List.iteri
        (fun c w ->
          let cell = Option.value (List.nth_opt row c) ~default:"" in
          Printf.printf "%-*s  " w cell)
        widths;
      print_newline ())
    all;
  (* tables appear as they are produced even when stdout is a file *)
  flush stdout

let print_table_s ~title ~col_names ~rows =
  record ~title ~col_names
    (List.map
       (fun (label, cells) ->
         (label, List.map (fun s -> Json.Str s) cells))
       rows);
  render_table ~title ~col_names ~rows

let print_table ~title ~col_names ~rows =
  record ~title ~col_names
    (List.map
       (fun (label, cells) ->
         (label, List.map (fun f -> Json.Float f) cells))
       rows);
  render_table ~title ~col_names
    ~rows:(List.map (fun (label, cells) -> (label, List.map fmt_f cells)) rows)

let ratio baseline ours = if baseline <= 0. || ours <= 0. then 0. else baseline /. ours

let core_gate ~label ~host threshold check =
  match threshold with
  | None -> ()
  | Some (d_req, min_speedup) ->
      if host < d_req then
        Printf.printf
          "%s SKIPPED: host reports %d usable core(s), fewer than the %d \
           domains the threshold is defined over\n"
          label host d_req
      else check d_req min_speedup
