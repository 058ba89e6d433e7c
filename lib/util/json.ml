(* Minimal JSON emitter — the repo deliberately has no JSON dependency *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
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
  | Int64 i -> Buffer.add_string buf (Int64.to_string i)
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

let rec emit_compact buf = function
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit_compact buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          emit_compact buf (Str k);
          Buffer.add_char buf ':';
          emit_compact buf v)
        kvs;
      Buffer.add_char buf '}'
  | scalar -> emit buf ~indent:0 scalar

let to_compact t =
  let buf = Buffer.create 256 in
  emit_compact buf t;
  Buffer.contents buf

let to_lines = function
  | [] -> "[]\n"
  | xs -> "[\n  " ^ String.concat ",\n  " (List.map to_compact xs) ^ "\n]\n"

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
