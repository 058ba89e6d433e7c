type site =
  | Root_block of { off : int }
  | Chunk_meta of { cls : string; chunk : int }
  | Leaf_slot of { chunk : int; idx : int; leaf : int }
  | Value_slot of { cls : string; chunk : int; idx : int; obj : int }
  | Log_slot of { slot : int; off : int }
  | Pool_line of { line : int }

type t = { site : site; detail : string; keys : string list }

exception Error of t

let error ?(keys = []) site fmt =
  Printf.ksprintf (fun detail -> raise (Error { site; detail; keys })) fmt

let pp_site ppf = function
  | Root_block { off } -> Format.fprintf ppf "root block @@%d" off
  | Chunk_meta { cls; chunk } -> Format.fprintf ppf "%s chunk @@%d prologue" cls chunk
  | Leaf_slot { chunk; idx; leaf } ->
      Format.fprintf ppf "leaf slot %d of chunk @@%d (leaf @@%d)" idx chunk leaf
  | Value_slot { cls; chunk; idx; obj } ->
      Format.fprintf ppf "%s slot %d of chunk @@%d (obj @@%d)" cls idx chunk obj
  | Log_slot { slot; off } -> Format.fprintf ppf "recycle-log slot %d @@%d" slot off
  | Pool_line { line } -> Format.fprintf ppf "pool line %d" line

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>%a:@ %s" pp_site t.site t.detail;
  (match t.keys with
  | [] -> ()
  | keys ->
      Format.fprintf ppf "@ (keys:";
      List.iter (fun k -> Format.fprintf ppf "@ %S" k) keys;
      Format.fprintf ppf ")");
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

let () =
  Printexc.register_printer (function
    | Error t -> Some ("Hart_error.Error: " ^ to_string t)
    | _ -> None)

type action = Repaired | Quarantined | Detected

type finding = {
  f_site : site;
  f_action : action;
  f_detail : string;
  f_keys : string list;
  f_capacity : int;
}

let action_name = function
  | Repaired -> "repaired"
  | Quarantined -> "quarantined"
  | Detected -> "detected"

let pp_finding ppf f =
  Format.fprintf ppf "@[<hov 2>[%s] %a: %s" (action_name f.f_action) pp_site
    f.f_site f.f_detail;
  (match f.f_keys with
  | [] -> ()
  | keys ->
      Format.fprintf ppf "@ (keys:";
      List.iter (fun k -> Format.fprintf ppf "@ %S" k) keys;
      Format.fprintf ppf ")");
  if f.f_capacity > List.length f.f_keys then
    Format.fprintf ppf "@ (capacity %d)" f.f_capacity;
  Format.fprintf ppf "@]"

let partition fs =
  let r = List.filter (fun f -> f.f_action = Repaired) fs
  and q = List.filter (fun f -> f.f_action = Quarantined) fs
  and d = List.filter (fun f -> f.f_action = Detected) fs in
  (r, q, d)
