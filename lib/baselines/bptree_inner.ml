let cap = 32

type 'leaf node = Leaf of 'leaf | Inner of 'leaf inner

and 'leaf inner = {
  keys : string array;  (* cap + 1: a slack slot for the pre-split overflow *)
  kids : 'leaf node array;  (* cap + 2 *)
  mutable n : int;  (* separators in use *)
  addr : int;
}

type charges = {
  alloc : unit -> int;
  enter : int -> unit;
  probe : int -> int -> unit;
  added : int -> int -> unit;
  split : left:int -> right:int -> unit;
  rooted : int -> unit;
  built : int -> unit;
}

(* [first] is the node's first child; it also fills the unused child
   slots, so no placeholder leaf is needed *)
let create c first =
  {
    keys = Array.make (cap + 1) "";
    kids = Array.make (cap + 2) first;
    n = 0;
    addr = c.alloc ();
  }

(* child index for [key]: the number of separators <= key *)
let child_index c inn key =
  c.enter inn.addr;
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      c.probe inn.addr mid;
      if inn.keys.(mid) <= key then go (mid + 1) hi else go lo mid
  in
  go 0 inn.n

let rec find_leaf c node key =
  match node with
  | Leaf l -> l
  | Inner inn -> find_leaf c inn.kids.(child_index c inn key) key

(* Put [sep] and its right child after child [i]; an overflowing node
   splits, promoting its median separator. *)
let add c inn i sep right =
  for j = inn.n downto i + 1 do
    inn.keys.(j) <- inn.keys.(j - 1);
    inn.kids.(j + 1) <- inn.kids.(j)
  done;
  inn.keys.(i) <- sep;
  inn.kids.(i + 1) <- right;
  inn.n <- inn.n + 1;
  c.added inn.addr (inn.n - 1);
  if inn.n <= cap then None
  else begin
    let mid = inn.n / 2 in
    let promoted = inn.keys.(mid) in
    let rinn = create c inn.kids.(mid + 1) in
    c.split ~left:inn.addr ~right:rinn.addr;
    let rn = inn.n - mid - 1 in
    Array.blit inn.keys (mid + 1) rinn.keys 0 rn;
    Array.blit inn.kids (mid + 1) rinn.kids 0 (rn + 1);
    rinn.n <- rn;
    inn.n <- mid;
    Some (promoted, Inner rinn)
  end

let insert c root key leaf_insert =
  let rec ins = function
    | Leaf l -> Option.map (fun (sep, right) -> (sep, Leaf right)) (leaf_insert l)
    | Inner inn -> (
        let i = child_index c inn key in
        match ins inn.kids.(i) with
        | None -> None
        | Some (sep, right) -> add c inn i sep right)
  in
  match ins root with
  | None -> root
  | Some (sep, right) ->
      let inn = create c root in
      inn.keys.(0) <- sep;
      inn.kids.(1) <- right;
      inn.n <- 1;
      c.rooted inn.addr;
      Inner inn

let rec take k xs =
  match xs with
  | x :: rest when k > 0 ->
      let grp, rest = take (k - 1) rest in
      (x :: grp, rest)
  | _ -> ([], xs)

(* one parent over [group], paired with the group's smallest key *)
let parent c group =
  let first_key, first = List.hd group in
  let inn = create c first in
  List.iteri
    (fun i (k, node) ->
      if i > 0 then begin
        inn.keys.(i - 1) <- k;
        inn.kids.(i) <- node
      end)
    group;
  inn.n <- List.length group - 1;
  c.built inn.addr;
  (first_key, Inner inn)

let build c leaves =
  let fan = cap + 1 in
  let rec level = function
    | [] -> invalid_arg "Bptree_inner.build: no leaves"
    | [ (_, root) ] -> root
    | nodes ->
        let n = List.length nodes in
        let groups = (n + fan - 1) / fan in
        let base = n / groups and extra = n mod groups in
        let rec go g = function
          | [] -> []
          | nodes ->
              let group, rest = take (if g < extra then base + 1 else base) nodes in
              let p = parent c group in
              p :: go (g + 1) rest
        in
        level (go 0 nodes)
  in
  level (List.map (fun (k, l) -> (k, Leaf l)) leaves)

let rec height = function Leaf _ -> 1 | Inner inn -> 1 + height inn.kids.(0)
