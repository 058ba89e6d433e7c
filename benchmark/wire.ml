(* The client side of the RESP subset, written here rather than taken
   from Hart_server.Resp: requests are the benchmark's own input bytes,
   and replies are framed and checked by a parser independent of the
   server's. Replies are read in place from the receive buffer by
   offset, so checking them allocates nothing on the common path. *)

exception Malformed of string

let request b words =
  Printf.bprintf b "*%d\r\n" (List.length words);
  List.iter (fun w -> Printf.bprintf b "$%d\r\n%s\r\n" (String.length w) w) words

(* Index of the CR of the first CRLF in [p, lim), or -1. *)
let line_end b p lim =
  let rec go i =
    if i + 1 >= lim then -1
    else if Bytes.unsafe_get b i = '\r' && Bytes.unsafe_get b (i + 1) = '\n' then i
    else go (i + 1)
  in
  go p

let int_at b p e =
  let neg = p < e && Bytes.get b p = '-' in
  let rec go i acc =
    if i = e then acc
    else
      match Bytes.get b i with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> raise (Malformed "bad integer")
  in
  let start = if neg then p + 1 else p in
  if start = e then raise (Malformed "empty integer");
  let v = go start 0 in
  if neg then -v else v

(* Position just past the reply frame starting at [p], or -1 while the
   frame is incomplete in [p, lim). *)
let rec frame_end b p lim =
  if p >= lim then -1
  else
    let e = line_end b (p + 1) lim in
    if e < 0 then -1
    else
      match Bytes.get b p with
      | '+' | '-' | ':' -> e + 2
      | '$' ->
          let n = int_at b (p + 1) e in
          if n < 0 then e + 2 else if e + n + 4 <= lim then e + n + 4 else -1
      | '*' ->
          let rec elems q k =
            if k <= 0 then q
            else
              let q' = frame_end b q lim in
              if q' < 0 then -1 else elems q' (k - 1)
          in
          elems (e + 2) (int_at b (p + 1) e)
      | _ -> raise (Malformed "unknown reply type")

(* For a complete frame at [p]: the header's integer and the position
   just past the header line. *)
let header b p =
  let e = line_end b (p + 1) (Bytes.length b) in
  (int_at b (p + 1) e, e + 2)

(* [bytes_equal b off len s]: whether b[off, off+len) equals [s]. *)
let bytes_equal b off len s =
  len = String.length s
  &&
  let rec go i = i = len || (Bytes.unsafe_get b (off + i) = String.unsafe_get s i && go (i + 1)) in
  go 0

let is_ok b p q = bytes_equal b p (q - p) "+OK\r\n"

(* Byte-lexicographic comparison of b[off, off+len) with [s], the order
   HART's range scans use. *)
let compare_bytes b off len s =
  let ls = String.length s in
  let rec go i =
    if i = len || i = ls then compare len ls
    else
      let c = compare (Bytes.unsafe_get b (off + i)) (String.unsafe_get s i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The same order between two regions of one buffer. *)
let compare_regions b o1 l1 o2 l2 =
  let rec go i =
    if i = l1 || i = l2 then compare l1 l2
    else
      let c = compare (Bytes.unsafe_get b (o1 + i)) (Bytes.unsafe_get b (o2 + i)) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The version a bulk value at b[off, off+len) names for a key with
   tag [tag], or -1 when it is not a value of that key. *)
let value_version b off len ~tag =
  if len <> Gen.value_len || not (bytes_equal b off Gen.tag_len tag) then -1
  else
    let rec go i acc =
      if i = len then acc
      else
        match Bytes.get b (off + i) with
        | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> -1
    in
    go Gen.tag_len 0

(* The same for a whole string. Does not allocate: it runs between
   timed operations. *)
let version_of ~tag v = value_version (Bytes.unsafe_of_string v) 0 (String.length v) ~tag
