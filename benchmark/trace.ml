(* Analysis of a traced server phase.

   Client and server spans are matched by per-connection byte offsets:
   request i ends at a known offset of the request stream, so the
   server read that completed it is the first whose cumulative byte
   count reaches that offset; likewise its reply ends at a known offset
   of the reply stream, which names the server write that carried it.
   A request's life is then cut at five boundaries:

     due -> sent            loadgen.lag
     sent -> read returned  scheduler.wake  (kernel, reactor, fiber switch)
     read -> write ended    server.burst    (parse, store.*, encode, transport.write)
     write ended -> seen    reply.transit

   The store and write spans are children of the burst, so a burst's
   self time is its span minus theirs. *)

module Resp = Hart_server.Resp

type conn = {
  st : Loadgen.stream;
  first : int;  (** first request sent on this connection *)
  stop : int;
  log : Serve.log;
}

(* First index in [0, n) with a.(i) >= v, or n. *)
let lower_bound a n v =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

type req = { lag : int; wake : int; burst_start : int; write_t0 : int; write_t1 : int; read : int }

(* The server-side boundaries of request [i], if both its read and its
   reply write were recorded. *)
let locate cn (tm : Loadgen.timings) i =
  let l = cn.log and off = cn.st.plan.off in
  let r = lower_bound l.rd_cum l.reads (off.(i + 1) - off.(cn.first)) in
  let w = lower_bound l.wr_cum l.writes tm.rep_end.(i) in
  if r >= l.reads || w >= l.writes then None
  else
    Some
      {
        lag = tm.sent.(i) - tm.sched.(i);
        wake = l.rd_t.(r) - tm.sent.(i);
        burst_start = l.rd_t.(r);
        write_t0 = l.wr_t0.(w);
        write_t1 = l.wr_t1.(w);
        read = r;
      }

let timings (cn : conn) = Option.get cn.st.tm

(* Replay the recorded request bytes through [Resp.parse] in the chunk
   sizes the server read them in, timing only the parse calls (the
   window each chunk extends is rebuilt outside the timed region).
   Returns (ns, requests parsed). *)
let replay_parse cn =
  let l = cn.log and plan = cn.st.plan in
  let base = plan.off.(cn.first) in
  let stream = Bytes.sub_string plan.bytes base (plan.off.(cn.stop) - base) in
  let rest = ref "" and prev = ref 0 and ns = ref 0 and parsed = ref 0 in
  for r = 0 to l.reads - 1 do
    let cum = min l.rd_cum.(r) (String.length stream) in
    let window = !rest ^ String.sub stream !prev (cum - !prev) in
    prev := cum;
    let t0 = Loadgen.now () in
    let rec go pos =
      match Resp.parse window pos with
      | Resp.Cmd (_, p) ->
          incr parsed;
          go p
      | Resp.Error (_, p) -> go p
      | Resp.Incomplete -> pos
    in
    let pos = go 0 in
    ns := !ns + (Loadgen.now () - t0);
    rest := String.sub window pos (String.length window - pos)
  done;
  (!ns, !parsed)

type summary = {
  requests : int;
  wake_h : Hist.t;
  coverage_pct : float;  (** layer spans / latency of the median request *)
  reads : int;
  writes : int;
  in_bytes : int;
  out_bytes : int;
  parse_ns : int;
  parsed : int;
  bursts : int;
  self_ns : int;  (** burst spans minus their store and write spans *)
  get_h : Hist.t;
  batch_ns : int;
  batch_keys : int;
  scan_ns : int;
  scan_keys : int;
}

let summarise (conns : conn list) ~w0 ~w1 =
  let wake_h = Hist.create () and get_h = Hist.create () in
  let lat = ref [] in
  let reads = ref 0 and writes = ref 0 and inb = ref 0 and outb = ref 0 in
  let bursts = ref 0 and self_ns = ref 0 in
  let batch = ref (0, 0) and scan = ref (0, 0) and requests = ref 0 in
  List.iter
    (fun cn ->
      let tm = timings cn and l = cn.log in
      requests := !requests + (cn.stop - cn.first);
      for i = cn.first to cn.stop - 1 do
        if tm.sched.(i) >= w0 && tm.sched.(i) < w1 then
          match locate cn tm i with
          | Some q ->
              Hist.add wake_h q.wake;
              lat := (tm.recv.(i) - tm.sched.(i), (cn, i, q)) :: !lat
          | None -> ()
      done;
      reads := !reads + l.reads;
      writes := !writes + l.writes;
      inb := !inb + l.in_bytes;
      outb := !outb + l.out_bytes;
      (* store spans per burst, then each burst's self time *)
      let store_ns = Array.make (max 1 l.reads) 0 in
      for j = 0 to l.calls - 1 do
        let d = l.op_t1.(j) - l.op_t0.(j) and n = l.op_n.(j) in
        let r = l.op_read.(j) in
        if r >= 0 then store_ns.(r) <- store_ns.(r) + d;
        match Bytes.get l.op_kind j with
        | 'G' -> Hist.add get_h d
        | 'B' -> batch := (fst !batch + d, snd !batch + n)
        | _ -> scan := (fst !scan + d, snd !scan + n)
      done;
      let w = ref 0 in
      for r = 0 to l.reads - 1 do
        let next_read = if r + 1 < l.reads then l.rd_t.(r + 1) else max_int in
        while !w < l.writes && l.wr_t0.(!w) < l.rd_t.(r) do
          incr w
        done;
        if !w < l.writes && l.wr_t0.(!w) < next_read then begin
          incr bursts;
          self_ns :=
            !self_ns + (l.wr_t1.(!w) - l.rd_t.(r)) - store_ns.(r) - (l.wr_t1.(!w) - l.wr_t0.(!w))
        end
      done)
    conns;
  let coverage_pct =
    match List.sort compare (List.map fst !lat) with
    | [] -> 0.
    | sorted ->
        let median = List.nth sorted (List.length sorted / 2) in
        let _, (cn, i, q) = List.find (fun (d, _) -> d = median) !lat in
        let tm = timings cn in
        let pos x = max 0 x in
        let covered =
          pos q.lag + pos q.wake + pos (q.write_t1 - q.burst_start) + pos (tm.recv.(i) - q.write_t1)
        in
        100. *. float_of_int covered /. float_of_int (max 1 median)
  in
  let parse_ns, parsed =
    List.fold_left
      (fun (a, b) cn ->
        let x, y = replay_parse cn in
        (a + x, b + y))
      (0, 0) conns
  in
  {
    requests = !requests;
    wake_h;
    coverage_pct;
    reads = !reads;
    writes = !writes;
    in_bytes = !inb;
    out_bytes = !outb;
    parse_ns;
    parsed;
    bursts = !bursts;
    self_ns = !self_ns;
    get_h;
    batch_ns = fst !batch;
    batch_keys = snd !batch;
    scan_ns = fst !scan;
    scan_keys = snd !scan;
  }

(* Write the spans of every 1024th request due in the window (and of
   the server burst that served it) as tab-separated lines, times in ns
   from [t0]. *)
let write_spans path (conns : conn list) ~t0 ~w0 ~w1 =
  let oc = open_out path in
  output_string oc "span\tname\tparent\tconn\tseq\tstart_ns\tend_ns\n";
  let line id name parent c i a b =
    Printf.fprintf oc "%s\t%s\t%s\t%d\t%d\t%d\t%d\n" id name parent c i (a - t0) (b - t0)
  in
  List.iter
    (fun cn ->
      let tm = timings cn and l = cn.log and c = cn.st.c in
      for i = cn.first to cn.stop - 1 do
        if i land 1023 = 0 && tm.sched.(i) >= w0 && tm.sched.(i) < w1 then
          match locate cn tm i with
          | None -> ()
          | Some q ->
              let rid = Printf.sprintf "r%d.%d" c i and bid = Printf.sprintf "b%d.%d" c q.read in
              line rid "request" "-" c i tm.sched.(i) tm.recv.(i);
              line (rid ^ ".lag") "loadgen.lag" rid c i tm.sched.(i) tm.sent.(i);
              line (rid ^ ".wake") "scheduler.wake" rid c i tm.sent.(i) q.burst_start;
              line bid "server.burst" rid c i q.burst_start q.write_t1;
              (* calls are recorded in order, so [op_read] is sorted *)
              let j = ref (lower_bound l.op_read l.calls q.read) in
              while !j < l.calls && l.op_read.(!j) = q.read do
                let name =
                  match Bytes.get l.op_kind !j with
                  | 'G' -> "store.get"
                  | 'B' -> "store.batch"
                  | _ -> "store.scan"
                in
                line (Printf.sprintf "%s.s%d" bid !j) name bid c i l.op_t0.(!j) l.op_t1.(!j);
                incr j
              done;
              line (bid ^ ".write") "transport.write" bid c i q.write_t0 q.write_t1;
              line (rid ^ ".transit") "reply.transit" rid c i q.write_t1 tm.recv.(i)
      done)
    conns;
  close_out oc
