(* The load generator: one thread driving nonblocking Unix-socket
   connections, paced by [Unix.select] timeouts, so it never competes
   with the server for the server's executor.

   Open loop: connection c's u-th send (of [per_send] pipelined
   requests) is due at t0 + (u + c / conns) * period whatever the
   server does, and every request is timed from that scheduled time,
   so a server that falls behind pays for its backlog (no coordinated
   omission). Closed loop: each connection keeps a fixed window of
   requests in flight, for the peak-throughput pass.

   Every reply is checked as it arrives (see [check]); the receive
   path parses replies in place by offset. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* What the generator knows about the store: per key, the highest
   version sent and the highest acknowledged. Key k is written only by
   connection [Workload.owner k]. *)
type model = {
  inp : Workload.server_inputs;
  sent_ver : int array;
  acked_ver : int array;
}

let model (inp : Workload.server_inputs) =
  let n = Array.length inp.ks.keys in
  let init = Array.init n (fun k -> if k < inp.ks.npre then 0 else -1) in
  { inp; sent_ver = Array.copy init; acked_ver = init }

(* Per-request timestamps of a traced phase (absolute ns) and the reply
   stream offset just past each reply. *)
type timings = { sched : int array; sent : int array; recv : int array; rep_end : int array }

let timings n =
  { sched = Array.make n 0; sent = Array.make n 0; recv = Array.make n 0; rep_end = Array.make n 0 }

(* One connection's position in its plan; survives across phases. *)
type stream = {
  c : int;
  plan : Workload.plan;
  lo : int array;  (** per GET: lowest acceptable version, set at send *)
  mutable next : int;  (** next request to send *)
  tm : timings option;
}

let stream ?(traced = false) c plan =
  let n = Workload.length plan in
  { c; plan; lo = Array.make n 0; next = 0; tm = (if traced then Some (timings n) else None) }

type conn = {
  st : stream;
  fd : Unix.file_descr;
  first : int;  (** first request sent on this socket: byte offset 0 *)
  mutable stop : int;
  mutable unit0 : int;  (** first request of the current phase *)
  mutable queued : int;  (** plan byte offset queued for writing *)
  mutable written : int;
  mutable sent_req : int;  (** requests whose bytes are all written *)
  mutable replied : int;
  mutable inb : Bytes.t;
  mutable ilo : int;
  mutable ihi : int;
  mutable rcum : int;  (** reply bytes consumed on this socket *)
  mutable dead : bool;
}

let connect ~path st =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  let o = st.plan.off.(st.next) in
  {
    st;
    fd;
    first = st.next;
    stop = st.next;
    unit0 = st.next;
    queued = o;
    written = o;
    sent_req = st.next;
    replied = st.next;
    inb = Bytes.create (1 lsl 16);
    ilo = 0;
    ihi = 0;
    rcum = 0;
    dead = false;
  }

let close cn = Unix.close cn.fd

(* ------------------------------------------------------------------ *)
(* Reply checks                                                         *)

(* Whether the reply in b[p, q) is a correct answer to request [i] of
   connection [c]:
   - GET: a value of its key (a preloaded key is never null), of
     exactly the last version this connection sent when it owns the
     key, else between the version acknowledged when the GET was sent
     and the highest sent so far;
   - SET: +OK, which acknowledges its version;
   - SCAN: keys strictly increasing and inside [lo, hi], every
     preloaded key of the range present, any other key one that was
     written, and every value one of its key's written versions. *)
let check m (st : stream) i b p q =
  let plan = st.plan and ks = m.inp.ks in
  let k = plan.key.(i) in
  match Bytes.get plan.kind i with
  | 'G' ->
      Bytes.get b p = '$'
      &&
      let n, body = Wire.header b p in
      n >= 0
      &&
      let v = Wire.value_version b body n ~tag:ks.tags.(k) in
      let lo = st.lo.(i) in
      let hi = if Workload.owner k = st.c then lo else m.sent_ver.(k) in
      v >= lo && v <= hi
  | 'S' ->
      Wire.is_ok b p q
      &&
      (m.acked_ver.(k) <- max m.acked_ver.(k) plan.arg.(i);
       true)
  | _ -> (
      let sorted = m.inp.sorted in
      let last = k + plan.arg.(i) - 1 in
      let lo_key = ks.keys.(sorted.(k)) and hi_key = ks.keys.(sorted.(last)) in
      Bytes.get b p = '*'
      &&
      let n2, q0 = Wire.header b p in
      n2 land 1 = 0
      &&
      let exp = ref k and pos = ref q0 and prev = ref (-1, 0) and ok = ref true in
      let bulk () =
        if Bytes.get b !pos <> '$' then raise (Wire.Malformed "expected bulk");
        let n, body = Wire.header b !pos in
        pos := body + n + 2;
        (body, n)
      in
      try
        for _ = 1 to n2 / 2 do
          let ko, kl = bulk () in
          let vo, vl = bulk () in
          let po, pl = !prev in
          if
            (po >= 0 && Wire.compare_regions b po pl ko kl >= 0)
            || Wire.compare_bytes b ko kl lo_key < 0
            || Wire.compare_bytes b ko kl hi_key > 0
          then ok := false;
          prev := (ko, kl);
          let key =
            if !exp <= last && Wire.bytes_equal b ko kl ks.keys.(sorted.(!exp)) then begin
              incr exp;
              sorted.(!exp - 1)
            end
            else
              match Hashtbl.find_opt m.inp.fresh (Bytes.sub_string b ko kl) with
              | Some f when m.sent_ver.(f) >= 0 -> f
              | _ -> -1
          in
          if key < 0 then ok := false
          else
            let v = Wire.value_version b vo vl ~tag:ks.tags.(key) in
            if v < 0 || v > m.sent_ver.(key) then ok := false
        done;
        !ok && !exp = last + 1
      with Wire.Malformed _ | Invalid_argument _ -> false)

(* ------------------------------------------------------------------ *)
(* Phases                                                               *)

type mode =
  | Open of { rate : int; per_send : int; warmup : float; window : float }
  | Closed of { window : int }

type result = {
  read_h : Hist.t;  (** GET/SCAN latency, requests due inside the window *)
  write_h : Hist.t;
  lag_h : Hist.t;  (** send time minus due time, per send *)
  mark_t : int array;  (** closed loop: time at every [Est.slice_s] *)
  mark_replies : int array;  (** and the replies received by then *)
  mutable marks : int;
  mutable replies : int;
  mutable win_ops : int;  (** replies received inside the window *)
  mutable win_user_bytes : int;  (** key and value bytes of the window's SETs *)
  mutable t0 : int;  (** phase start *)
  mutable w0 : int;  (** window, as due times *)
  mutable w1 : int;
  mutable attempted : int;
  mutable failed : int;
}

let new_result ~marks =
  {
    read_h = Hist.create ();
    write_h = Hist.create ();
    lag_h = Hist.create ();
    mark_t = Array.make marks 0;
    mark_replies = Array.make marks 0;
    marks = 0;
    replies = 0;
    win_ops = 0;
    win_user_bytes = 0;
    t0 = 0;
    w0 = 0;
    w1 = 0;
    attempted = 0;
    failed = 0;
  }

(* Mark request [i] sent: from here on the server may apply it. *)
let on_send m (st : stream) i =
  let k = st.plan.key.(i) in
  match Bytes.get st.plan.kind i with
  | 'S' -> m.sent_ver.(k) <- max m.sent_ver.(k) st.plan.arg.(i)
  | 'G' -> st.lo.(i) <- (if Workload.owner k = st.c then m.sent_ver.(k) else m.acked_ver.(k))
  | _ -> ()

let queue m cn upto =
  for i = cn.st.next to upto - 1 do
    on_send m cn.st i
  done;
  cn.st.next <- upto;
  cn.queued <- cn.st.plan.off.(upto)

let write_some cn =
  let plan = cn.st.plan in
  (match Unix.single_write cn.fd plan.bytes cn.written (cn.queued - cn.written) with
  | n -> cn.written <- cn.written + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> cn.dead <- true);
  let t = now () in
  while cn.sent_req < cn.st.next && plan.off.(cn.sent_req + 1) <= cn.written do
    (match cn.st.tm with Some tm -> tm.sent.(cn.sent_req) <- t | None -> ());
    cn.sent_req <- cn.sent_req + 1
  done

(* The pacing of a phase: connection c's u-th send is due at
   t0 + (u + c / conns) * period; in a closed loop everything is due at
   t0. Requests due in [w0, w1) are the measured window's samples. *)
type pace = { t0 : int; period : float; per_send : int; nc : int; w0 : int; w1 : int }

let due p cn i =
  p.t0
  + int_of_float
      ((float_of_int ((i - cn.unit0) / p.per_send) +. (float_of_int cn.st.c /. float_of_int p.nc))
      *. p.period)

(* Consume every complete reply in the receive buffer, received at [t]. *)
let drain m r p cn ~t =
  let plan = cn.st.plan in
  let continue = ref true in
  while !continue && cn.replied < cn.st.next do
    let e = Wire.frame_end cn.inb cn.ilo cn.ihi in
    if e < 0 then continue := false
    else begin
      let i = cn.replied and d = due p cn cn.replied in
      if not (check m cn.st i cn.inb cn.ilo e) then r.failed <- r.failed + 1;
      cn.rcum <- cn.rcum + (e - cn.ilo);
      (match cn.st.tm with
      | Some tm ->
          tm.sched.(i) <- d;
          tm.recv.(i) <- t;
          tm.rep_end.(i) <- cn.rcum
      | None -> ());
      if d >= p.w0 && d < p.w1 then
        if Bytes.get plan.kind i = 'S' then begin
          Hist.add r.write_h (t - d);
          r.win_user_bytes <-
            r.win_user_bytes + String.length m.inp.ks.keys.(plan.key.(i)) + Gen.value_len
        end
        else Hist.add r.read_h (t - d);
      cn.ilo <- e;
      cn.replied <- i + 1;
      r.replies <- r.replies + 1
    end
  done;
  if cn.ilo = cn.ihi then begin
    cn.ilo <- 0;
    cn.ihi <- 0
  end
  else if cn.ihi = Bytes.length cn.inb then begin
    (* a partial frame at the end of the buffer: move it to the front,
       growing the buffer if the frame alone fills it *)
    let len = cn.ihi - cn.ilo in
    let nb = if cn.ilo = 0 then Bytes.create (2 * len) else cn.inb in
    Bytes.blit cn.inb cn.ilo nb 0 len;
    cn.inb <- nb;
    cn.ilo <- 0;
    cn.ihi <- len
  end

let read_some m r p cn =
  match Unix.read cn.fd cn.inb cn.ihi (Bytes.length cn.inb - cn.ihi) with
  | 0 -> cn.dead <- true
  | n ->
      cn.ihi <- cn.ihi + n;
      (* an unparseable reply desynchronises the stream: the rest of
         the connection's requests count as failed *)
      (try drain m r p cn ~t:(now ()) with Wire.Malformed _ -> cn.dead <- true)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> cn.dead <- true

(* Nanoseconds without a reply, while requests are outstanding, after
   which the phase gives up and counts them as failed. *)
let stall_ns = 10_000_000_000

(* Run one phase in which connection c sends its next [count.(c)]
   requests. [on_window] is called when the measured window opens
   (true) and when it closes (false). *)
let run m conns mode ~count ~on_window =
  let nc = Array.length conns in
  let total = Array.fold_left ( + ) 0 count in
  let slice_ns = int_of_float (Est.slice_s *. 1e9) in
  (* marks (up to 100 s of them) for closed-loop phases only *)
  let r = new_result ~marks:(match mode with Open _ -> 0 | Closed _ -> 2000) in
  Array.iteri
    (fun c cn ->
      cn.stop <- cn.st.next + count.(c);
      cn.unit0 <- cn.st.next)
    conns;
  r.attempted <- total;
  let t0 = now () + match mode with Open _ -> 1_000_000 | Closed _ -> 0 in
  let p =
    match mode with
    | Open o ->
        let ns s = t0 + int_of_float (s *. 1e9) in
        {
          t0;
          period = 1e9 *. float_of_int (o.per_send * nc) /. float_of_int o.rate;
          per_send = o.per_send;
          nc;
          w0 = ns o.warmup;
          w1 = ns (o.warmup +. o.window);
        }
    | Closed _ -> { t0; period = 0.; per_send = 1; nc; w0 = max_int; w1 = max_int }
  in
  let window = ref `Before and last_progress = ref t0 in
  let finished () = Array.for_all (fun cn -> cn.dead || cn.replied >= cn.stop) conns in
  while not (finished ()) do
    let t = now () in
    while r.marks < Array.length r.mark_t && t >= t0 + (r.marks * slice_ns) do
      r.mark_t.(r.marks) <- t;
      r.mark_replies.(r.marks) <- r.replies;
      r.marks <- r.marks + 1
    done;
    if !window = `Before && t >= p.w0 then begin
      window := `In;
      on_window true
    end;
    if !window = `In && t >= p.w1 then begin
      window := `After;
      on_window false
    end;
    Array.iter
      (fun cn ->
        if not cn.dead then begin
          if cn.replied = cn.st.next then last_progress := t;
          (match mode with
          | Open _ ->
              while cn.st.next < cn.stop && due p cn cn.st.next <= t do
                Hist.add r.lag_h (t - due p cn cn.st.next);
                queue m cn (min cn.stop (cn.st.next + p.per_send))
              done
          | Closed { window } ->
              let room = window - (cn.st.next - cn.replied) in
              if room > 0 && cn.st.next < cn.stop then queue m cn (min cn.stop (cn.st.next + room)));
          if cn.written < cn.queued then write_some cn
        end)
      conns;
    let live = List.filter (fun cn -> not cn.dead) (Array.to_list conns) in
    let next_due =
      match mode with
      | Closed _ -> max_int
      | Open _ ->
          List.fold_left
            (fun acc cn -> if cn.st.next < cn.stop then min acc (due p cn cn.st.next) else acc)
            max_int live
    in
    let timeout =
      if next_due = max_int then 0.05 else Float.max 0. (float_of_int (next_due - now ()) /. 1e9)
    in
    let rd = List.filter_map (fun cn -> if cn.replied < cn.st.next then Some cn.fd else None) live
    and wr = List.filter_map (fun cn -> if cn.written < cn.queued then Some cn.fd else None) live in
    (match Unix.select rd wr [] timeout with
    | readable, _, _ ->
        List.iter
          (fun cn ->
            if List.mem cn.fd readable then begin
              let before = cn.replied in
              read_some m r p cn;
              if cn.replied > before then begin
                last_progress := now ();
                if !window = `In then r.win_ops <- r.win_ops + (cn.replied - before)
              end
            end)
          live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if now () - !last_progress > stall_ns then Array.iter (fun cn -> cn.dead <- true) conns
  done;
  if !window = `In then on_window false;
  Array.iter (fun cn -> r.failed <- r.failed + (cn.stop - cn.replied)) conns;
  r.t0 <- t0;
  r.w0 <- p.w0;
  r.w1 <- p.w1;
  r

(* Replies per second in each slice between consecutive marks. *)
let slice_rates r =
  List.init (max 0 (r.marks - 1)) (fun j ->
      float_of_int (r.mark_replies.(j + 1) - r.mark_replies.(j))
      *. 1e9
      /. float_of_int (r.mark_t.(j + 1) - r.mark_t.(j)))
