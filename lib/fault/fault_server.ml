(* Deterministic simulation testing (DST) of the full KV server stack:
   RESP parsing, pipelined write batching, the striped concurrent index
   and PM persistence all under one seeded schedule, FoundationDB-style.

   Per execution, [clients] sessions run against one [Hart_mt] store:
   each client is a fiber that pipelines its whole scripted request
   burst through a seeded simulated network connection
   ([Hart_async.Sim_net] — arbitrary byte fragmentation, chunked
   delivery with a yield per chunk, optional mid-session hard drops)
   into a [Server.serve_conn] fiber, all on the deterministic executor
   ([Scheduler.Sim]): the scheduler's RNG picks the next runnable fiber
   at every persist, lock edge and network edge, so one (seed,
   schedule) pair replays the exact byte-level session. A crash is
   injected at a chosen flush boundary — with requests in flight in
   every layer: bytes half-delivered, frames half-parsed, batches
   half-applied — the pool is recovered single-domain, and the durable
   image is checked against a session-linearizability oracle:

   - commit order IS the linearization: [Striped_mt.apply_batch]
     announces each batch operation through [Mt_hook.batch_start] /
     [fire_batch] under its stripe write lock, so the committed model
     is folded in true commit order and maps each commit back to
     (client, write ordinal);
   - ack ⇒ durable: a write reply parsed by its client before the
     crash must name a committed operation (replies are only emitted
     after [s_batch] returns), and the recovered image must contain the
     whole committed model;
   - unacked ops land as any admissible subset: the recovered state
     must equal committed + S for some subset S of the started-but-
     uncommitted batch operations (at most one per connection — it
     holds the stripe write lock — and concurrent holders hold distinct
     stripes, so every subset is reachable and each op is atomically
     present or absent); ops never received, never parsed, or parked
     behind a batch are durably absent;
   - reads linearize: a GET must return the value at call entry or a
     value committed to that key during the call window (the store
     wrapper samples the commit log around the real search);
   - replies are well-typed per request, in request order.

   One sharp edge this harness exists to pin: after [Pmem] fires its
   armed crash, subsequent persists do NOT re-raise — a fiber that
   swallows [Crash_injected] (as [serve_conn]'s catch-all does) and
   keeps calling the store would silently mutate the "durable" image
   the oracle is about to judge. The store wrapper therefore re-raises
   [Crash_injected] preemptively on every call once the crash has
   fired: post-crash service is dead, exactly like real lost power.

   This module is the executor; the sweep, the admissible-subset oracle
   and the report are [Fault.sweep]'s, and violations shrink through
   the same ddmin core ([Fault.shrink]) — client sessions play the role
   of domains — so a failing schedule self-minimizes to a JSON
   reproducer. *)

module Pmem = Hart_pmem.Pmem
module Rng = Hart_util.Rng
module Index_intf = Hart_core.Index_intf
module Hart_mt = Hart_core.Hart_mt
module Mt_hook = Hart_core.Mt_hook
module Scheduler = Hart_async.Scheduler
module Sim_net = Hart_async.Sim_net
module Resp = Hart_server.Resp
module Server = Hart_server.Server
module Transport = Hart_server.Transport
module SMap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* One deterministic execution of the whole stack                       *)

let fault_op_of_batch = function
  | Index_intf.Bset (k, v) -> Fault.Insert (k, v)
  | Index_intf.Bdel k -> Fault.Delete k

let execute ~seed ~drops ~setup scripts ~mode ~crash_at ~resume:_
    ~checkpoint:_ =
  let n = Array.length scripts in
  let pool = Fault.fresh_pool () in
  let t = Hart_mt.create pool in
  List.iter
    (function
      | Fault.Insert (k, v) -> Hart_mt.insert t ~key:k ~value:v
      | Fault.Update (k, v) -> ignore (Hart_mt.update t ~key:k ~value:v : bool)
      | Fault.Delete k -> ignore (Hart_mt.delete t k : bool)
      | Fault.Search k -> ignore (Hart_mt.search t k : string option))
    setup;
  let committed = ref (List.fold_left Fault.apply_model SMap.empty setup) in
  (* in-execution oracle failures (ack⇒durable, reply typing, read
     linearization, premature close) are recorded, not raised: they
     surface inside [serve_conn]'s catch-all, which would swallow an
     exception *)
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let rng = Rng.create seed in
  let sim =
    Scheduler.Sim.create
      ~swallow:(function Pmem.Crash_injected -> true | _ -> false)
      ~rng ()
  in
  let current () = Scheduler.Sim.current sim in
  (* the network draws from its own seeded stream, derived from the
     scheduler seed so the pair replays together *)
  let net =
    Sim_net.create
      ~seed:(Int64.add (Int64.mul seed 6364136223846793005L) 1442695040888963407L)
      ()
  in
  (* (client, write ordinal) bookkeeping: ordinal w is the w-th write
     request the server received on that connection — [serve_conn]
     flushes pending writes in request order, so batch position [base +
     i] is exactly that ordinal *)
  let next_write = Array.make n 0 in
  let cur_batch = Array.make (2 * n) None in  (* per server fiber *)
  let client_of_fiber = Array.make (2 * n) (-1) in
  let in_flight : (int, Index_intf.batch_op) Hashtbl.t = Hashtbl.create 8 in
  let committed_w : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let commit_log = ref [] and log_n = ref 0 in
  let replies = Array.make n 0 in
  let acked = Array.make n 0 in
  let dropped = Array.make n false in
  (* Attribution is by the currently scheduled fiber: the hooks fire
     synchronously inside the server fiber applying the batch, under
     the group's stripe write lock. Post-crash firings are ignored — an
     unwinding fiber must not linearize anything. *)
  Mt_hook.install_batch
    ~start:(fun i ->
      if not (Pmem.crash_fired pool) then
        match cur_batch.(current ()) with
        | Some (c, ops, _) -> Hashtbl.replace in_flight c ops.(i)
        | None -> ())
    ~commit:(fun i ->
      if not (Pmem.crash_fired pool) then
        match cur_batch.(current ()) with
        | Some (c, ops, base) ->
            Hashtbl.remove in_flight c;
            Hashtbl.replace committed_w (c, base + i) ();
            (match ops.(i) with
            | Index_intf.Bset (k, v) ->
                committed := SMap.add k v !committed;
                commit_log := (k, Some v) :: !commit_log
            | Index_intf.Bdel k ->
                committed := SMap.remove k !committed;
                commit_log := (k, None) :: !commit_log);
            incr log_n
        | None -> ());
  let base_store = Server.store_of_hart t in
  (* Once the crash fires, the store is dead: [Pmem.persist] fires an
     armed crash only once, so a later call arriving through
     [serve_conn]'s catch-all epilogue would silently mutate the
     crashed image. Re-raise preemptively instead. *)
  let guard () = if Pmem.crash_fired pool then raise Pmem.Crash_injected in
  let store =
    {
      Server.s_get =
        (fun k ->
          guard ();
          let before = SMap.find_opt k !committed in
          let mark = !log_n in
          let r = base_store.Server.s_get k in
          let in_window () =
            let rec scan l cnt =
              cnt > 0
              &&
              match l with
              | (k', v') :: tl -> (k' = k && v' = r) || scan tl (cnt - 1)
              | [] -> false
            in
            scan !commit_log (!log_n - mark)
          in
          if not (r = before || in_window ()) then
            error
              "GET %S returned %s: neither the committed value at call \
               entry (%s) nor any value committed during the call"
              k
              (match r with None -> "null" | Some v -> Printf.sprintf "%S" v)
              (match before with
              | None -> "null"
              | Some v -> Printf.sprintf "%S" v);
          r);
      s_scan = (fun lo hi -> guard (); base_store.Server.s_scan lo hi);
      s_batch =
        (fun ops ->
          guard ();
          let c = client_of_fiber.(current ()) in
          let arr = Array.of_list ops in
          let base = next_write.(c) in
          cur_batch.(current ()) <- Some (c, arr, base);
          match base_store.Server.s_batch ops with
          | res ->
              cur_batch.(current ()) <- None;
              next_write.(c) <- base + Array.length arr;
              res
          | exception e ->
              cur_batch.(current ()) <- None;
              raise e);
    }
  in
  let client_body c (conn : Transport.conn) script () =
    let reqs = Array.of_list script in
    let nreq = Array.length reqs in
    let write_ord = Array.make (max nreq 1) None in
    let w = ref 0 in
    Array.iteri
      (fun i op ->
        match op with
        | Fault.Insert _ | Fault.Update _ | Fault.Delete _ ->
            write_ord.(i) <- Some !w;
            incr w
        | Fault.Search _ -> ())
      reqs;
    let payload = Buffer.create 256 in
    Array.iter
      (fun op ->
        match op with
        | Fault.Insert (k, v) | Fault.Update (k, v) ->
            Resp.request payload [ "SET"; k; v ]
        | Fault.Delete k -> Resp.request payload [ "DEL"; k ]
        | Fault.Search k -> Resp.request payload [ "GET"; k ])
      reqs;
    let exception Closed_early in
    (try
       (* the whole session pipelined in one write; the simulated
          network fragments it and yields between chunks *)
       conn.Transport.write (Buffer.contents payload);
       let buf = ref "" in
       let chunk = Bytes.create 512 in
       while replies.(c) < nreq do
         let nr = conn.Transport.read chunk 0 (Bytes.length chunk) in
         if nr = 0 then begin
           error "client %d: server closed with %d of %d replies outstanding"
             c (nreq - replies.(c)) nreq;
           raise Closed_early
         end;
         buf := !buf ^ Bytes.sub_string chunk 0 nr;
         let pos = ref 0 and more = ref true in
         while !more && replies.(c) < nreq do
           match Resp.reply_skip !buf !pos with
           | Some p ->
               let r = replies.(c) in
               let tag = !buf.[!pos] in
               (match (reqs.(r), tag) with
               | (Fault.Insert _ | Fault.Update _), '+'
               | Fault.Delete _, ':'
               | Fault.Search _, '$' -> ()
               | op, tg ->
                   error "client %d: reply %d to %s has wire type '%c'" c r
                     (Format.asprintf "%a" Fault.pp_op op)
                     tg);
               (match write_ord.(r) with
               | Some o ->
                   acked.(c) <- acked.(c) + 1;
                   if not (Hashtbl.mem committed_w (c, o)) then
                     error
                       "client %d: write %d acknowledged but never \
                        committed (ack must imply durable)"
                       c o
               | None -> ());
               replies.(c) <- replies.(c) + 1;
               pos := p
           | None -> more := false
         done;
         buf := String.sub !buf !pos (String.length !buf - !pos)
       done
     with
    | Transport.Dropped -> dropped.(c) <- true
    | Closed_early -> ());
    conn.Transport.close ()
  in
  Scheduler.install_sched_hook ();
  let finish () =
    Scheduler.uninstall_sched_hook ();
    Mt_hook.uninstall_batch ()
  in
  match
    let f0 = Pmem.flush_count pool in
    (match crash_at with
    | Some i -> Pmem.arm_crash ~mode pool ~after_flushes:i
    | None -> ());
    Array.iteri
      (fun c script ->
        let client_ep, server_ep = Sim_net.pair ?drop_after:drops.(c) net in
        let sf =
          Scheduler.Sim.spawn sim (fun () ->
              Server.serve_conn store (Transport.of_sim_net server_ep))
        in
        client_of_fiber.(sf) <- c;
        let cf =
          Scheduler.Sim.spawn sim
            (client_body c (Transport.of_sim_net client_ep) script)
        in
        assert (sf = (2 * c) && cf = (2 * c) + 1))
      scripts;
    Scheduler.Sim.run sim ~stop:(fun () -> Pmem.crash_fired pool);
    let crashed = Pmem.crash_fired pool in
    let flushes = Pmem.flush_count pool - f0 in
    Pmem.disarm_crash pool;
    (crashed, flushes)
  with
  | exception e ->
      finish ();
      raise e
  | crashed, flushes ->
      finish ();
      let in_flight =
        List.sort compare
          (Hashtbl.fold
             (fun c op acc -> (c, fault_op_of_batch op) :: acc)
             in_flight [])
      in
      (* a crash-free session must be fully answered unless dropped *)
      if not crashed then
        Array.iteri
          (fun c script ->
            let nreq = List.length script in
            if (not dropped.(c)) && replies.(c) <> nreq then
              error "client %d finished with %d of %d replies" c replies.(c) nreq)
          scripts;
      ( pool,
        {
          Fault.p_crashed = crashed;
          p_flushes = flushes;
          p_committed = SMap.bindings !committed;
          p_in_flight = in_flight;
          p_waiting = [];
          p_errors = List.rev !errors;
          p_acked = Array.fold_left ( + ) 0 acked;
          p_dropped = Array.exists Fun.id dropped;
          p_state = (if crashed then [] else Fault.sorted_dump (Hart_mt.M.iter t));
          p_recovery_flushes = 0;
          p_snapshot = None;
        } )

let drops_of ~clients = function
  | None -> Array.make clients None
  | Some d ->
      if Array.length d <> clients then
        invalid_arg "Fault_server: drops/clients mismatch";
      d

(* recovery goes through the concurrent HART's own entry point *)
let explore ?(mode = Pmem.Clean) ?(keep_going = false)
    ?(stop_after_first = false) ?max_schedules ?drops ~seed ~clients
    ~workload ?(setup = []) scripts =
  if Array.length scripts <> clients then
    invalid_arg "Fault_server.explore: scripts/clients mismatch";
  Fault.sweep ~keep_going ~stop_after_first ?max_schedules ~seed
    ~label:(Printf.sprintf "server@%dc" clients)
    ~workload ~mode
    ~n_ops:(Array.fold_left (fun a s -> a + List.length s) 0 scripts)
    Fault_mt.hart_mt
    (execute ~seed ~drops:(drops_of ~clients drops) ~setup scripts)

let probe ?(mode = Pmem.Clean) ?drops ~seed ~schedule ?(setup = []) scripts =
  let drops = drops_of ~clients:(Array.length scripts) drops in
  Fault.recover_crashed Fault_mt.hart_mt
    (execute ~seed ~drops ~setup scripts ~mode ~crash_at:(Some schedule)
       ~resume:None ~checkpoint:ignore)

(* The shared ddmin core, judging candidates by a bounded server sweep
   (dropping a "domain" drops a whole client session). Drop fuses are
   not threaded through — shrink is for the no-drop sweeps;
   dropped-session violations replay from their (workload, seed,
   schedule) coordinates directly. *)
let shrink ?(mode = Pmem.Clean) ?budget ~seed ~setup scripts =
  Fault.shrink ?budget ~seed ~setup scripts ~replay:(fun ~seed ~setup scripts ->
      explore ~mode ~keep_going:true ~stop_after_first:true ~seed
        ~clients:(Array.length scripts) ~workload:"shrink" ~setup scripts)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* Each client works its own key prefix (distinct stripes, so batch ops
   are genuinely in flight together) plus a shared prefix (colliding
   commits, and GETs whose answer depends on the linearization), with
   reads interleaved so the sweep crosses crash points mid-read and
   mid-batch alike. *)
let default_workload ~clients ~ops_per_client =
  let key c i = Printf.sprintf "c%d-%02d" c i in
  let shared i = Printf.sprintf "sh%02d" i in
  let setup =
    Fault.Insert (shared 0, "g0")
    :: List.init clients (fun c ->
           Fault.Insert (key c 0, Printf.sprintf "s%d" c))
  in
  let script c =
    List.init ops_per_client (fun j ->
        match j mod 6 with
        | 0 -> Fault.Insert (key c (1 + j), Printf.sprintf "v%d.%d" c j)
        | 1 -> Fault.Search (shared 0)
        | 2 -> Fault.Insert (shared (1 + c), Printf.sprintf "n%d.%d" c j)
        | 3 -> Fault.Update (shared 0, Printf.sprintf "u%d.%d" c j)
        | 4 -> Fault.Delete (key c 0)
        | _ -> Fault.Search (key c (1 + j - 5)))
  in
  (setup, Array.init clients script)

(* The same sessions, with the last client's connection armed to
   hard-drop after [fuse] bytes (requests and replies both burn it) —
   mid-pipelined-batch, with writes received but unacknowledged. The
   epilogue contract says those writes still commit. *)
let drop_workload ~clients ~ops_per_client =
  let setup, scripts = default_workload ~clients ~ops_per_client in
  let drops =
    Array.init clients (fun c ->
        if c = clients - 1 then Some 120 else None)
  in
  (setup, scripts, drops)
