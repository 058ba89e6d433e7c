(* The fiber runtime extracted from the concurrent crash explorer
   (lib/fault/fault_mt.ml, PR 4): effect-handler fibers with two
   executors over the same effects.

   - [Sim]: the explorer's deterministic scheduler — every fiber runs
     on ONE OS thread, switching only where [Yield] is performed, and a
     caller-owned seeded RNG picks which runnable fiber proceeds. Same
     (seed, fiber set) → bit-identical execution. The explorer's
     crash/replay machinery (checkpoints, resume, the linearization
     oracle) stays in lib/fault; what lives here is exactly the
     scheduling core it replays.

   - [Wall]: the same fiber code multiplexed across real
     [Domain.spawn] workers from a shared run queue, with a
     select-based reactor for fd readiness. No determinism — this is
     the production event loop the KV server (lib/server) runs on.

   A fiber targets both executors by construction: it only ever
   performs [Yield] (cooperative reschedule) and [Park] (block until a
   wake callback fires). [Park]'s contract makes lost wakeups
   impossible: the wake passed to [register] is armed before [register]
   runs, so a wake racing ahead of the park — even from another domain
   — simply marks the fiber runnable again. *)

module Rng = Hart_util.Rng
module Sched_hook = Hart_util.Sched_hook

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

let yield () = Effect.perform Yield
let park register = Effect.perform (Park register)

(* The cooperative-scheduler hook wiring (Sched_hook) belongs to the
   runtime: installing it turns every instrumented production yield
   point (Pmem.persist, Rwlock, Epalloc) into a fiber switch
   of whichever executor handles the [Yield]. *)
let install_sched_hook () = Sched_hook.install yield
let uninstall_sched_hook () = Sched_hook.uninstall ()

(* ------------------------------------------------------------------ *)
(* Deterministic simulated executor                                     *)

module Sim = struct
  type fstate =
    | Not_started of (unit -> unit)
    | Runnable of (unit, unit) Effect.Deep.continuation  (* parked at Yield *)
    | Blocked of (unit, unit) Effect.Deep.continuation  (* parked at Park *)
    | Finished

  type t = {
    rng : Rng.t;  (* borrowed: the caller may copy it for snapshots *)
    swallow : exn -> bool;
    mutable fibers : fstate array;
    mutable gen : int array;  (* park generation, detects stale wakes *)
    mutable n : int;
    mutable cur : int;
  }

  let create ?(swallow = fun _ -> false) ~rng () =
    {
      rng;
      swallow;
      fibers = Array.make 8 Finished;
      gen = Array.make 8 0;
      n = 0;
      cur = -1;
    }

  let spawn t f =
    if t.n = Array.length t.fibers then begin
      let fibers = Array.make (2 * t.n) Finished in
      Array.blit t.fibers 0 fibers 0 t.n;
      t.fibers <- fibers;
      let gen = Array.make (2 * t.n) 0 in
      Array.blit t.gen 0 gen 0 t.n;
      t.gen <- gen
    end;
    t.fibers.(t.n) <- Not_started f;
    t.n <- t.n + 1;
    t.n - 1

  let current t = t.cur

  let state t i =
    match t.fibers.(i) with
    | Not_started _ -> `Not_started
    | Runnable _ -> `Runnable
    | Blocked _ -> `Blocked
    | Finished -> `Finished

  let live t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      match t.fibers.(i) with Finished -> () | _ -> incr c
    done;
    !c

  (* Ascending fiber order — the explorer's replay determinism depends
     on this exact construction (index i lands at position i among the
     non-finished). Blocked fibers are not runnable: they come back via
     their wake. *)
  let runnable t =
    let r = ref [] in
    for i = t.n - 1 downto 0 do
      match t.fibers.(i) with
      | Finished | Blocked _ -> ()
      | Not_started _ | Runnable _ -> r := i :: !r
    done;
    !r

  (* A wake is valid for exactly one park: the generation stamp filters
     wakes that outlive their park (e.g. a duplicated wake arriving
     after the fiber parked again). *)
  let wake t i g () =
    if i < t.n && t.gen.(i) = g then
      match t.fibers.(i) with
      | Blocked k -> t.fibers.(i) <- Runnable k
      | _ -> ()

  let handler t i =
    {
      Effect.Deep.retc = (fun () -> t.fibers.(i) <- Finished);
      exnc =
        (fun e ->
          t.fibers.(i) <- Finished;
          if not (t.swallow e) then raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  t.fibers.(i) <- Runnable k)
          | Park register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  t.gen.(i) <- t.gen.(i) + 1;
                  t.fibers.(i) <- Blocked k;
                  (* armed before [register] runs: an immediate wake
                     (data already available) flips straight back to
                     Runnable — no lost wakeup *)
                  register (wake t i t.gen.(i)))
          | _ -> None);
    }

  let step t j =
    t.cur <- j;
    match t.fibers.(j) with
    | Not_started f -> Effect.Deep.match_with f () (handler t j)
    | Runnable k ->
        (* the deep handler installed at [step]'s Not_started arm
           travels with the continuation: its effc/retc/exnc update
           [t.fibers.(j)] again on the next park / return / raise *)
        Effect.Deep.continue k ()
    | Blocked _ | Finished -> invalid_arg "Scheduler.Sim.step: not runnable"

  let run ?(stop = fun () -> false) ?(on_step = fun () -> ()) t =
    let rec loop () =
      if not (stop ()) then begin
        on_step ();
        match runnable t with
        | [] -> ()
        | rs ->
            step t (List.nth rs (Rng.int t.rng (List.length rs)));
            loop ()
      end
    in
    loop ()
end

(* ------------------------------------------------------------------ *)
(* Wall-clock executor                                                  *)

module Wall = struct
  type item =
    | Thunk of (unit -> unit)
    | Cont of (unit, unit) Effect.Deep.continuation

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    q : item Queue.t;
    mutable live : int;  (* spawned fibers not yet finished *)
    mutable waiting : (Unix.file_descr * [ `R | `W ] * (unit -> unit)) list;
    mutable polling : bool;  (* one worker at a time owns the select *)
    mutable failure : exn option;  (* first uncaught fiber exception *)
  }

  let create () =
    {
      mu = Mutex.create ();
      cond = Condition.create ();
      q = Queue.create ();
      live = 0;
      waiting = [];
      polling = false;
      failure = None;
    }

  let enqueue t it =
    Mutex.lock t.mu;
    Queue.push it t.q;
    Condition.signal t.cond;
    Mutex.unlock t.mu

  let spawn t f =
    Mutex.lock t.mu;
    t.live <- t.live + 1;
    Queue.push (Thunk f) t.q;
    Condition.signal t.cond;
    Mutex.unlock t.mu

  let fiber_done t e =
    Mutex.lock t.mu;
    t.live <- t.live - 1;
    (match e with
    | Some e when t.failure = None -> t.failure <- Some e
    | _ -> ());
    if t.live = 0 || t.failure <> None then Condition.broadcast t.cond;
    Mutex.unlock t.mu

  let handler t =
    {
      Effect.Deep.retc = (fun () -> fiber_done t None);
      exnc = (fun e -> fiber_done t (Some e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  enqueue t (Cont k))
          | Park register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  (* once-only: the continuation is one-shot, so a
                     duplicate or stale wake must be a no-op *)
                  let woken = Atomic.make false in
                  register (fun () ->
                      if not (Atomic.exchange woken true) then
                        enqueue t (Cont k)))
          | _ -> None);
    }

  (* Reactor: stdlib [Condition] has no timed wait, so one worker at a
     time becomes the poller and multiplexes the registered fds through
     a short [select]; wakes found ready are fired outside the lock
     (they re-enqueue through [enqueue]). Fibers woken spuriously (the
     registration list can shift while the lock is dropped) just retry
     their I/O and re-park — [Park]'s contract absorbs it. *)
  let poll t =
    (* lock held on entry and on exit *)
    t.polling <- true;
    let snapshot = t.waiting in
    Mutex.unlock t.mu;
    let rd =
      List.filter_map (fun (fd, d, _) -> if d = `R then Some fd else None)
        snapshot
    and wr =
      List.filter_map (fun (fd, d, _) -> if d = `W then Some fd else None)
        snapshot
    in
    let r, w =
      match Unix.select rd wr [] 0.05 with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          (* a registered fd was closed (shutdown path): wake everyone;
             the resumed fibers observe the closure themselves *)
          (rd, wr)
    in
    Mutex.lock t.mu;
    t.polling <- false;
    let ready, rest =
      List.partition
        (fun (fd, d, _) -> List.mem fd (match d with `R -> r | `W -> w))
        t.waiting
    in
    t.waiting <- rest;
    Mutex.unlock t.mu;
    List.iter (fun (_, _, wk) -> wk ()) ready;
    Mutex.lock t.mu

  let next t =
    Mutex.lock t.mu;
    let rec go () =
      if t.failure <> None then begin
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        None
      end
      else if not (Queue.is_empty t.q) then begin
        let it = Queue.pop t.q in
        Mutex.unlock t.mu;
        Some it
      end
      else if t.live = 0 then begin
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        None
      end
      else if t.waiting <> [] && not t.polling then begin
        poll t;
        go ()
      end
      else begin
        Condition.wait t.cond t.mu;
        go ()
      end
    in
    go ()

  let wait_io t dir fd =
    park (fun wk ->
        Mutex.lock t.mu;
        t.waiting <- (fd, dir, wk) :: t.waiting;
        (* a sleeping worker must wake to become the poller *)
        Condition.signal t.cond;
        Mutex.unlock t.mu)

  let wait_readable t fd = wait_io t `R fd
  let wait_writable t fd = wait_io t `W fd

  let run ?domains t =
    let workers =
      match domains with
      | Some d -> max 1 d
      | None -> max 1 (min 8 (Domain.recommended_domain_count ()))
    in
    let worker () =
      let rec go () =
        match next t with
        | None -> ()
        | Some it ->
            (match it with
            | Thunk f -> Effect.Deep.match_with f () (handler t)
            | Cont k -> Effect.Deep.continue k ());
            go ()
      in
      go ()
    in
    let ds = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join ds;
    match t.failure with Some e -> raise e | None -> ()
end
