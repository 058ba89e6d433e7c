module Sched_hook = Hart_util.Sched_hook

(* The lock word. Bit 0: a writer holds the lock. Bit 1: some domain
   waits on the mutex below, so every acquisition and release goes
   through it. Bits 2 and up: the number of readers holding the lock.
   With no waiter, acquiring and releasing are one CAS each; the
   [Mutex]/[Condition] pair is touched only while a waiter exists. *)
let w_bit = 1
let p_bit = 2
let reader = 4

type t = {
  state : int Atomic.t;
  m : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable waiting_readers : int;  (* [m] held *)
  mutable waiting_writers : int;  (* [m] held, or the explorer's fiber *)
}

type event = Read_acquired | Read_released | Write_acquired | Write_released

(* Installed by the deterministic concurrent crash explorer (which runs
   fibers on one OS thread, so handler invocations are totally ordered);
   [None] on every real path. The [t] argument gives per-lock identity
   by physical equality. *)
let event_hook : (t -> event -> unit) option ref = ref None
let set_event_hook f = event_hook := f
let notify t ev = match !event_hook with None -> () | Some f -> f t ev

let create () =
  {
    state = Atomic.make 0;
    m = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    waiting_readers = 0;
    waiting_writers = 0;
  }

let readers t = Atomic.get t.state lsr 2
let writer_active t = Atomic.get t.state land w_bit <> 0

(* [m] held. A waiter raises the pending bit before it tests the word,
   so a holder whose release CAS saw no pending bit released before that
   test, and one that saw it takes [m] and signals after the waiter
   sleeps. *)
let rec set_pending t =
  let s = Atomic.get t.state in
  if s land p_bit = 0 && not (Atomic.compare_and_set t.state s (s lor p_bit)) then set_pending t

let rec clear_pending t =
  let s = Atomic.get t.state in
  if not (Atomic.compare_and_set t.state s (s land lnot p_bit)) then clear_pending t

let leave_waiting t =
  if t.waiting_readers = 0 && t.waiting_writers = 0 then clear_pending t

(* Add [d] to the word, whatever its other bits: [m] held, or no real
   domains (the explorer). *)
let rec add_state t d =
  let s = Atomic.get t.state in
  if not (Atomic.compare_and_set t.state s (s + d)) then add_state t d

(* Cooperative acquisition: with a scheduler installed there is exactly
   one runnable fiber, so the state is stable except across [yield] —
   blocking on [Condition.wait] would park the only OS thread forever.
   The admission test re-runs after every yield and, once it passes,
   the state update happens with no intervening yield (atomic with
   respect to the scheduler). *)

let rec read_slow t =
  let s = Atomic.get t.state in
  if s land w_bit = 0 && t.waiting_writers = 0 then begin
    if not (Atomic.compare_and_set t.state s (s + reader)) then read_slow t
  end
  else begin
    Condition.wait t.can_read t.m;
    read_slow t
  end

(* The fast paths: no waiter, one CAS, retried only when another
   domain's CAS changed the word first. [false]: go by the mutex. *)
let rec read_fast t =
  let s = Atomic.get t.state in
  s land (w_bit lor p_bit) = 0
  && (Atomic.compare_and_set t.state s (s + reader) || read_fast t)

let rec read_release_fast t =
  let s = Atomic.get t.state in
  s land p_bit = 0 && (Atomic.compare_and_set t.state s (s - reader) || read_release_fast t)

let read_lock t =
  if Sched_hook.active () then begin
    Sched_hook.yield ();
    (* acquire yield point *)
    while writer_active t || t.waiting_writers > 0 do
      Sched_hook.yield ()
    done;
    add_state t reader
  end
  else if not (read_fast t) then begin
    Mutex.lock t.m;
    t.waiting_readers <- t.waiting_readers + 1;
    set_pending t;
    read_slow t;
    t.waiting_readers <- t.waiting_readers - 1;
    leave_waiting t;
    Mutex.unlock t.m
  end;
  notify t Read_acquired

let read_unlock t =
  (* The release event fires before the state change with no yield in
     between: handler order IS release order. No yield afterwards either
     — release is also on the exception-unwind path, where a context
     switch after a crash would let other fibers mutate the post-crash
     pool. The release-side yield point is the caller's, on the normal
     path only ({!Striped_mt}). *)
  notify t Read_released;
  if Sched_hook.active () then
    (* no real domains → no condition waiters to signal *)
    add_state t (-reader)
  else if not (read_release_fast t) then begin
    Mutex.lock t.m;
    add_state t (-reader);
    if readers t = 0 then Condition.signal t.can_write;
    Mutex.unlock t.m
  end

let rec write_slow t =
  let s = Atomic.get t.state in
  if s land lnot p_bit = 0 then begin
    if not (Atomic.compare_and_set t.state s (s lor w_bit)) then write_slow t
  end
  else begin
    Condition.wait t.can_write t.m;
    write_slow t
  end

let write_lock t =
  if Sched_hook.active () then begin
    Sched_hook.yield ();
    (* acquire yield point *)
    t.waiting_writers <- t.waiting_writers + 1;
    while writer_active t || readers t > 0 do
      Sched_hook.yield ()
    done;
    t.waiting_writers <- t.waiting_writers - 1;
    add_state t w_bit
  end
  else if not (Atomic.compare_and_set t.state 0 w_bit) then begin
    Mutex.lock t.m;
    t.waiting_writers <- t.waiting_writers + 1;
    set_pending t;
    write_slow t;
    t.waiting_writers <- t.waiting_writers - 1;
    leave_waiting t;
    Mutex.unlock t.m
  end;
  notify t Write_acquired

let write_unlock t =
  notify t Write_released;
  if Sched_hook.active () then add_state t (-w_bit)
  else if not (Atomic.compare_and_set t.state w_bit 0) then begin
    Mutex.lock t.m;
    add_state t (-w_bit);
    (* wake a waiting writer first (writer preference), else all readers *)
    if t.waiting_writers > 0 then Condition.signal t.can_write
    else Condition.broadcast t.can_read;
    Mutex.unlock t.m
  end

let with_read t f =
  read_lock t;
  match f () with
  | r ->
      read_unlock t;
      Sched_hook.yield ();
      (* release yield point (normal path) *)
      r
  | exception e ->
      read_unlock t;
      raise e

let with_write t f =
  write_lock t;
  match f () with
  | r ->
      write_unlock t;
      Sched_hook.yield ();
      (* release yield point (normal path) *)
      r
  | exception e ->
      write_unlock t;
      raise e
