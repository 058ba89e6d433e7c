(* Byte-stream transports for the KV service, as plain closures so the
   per-connection server loop is executor-agnostic:

   - [pair]: an in-process loopback — two unidirectional byte pipes
     with park/wake flow control. Under the deterministic executor
     ([Scheduler.Sim]) this gives seed-replayable client/server tests;
     the same pipes also work under [Scheduler.Wall] across domains
     (the mutex sections are short and never yield, so they are safe on
     one thread and on many).

   - [of_fd]: a nonblocking socket, parking on the executor's readiness
     waiters (EAGAIN → wait → retry). Only meaningful under [Wall],
     which owns the select reactor.

   - [of_sim_net]: a connection of the seeded simulated network
     ([Hart_async.Sim_net]), for the deterministic server crash
     explorer. Its hard drops surface as [Dropped].

   Abrupt transport failure is part of the contract: [read]/[write] may
   raise [Dropped] when the peer vanished without a FIN. [serve_conn]
   treats it exactly like EOF — writes already received must still
   commit (DESIGN.md §17). *)

module Scheduler = Hart_async.Scheduler

exception Dropped = Hart_async.Sim_net.Dropped

type conn = {
  read : bytes -> int -> int -> int;
      (* [read b off len] → bytes read (≥ 1), or 0 at end of stream;
         parks until data or EOF *)
  write : string -> unit;  (* write the whole string *)
  close : unit -> unit;
}

(* ------------------------------------------------------------------ *)
(* Loopback pipe                                                        *)

type pipe = {
  mu : Mutex.t;
  buf : Buffer.t;
  mutable rpos : int;  (* bytes of [buf] already consumed *)
  mutable closed : bool;
  mutable waiter : (unit -> unit) option;  (* single parked reader *)
}

let pipe () =
  {
    mu = Mutex.create ();
    buf = Buffer.create 4096;
    rpos = 0;
    closed = false;
    waiter = None;
  }

let pipe_write p s =
  let wake =
    Mutex.protect p.mu (fun () ->
        if not p.closed then Buffer.add_string p.buf s;
        let w = p.waiter in
        p.waiter <- None;
        w)
  in
  Option.iter (fun w -> w ()) wake

let pipe_close p =
  let wake =
    Mutex.protect p.mu (fun () ->
        p.closed <- true;
        let w = p.waiter in
        p.waiter <- None;
        w)
  in
  Option.iter (fun w -> w ()) wake

let rec pipe_read p b off len =
  let r =
    Mutex.protect p.mu (fun () ->
        let avail = Buffer.length p.buf - p.rpos in
        if avail > 0 then begin
          let n = min len avail in
          Buffer.blit p.buf p.rpos b off n;
          p.rpos <- p.rpos + n;
          if p.rpos = Buffer.length p.buf then begin
            Buffer.clear p.buf;
            p.rpos <- 0
          end;
          `Read n
        end
        else if p.closed then `Eof
        else `Park)
  in
  match r with
  | `Read n -> n
  | `Eof -> 0
  | `Park ->
      Scheduler.park (fun wake ->
          let fire =
            Mutex.protect p.mu (fun () ->
                if Buffer.length p.buf - p.rpos > 0 || p.closed then true
                else begin
                  p.waiter <- Some wake;
                  false
                end)
          in
          (* data raced in between the check and the registration: the
             armed wake absorbs it — no lost wakeup *)
          if fire then wake ());
      pipe_read p b off len

let endpoint ~inbound ~outbound =
  {
    read = (fun b off len -> pipe_read inbound b off len);
    write = (fun s -> pipe_write outbound s);
    close =
      (fun () ->
        (* closing an endpoint ends both directions: the peer reads EOF
           after draining, and our own reader unblocks *)
        pipe_close outbound;
        pipe_close inbound);
  }

let pair () =
  let a = pipe () and b = pipe () in
  (endpoint ~inbound:a ~outbound:b, endpoint ~inbound:b ~outbound:a)

(* ------------------------------------------------------------------ *)
(* Simulated network connection                                         *)

let of_sim_net (ep : Hart_async.Sim_net.endpoint) =
  {
    read = ep.Hart_async.Sim_net.ep_read;
    write = ep.Hart_async.Sim_net.ep_write;
    close = ep.Hart_async.Sim_net.ep_close;
  }

(* ------------------------------------------------------------------ *)
(* Nonblocking socket                                                   *)

let of_fd ~wait_readable ~wait_writable fd =
  Unix.set_nonblock fd;
  let closed = ref false in
  let read b off len =
    let rec go () =
      if !closed then 0
      else
        match Unix.read fd b off len with
        | n -> n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            wait_readable fd;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception
            Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
          ->
            0
        | exception Unix.Unix_error _ ->
            (* anything else (ETIMEDOUT, ENETRESET, ...) is an abrupt
               disconnect, not a server failure: surface it as a drop so
               the connection loop runs its commit-and-close epilogue *)
            raise Dropped
    in
    go ()
  in
  let write s =
    let len = String.length s in
    let rec go off =
      if off < len && not !closed then
        match Unix.write_substring fd s off (len - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            wait_writable fd;
            go off
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception
            Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
            (* peer went away: drop the rest; the reader will see EOF *)
            ()
        | exception Unix.Unix_error _ -> raise Dropped
    in
    go 0
  in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  { read; write; close }
