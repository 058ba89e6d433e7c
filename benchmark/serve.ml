(* The server side: the store behind the RESP server, run by
   [Scheduler.Wall] on one spawned domain.

   Untraced phases use [Server.serve_unix], exactly as [hart_cli serve]
   does. Traced phases use the accept loop below instead, which hands
   [Server.serve_conn] a connection whose read/write closures and a
   store whose closures record spans into preallocated arrays. The
   spans are read by the main domain only after the server domain has
   been joined. *)

module Server = Hart_server.Server
module Transport = Hart_server.Transport
module Wall = Hart_async.Scheduler.Wall

let now = Loadgen.now

(* Spans of one connection. Reads record when [read] returned and the
   cumulative request bytes read; writes their start, end and the
   cumulative reply bytes written; store calls their start, end, kind
   ('G', 'B' batch, 'C' scan), size (keys written or returned) and the
   read whose burst issued them. *)
type log = {
  cap : int;
  mutable reads : int;
  rd_t : int array;
  rd_cum : int array;
  mutable writes : int;
  wr_t0 : int array;
  wr_t1 : int array;
  wr_cum : int array;
  mutable calls : int;
  op_t0 : int array;
  op_t1 : int array;
  op_kind : Bytes.t;
  op_n : int array;
  op_read : int array;
  mutable in_bytes : int;
  mutable out_bytes : int;
}

let log cap =
  let a () = Array.make cap 0 in
  {
    cap;
    reads = 0;
    rd_t = a ();
    rd_cum = a ();
    writes = 0;
    wr_t0 = a ();
    wr_t1 = a ();
    wr_cum = a ();
    calls = 0;
    op_t0 = a ();
    op_t1 = a ();
    op_kind = Bytes.make cap ' ';
    op_n = a ();
    op_read = a ();
    in_bytes = 0;
    out_bytes = 0;
  }

let traced_conn l (c : Transport.conn) =
  {
    c with
    Transport.read =
      (fun b off len ->
        let n = c.read b off len in
        if n > 0 && l.reads < l.cap then begin
          l.in_bytes <- l.in_bytes + n;
          l.rd_t.(l.reads) <- now ();
          l.rd_cum.(l.reads) <- l.in_bytes;
          l.reads <- l.reads + 1
        end;
        n);
    write =
      (fun s ->
        let t0 = now () in
        c.write s;
        if l.writes < l.cap then begin
          l.out_bytes <- l.out_bytes + String.length s;
          l.wr_t0.(l.writes) <- t0;
          l.wr_t1.(l.writes) <- now ();
          l.wr_cum.(l.writes) <- l.out_bytes;
          l.writes <- l.writes + 1
        end);
  }

let traced_store l (s : Server.store) =
  let span kind f size =
    let t0 = now () in
    let r = f () in
    if l.calls < l.cap then begin
      let i = l.calls in
      l.op_t0.(i) <- t0;
      l.op_t1.(i) <- now ();
      Bytes.set l.op_kind i kind;
      l.op_n.(i) <- size r;
      l.op_read.(i) <- l.reads - 1;
      l.calls <- i + 1
    end;
    r
  in
  {
    Server.s_get = (fun k -> span 'G' (fun () -> s.s_get k) (fun _ -> 1));
    s_scan = (fun lo hi -> span 'C' (fun () -> s.s_scan lo hi) List.length);
    s_batch = (fun ops -> span 'B' (fun () -> s.s_batch ops) Array.length);
  }

(* [Server.serve_unix]'s accept loop, with the i-th accepted connection
   and its view of the store traced into [logs.(i)]. *)
let listen_traced ~stats ~wall ~path store logs =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 64;
  Unix.set_nonblock srv;
  let accepted = ref 0 in
  Wall.spawn wall (fun () ->
      let rec loop () =
        match Unix.accept srv with
        | fd, _ ->
            let l = logs.(!accepted) in
            incr accepted;
            let conn =
              Transport.of_fd ~wait_readable:(Wall.wait_readable wall)
                ~wait_writable:(Wall.wait_writable wall) fd
            in
            Wall.spawn wall (fun () ->
                Server.serve_conn ~stats (traced_store l store) (traced_conn l conn));
            loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Wall.wait_readable wall srv;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | exception Unix.Unix_error _ -> ()
      in
      loop ());
  srv

type t = { listener : Unix.file_descr; domain : unit Domain.t; path : string; stats : Server.stats }

let start ?logs ~path store =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let wall = Wall.create () and stats = { Server.commands = 0; batches = 0 } in
  let listener =
    match logs with
    | None -> Server.serve_unix ~stats ~wall ~path store
    | Some logs -> listen_traced ~stats ~wall ~path store logs
  in
  { listener; domain = Domain.spawn (fun () -> Wall.run ~domains:1 wall); path; stats }

(* Call once every client connection is closed: closing the listener
   ends the accept fiber, and [Wall.run] returns once the connection
   fibers have seen EOF. *)
let stop t =
  Unix.close t.listener;
  Domain.join t.domain;
  try Unix.unlink t.path with Unix.Unix_error _ -> ()
