(* The KV service: per-connection fibers speaking the RESP subset
   (resp.ml) over any transport (transport.ml), driving a striped
   concurrent index.

   Pipelining and write batching. A client may send many requests
   without waiting; each read from the transport drains whatever burst
   has arrived and parses every complete frame in it. Consecutive
   writes (SET/DEL) are not applied one lock round-trip at a time:
   they accumulate and go through [apply_batch] — one write-lock
   acquisition per touched stripe — when the burst ends, a read
   command needs the store, or the batch cap is reached. Replies are
   emitted strictly in request order, and a write is only acknowledged
   after its batch has been applied, so per-connection reads see the
   connection's own writes and an acknowledged write is linearized
   (each batched op commits individually under its stripe lock; the
   batch is an amortisation of lock traffic, not an atomicity unit).
   All replies of one burst leave in a single transport write.

   SCAN is served from the underlying index without global admission —
   a best-effort snapshot (Redis-SCAN-grade guarantees): it never tears
   an individual binding, but concurrent writers may or may not appear.
   DESIGN.md §16 discusses why full range isolation is not offered. *)

module Index_intf = Hart_core.Index_intf
module Hart = Hart_core.Hart
module Hart_mt = Hart_core.Hart_mt
module Scheduler = Hart_async.Scheduler

type store = {
  s_get : string -> string option;
  s_scan : string -> string -> (string * string) list;
  s_batch : Index_intf.batch_op list -> bool array;
}

let store_of_hart (t : Hart_mt.t) =
  {
    s_get = (fun k -> Hart_mt.search t k);
    s_scan =
      (fun lo hi ->
        let acc = ref [] in
        Hart.range (Hart_mt.underlying t) ~lo ~hi (fun k v ->
            acc := (k, v) :: !acc);
        List.rev !acc);
    s_batch = (fun ops -> Hart_mt.apply_batch t ops);
  }

type stats = { mutable commands : int; mutable batches : int }

(* HART stores keys of 1..24 bytes and values of at most 31. A SET
   outside them is answered with an error before it is batched: inside
   [apply_batch] it would raise and fail the whole batch, acked or
   not. *)
let max_value_len = Hart_core.Chunk.obj_size Hart_core.Chunk.Val32 - 1

let refuse_set k v =
  let n = String.length k and m = String.length v in
  if n < 1 || n > Hart_core.Leaf.max_key_len then
    Some (Printf.sprintf "key must be 1..%d bytes (got %d)" Hart_core.Leaf.max_key_len n)
  else if m > max_value_len then
    Some (Printf.sprintf "value must be at most %d bytes (got %d)" max_value_len m)
  else None

let serve_conn ?(max_batch = 256) ?stats store (c : Transport.conn) =
  let out = Buffer.create 4096 in
  let pending = ref [] (* reversed *) and pending_n = ref 0 in
  let flush_writes () =
    match List.rev !pending with
    | [] -> ()
    | ops ->
        let res = store.s_batch ops in
        (match stats with
        | Some s -> s.batches <- s.batches + 1
        | None -> ());
        List.iteri
          (fun i op ->
            match op with
            | Index_intf.Bset _ -> Resp.ok out
            | Index_intf.Bdel _ -> Resp.int out (if res.(i) then 1 else 0))
          ops;
        pending := [];
        pending_n := 0
  in
  let push op =
    pending := op :: !pending;
    incr pending_n;
    if !pending_n >= max_batch then flush_writes ()
  in
  let quit = ref false in
  let handle = function
    | Resp.Set (k, v) -> (
        match refuse_set k v with
        | None -> push (Index_intf.Bset (k, v))
        | Some msg ->
            flush_writes ();
            Resp.err out msg)
    | Resp.Del k -> push (Index_intf.Bdel k)
    | Resp.Get k -> (
        flush_writes ();
        match store.s_get k with
        | Some v -> Resp.bulk out v
        | None -> Resp.null out)
    | Resp.Scan (lo, hi) ->
        flush_writes ();
        let kvs = store.s_scan lo hi in
        Resp.array_header out (2 * List.length kvs);
        List.iter
          (fun (k, v) ->
            Resp.bulk out k;
            Resp.bulk out v)
          kvs
    | Resp.Ping ->
        flush_writes ();
        Resp.pong out
    | Resp.Quit ->
        flush_writes ();
        Resp.ok out;
        quit := true
  in
  let chunk = Bytes.create 8192 in
  let acc = ref "" in
  (try
     while not !quit do
       let n = c.read chunk 0 (Bytes.length chunk) in
       if n = 0 then quit := true
       else begin
         acc := !acc ^ Bytes.sub_string chunk 0 n;
         let pos = ref 0 and more = ref true in
         while !more && not !quit do
           match Resp.parse !acc !pos with
           | Resp.Cmd (cmd, p) ->
               (match stats with
               | Some s -> s.commands <- s.commands + 1
               | None -> ());
               pos := p;
               handle cmd
           | Resp.Error (msg, p) ->
               flush_writes ();
               Resp.err out msg;
               pos := p
           | Resp.Incomplete -> more := false
         done;
         acc := String.sub !acc !pos (String.length !acc - !pos);
         flush_writes ();
         if Buffer.length out > 0 then begin
           c.write (Buffer.contents out);
           Buffer.clear out
         end
       end
     done
   with _ -> () (* a dying connection must not take the executor down *));
  (* Epilogue, on EVERY exit path — EOF, QUIT, an abrupt drop
     ([Transport.Dropped]) or any other transport/protocol failure: a
     write request that was fully received must still commit and be
     durable even though its client is gone (the ack⇒durable contract
     only strengthens this: an un-acknowledged-but-received write may
     land, and a half-received frame never parsed, so committing the
     parsed tail is always admissible). Each step is individually
     guarded: a dead transport must not stop the flush, and a failing
     flush must not leak the connection. *)
  (try flush_writes () with _ -> ());
  (try if Buffer.length out > 0 then c.write (Buffer.contents out)
   with _ -> ());
  c.close ()

(* ------------------------------------------------------------------ *)
(* Front doors                                                          *)

let connect_loopback ?max_batch ?stats ~spawn store =
  let client, server = Transport.pair () in
  spawn (fun () -> serve_conn ?max_batch ?stats store server);
  client

let serve_unix ?max_batch ?stats ~wall ~path store =
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 64;
  Unix.set_nonblock srv;
  Scheduler.Wall.spawn wall (fun () ->
      let rec accept_loop () =
        match Unix.accept srv with
        | fd, _ ->
            let conn =
              Transport.of_fd
                ~wait_readable:(Scheduler.Wall.wait_readable wall)
                ~wait_writable:(Scheduler.Wall.wait_writable wall)
                fd
            in
            Scheduler.Wall.spawn wall (fun () ->
                serve_conn ?max_batch ?stats store conn);
            accept_loop ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            Scheduler.Wall.wait_readable wall srv;
            accept_loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | exception Unix.Unix_error _ ->
            (* listener closed: shutdown requested *)
            ()
      in
      accept_loop ());
  srv
