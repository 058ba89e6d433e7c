(* The extracted fiber runtime (lib/async): determinism and fairness of
   the simulated executor, the park/wake no-lost-wakeup contract on
   both executors, the wall-clock executor across real domains, and the
   loopback KV service driven deterministically under Sim. *)

module Rng = Hart_util.Rng
module Scheduler = Hart_async.Scheduler
module Sim_net = Hart_async.Sim_net
module Hart_mt = Hart_core.Hart_mt
module Resp = Hart_server.Resp
module Transport = Hart_server.Transport
module Server = Hart_server.Server
module Pmem = Hart_pmem.Pmem
module Meter = Hart_pmem.Meter
module Latency = Hart_pmem.Latency

(* ------------------------------------------------------------------ *)
(* Sim: determinism                                                    *)

(* Run [fibers] yielding fibers under seed [seed]; the trace records
   (fiber, step-ordinal) pairs in execution order. *)
let sim_trace ~seed ~fibers ~yields =
  let sim = Scheduler.Sim.create ~rng:(Rng.create seed) () in
  let trace = ref [] in
  for i = 0 to fibers - 1 do
    ignore
      (Scheduler.Sim.spawn sim (fun () ->
           for s = 0 to yields - 1 do
             trace := (i, s) :: !trace;
             Scheduler.yield ()
           done)
        : int)
  done;
  Scheduler.Sim.run sim;
  List.rev !trace

let same_seed_same_trace () =
  let a = sim_trace ~seed:7L ~fibers:5 ~yields:20 in
  let b = sim_trace ~seed:7L ~fibers:5 ~yields:20 in
  Alcotest.(check bool) "bit-identical trace" true (a = b);
  Alcotest.(check int) "complete trace" (5 * 20) (List.length a)

let different_seed_different_trace () =
  let a = sim_trace ~seed:7L ~fibers:5 ~yields:20 in
  let c = sim_trace ~seed:8L ~fibers:5 ~yields:20 in
  (* 100 interleaved steps agreeing across seeds would mean the RNG is
     not consulted at all *)
  Alcotest.(check bool) "seed matters" false (a = c)

(* ------------------------------------------------------------------ *)
(* Sim: fairness — every fiber finishes under random yields            *)

let all_fibers_complete () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 99L) () in
  let wrng = Rng.create 1234L in
  let done_ = Array.make 16 false in
  for i = 0 to 15 do
    ignore
      (Scheduler.Sim.spawn sim (fun () ->
           for _ = 0 to Rng.int wrng 50 do
             Scheduler.yield ()
           done;
           done_.(i) <- true)
        : int)
  done;
  Scheduler.Sim.run sim;
  Alcotest.(check bool) "all complete" true (Array.for_all Fun.id done_);
  Alcotest.(check int) "none live" 0 (Scheduler.Sim.live sim)

(* ------------------------------------------------------------------ *)
(* Sim: park/wake                                                      *)

let park_wake_handoff () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 3L) () in
  let wake = ref (fun () -> assert false) in
  let order = ref [] in
  let consumer =
    Scheduler.Sim.spawn sim (fun () ->
        order := `C_parks :: !order;
        Scheduler.park (fun w -> wake := w);
        order := `C_woke :: !order)
  in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         order := `P_wakes :: !order;
         !wake ();
         (* duplicate wake must be a no-op *)
         !wake ())
      : int)
  |> ignore;
  (* step the consumer first so it parks before the producer runs *)
  Scheduler.Sim.step sim consumer;
  Alcotest.(check bool) "blocked while parked" true
    (Scheduler.Sim.state sim consumer = `Blocked);
  Scheduler.Sim.run sim;
  Alcotest.(check bool) "consumer resumed exactly once" true
    (List.rev !order = [ `C_parks; `P_wakes; `C_woke ]
    || List.rev !order = [ `P_wakes; `C_parks; `C_woke ]);
  Alcotest.(check int) "none live" 0 (Scheduler.Sim.live sim)

(* the condition already holds: register wakes synchronously, and the
   fiber must still resume (armed-before-register contract) *)
let park_immediate_wake () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 4L) () in
  let resumed = ref false in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         Scheduler.park (fun w -> w ());
         resumed := true)
      : int);
  Scheduler.Sim.run sim;
  Alcotest.(check bool) "no lost wakeup" true !resumed

(* a stale wake from a previous park must not resume a later park *)
let stale_wake_ignored () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 5L) () in
  let stale = ref (fun () -> ()) in
  let fresh = ref (fun () -> ()) in
  let stage = ref 0 in
  let sleeper =
    Scheduler.Sim.spawn sim (fun () ->
        Scheduler.park (fun w ->
            stale := w;
            w ());
        stage := 1;
        Scheduler.park (fun w -> fresh := w);
        stage := 2)
  in
  Scheduler.Sim.step sim sleeper;
  (* finished first park synchronously, now blocked on the second *)
  Scheduler.Sim.step sim sleeper;
  Alcotest.(check int) "at second park" 1 !stage;
  !stale ();
  Alcotest.(check bool) "stale wake leaves it blocked" true
    (Scheduler.Sim.state sim sleeper = `Blocked);
  !fresh ();
  Scheduler.Sim.run sim;
  Alcotest.(check int) "fresh wake resumes" 2 !stage

(* ------------------------------------------------------------------ *)
(* Wall executor                                                       *)

let wall_runs_fibers () =
  let wall = Scheduler.Wall.create () in
  let n = 64 in
  let hits = Atomic.make 0 in
  for _ = 1 to n do
    Scheduler.Wall.spawn wall (fun () ->
        Scheduler.yield ();
        Atomic.incr hits;
        Scheduler.yield ())
  done;
  Scheduler.Wall.run ~domains:4 wall;
  Alcotest.(check int) "all fibers ran" n (Atomic.get hits)

let wall_park_wake_cross_fiber () =
  let wall = Scheduler.Wall.create () in
  let wake = Atomic.make None in
  let got = Atomic.make false in
  Scheduler.Wall.spawn wall (fun () ->
      Scheduler.park (fun w -> Atomic.set wake (Some w));
      Atomic.set got true);
  Scheduler.Wall.spawn wall (fun () ->
      let rec wait () =
        match Atomic.get wake with
        | Some w -> w ()
        | None ->
            Scheduler.yield ();
            wait ()
      in
      wait ());
  Scheduler.Wall.run ~domains:2 wall;
  Alcotest.(check bool) "parked fiber woken across fibers" true
    (Atomic.get got)

let wall_propagates_failure () =
  let wall = Scheduler.Wall.create () in
  Scheduler.Wall.spawn wall (fun () ->
      Scheduler.yield ();
      failwith "fiber died");
  Alcotest.check_raises "first failure re-raised" (Failure "fiber died")
    (fun () -> Scheduler.Wall.run ~domains:2 wall)

(* ------------------------------------------------------------------ *)
(* RESP parser                                                         *)

let resp_parse () =
  let check_cmd s want =
    match Resp.parse s 0 with
    | Resp.Cmd (c, p) ->
        Alcotest.(check bool) "cmd" true (c = want);
        Alcotest.(check int) "consumed all" (String.length s) p
    | Resp.Error (m, _) -> Alcotest.failf "unexpected error %s on %S" m s
    | Resp.Incomplete -> Alcotest.failf "unexpected incomplete on %S" s
  in
  check_cmd "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" (Resp.Get "k");
  check_cmd "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nvv\r\n" (Resp.Set ("k", "vv"));
  check_cmd "PING\r\n" Resp.Ping;
  check_cmd "set a b\r\n" (Resp.Set ("a", "b"));
  (* every strict prefix of a frame is Incomplete and consumes nothing *)
  let full = "*2\r\n$3\r\nDEL\r\n$2\r\nab\r\n" in
  for n = 0 to String.length full - 1 do
    match Resp.parse (String.sub full 0 n) 0 with
    | Resp.Incomplete -> ()
    | _ -> Alcotest.failf "prefix of %d bytes not Incomplete" n
  done;
  (* protocol errors skip past the offending line *)
  (match Resp.parse "BOGUS x\r\nPING\r\n" 0 with
  | Resp.Error (_, p) -> (
      match Resp.parse "BOGUS x\r\nPING\r\n" p with
      | Resp.Cmd (Resp.Ping, _) -> ()
      | _ -> Alcotest.fail "no resync after error")
  | _ -> Alcotest.fail "unknown command not an error");
  (* client-side framing of a reply burst *)
  let burst = "+OK\r\n$-1\r\n:1\r\n*2\r\n$1\r\nk\r\n$1\r\nv\r\n" in
  let rec count pos acc =
    match Resp.reply_skip burst pos with
    | None -> (acc, pos)
    | Some p -> count p (acc + 1)
  in
  let frames, fin = count 0 0 in
  Alcotest.(check int) "four reply frames" 4 frames;
  Alcotest.(check int) "burst fully consumed" (String.length burst) fin

(* ------------------------------------------------------------------ *)
(* RESP parser: properties — the incremental parser must be invariant
   under arbitrary byte-chunk fragmentation, including across frames
   that need error resynchronization *)

type wire_item = Valid of string list | Junk of string

let item_cmd = function
  | Valid [ "PING" ] -> Resp.Ping
  | Valid [ "GET"; k ] -> Resp.Get k
  | Valid [ "SET"; k; v ] -> Resp.Set (k, v)
  | Valid [ "DEL"; k ] -> Resp.Del k
  | Valid w -> Alcotest.failf "bad generator item %s" (String.concat " " w)
  | Junk _ -> assert false

let encode_items items =
  let b = Buffer.create 256 in
  List.iter
    (function
      | Valid words -> Resp.request b words
      | Junk w ->
          (* an inline line whose command word is guaranteed unknown:
             the parser must flag it and resume past the line *)
          Buffer.add_string b "ZZZ ";
          Buffer.add_string b w;
          Buffer.add_string b "\r\n")
    items;
  Buffer.contents b

(* split [s] into chunks whose sizes cycle through [cuts] *)
let fragment cuts s =
  let cuts = if cuts = [] then [ 1 ] else cuts in
  let n = String.length s in
  let rec go pos cs acc =
    if pos >= n then List.rev acc
    else
      let c, cs = match cs with [] -> (List.hd cuts, cuts) | c :: tl -> (c, tl) in
      let c = max 1 (min c (n - pos)) in
      go (pos + c) cs (String.sub s pos c :: acc)
  in
  go 0 cuts []

(* feed chunks through the same accumulate/parse/carry loop serve_conn
   runs; returns the parsed tag stream and the unconsumed remainder *)
let parse_stream chunks =
  let pending = ref "" in
  let out = ref [] in
  List.iter
    (fun chunk ->
      let s = !pending ^ chunk in
      pending := "";
      let rec go pos =
        match Resp.parse s pos with
        | Resp.Cmd (c, p) ->
            out := `Cmd c :: !out;
            go p
        | Resp.Error (_, p) ->
            out := `Err :: !out;
            go p
        | Resp.Incomplete ->
            pending := String.sub s pos (String.length s - pos)
      in
      go 0)
    chunks;
  (List.rev !out, !pending)

let print_wire (items, cuts) =
  Printf.sprintf "[%s] cuts=[%s]"
    (String.concat "; "
       (List.map
          (function
            | Valid w -> String.concat " " w
            | Junk w -> "JUNK " ^ w)
          items))
    (String.concat ";" (List.map string_of_int cuts))

let gen_lc = QCheck.Gen.map (fun i -> Char.chr (Char.code 'a' + i)) (QCheck.Gen.int_bound 25)

let gen_key = QCheck.Gen.string_size ~gen:gen_lc QCheck.Gen.(int_range 1 8)
let gen_value = QCheck.Gen.string_size ~gen:gen_lc QCheck.Gen.(int_range 0 10)

let gen_valid =
  QCheck.Gen.(
    frequency
      [
        (1, return (Valid [ "PING" ]));
        (3, map (fun k -> Valid [ "GET"; k ]) gen_key);
        (4, map2 (fun k v -> Valid [ "SET"; k; v ]) gen_key gen_value);
        (2, map (fun k -> Valid [ "DEL"; k ]) gen_key);
      ])

let gen_cuts = QCheck.Gen.(list_size (int_range 0 20) (int_range 1 17))

let expect_tags items =
  List.map
    (function Junk _ -> `Err | v -> `Cmd (item_cmd v))
    items

let qcheck_resp_fragmentation =
  let arb =
    QCheck.make ~print:print_wire
      QCheck.Gen.(pair (list_size (int_range 1 12) gen_valid) gen_cuts)
  in
  QCheck.Test.make ~count:300
    ~name:"resp: any fragmentation round-trips the request stream" arb
    (fun (items, cuts) ->
      let burst = encode_items items in
      let got, pending = parse_stream (fragment cuts burst) in
      let oneshot, oneshot_pending = parse_stream [ burst ] in
      got = expect_tags items && pending = "" && got = oneshot
      && oneshot_pending = "")

let qcheck_resp_resync =
  let arb =
    QCheck.make ~print:print_wire
      QCheck.Gen.(
        pair
          (list_size (int_range 1 12)
             (frequency
                [ (3, gen_valid); (2, map (fun w -> Junk w) gen_key) ]))
          gen_cuts)
  in
  QCheck.Test.make ~count:300
    ~name:"resp: error resync survives any fragmentation" arb
    (fun (items, cuts) ->
      let burst = encode_items items in
      let got, pending = parse_stream (fragment cuts burst) in
      (* one Error per junk line, valid commands recovered in order,
         nothing left over *)
      got = expect_tags items && pending = "")

(* ------------------------------------------------------------------ *)
(* Sim_net: seeded fragmentation, graceful EOF, hard drops             *)

let sim_net_graceful_deterministic () =
  let msg = String.init 700 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let run seed =
    let sim = Scheduler.Sim.create ~rng:(Rng.create 51L) () in
    let net = Sim_net.create ~seed () in
    let a, b = Sim_net.pair net in
    let got = Buffer.create 700 in
    let sizes = ref [] in
    ignore
      (Scheduler.Sim.spawn sim (fun () ->
           a.Sim_net.ep_write msg;
           a.Sim_net.ep_close ())
        : int);
    ignore
      (Scheduler.Sim.spawn sim (fun () ->
           let buf = Bytes.create 128 in
           let rec pump () =
             let n = b.Sim_net.ep_read buf 0 (Bytes.length buf) in
             if n > 0 then begin
               sizes := n :: !sizes;
               Buffer.add_subbytes got buf 0 n;
               pump ()
             end
           in
           pump ())
        : int);
    Scheduler.Sim.run sim;
    Alcotest.(check bool) "graceful close, not a drop" false
      (b.Sim_net.ep_dropped ());
    (Buffer.contents got, List.rev !sizes)
  in
  let m1, s1 = run 21L in
  let m2, s2 = run 21L in
  let _, s3 = run 22L in
  Alcotest.(check string) "delivered intact through EOF" msg m1;
  Alcotest.(check bool) "same net seed, same read sizes" true
    (m1 = m2 && s1 = s2);
  Alcotest.(check bool) "actually fragmented" true (List.length s1 > 1);
  Alcotest.(check bool) "net seed drives fragmentation" false (s1 = s3)

let sim_net_drop_loses_buffered () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 52L) () in
  let net = Sim_net.create ~seed:23L () in
  let a, b = Sim_net.pair ~drop_after:64 net in
  let writer_dropped = ref false in
  let reader_dropped = ref false in
  let received = ref 0 in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         try a.Sim_net.ep_write (String.make 256 'x')
         with Sim_net.Dropped -> writer_dropped := true)
      : int);
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         let buf = Bytes.create 64 in
         try
           let rec pump () =
             let n = b.Sim_net.ep_read buf 0 (Bytes.length buf) in
             if n > 0 then begin
               received := !received + n;
               pump ()
             end
           in
           pump ()
         with Sim_net.Dropped -> reader_dropped := true)
      : int);
  Scheduler.Sim.run sim;
  Alcotest.(check bool) "write raises mid-delivery" true !writer_dropped;
  Alcotest.(check bool) "read raises, buffered bytes lost (RST)" true
    !reader_dropped;
  Alcotest.(check bool) "both endpoints flagged" true
    (a.Sim_net.ep_dropped () && b.Sim_net.ep_dropped ());
  Alcotest.(check bool) "fuse bounds delivery" true (!received <= 64)

(* ------------------------------------------------------------------ *)
(* Loopback server under Sim: pipelined echo, deterministic            *)

let mk_store () =
  let pool =
    Pmem.create ~capacity:(1 lsl 21) ~max_capacity:(1 lsl 22)
      (Meter.create Latency.c300_100)
  in
  Server.store_of_hart (Hart_core.Hart_mt.create pool)

let req words =
  let b = Buffer.create 64 in
  Resp.request b words;
  Buffer.contents b

(* Drive one pipelined burst through the loopback service under Sim and
   return the raw reply bytes. *)
let loopback_session ~seed burst expect_frames =
  let sim = Scheduler.Sim.create ~rng:(Rng.create seed) () in
  let store = mk_store () in
  let spawn f = ignore (Scheduler.Sim.spawn sim f : int) in
  let out = Buffer.create 256 in
  spawn (fun () ->
      let c =
        Server.connect_loopback
          ~spawn:(fun f -> ignore (Scheduler.Sim.spawn sim f : int))
          store
      in
      c.Transport.write burst;
      let chunk = Bytes.create 256 in
      let frames = ref 0 in
      while !frames < expect_frames do
        let n = c.Transport.read chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "server closed early";
        Buffer.add_subbytes out chunk 0 n;
        let s = Buffer.contents out in
        let rec count pos acc =
          match Resp.reply_skip s pos with
          | None -> acc
          | Some p -> count p (acc + 1)
        in
        frames := count 0 0
      done;
      c.Transport.close ());
  Scheduler.Sim.run sim;
  Buffer.contents out

let loopback_pipelined_echo () =
  let burst =
    String.concat ""
      [
        req [ "PING" ];
        req [ "SET"; "a"; "1" ];
        req [ "SET"; "b"; "2" ];
        req [ "GET"; "a" ];
        req [ "DEL"; "a" ];
        req [ "GET"; "a" ];
        req [ "DEL"; "a" ];
        req [ "SCAN"; "a"; "z" ];
        req [ "QUIT" ];
      ]
  in
  let want =
    "+PONG\r\n+OK\r\n+OK\r\n$1\r\n1\r\n:1\r\n$-1\r\n:0\r\n*2\r\n$1\r\nb\r\n$1\r\n2\r\n+OK\r\n"
  in
  let got = loopback_session ~seed:11L burst 9 in
  Alcotest.(check string) "replies in request order" want got;
  (* the whole session — client, server fiber, batching — is a pure
     function of the seed *)
  let again = loopback_session ~seed:11L burst 9 in
  Alcotest.(check string) "deterministic replay" want again

(* A SET whose key or value HART cannot store is answered with an error
   before it is batched; the writes around it commit and the rest of the
   burst is served in order. *)
let loopback_refused_set () =
  let burst =
    String.concat ""
      [
        req [ "SET"; "a"; "1" ];
        req [ "SET"; String.make 25 'k'; "x" ];
        req [ "SET"; "b"; "2" ];
        req [ "SET"; "c"; String.make 32 'v' ];
        req [ "GET"; "a" ];
        req [ "GET"; "b" ];
        req [ "GET"; "c" ];
        req [ "PING" ];
      ]
  in
  let want =
    "+OK\r\n-ERR key must be 1..24 bytes (got 25)\r\n+OK\r\n\
     -ERR value must be at most 31 bytes (got 32)\r\n$1\r\n1\r\n$1\r\n2\r\n$-1\r\n+PONG\r\n"
  in
  Alcotest.(check string) "errors in request order" want (loopback_session ~seed:17L burst 8)

(* split the same burst byte-by-byte across writes: the incremental
   parser must produce the identical reply stream *)
let loopback_fragmented () =
  let burst = String.concat "" [ req [ "SET"; "k"; "v" ]; req [ "GET"; "k" ] ] in
  let sim = Scheduler.Sim.create ~rng:(Rng.create 13L) () in
  let store = mk_store () in
  let out = Buffer.create 64 in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         let c =
           Server.connect_loopback
             ~spawn:(fun f -> ignore (Scheduler.Sim.spawn sim f : int))
             store
         in
         String.iter (fun ch -> c.Transport.write (String.make 1 ch)) burst;
         let chunk = Bytes.create 64 in
         let rec pump () =
           let n = c.Transport.read chunk 0 (Bytes.length chunk) in
           if n > 0 then begin
             Buffer.add_subbytes out chunk 0 n;
             if Buffer.length out < String.length "+OK\r\n$1\r\nv\r\n" then
               pump ()
           end
         in
         pump ();
         c.Transport.close ())
      : int);
  Scheduler.Sim.run sim;
  Alcotest.(check string) "fragmented writes parse identically"
    "+OK\r\n$1\r\nv\r\n" (Buffer.contents out)

(* ------------------------------------------------------------------ *)
(* serve_conn × client disconnect mid-pipelined-batch: fully received
   writes must still commit and be durable even though their replies
   have nowhere to go (DESIGN.md §17)                                  *)

let mk_pool () =
  Pmem.create ~capacity:(1 lsl 21) ~max_capacity:(1 lsl 22)
    (Meter.create Latency.c300_100)

let kvs = [ ("d1", "x"); ("d2", "y"); ("d3", "z") ]

let burst_of kvs =
  String.concat "" (List.map (fun (k, v) -> req [ "SET"; k; v ]) kvs)

(* recover from a crash-consistent snapshot of the pool and read back *)
let recovered_get pool k = Hart_mt.search (Hart_mt.recover (Pmem.clone pool)) k

let disconnect_graceful_commits () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 61L) () in
  let pool = mk_pool () in
  let store = Server.store_of_hart (Hart_mt.create pool) in
  let net = Sim_net.create ~seed:62L () in
  let sv, cl = Sim_net.pair net in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         Server.serve_conn store (Transport.of_sim_net sv))
      : int);
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         (* write the whole pipelined burst, then vanish without ever
            reading a reply *)
         cl.Sim_net.ep_write (burst_of kvs);
         cl.Sim_net.ep_close ())
      : int);
  Scheduler.Sim.run sim;
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("committed " ^ k) (Some v)
        (store.Server.s_get k);
      Alcotest.(check (option string)) ("durable " ^ k) (Some v)
        (recovered_get pool k))
    kvs

let disconnect_abrupt_commits () =
  let sim = Scheduler.Sim.create ~rng:(Rng.create 63L) () in
  let pool = mk_pool () in
  let store = Server.store_of_hart (Hart_mt.create pool) in
  let net = Sim_net.create ~seed:64L () in
  let burst = burst_of kvs in
  (* the fuse outlives the request bytes but not the replies: the
     connection hard-drops while the server is acknowledging, i.e.
     after the writes were received *)
  let sv, cl = Sim_net.pair ~drop_after:(String.length burst + 6) net in
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         Server.serve_conn store (Transport.of_sim_net sv))
      : int);
  ignore
    (Scheduler.Sim.spawn sim (fun () ->
         try
           cl.Sim_net.ep_write burst;
           let buf = Bytes.create 64 in
           while cl.Sim_net.ep_read buf 0 (Bytes.length buf) > 0 do
             ()
           done
         with Sim_net.Dropped -> ())
      : int);
  Scheduler.Sim.run sim;
  Alcotest.(check bool) "session hard-dropped" true (sv.Sim_net.ep_dropped ());
  (* every fully received write committed: the committed keys form a
     prefix of the pipelined request order, and under this seed the
     whole burst is delivered before the fuse burns *)
  let present = List.map (fun (k, _) -> store.Server.s_get k <> None) kvs in
  let rec is_prefix = function
    | true :: tl -> is_prefix tl
    | rest -> List.for_all not rest
  in
  Alcotest.(check bool) "committed set is a request-order prefix" true
    (is_prefix present);
  Alcotest.(check bool) "writes committed despite the drop" true
    (List.exists Fun.id present);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("recovery agrees on " ^ k)
        (if store.Server.s_get k <> None then Some v else None)
        (recovered_get pool k))
    kvs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "async"
    [
      ( "sim",
        [
          Alcotest.test_case "same seed, bit-identical trace" `Quick
            same_seed_same_trace;
          Alcotest.test_case "different seed, different trace" `Quick
            different_seed_different_trace;
          Alcotest.test_case "all fibers complete" `Quick all_fibers_complete;
        ] );
      ( "park",
        [
          Alcotest.test_case "park/wake handoff" `Quick park_wake_handoff;
          Alcotest.test_case "immediate wake not lost" `Quick
            park_immediate_wake;
          Alcotest.test_case "stale wake ignored" `Quick stale_wake_ignored;
        ] );
      ( "wall",
        [
          Alcotest.test_case "fibers across domains" `Quick wall_runs_fibers;
          Alcotest.test_case "cross-fiber park/wake" `Quick
            wall_park_wake_cross_fiber;
          Alcotest.test_case "failure propagates" `Quick wall_propagates_failure;
        ] );
      ( "resp",
        [
          Alcotest.test_case "parser and framing" `Quick resp_parse;
          QCheck_alcotest.to_alcotest qcheck_resp_fragmentation;
          QCheck_alcotest.to_alcotest qcheck_resp_resync;
        ] );
      ( "sim_net",
        [
          Alcotest.test_case "seeded fragmentation, graceful EOF" `Quick
            sim_net_graceful_deterministic;
          Alcotest.test_case "hard drop loses buffered bytes" `Quick
            sim_net_drop_loses_buffered;
        ] );
      ( "server",
        [
          Alcotest.test_case "loopback pipelined echo" `Quick
            loopback_pipelined_echo;
          Alcotest.test_case "fragmented request stream" `Quick
            loopback_fragmented;
          Alcotest.test_case "graceful disconnect mid-batch commits" `Quick
            disconnect_graceful_commits;
          Alcotest.test_case "abrupt drop mid-batch commits" `Quick
            disconnect_abrupt_commits;
          Alcotest.test_case "unstorable SET refused, burst served" `Quick
            loopback_refused_set;
        ] );
    ]
