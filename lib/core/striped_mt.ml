(* The concurrency layer as a functor: one striped-Rwlock front end
   over any index that can name its commuting shards (Index_intf.S).

   This generalises the per-ART reader/writer protocol the paper gives
   for HART (§III-A.3, §IV-G): a fixed array of reader/writer stripes
   indexed by [I.stripe_of_key] — all keys of one shard always map to
   one stripe, so writes on distinct shards proceed in parallel while
   same-shard writers serialise. A fixed array needs no lock-table
   mutex on the hot path, and a stripe collision between distinct
   shards only adds conservative exclusion, never admits too much.

   Indexes whose volatile layers are not themselves domain-safe
   (FPTree's unsynchronised DRAM inner nodes, WOART's shared radix
   nodes and registry free list) additionally get a single [structure]
   reader/writer lock: non-restructuring operations hold it shared
   (keeping the routing — and hence the key's stripe — stable while
   they work), restructuring ones hold it exclusively. Lock order is
   structure before stripe, and a restructuring operation takes no
   stripe at all, so there is no cycle. The [I.restructures] prediction
   is re-checked under the stripe lock (a same-shard writer can fill
   the last leaf slot while we wait) and the operation retried on the
   exclusive path when it went stale — the retry releases its write
   lock without completing, which is why the crash explorer's commit
   signal is [Mt_hook.fire], not the lock release itself.

   [Mt_hook.fire] runs after the operation's last persist and
   immediately before the final write-lock release, with no yield in
   between, so under the cooperative scheduler the fire order is
   exactly the durable linearization order. It is a no-op outside the
   explorer. *)

module Sched_hook = Hart_util.Sched_hook

let n_stripes = 512 (* power of two, >> expected domain count *)

module Make (I : Index_intf.S) : Index_intf.MT with type index = I.t = struct
  type index = I.t

  type t = {
    idx : I.t;
    stripes : Rwlock.t array;
    structure : Rwlock.t; (* consulted only when not I.volatile_domain_safe *)
  }

  let name = I.name

  let of_index idx =
    {
      idx;
      stripes = Array.init n_stripes (fun _ -> Rwlock.create ());
      structure = Rwlock.create ();
    }

  let create pool = of_index (I.create pool)
  let recover pool = of_index (I.recover pool)
  let underlying t = t.idx

  let stripe_lock t key =
    t.stripes.(I.stripe_of_key t.idx key land (n_stripes - 1))

  (* [f idx a] under [l]'s read lock. The lock is taken and released
     inline, a raise releasing it as it propagates, so a read builds no
     closure; the release yield point is on the normal path only. *)
  let under_read l f idx a =
    Rwlock.read_lock l;
    match f idx a with
    | r ->
        Rwlock.read_unlock l;
        Sched_hook.yield ();
        r
    | exception e ->
        Rwlock.read_unlock l;
        raise e

  (* [f idx a b] under [l]'s write lock, [Mt_hook.fire] after it and
     before the release, inline like [under_read]. *)
  let under_write l f idx a b =
    Rwlock.write_lock l;
    match
      let r = f idx a b in
      Mt_hook.fire ();
      r
    with
    | r ->
        Rwlock.write_unlock l;
        Sched_hook.yield ();
        r
    | exception e ->
        Rwlock.write_unlock l;
        raise e

  let read t key f a =
    if I.volatile_domain_safe then under_read (stripe_lock t key) f t.idx a
    else
      Rwlock.with_read t.structure (fun () -> under_read (stripe_lock t key) f t.idx a)

  (* Exclusive path: restructuring (or conservatively classified)
     mutations own the whole structure; no stripe is needed. *)
  let exclusive t f =
    Rwlock.with_write t.structure (fun () ->
        let r = f t.idx in
        Mt_hook.fire ();
        r)

  let mutate t ~op ~key f a b =
    if I.volatile_domain_safe then under_write (stripe_lock t key) f t.idx a b
    else
      match
        Rwlock.with_read t.structure (fun () ->
            (* prediction and stripe selection both happen under the
               shared structure lock, where the routing is stable *)
            if I.restructures t.idx ~op ~key then `Retry
            else
              Rwlock.with_write (stripe_lock t key) (fun () ->
                  if I.restructures t.idx ~op ~key then `Retry
                  else begin
                    let r = f t.idx a b in
                    Mt_hook.fire ();
                    `Done r
                  end))
      with
      | `Done r -> r
      | `Retry -> exclusive t (fun idx -> f idx a b)

  (* The operations as functions of the index, built once *)
  let insert_in idx key value = I.insert idx ~key ~value
  let update_in idx key value = I.update idx ~key ~value
  let delete_in idx key () = I.delete idx key

  let rmw_in idx key f =
    let value = f (I.search idx key) in
    I.insert idx ~key ~value

  let insert t ~key ~value = mutate t ~op:`Insert ~key insert_in key value
  let search t key = read t key I.search key
  let update t ~key ~value = mutate t ~op:`Update ~key update_in key value
  let delete t key = mutate t ~op:`Delete ~key delete_in key ()
  let rmw t ~key f = mutate t ~op:`Insert ~key rmw_in key f

  let apply_one idx = function
    | Index_intf.Bset (key, value) ->
        I.insert idx ~key ~value;
        true
    | Index_intf.Bdel key -> I.delete idx key

  (* Pipelined writes, one lock acquisition per touched stripe. Only
     the domain-safe path batches: [stripe_of_key] is a pure function
     of the key there, so grouping needs no lock, and groups hold no
     two locks at once — no ordering cycle with concurrent batches.
     Groups run in first-appearance order of their stripe (determinism
     under the simulated executor); within a group, submission order. *)
  let apply_batch t ops =
    let ops = Array.of_list ops in
    let res = Array.make (Array.length ops) false in
    if I.volatile_domain_safe then begin
      let groups = Hashtbl.create 8 in
      let order = ref [] in
      Array.iteri
        (fun i op ->
          let key =
            match op with Index_intf.Bset (k, _) | Index_intf.Bdel k -> k
          in
          let s = I.stripe_of_key t.idx key land (n_stripes - 1) in
          match Hashtbl.find_opt groups s with
          | Some is -> is := i :: !is
          | None ->
              Hashtbl.add groups s (ref [ i ]);
              order := s :: !order)
        ops;
      List.iter
        (fun s ->
          let is = List.rev !(Hashtbl.find groups s) in
          Rwlock.with_write t.stripes.(s) (fun () ->
              List.iter
                (fun i ->
                  Mt_hook.batch_start i;
                  res.(i) <- apply_one t.idx ops.(i);
                  Mt_hook.fire_batch i)
                is))
        (List.rev !order)
    end
    else
      Array.iteri
        (fun i op ->
          res.(i) <-
            (match op with
            | Index_intf.Bset (key, value) ->
                insert t ~key ~value;
                true
            | Index_intf.Bdel key -> delete t key))
        ops;
    res

  let count t = I.count t.idx
  let iter t f = I.iter t.idx f
  let check_integrity t = I.check_integrity t.idx
end
