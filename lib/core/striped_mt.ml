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

  let read t key f =
    if I.volatile_domain_safe then
      Rwlock.with_read (stripe_lock t key) (fun () -> f t.idx)
    else
      Rwlock.with_read t.structure (fun () ->
          Rwlock.with_read (stripe_lock t key) (fun () -> f t.idx))

  (* Exclusive path: restructuring (or conservatively classified)
     mutations own the whole structure; no stripe is needed. *)
  let exclusive t f =
    Rwlock.with_write t.structure (fun () ->
        let r = f t.idx in
        Mt_hook.fire ();
        r)

  let mutate t ~op ~key f =
    if I.volatile_domain_safe then
      Rwlock.with_write (stripe_lock t key) (fun () ->
          let r = f t.idx in
          Mt_hook.fire ();
          r)
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
                    let r = f t.idx in
                    Mt_hook.fire ();
                    `Done r
                  end))
      with
      | `Done r -> r
      | `Retry -> exclusive t f

  let insert t ~key ~value =
    mutate t ~op:`Insert ~key (fun idx -> I.insert idx ~key ~value)

  let search t key = read t key (fun idx -> I.search idx key)

  let update t ~key ~value =
    mutate t ~op:`Update ~key (fun idx -> I.update idx ~key ~value)

  let delete t key = mutate t ~op:`Delete ~key (fun idx -> I.delete idx key)

  let rmw t ~key f =
    mutate t ~op:`Insert ~key (fun idx ->
        let value = f (I.search idx key) in
        I.insert idx ~key ~value)

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
