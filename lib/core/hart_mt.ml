(* One reader/writer lock per ART (§III-A.3), realised by instantiating
   the generic striped front end over HART: the shard id is the hash
   key's directory hash, so all keys of one hash prefix — one ART —
   always map to the same stripe and the paper's admission protocol
   holds exactly. The layers below (Hash_dir, Epalloc, Microlog, Meter,
   Pmem) are domain-safe on their own, so HART declares
   [volatile_domain_safe] and the functor uses stripe locks alone:
   no structure lock, no global serialisation point, operations on
   distinct stripes proceed in parallel. *)

module S : Index_intf.S with type t = Hart.t = struct
  type t = Hart.t

  let name = "hart"
  let create pool = Hart.create pool
  let recover pool = Hart.recover pool
  let insert = Hart.insert
  let search = Hart.search
  let update = Hart.update
  let delete = Hart.delete
  let range = Hart.range
  let iter = Hart.iter
  let count = Hart.count
  let dram_bytes = Hart.dram_bytes
  let pm_bytes = Hart.pm_bytes

  let check_integrity t = Hart.check_integrity t

  (* one ART = one shard: writes to distinct ARTs commute durably
     (disjoint subtrees, disjoint leaf/value objects, domain-safe
     shared layers below) *)
  let stripe_of_key t key = Hash_dir.hash_prefix key (Hart.kh t)
  let volatile_domain_safe = true
  let restructures _ ~op:_ ~key:_ = false
end

module M = Striped_mt.Make (S)

type t = M.t

let create ?kh pool = M.of_index (Hart.create ?kh pool)
let of_hart = M.of_index
let recover = M.recover
let underlying = M.underlying
let art_lock = M.stripe_lock
let insert = M.insert
let search = M.search
let update = M.update
let delete = M.delete
let rmw = M.rmw
let apply_batch = M.apply_batch
let count = M.count
