(* idx-mixed-1d: [Hart_mt] called directly from worker domains in a
   closed loop, with no RESP, transport or scheduler in the way. Each
   domain replays its own op array over its own share of the keys,
   timing every call and checking every result against its own model of
   those keys (the last version it wrote, or -1 for absent), which is
   exact because no other domain touches them. *)

module Hart_mt = Hart_core.Hart_mt

let now = Loadgen.now

type worker = {
  d : int;
  mutable hists : Hist.t array;  (** latency per op kind, this [run] *)
  mutable pos : int;  (** next op *)
  mutable writes : int;  (** values consumed *)
  mutable failed : int;
  mutable user_bytes : int;  (** key and value bytes written *)
}

let new_hists () = Array.init 4 (fun _ -> Hist.create ())
let worker d = { d; hists = new_hists (); pos = 0; writes = 0; failed = 0; user_bytes = 0 }

(* Run [w]'s ops until [deadline]. [ver] is the model, shared by the
   domains but written only at each domain's own keys. *)
let run_until t (inp : Workload.idx_inputs) ver w ~deadline =
  let ops = inp.ops.(w.d) and vals = inp.vals.(w.d) in
  let keys = inp.iks.keys and tags = inp.iks.tags in
  let n = Array.length ops in
  let go = ref true in
  while !go && w.pos < n do
    let op = ops.(w.pos) in
    let k = op lsr 2 and kind = op land 3 in
    let t0 = now () in
    if t0 >= deadline then go := false
    else begin
      let ok =
        if kind = Workload.op_search then
          match Hart_mt.search t keys.(k) with
          | None -> ver.(k) < 0
          | Some v -> ver.(k) >= 0 && Wire.version_of ~tag:tags.(k) v = ver.(k)
        else if kind = Workload.op_insert then begin
          Hart_mt.insert t ~key:keys.(k) ~value:vals.(w.writes);
          true
        end
        else if kind = Workload.op_update then Hart_mt.update t ~key:keys.(k) ~value:vals.(w.writes)
        else Hart_mt.delete t keys.(k)
      in
      Hist.add w.hists.(kind) (now () - t0);
      if kind = Workload.op_insert || kind = Workload.op_update then begin
        w.writes <- w.writes + 1;
        w.user_bytes <- w.user_bytes + String.length keys.(k) + Gen.value_len;
        ver.(k) <- w.writes
      end
      else if kind = Workload.op_delete then ver.(k) <- -1;
      if not ok then w.failed <- w.failed + 1;
      w.pos <- w.pos + 1
    end
  done

let ops_done ws = List.fold_left (fun a w -> a + w.pos) 0 ws

(* Run the workers, each on its own domain, for [seconds]; returns the
   ops done and their rate in each [Est.slice_s] slice, for which this
   domain wakes at every slice boundary to read the workers' counters
   (a racy but untorn read). *)
let run t inp ver ws ~seconds =
  List.iter (fun w -> w.hists <- new_hists ()) ws;
  let slices = max 1 (int_of_float (Float.round (seconds /. Est.slice_s))) in
  let before = ops_done ws and start = now () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let ds = List.map (fun w -> Domain.spawn (fun () -> run_until t inp ver w ~deadline)) ws in
  let marks =
    List.init (slices + 1) (fun j ->
        let wait = float_of_int (start + (j * (deadline - start) / slices) - now ()) /. 1e9 in
        if wait > 0. then Unix.sleepf wait;
        (now (), ops_done ws))
  in
  List.iter Domain.join ds;
  let rec rates = function
    | (t0, o0) :: ((t1, o1) :: _ as rest) -> (float_of_int (o1 - o0) *. 1e9 /. float_of_int (t1 - t0)) :: rates rest
    | _ -> []
  in
  (ops_done ws - before, rates marks)

(* The latency histogram of the last run's ops of [kind], all domains. *)
let hist ws kind =
  let h = Hist.create () in
  List.iter (fun w -> Hist.merge_into h w.hists.(kind)) ws;
  h
