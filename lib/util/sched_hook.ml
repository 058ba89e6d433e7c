(* Global cooperative-scheduler hook.

   The deterministic concurrent crash explorer (lib/fault) runs 2-4
   logical "domains" as fibers on ONE OS thread, switching between them
   only at declared yield points. Layers that sit on the multi-domain
   hot path (Pmem.persist, Rwlock, Epalloc's class/stripe mutexes)
   consult this hook:

   - [yield] is a no-op unless a scheduler is installed, so the real
     Domain.spawn path is unchanged;
   - [lock] degrades a blocking [Mutex.lock] into a try-lock/yield spin
     when a scheduler is installed. With a single OS thread a blocking
     lock taken while another fiber holds the mutex across a yield
     point would deadlock the whole process; spinning through the
     scheduler instead lets the holder run to its release.

   The hook is installed only by the (single-threaded) explorer, so a
   plain ref is sufficient: no real domains are running while it is
   set. *)

let hook : (unit -> unit) option ref = ref None

let install f = hook := Some f
let uninstall () = hook := None
let active () = Option.is_some !hook

let yield () = match !hook with None -> () | Some f -> f ()

let lock mu =
  match !hook with
  | None -> Mutex.lock mu
  | Some f ->
      while not (Mutex.try_lock mu) do
        f ()
      done

let with_lock mu f =
  lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
