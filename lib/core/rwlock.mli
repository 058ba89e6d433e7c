(** Reader/writer lock with the admission policy the paper describes for
    HART's per-ART locks (§IV-G): multiple readers share an ART; a writer
    holds it exclusively; while a writer works (or waits), incoming
    readers block, so writers are not starved.

    The state is one [Atomic] word (writer bit, pending-waiter bit,
    reader count): with no waiter, an acquisition and a release are one
    CAS each. A domain that cannot be admitted raises the pending bit
    and waits on a stdlib [Mutex]/[Condition] pair; while that bit is
    up every acquisition and release goes through the mutex, which
    keeps the admission policy and wakes the waiters, and the last
    waiter to leave clears it (DESIGN.md §9). Under the cooperative
    crash explorer ({!Hart_util.Sched_hook}) the lock spins through the
    scheduler instead, with the same yield points as ever. Usable from
    OCaml 5 domains. *)

type t

type event = Read_acquired | Read_released | Write_acquired | Write_released

val set_event_hook : (t -> event -> unit) option -> unit
(** Observation hook for the deterministic concurrent crash explorer:
    fired on every acquisition/release, with the lock itself for
    identity (physical equality). [Write_released]/[Read_released] fire
    {e before} the lock state changes, with no scheduler yield in
    between, so under the cooperative scheduler the handler invocation
    order is exactly the release (linearization) order. Must only be
    installed while no real domains are running. *)

val create : unit -> t
val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

val with_read : t -> (unit -> 'a) -> 'a
(** Run under the shared lock, releasing on exception; the release
    yield point follows a normal return only. *)

val with_write : t -> (unit -> 'a) -> 'a
(** Run under the exclusive lock, as {!with_read}. *)

val readers : t -> int
(** Current reader count (diagnostic; racy by nature). *)

val writer_active : t -> bool
(** Whether a writer currently holds the lock (diagnostic). *)
