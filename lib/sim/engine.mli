(** Discrete-event simulation engine.

    Simulated concurrency is expressed as {e fibers}: lightweight cooperative
    threads built on OCaml effect handlers. A fiber runs until it blocks
    ([sleep], [suspend], or a higher-level primitive such as
    {!Cond.wait} or {!Cpu.consume}); the engine then dispatches the next
    pending event in virtual-time order. Virtual time only advances between
    events, never during OCaml execution, so simulated latencies are exact
    and runs are deterministic for a given seed.

    All times are integer {e nanoseconds} of virtual time. *)

type t

val create : ?seed:int -> unit -> t
(** A fresh simulation world at time 0. [seed] (default 42) drives
    {!rng} and all derived generators. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Psd_util.Rng.t
(** The engine's root deterministic random stream. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] creates a fiber executing [f], scheduled at the current
    virtual time. May be called from inside or outside a fiber. An
    exception escaping [f] is recorded (see {!failures}) and terminates
    only that fiber. [name] labels the fiber at the call site; the
    engine does not record it.

    A finished fiber's control block (and its wake closure) goes on a
    bounded free list, and [spawn] takes a block from that list before
    allocating one. Reuse is invisible: {!alive} and {!failures} count
    fibers, not blocks, and a block's wakeup generation is never
    reset, so a {!suspend} resume token kept past its fiber's end
    still raises ["Engine: fiber resumed twice"] and never wakes the
    fiber that reuses the block. *)

val sleep : t -> int -> unit
(** Block the calling fiber for the given number of nanoseconds.

    The caller must be a fiber of this engine that is running right now:
    a fiber sleeps, suspends and waits only on the engine that spawned
    it. Called from outside a fiber (top level, or a {!schedule}
    callback), or from a fiber of another engine (including one whose
    loop was entered from inside a fiber of this engine), it raises
    [Invalid_argument] before reading or changing this engine's state.

    Dispatch order is that of a two-step wake: an entry at [now + dt]
    whose firing re-queues the fiber at delay 0. Two bypasses skip
    steps that cannot be observed:
    - at the call, if no queued event is due at or before [now + dt]
      and the {!run_until} horizon is not below it, the clock advances
      inline and the fiber never parks;
    - when the entry fires, if the queue holds no other entry at
      [now], the fiber continues at once instead of being re-queued
      (the re-queued entry would be the next one popped). Otherwise it
      is re-queued behind the events already due at this instant.
    Both keep every other event's relative [(time, seq)] order; they
    only lower {!events_scheduled}.
    @raise Invalid_argument on a negative delay. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] blocks the calling fiber (which must be a
    running fiber of [t], as for {!sleep}) after calling
    [register resume]. Invoking [resume] exactly once, from any context
    and even before [register] returns, schedules the fiber to continue
    at the then-current virtual time (at delay 0, behind the events
    already queued for that instant). This is the primitive from which
    blocking abstractions outside this library are built.
    @raise Invalid_argument ["Engine: fiber resumed twice"] from
    [resume] when it is called a second time, or after the fiber was
    resumed and suspended again, or after it finished (a stale token,
    even when a later fiber reuses its control block). *)

val schedule : t -> int -> (unit -> unit) -> unit
(** [schedule t dt f] runs callback [f] (not a fiber; it must not block)
    [dt] nanoseconds from now. Events due at one instant run in the
    order they were queued; a delay-0 callback runs after everything
    already queued for now. *)

val schedule_abs : t -> key:int -> (unit -> unit) -> unit
(** [schedule_abs t ~key f] runs callback [f] at absolute virtual time
    [key] (which must be [>= now t]). The sequence number is allocated
    at the moment of the call, exactly as [schedule t (key - now t) f]
    would, so same-key events keep FIFO order across both forms. This
    is how [Psd_mach.Nicpipe] schedules pipeline completions it has already
    computed as absolute times.
    @raise Invalid_argument if [key] is in the past. *)

type timer
(** A cancellable, re-armable timer slot backed by the engine's
    hierarchical timing wheel — the shape used for protocol timers
    (retransmit, delayed ACK, 2MSL, ARP retry, reassembly timeout...).
    Arm, cancel and re-arm are O(1), and cancelling removes the entry
    at once, so a cancelled timer leaves nothing in the event queue.
    Wheel nodes are pooled on a per-engine free list: firing or
    cancelling returns the node (and drops the callback), so an idle
    timer slot is two words and steady-state arm/fire churn does not
    allocate. A wheel entry carries the same (time, sequence) pair a
    {!schedule} at the arm would have been given, so timers and
    scheduled callbacks interleave in one total order. *)

val timer : unit -> timer
(** A fresh, unarmed timer slot. *)

val timer_arm : t -> timer -> int -> (unit -> unit) -> unit
(** [timer_arm t tm dt f] fires [f] once, [dt] nanoseconds from now
    ([f] must not block; spawn a fiber for blocking work). If [tm] is
    already armed it is rescheduled: the old deadline never fires, and
    the new one is ordered as a fresh arm at this call. *)

val timer_cancel : t -> timer -> unit
(** Disarm; idempotent, no-op after firing. *)

val timer_armed : timer -> bool
(** Whether the timer is armed and has not yet fired. *)

val timer_nodes_free : t -> int
(** Wheel nodes currently parked on the engine's free list
    (pool-reuse diagnostics for the scale benchmark). *)

(** {2 Wait queues}

    FIFO queues of parked fibers, the building block of {!Cpu},
    {!Lock} and {!Cond}. A queue is intrusive: waiting links the
    fiber's own control block, so waiting and waking allocate nothing.
    The caller of {!wait}/{!wait_timeout} must be a running fiber of the
    engine, as for {!sleep}. *)

type waitq

val waitq : unit -> waitq
(** An empty queue. *)

val wait : t -> waitq -> unit
(** Park the calling fiber at the tail of the queue until {!wake_one}
    or {!wake_all} reaches it. *)

val wait_timeout : t -> waitq -> int -> bool
(** [wait_timeout t q dt] is {!wait} with a deadline [dt] ns away:
    [true] when the deadline woke the fiber (it was taken off the queue
    then), [false] when a wake reached it first. A wake that runs at the
    deadline's instant but before its entry still wins. *)

val wake_one : t -> waitq -> bool
(** Take the oldest waiter off the queue and schedule it to continue
    now (at delay 0); [false] when the queue is empty. *)

val wake_all : t -> waitq -> unit
(** {!wake_one} until the queue is empty, oldest first. *)

val waiting : waitq -> int
(** Fibers parked on the queue. *)

val run : t -> unit
(** Dispatch events until none remain.
    @raise Failure if any fiber raised; the first exception's message is
    included. *)

val run_until : t -> int -> unit
(** Dispatch events with timestamps [<=] the given absolute time, then
    set the clock to that time. *)

val run_for : t -> int -> unit
(** [run_for t dt] = [run_until t (now t + dt)]. *)

val alive : t -> int
(** Number of fibers spawned but not yet finished. After {!run} returns,
    a non-zero value means fibers are blocked forever (deadlock). *)

val failures : t -> exn list
(** Exceptions raised by fibers, oldest first. *)

val events_scheduled : t -> int
(** Total events pushed onto the queue since creation — the simulator's
    work metric (diagnostics and wall-clock tuning). *)

(** Where the queue keeps an event: a push due at the current instant
    goes to a FIFO (it is last among the events due now, so it needs
    no ordering), a later {!schedule} or a slow-path {!sleep} to a
    heap, and a {!timer_arm} to the timing wheel. Dispatch
    takes the [(time, seq)] minimum across all three. *)
type counts = {
  scheduled : int;  (** {!events_scheduled} *)
  from_fifo : int;  (** events dispatched from the same-instant FIFO *)
  from_heap : int;  (** ... from the heap *)
  from_wheel : int;  (** ... from the timer wheel (timer fires) *)
  cancelled : int;
      (** armed timers disarmed by {!timer_cancel} or a re-arm *)
  pending : int;  (** events queued now, across all three *)
}

val counts : t -> counts
(** Dispatch counters since creation. Every scheduled event is
    dispatched, cancelled or pending:
    [scheduled = from_fifo + from_heap + from_wheel + cancelled +
    pending]. *)
