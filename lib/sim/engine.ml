(* A timer is two words: the wheel node while armed, and the armed
   callback. The wheel stores the timer record itself as the entry
   value; the fire path and [timer_cancel] both release the node to the
   wheel's free list and blank [tfn], so an idle timer (fired or
   cancelled) pins neither a node nor a closure — the compact-PCB work
   counts on five such timers per connection costing ~nothing when
   quiescent. *)
type timer = {
  mutable tnode : timer Wheel.node option;
  mutable tfn : unit -> unit;
}

open Effect.Deep

(* The one effect a fiber performs to block. It carries nothing: every
   blocking call records what it waits for (a queued entry, a wait-queue
   slot, a resume token) before performing it, so the handler's only
   job is to park the continuation in the running fiber's record. *)
type _ Effect.t += Park : unit Effect.t

(* Placeholder for [fiber.k] before a fiber first parks: a real
   continuation captured once and never resumed. *)
let no_k : (unit, unit) continuation =
  let parked : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Park
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Park -> Some (fun (k : (a, unit) continuation) -> parked := Some k)
          | _ -> None);
    };
  Option.get !parked

let nop = fun () -> ()

(* A fiber's control block, allocated at spawn together with its
   [wake] closure; no later sleep, suspension or wakeup allocates
   either, and a finished fiber's block (closure included) goes on the
   engine's free list for a later [spawn] to reuse. [gen] counts
   wakeups from a suspension or a wait queue: a resume token records
   the generation it was issued at, so using it a second time — or
   after a later suspension — is detected. [gen] is never reset, not
   even on reuse, so a token outlives its fiber harmlessly. [next]
   links the fiber into at most one wait queue while it is parked
   there, or into the free list once it has finished. *)
type fiber = {
  mutable k : (unit, unit) continuation; (* valid while parked *)
  mutable body : unit -> unit; (* entry point until first dispatch *)
  mutable gen : int;
  mutable sleeping : bool; (* parked on its own queued sleep entry *)
  mutable timed_out : bool; (* result of the last [wait_timeout] *)
  mutable next : fiber;
  wake : unit -> unit;
}

let rec no_fiber =
  {
    k = no_k;
    body = nop;
    gen = 0;
    sleeping = false;
    timed_out = false;
    next = no_fiber;
    wake = nop;
  }

type t = {
  mutable now : int;
  events : (unit -> unit) Psd_util.Heap.t;
  (* Re-armable protocol timers live on a hierarchical timing wheel
     instead of the heap: O(1) cancel/re-arm, and a cancelled timer
     leaves no dead entry behind. Heap, wheel and FIFO share
     [next_seq], so (key, seq) totally orders events across all three
     queues and dispatch order is identical to a single-queue
     engine. *)
  timers : timer Wheel.t;
  (* Same-instant FIFO: every push whose key is [now] (a delay-0
     schedule, a spawn, a resume or wakeup, a re-queue). Such a push
     takes the next seq, so among the events due now it is always last
     and needs no ordering: a ring of (seq, callback) in two parallel
     arrays, [flen] entries from [fhead], capacity a power of two.
     Every entry's key is [now], and the clock only advances once the
     ring is empty. Empty arrays until the first push. *)
  mutable fseqs : int array;
  mutable ffns : (unit -> unit) array;
  mutable fhead : int;
  mutable flen : int;
  mutable next_seq : int;
  (* dispatch and cancel counters, read by [counts] *)
  mutable from_fifo : int;
  mutable from_heap : int;
  mutable from_wheel : int;
  mutable cancelled : int;
  rng : Psd_util.Rng.t;
  mutable alive : int;
  mutable failures : exn list; (* newest first; reversed when read *)
  mutable horizon : int; (* run_until bound; sleeps may not advance past it *)
  (* The fiber being dispatched. Left pointing at the last one between
     dispatches (saves a write barrier per event); [in_fiber] says
     whether it is running right now. *)
  mutable cur : fiber;
  mutable in_fiber : bool;
  handler : (unit, unit) handler; (* shared by every fiber *)
  on_park : ((unit, unit) continuation -> unit) option;
  mutable free : fiber; (* finished blocks, linked through [next] *)
  mutable nfree : int;
}

(* Bound on the free list: enough to absorb the transient per-frame
   fibers (an interrupt fiber per received frame), small enough that a
   burst of finished fibers pins almost nothing. *)
let free_max = 256

(* Called from the shared handler when the running fiber returns or
   raises; [t.cur] is that fiber. *)
let finish t =
  t.alive <- t.alive - 1;
  let f = t.cur in
  f.k <- no_k;
  if t.nfree < free_max then begin
    f.next <- t.free;
    t.free <- f;
    t.nfree <- t.nfree + 1
  end

let dummy_timer = { tnode = None; tfn = nop }

let create ?(seed = 42) () =
  let rec t =
    {
      now = 0;
      events = Psd_util.Heap.create ~dummy:nop ();
      timers = Wheel.create ~dummy:dummy_timer ();
      fseqs = [||];
      ffns = [||];
      fhead = 0;
      flen = 0;
      next_seq = 0;
      from_fifo = 0;
      from_heap = 0;
      from_wheel = 0;
      cancelled = 0;
      rng = Psd_util.Rng.create ~seed;
      alive = 0;
      failures = [];
      horizon = max_int;
      cur = no_fiber;
      in_fiber = false;
      handler =
        {
          retc = (fun () -> finish t);
          exnc =
            (fun e ->
              finish t;
              (* prepend: appending would make accumulating n failures
                 O(n²); readers reverse once instead *)
              t.failures <- e :: t.failures);
          effc =
            (fun (type a) (e : a Effect.t) ->
              match e with
              | Park -> (t.on_park : ((a, unit) continuation -> unit) option)
              | _ -> None);
        };
      on_park = Some (fun k -> t.cur.k <- k);
      free = no_fiber;
      nfree = 0;
    }
  in
  t

let now t = t.now

let rng t = t.rng

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* --- same-instant FIFO -------------------------------------------- *)

(* Capacity the FIFO keeps once it drains. A larger ring (the 10k
   spawns of a connection farm's first instant) is dropped then, so a
   one-off burst does not pin its arrays for the rest of the run; the
   bulk, RPC and lossy workloads peak at 38 entries and never drop
   it. *)
let fifo_keep = 64

let fifo_grow t =
  let cap = Array.length t.fseqs in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let seqs = Array.make ncap 0 and fns = Array.make ncap nop in
  for j = 0 to t.flen - 1 do
    let i = (t.fhead + j) land (cap - 1) in
    seqs.(j) <- t.fseqs.(i);
    fns.(j) <- t.ffns.(i)
  done;
  t.fseqs <- seqs;
  t.ffns <- fns;
  t.fhead <- 0

(* Queue [f] at [now], behind everything already due. *)
let fifo_push t f =
  if t.flen = Array.length t.fseqs then fifo_grow t;
  let i = (t.fhead + t.flen) land (Array.length t.fseqs - 1) in
  t.fseqs.(i) <- alloc_seq t;
  t.ffns.(i) <- f;
  t.flen <- t.flen + 1

(* The head's slot is blanked, so the ring never keeps a fired
   callback reachable. *)
let fifo_pop t =
  let i = t.fhead in
  let f = t.ffns.(i) in
  t.ffns.(i) <- nop;
  t.flen <- t.flen - 1;
  if t.flen > 0 then t.fhead <- (i + 1) land (Array.length t.fseqs - 1)
  else begin
    t.fhead <- 0;
    if Array.length t.fseqs > fifo_keep then begin
      t.fseqs <- [||];
      t.ffns <- [||]
    end
  end;
  f

(* Key of the next event across the three queues, [max_int] when none:
   [now] while the FIFO holds anything. *)
let earliest t =
  if t.flen > 0 then t.now
  else min (Psd_util.Heap.min_key t.events) (Wheel.min_key t.timers)

(* A key at [now] goes to the FIFO, any later one to the heap. *)
let push t key f =
  if key = t.now then fifo_push t f
  else Psd_util.Heap.push_seq t.events ~key ~seq:(alloc_seq t) f

let schedule t dt f =
  if dt < 0 then invalid_arg "Engine.schedule: negative delay";
  push t (t.now + dt) f

(* Absolute-key scheduling: the seq is allocated at the call, exactly
   as a relative [schedule] at the same instant would. *)
let schedule_abs t ~key f =
  if key < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_abs: key %d is before now %d" key
         t.now);
  push t key f

let timer () = { tnode = None; tfn = nop }

let timer_arm t tm dt f =
  if dt < 0 then invalid_arg "Engine.timer_arm: negative delay";
  let key = t.now + dt in
  (* One seq per arm, exactly like a heap push, so interleavings with
     heap events are the same as if the timer lived in the heap. *)
  let seq = alloc_seq t in
  tm.tfn <- f;
  match tm.tnode with
  | Some n ->
    (* still armed: re-use our own node in place, no pool round-trip *)
    t.cancelled <- t.cancelled + 1;
    Wheel.cancel t.timers n;
    Wheel.reinsert t.timers n ~key ~seq tm
  | None -> tm.tnode <- Some (Wheel.acquire t.timers ~key ~seq tm)

let timer_cancel t tm =
  match tm.tnode with
  | Some n ->
    t.cancelled <- t.cancelled + 1;
    tm.tnode <- None;
    tm.tfn <- nop;
    Wheel.release t.timers n
  | None -> ()

let timer_armed tm = tm.tnode <> None

let timer_nodes_free t = Wheel.pool_size t.timers

(* --- fibers ----------------------------------------------------------- *)

let run_fiber t f =
  if t.cur != f then t.cur <- f;
  t.in_fiber <- true;
  if f.body == nop then continue f.k ()
  else begin
    let body = f.body in
    f.body <- nop;
    match_with body () t.handler
  end;
  t.in_fiber <- false

(* [f] is due now, woken by the event being dispatched (its sleep entry
   or its [wait_timeout] deadline). A two-step wake would re-queue it at
   delay 0, taking the next seq: that entry pops after everything
   already queued at [now] and before anything queued later. So when
   no queue holds an entry at [now], the re-queued entry would pop
   next with nothing in between, and running the fiber here gives the
   same dispatch order with one queue round trip fewer (no other
   entry's relative seq changes). Otherwise the re-queue keeps the
   fiber behind the events already due at this instant. *)
let wake_from_event t f =
  if earliest t = t.now then fifo_push t f.wake else run_fiber t f

(* Body of every fiber's [wake] closure: start it, continue it, or
   finish a slow-path sleep. *)
let wake t f =
  if f.sleeping then begin
    f.sleeping <- false;
    wake_from_event t f
  end
  else run_fiber t f

let fresh_fiber t body =
  let rec f =
    {
      k = no_k;
      body;
      gen = 0;
      sleeping = false;
      timed_out = false;
      next = no_fiber;
      wake = (fun () -> wake t f);
    }
  in
  f

let spawn t ?name:_ body =
  let f =
    if t.nfree = 0 then fresh_fiber t body
    else begin
      let f = t.free in
      t.free <- f.next;
      t.nfree <- t.nfree - 1;
      f.next <- no_fiber;
      f.body <- body;
      f
    end
  in
  t.alive <- t.alive + 1;
  fifo_push t f.wake

(* The running fiber, which must belong to [t]. Checked before any of
   [t]'s state is read or changed, so a misdirected call raises in the
   calling fiber and leaves both engines as they were. *)
let current t fn =
  if not t.in_fiber then
    invalid_arg (fn ^ ": not called from a running fiber of this engine");
  t.cur

let suspend t register =
  let f = current t "Engine.suspend" in
  let gen = f.gen in
  register (fun () ->
      if f.gen <> gen then invalid_arg "Engine: fiber resumed twice";
      f.gen <- gen + 1;
      fifo_push t f.wake);
  Effect.perform Park

let sleep t dt =
  if dt < 0 then invalid_arg "Engine.sleep: negative delay";
  let f = current t "Engine.sleep" in
  let target = t.now + dt in
  (* Call-time bypass: if no queued event fires at or before [target]
     (and the run horizon doesn't cut the sleep short), nothing can run
     between parking and waking, so advancing the clock inline is
     observationally identical and skips the queues and the effect
     switch. ~70% of steady-state events are these uncontended
     cost-charge sleeps. *)
  if target <= t.horizon && earliest t > target then t.now <- target
  else begin
    f.sleeping <- true;
    push t target f.wake;
    Effect.perform Park
  end

(* --- wait queues ------------------------------------------------------ *)

(* FIFO of parked fibers, linked through [fiber.next]; empty when
   [len = 0] ([head]/[tail] are then [no_fiber], so a drained queue
   retains nothing). *)
type waitq = { mutable head : fiber; mutable tail : fiber; mutable len : int }

let waitq () = { head = no_fiber; tail = no_fiber; len = 0 }

let waiting q = q.len

let enqueue q f =
  if q.len = 0 then q.head <- f else q.tail.next <- f;
  q.tail <- f;
  q.len <- q.len + 1

let dequeue q =
  let f = q.head in
  q.len <- q.len - 1;
  if q.len = 0 then begin
    q.head <- no_fiber;
    q.tail <- no_fiber
  end
  else begin
    q.head <- f.next;
    f.next <- no_fiber
  end;
  f

(* Unlink [f] from the middle of [q]; only a timed-out waiter is
   removed this way, so the walk from the head is rare and short. *)
let remove q f =
  if q.head == f then ignore (dequeue q)
  else begin
    let rec pred p = if p.next == f then p else pred p.next in
    let p = pred q.head in
    p.next <- f.next;
    f.next <- no_fiber;
    if q.tail == f then q.tail <- p;
    q.len <- q.len - 1
  end

let wait t q =
  let f = current t "Engine.wait" in
  enqueue q f;
  Effect.perform Park

let wake_one t q =
  q.len > 0
  &&
  let f = dequeue q in
  f.gen <- f.gen + 1;
  fifo_push t f.wake;
  true

let wake_all t q =
  while wake_one t q do
    ()
  done

let wait_timeout t q dt =
  if dt < 0 then invalid_arg "Engine.wait_timeout: negative delay";
  let f = current t "Engine.wait_timeout" in
  enqueue q f;
  f.timed_out <- false;
  let gen = f.gen in
  (* never cancelled: a waiter woken first leaves this entry to fire as
     a no-op, since [gen] has moved on *)
  schedule t dt (fun () ->
      if f.gen = gen then begin
        remove q f;
        f.timed_out <- true;
        f.gen <- gen + 1;
        wake_from_event t f
      end);
  Effect.perform Park;
  f.timed_out

(* --- dispatch --------------------------------------------------------- *)

(* Fire the wheel's minimum, due at [key]. The (already unlinked) node
   goes back to the pool and the callback is blanked before it runs, so
   a quiescent timer retains nothing and the callback may freely
   re-arm. *)
let fire_wheel t key =
  t.now <- key;
  t.from_wheel <- t.from_wheel + 1;
  let tm = Wheel.pop_min t.timers in
  (match tm.tnode with
  | Some n ->
    tm.tnode <- None;
    Wheel.release t.timers n
  | None -> ());
  let f = tm.tfn in
  tm.tfn <- nop;
  f ()

let fire_heap t key =
  t.now <- key;
  t.from_heap <- t.from_heap + 1;
  (Psd_util.Heap.pop_min t.events) ()

(* The next event is the (key, seq) minimum across the three queues;
   the shared seq counter makes the comparison a strict total order.
   While the FIFO holds anything, only entries at [now] compete with
   its head: the heap's and the wheel's minima if their key is [now]. *)
let step t =
  if t.flen > 0 then begin
    let now = t.now in
    let hs =
      if Psd_util.Heap.min_key t.events = now then
        Psd_util.Heap.min_seq t.events
      else max_int
    in
    let ws =
      if Wheel.min_key t.timers = now then Wheel.min_seq t.timers
      else max_int
    in
    let fs = t.fseqs.(t.fhead) in
    if fs < hs && fs < ws then begin
      t.from_fifo <- t.from_fifo + 1;
      (fifo_pop t) ()
    end
    else if hs < ws then fire_heap t now
    else fire_wheel t now;
    true
  end
  else begin
    let hk = Psd_util.Heap.min_key t.events in
    let wk = Wheel.min_key t.timers in
    if hk = max_int && wk = max_int then false
    else begin
      if
        wk < hk
        || (wk = hk && Wheel.min_seq t.timers < Psd_util.Heap.min_seq t.events)
      then fire_wheel t wk
      else fire_heap t hk;
      true
    end
  end

(* The engine whose loop is innermost on this domain. A loop entered
   from inside another engine's fiber hides that fiber ([in_fiber]
   false) until it returns, so a fiber of the inner engine cannot
   sleep, suspend or wait on the outer one. Its [cur] is restored too,
   for a loop re-entered from one of the engine's own fibers. *)
let innermost : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let dispatching t loop =
  let outer = Domain.DLS.get innermost in
  let unhide =
    match outer with
    | None -> ignore
    | Some o ->
      let cur = o.cur and in_fiber = o.in_fiber in
      o.in_fiber <- false;
      fun () ->
        o.cur <- cur;
        o.in_fiber <- in_fiber
  in
  Domain.DLS.set innermost (Some t);
  Fun.protect loop ~finally:(fun () ->
      Domain.DLS.set innermost outer;
      unhide ())

let check_failures t =
  match List.rev t.failures with
  | [] -> ()
  | e :: _ ->
    failwith
      (Printf.sprintf "Engine.run: %d fiber failure(s); first: %s"
         (List.length t.failures) (Printexc.to_string e))

let run t =
  dispatching t (fun () ->
      while step t do
        ()
      done);
  check_failures t

let run_until t stop =
  let saved = t.horizon in
  t.horizon <- stop;
  dispatching t (fun () ->
      while
        let nk = earliest t in
        nk <> max_int && nk <= stop
      do
        ignore (step t)
      done);
  t.horizon <- saved;
  if t.now < stop then t.now <- stop;
  check_failures t

let run_for t dt = run_until t (t.now + dt)

let alive t = t.alive

let failures t = List.rev t.failures

(* queue pushes + wheel arms: one seq is allocated per scheduled event *)
let events_scheduled t = t.next_seq

type counts = {
  scheduled : int;
  from_fifo : int;
  from_heap : int;
  from_wheel : int;
  cancelled : int;
  pending : int;
}

let counts (t : t) =
  {
    scheduled = t.next_seq;
    from_fifo = t.from_fifo;
    from_heap = t.from_heap;
    from_wheel = t.from_wheel;
    cancelled = t.cancelled;
    pending = t.flen + Psd_util.Heap.size t.events + Wheel.size t.timers;
  }
