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

type t = {
  mutable now : int;
  events : (unit -> unit) Psd_util.Heap.t;
  (* Re-armable protocol timers live on a hierarchical timing wheel
     instead of the heap: O(1) cancel/re-arm, and a cancelled timer
     leaves no dead entry behind (a cancelled [after] stays in the heap
     until its deadline as a no-op). Heap and wheel share [next_seq],
     so (key, seq) totally orders events across both queues and
     dispatch order is identical to a single-queue engine. *)
  timers : timer Wheel.t;
  mutable next_seq : int;
  rng : Psd_util.Rng.t;
  mutable alive : int;
  mutable failures : exn list; (* newest first; reversed when read *)
  mutable horizon : int; (* run_until bound; sleeps may not advance past it *)
}

type cancel = unit -> unit

let nop = fun () -> ()

let dummy_timer = { tnode = None; tfn = nop }

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Sleep is the hot path (every cost charge passes through it), so it
   gets its own effect: the handler skips [Suspend]'s resume-closure and
   double-resume guard. It keeps the same two-step schedule (timer
   fires, then the fiber re-enters the queue at delay 0) because the
   re-queue assigns the continuation its sequence number at fire time —
   same-instant FIFO order is part of the determinism contract, and
   collapsing the two steps observably reorders lossy runs. *)
type _ Effect.t += Sleep : int -> unit Effect.t

let create ?(seed = 42) () =
  {
    now = 0;
    events = Psd_util.Heap.create ();
    timers = Wheel.create ~dummy:dummy_timer ();
    next_seq = 0;
    rng = Psd_util.Rng.create ~seed;
    alive = 0;
    failures = [];
    horizon = max_int;
  }

let now t = t.now

let rng t = t.rng

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let schedule t dt f =
  if dt < 0 then invalid_arg "Engine.schedule: negative delay";
  Psd_util.Heap.push_seq t.events ~key:(t.now + dt) ~seq:(alloc_seq t) f

(* Absolute-key scheduling: the seq is allocated at the call, exactly
   as a relative [schedule] at the same instant would. *)
let schedule_abs t ~key f =
  if key < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_abs: key %d is before now %d" key
         t.now);
  Psd_util.Heap.push_seq t.events ~key ~seq:(alloc_seq t) f

let after t dt f =
  let cancelled = ref false in
  schedule t dt (fun () -> if not !cancelled then f ());
  fun () -> cancelled := true

let timer () = { tnode = None; tfn = nop }

let timer_arm t tm dt f =
  if dt < 0 then invalid_arg "Engine.timer_arm: negative delay";
  let key = t.now + dt in
  (* One seq per arm, exactly like the heap push [after] would do, so
     interleavings with heap events are unchanged. *)
  let seq = alloc_seq t in
  tm.tfn <- f;
  match tm.tnode with
  | Some n ->
    (* still armed: re-use our own node in place, no pool round-trip *)
    Wheel.cancel t.timers n;
    Wheel.reinsert t.timers n ~key ~seq tm
  | None -> tm.tnode <- Some (Wheel.acquire t.timers ~key ~seq tm)

let timer_cancel t tm =
  match tm.tnode with
  | Some n ->
    tm.tnode <- None;
    tm.tfn <- nop;
    Wheel.release t.timers n
  | None -> ()

let timer_armed tm = tm.tnode <> None

let timer_nodes_free t = Wheel.pool_size t.timers

let suspend t register =
  ignore t;
  Effect.perform (Suspend register)

let sleep t dt =
  if dt < 0 then invalid_arg "Engine.sleep: negative delay";
  let target = t.now + dt in
  (* Bypass: if no queued event fires at or before [target] (and the
     run horizon doesn't cut the sleep short), the two-step schedule
     would pop the timer, re-queue the continuation, and pop it again
     with nothing able to interleave — the fiber wakes with the heap in
     exactly the state it left it, and no other push can happen in
     between, so relative sequence order of every real event is
     unchanged.  Advancing the clock inline is observationally
     identical and skips two heap operations and two effect
     stack-switches.  ~70% of steady-state events are these
     uncontended cost-charge sleeps. *)
  if
    target <= t.horizon
    && Psd_util.Heap.min_key t.events > target
    && Wheel.min_key t.timers > target
  then t.now <- target
  else Effect.perform (Sleep dt)

let spawn t ?name:_ f =
  let body () =
    let open Effect.Deep in
    match_with f ()
      {
        retc = (fun () -> t.alive <- t.alive - 1);
        exnc =
          (fun e ->
            t.alive <- t.alive - 1;
            (* prepend: appending would make accumulating n failures
               O(n²); readers reverse once instead *)
            t.failures <- e :: t.failures);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  register (fun () ->
                      if !resumed then
                        invalid_arg "Engine: fiber resumed twice";
                      resumed := true;
                      schedule t 0 (fun () -> continue k ())))
            | Sleep dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  schedule t dt (fun () ->
                      schedule t 0 (fun () -> continue k ())))
            | _ -> None);
      }
  in
  t.alive <- t.alive + 1;
  schedule t 0 body

(* Next event across both queues is the (key, seq) minimum; the shared
   seq counter makes the comparison a strict total order. *)
let next_key t = min (Psd_util.Heap.min_key t.events) (Wheel.min_key t.timers)

let step t =
  let hk = Psd_util.Heap.min_key t.events in
  let wk = Wheel.min_key t.timers in
  if hk = max_int && wk = max_int then false
  else begin
    if
      wk < hk
      || (wk = hk && Wheel.min_seq t.timers < Psd_util.Heap.min_seq t.events)
    then begin
      t.now <- wk;
      let tm = Wheel.pop_min t.timers in
      (* Fire: detach the (already unlinked) node into the pool and
         blank the callback before invoking it, so a quiescent timer
         retains nothing and the callback may freely re-arm. *)
      (match tm.tnode with
      | Some n ->
        tm.tnode <- None;
        Wheel.release t.timers n
      | None -> ());
      let f = tm.tfn in
      tm.tfn <- nop;
      f ()
    end
    else begin
      t.now <- hk;
      let f = Psd_util.Heap.pop_min t.events in
      f ()
    end;
    true
  end

let check_failures t =
  match List.rev t.failures with
  | [] -> ()
  | e :: _ ->
    failwith
      (Printf.sprintf "Engine.run: %d fiber failure(s); first: %s"
         (List.length t.failures) (Printexc.to_string e))

let run t =
  while step t do
    ()
  done;
  check_failures t

let run_until t stop =
  let saved = t.horizon in
  t.horizon <- stop;
  while
    let nk = next_key t in
    nk <> max_int && nk <= stop
  do
    ignore (step t)
  done;
  t.horizon <- saved;
  if t.now < stop then t.now <- stop;
  check_failures t

let run_for t dt = run_until t (t.now + dt)

let alive t = t.alive

let failures t = List.rev t.failures

(* heap pushes + wheel arms: one seq is allocated per scheduled event *)
let events_scheduled t = t.next_seq
