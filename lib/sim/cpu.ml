type prio = Interrupt | Kernel | User

type t = {
  eng : Engine.t;
  mutable busy : bool;
  queues : Engine.waitq array; (* index 0 = Interrupt *)
  mutable busy_time : int;
}

let band = function Interrupt -> 0 | Kernel -> 1 | User -> 2

let create eng =
  { eng; busy = false; queues = Array.init 3 (fun _ -> Engine.waitq ());
    busy_time = 0 }

let acquire t prio =
  if t.busy then Engine.wait t.eng t.queues.(band prio)
    (* the releaser hands ownership directly to us: busy stays true *)
  else t.busy <- true

let release t =
  let q = t.queues and eng = t.eng in
  if
    not
      (Engine.wake_one eng q.(0) || Engine.wake_one eng q.(1)
     || Engine.wake_one eng q.(2))
  then t.busy <- false

let consume t ~prio ns =
  if ns < 0 then invalid_arg "Cpu.consume: negative time";
  if ns > 0 then begin
    acquire t prio;
    t.busy_time <- t.busy_time + ns;
    Engine.sleep t.eng ns;
    release t
  end

let busy_time t = t.busy_time
