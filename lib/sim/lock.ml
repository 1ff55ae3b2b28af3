type t = { eng : Engine.t; mutable held : bool; waiters : Engine.waitq }

let create eng = { eng; held = false; waiters = Engine.waitq () }

let acquire t =
  if t.held then
    (* Ownership is handed off directly by release. *)
    Engine.wait t.eng t.waiters
  else t.held <- true

let release t =
  if not t.held then invalid_arg "Lock.release: not held";
  if not (Engine.wake_one t.eng t.waiters) then t.held <- false

let with_lock t f =
  acquire t;
  match f () with
  | v ->
    release t;
    v
  | exception e ->
    release t;
    raise e

let wait t cond =
  release t;
  Cond.wait cond;
  acquire t

let holder_active t = t.held
