type t = { eng : Engine.t; q : Engine.waitq }

let create eng = { eng; q = Engine.waitq () }

let wait t = Engine.wait t.eng t.q

let signal t = ignore (Engine.wake_one t.eng t.q)

let broadcast t = Engine.wake_all t.eng t.q

let wait_timeout t dt =
  if Engine.wait_timeout t.eng t.q dt then `Timeout else `Ok

let rec until t f =
  match f () with
  | Some v -> v
  | None ->
    wait t;
    until t f

let until_timeout t dt f =
  let deadline = Engine.now t.eng + dt in
  let rec loop () =
    match f () with
    | Some v -> Some v
    | None ->
      let remaining = deadline - Engine.now t.eng in
      if remaining <= 0 then None
      else
        match wait_timeout t remaining with
        | `Ok -> loop ()
        | `Timeout -> f ()
  in
  loop ()

let waiters t = Engine.waiting t.q
