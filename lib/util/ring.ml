type 'a t = {
  mutable buf : 'a option array;
  mutable head : int; (* next pop position *)
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  { buf = Array.make capacity None; head = 0; len = 0 }

let capacity t = Array.length t.buf

let length t = t.len

let is_empty t = t.len = 0

let is_full t = t.len = Array.length t.buf

let push t x =
  if is_full t then false
  else begin
    let tail = (t.head + t.len) mod Array.length t.buf in
    t.buf.(tail) <- Some x;
    t.len <- t.len + 1;
    true
  end

(* Unbounded use: double the array when full, oldest element first.
   Popped slots are blanked either way, so unlike a linked queue a
   drained ring keeps nothing reachable. *)
let push_grow t x =
  if is_full t then begin
    let cap = Array.length t.buf in
    let buf = Array.make (2 * cap) None in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- buf;
    t.head <- 0
  end;
  ignore (push t x)

let pop t =
  if t.len = 0 then None
  else begin
    let x = t.buf.(t.head) in
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    x
  end

let peek t = if t.len = 0 then None else t.buf.(t.head)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    match t.buf.((t.head + i) mod Array.length t.buf) with
    | Some x -> f x
    | None -> assert false
  done
