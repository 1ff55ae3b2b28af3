(* A growable ring rather than [Queue]: a taken [Queue] cell keeps
   pointing at the next one, so once a cell is promoted every message
   queued behind it is promoted too, frames included. *)
type 'a t = { q : 'a Psd_util.Ring.t; nonempty : Cond.t }

let create eng =
  { q = Psd_util.Ring.create ~capacity:16; nonempty = Cond.create eng }

let send t x =
  Psd_util.Ring.push_grow t.q x;
  Cond.signal t.nonempty

let rec recv t =
  match Psd_util.Ring.pop t.q with
  | Some x -> x
  | None ->
    Cond.wait t.nonempty;
    recv t

let recv_timeout t dt =
  Cond.until_timeout t.nonempty dt (fun () -> Psd_util.Ring.pop t.q)

let try_recv t = Psd_util.Ring.pop t.q

let length t = Psd_util.Ring.length t.q
