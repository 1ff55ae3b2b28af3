(* Order statistics of host-time samples. *)

let sorted l = List.sort compare l

(* The median; the mean of the two middle values for an even count. *)
let median l =
  match sorted l with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
