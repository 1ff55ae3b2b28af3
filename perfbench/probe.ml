(* A fixed reference kernel, timed between the workload's cells.

   The host is shared. Other tenants slow this allocation- and
   pointer-heavy simulator by 10-30% for seconds to minutes at a time.
   The probe slows with it, so scaling a stretch of cells' host time by
   the probe's time at that moment takes most of that noise out. It is
   two parts, each like a part of the simulator: lookups in a 3 MB tree
   (memory latency) and a miniature discrete-event loop (effect-handler
   fibers on a timer queue, each copying, summing and demultiplexing a
   1500-byte frame). Neither uses code of the repository, so a change to
   the simulator moves the scaled figure exactly as it moves the raw one. *)

module M = Map.Make (Int)

(* 65536 bindings, about 3 MB of tree, built once *)
let tree =
  lazy
    (let m = ref M.empty in
     for k = 0 to 0xffff do
       m := M.add ((k * 40503) land 0xffff) k !m
     done;
     !m)

let lookups () =
  let tree = Lazy.force tree in
  let hits = ref 0 in
  for i = 1 to 10_000 do
    if M.mem ((i * 7919) land 0xffff) tree then incr hits
  done;
  !hits

type _ Effect.t += Sleep : int -> unit Effect.t

let frames = Array.init 64 (fun i -> Bytes.make 1500 (Char.chr i))

let sessions =
  lazy
    (let h = Hashtbl.create 4096 in
     for i = 0 to 20_000 do
       Hashtbl.replace h (i * 7919) (Bytes.make 16 'x')
     done;
     h)

let event_loop () =
  let sessions = Lazy.force sessions in
  let queue = ref [] and now = ref 0 and acc = ref 0 in
  let push at k =
    queue := List.merge (fun (a, _) (b, _) -> compare a b) [ (at, k) ] !queue
  in
  let fiber id () =
    for r = 1 to 60 do
      let frame = Bytes.create 1500 in
      Bytes.blit frames.((id + r) land 63) 0 frame 0 1500;
      let sum = ref 0 in
      for i = 0 to 749 do
        sum := !sum + Bytes.get_uint16_be frame (2 * i)
      done;
      if Hashtbl.mem sessions (((id * 31) + r) * 7919) then incr acc;
      acc := !acc + !sum;
      Effect.perform (Sleep (1 + (((id * 7) + r) land 15)))
    done
  in
  let open Effect.Deep in
  for id = 0 to 15 do
    match_with (fiber id) ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Sleep d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  push (!now + d) (fun () -> continue k ()))
            | _ -> None);
      }
  done;
  let rec loop () =
    match !queue with
    | [] -> ()
    | (at, k) :: rest ->
      queue := rest;
      now := at;
      k ();
      loop ()
  in
  loop ();
  !acc

(* Nominal probe time: [ops_per_ref_s] is the rate on a host where one
   probe takes exactly this long. *)
let ref_s = 0.008

(* Host seconds of one probe. The work is the same every time. *)
let run () =
  ignore (Lazy.force tree);
  ignore (Lazy.force sessions);
  let t0 = Monotonic_clock.now () in
  ignore (Sys.opaque_identity (lookups ()));
  ignore (Sys.opaque_identity (event_loop ()));
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9
