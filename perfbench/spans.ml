(* Spans of the traced run, kept in memory and written out at the end.
   Times are CLOCK_MONOTONIC nanoseconds, the clock the OCaml runtime
   stamps its own events with, so the GC phases read back through
   Runtime_events line up with the benchmark's spans. *)

type span = {
  id : int;
  name : string;
  mutable parent : int;  (* -1 for the root *)
  start_ns : int64;
  mutable stop_ns : int64;
}

let all : span list ref = ref []  (* newest first *)

(* The parent of a span recorded after the fact, until [adopt] runs. *)
let orphan = -2
let open_spans : span list ref = ref []
let next_id = ref 0

let add ~name ~parent ~start_ns ~stop_ns =
  let s = { id = !next_id; name; parent; start_ns; stop_ns } in
  incr next_id;
  all := s :: !all;
  s

let with_span name f =
  let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
  let s = add ~name ~parent ~start_ns:(Monotonic_clock.now ()) ~stop_ns:0L in
  open_spans := s :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.stop_ns <- Monotonic_clock.now ();
      open_spans := List.tl !open_spans)
    f

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

(* Spans recorded after the fact (the GC phases) get as parent the
   innermost benchmark span that encloses them. *)
let adopt orphans =
  let frame = List.filter (fun s -> s.parent <> orphan) !all in
  List.iter
    (fun g ->
      let best =
        List.fold_left
          (fun best s ->
            if s.start_ns <= g.start_ns && g.stop_ns <= s.stop_ns then
              match best with
              | Some b when b.start_ns >= s.start_ns -> best
              | _ -> Some s
            else best)
          None frame
      in
      g.parent <- (match best with Some b -> b.id | None -> -1))
    orphans

(* Self time: a span's duration minus what its children cover. *)
let self_ns s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) !all

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      Printf.bprintf b
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %Ld, \
         \"end_ns\": %Ld, \"self_ns\": %.0f}"
        s.id s.name s.parent s.start_ns s.stop_ns (self_ns s))
    (List.rev !all);
  Buffer.add_string b "]";
  Buffer.contents b
