(* Minor and major GC phases of this process, read in-process through
   Runtime_events and turned into spans. Only the traced run starts the
   event ring. *)

open Runtime_events

type kind = Minor | Major

let kind_of = function
  | EV_MINOR | EV_EXPLICIT_GC_MINOR -> Some Minor
  | EV_MAJOR | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE | EV_EXPLICIT_GC_MAJOR
  | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE
  | EV_EXPLICIT_GC_COMPACT ->
    Some Major
  | _ -> None

let cursor = ref None
let depth = ref 0
let outer = ref (Minor, 0L)  (* kind and start of the outermost open phase *)
let phases : Spans.span list ref = ref []
let lost = ref 0

let ts t = Timestamp.to_int64 t

(* Phases nest (a major slice runs inside a minor collection, say); only
   the outermost is a span, so GC time is never counted twice. *)
let callbacks =
  Callbacks.create
    ~runtime_begin:(fun _ t ph ->
      match kind_of ph with
      | None -> ()
      | Some k ->
        if !depth = 0 then outer := (k, ts t);
        incr depth)
    ~runtime_end:(fun _ t ph ->
      match kind_of ph with
      | None -> ()
      | Some _ ->
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then begin
            let k, start_ns = !outer in
            let name = match k with Minor -> "gc.minor" | Major -> "gc.major" in
            phases :=
              Spans.add ~name ~parent:Spans.orphan ~start_ns ~stop_ns:(ts t)
              :: !phases
          end
        end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

(* run.py sets PERFBENCH_GC_EVENTS=0 when no event ring fits under the
   host's file-size limit; the GC phase metrics then read 0. *)
let start () =
  phases := [];
  if Option.is_none !cursor && Sys.getenv_opt "PERFBENCH_GC_EVENTS" <> Some "0"
  then begin
    Runtime_events.start ();
    cursor := Some (create_cursor None)
  end

let poll () =
  match !cursor with
  | Some c -> ignore (read_poll c callbacks None)
  | None -> ()

(* Give every phase its enclosing benchmark span as parent. *)
let finish () =
  poll ();
  Spans.adopt !phases

(* Total ns of [name] phases inside the interval of span [s]. *)
let within (s : Spans.span) name =
  List.fold_left
    (fun acc (g : Spans.span) ->
      if g.name = name && s.start_ns <= g.start_ns && g.stop_ns <= s.stop_ns
      then acc +. Spans.duration g
      else acc)
    0. !phases
