(* The simulator's benchmark. See README.md in this directory.

   perfbench --workload W --seed N --seconds S --trace T
             [--golden FILE] [--record-golden]

   W is bulk, rpc, c10k, lossy or all; T is 0 or 1.

   Untraced (--trace 0), it times sweeps of the workload's entry-point
   calls for S seconds and prints the end-to-end metrics. Traced
   (--trace 1), it prints the per-layer metrics and writes the span tree.
   Either way it checks every virtual-time output, and the last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics. The exit code is 0 only when every check passed. *)

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

(* --- arguments ---------------------------------------------------------- *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0
let trace = ref (-1)
let golden_file = ref "perfbench/golden.txt"
let record_golden = ref false

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME bulk, rpc, c10k, lossy or all" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 scored run or traced run");
      ( "--golden",
        Arg.Set_string golden_file,
        "FILE golden virtual-time outputs" );
      ( "--record-golden",
        Arg.Set record_golden,
        " print one sweep's virtual-time outputs as golden lines and exit" );
    ]
    (fun a -> fail_usage ("unexpected argument " ^ a))
    "perfbench --workload W --seed N --seconds S --trace 0|1"

let workloads =
  match !workload with
  | "all" -> Cells.workloads
  | w -> (
    match
      List.find_opt (fun (x : Cells.workload) -> x.name = w) Cells.workloads
    with
    | Some x -> [ x ]
    | None -> fail_usage ("unknown workload " ^ w))

let () =
  if !seed < 0 then fail_usage "--seed N (N >= 0) is required";
  if (not !record_golden) && !seconds < 1 then
    fail_usage "--seconds S (S >= 1) is required";
  if (not !record_golden) && !trace <> 0 && !trace <> 1 then
    fail_usage "--trace 0|1 is required"

(* --- golden outputs ----------------------------------------------------- *)

(* One line per cell: "<seed> <workload> <cell> <virtual output>". *)
let golden =
  let tbl = Hashtbl.create 64 in
  (match open_in !golden_file with
  | exception Sys_error e -> fail_usage ("cannot read golden file: " ^ e)
  | ic ->
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | s :: w :: c :: rest ->
             Hashtbl.replace tbl
               (int_of_string s, w, c)
               (String.concat " " rest)
           | _ -> fail_usage ("malformed golden line: " ^ line)
       done
     with End_of_file -> ());
    close_in ic);
  tbl

(* --- checking ----------------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  first_virt : (string * string, string) Hashtbl.t;
      (* (workload, cell) -> first output seen *)
}

let tally () =
  { attempted = 0; failed = 0; errors = []; first_virt = Hashtbl.create 16 }

let error t msg =
  if List.length t.errors < 20 then t.errors <- msg :: t.errors

(* Every output of a cell must equal its first output in this process
   (the simulation is deterministic) and the golden one when this seed
   has one. A mismatch fails all of the cell's ops. *)
let check t (w : Cells.workload) (c : Cells.cell) (o : Cells.outcome) =
  t.attempted <- t.attempted + c.nominal_ops;
  let bad msg =
    error t (Printf.sprintf "%s/%s: %s" w.name c.id msg);
    t.failed <- t.failed + c.nominal_ops
  in
  let first =
    match Hashtbl.find_opt t.first_virt (w.name, c.id) with
    | Some v -> v
    | None ->
      Hashtbl.add t.first_virt (w.name, c.id) o.virt;
      o.virt
  in
  if o.virt <> first then bad ("output changed between runs: " ^ o.virt)
  else
    match Hashtbl.find_opt golden (!seed, w.name, c.id) with
    | Some g when g <> o.virt ->
      bad (Printf.sprintf "output %S differs from golden %S" o.virt g)
    | _ ->
      if o.failed > 0 then begin
        error t
          (Printf.sprintf "%s/%s: %d ops failed (%s)" w.name c.id o.failed
             o.virt);
        t.failed <- t.failed + o.failed
      end

let run_cell t w (c : Cells.cell) counters =
  match c.run ~seed:!seed counters with
  | o ->
    check t w c o;
    Some o
  | exception e ->
    t.attempted <- t.attempted + c.nominal_ops;
    t.failed <- t.failed + c.nominal_ops;
    error t
      (Printf.sprintf "%s/%s raised %s" w.Cells.name c.id
         (Printexc.to_string e));
    None

(* --- one sweep ---------------------------------------------------------- *)

type sweep = {
  ops : int;
  wall_s : float;  (* host seconds the cells charge (see Cells.outcome) *)
  ref_s : float;  (* the same, in reference-host seconds (see Probe) *)
  call_s : float;  (* host seconds of the whole entry-point calls *)
  words : float;  (* minor words the cells allocated *)
  cells : (string * float * int) list;  (* placement, wall_s, units *)
}

(* The probe time at the end of the previous block of cells. *)
let last_probe = ref nan

(* Cells run in blocks of at least [block_s] host seconds, closed by a
   probe at the block's end and at the end of the sweep; a block's cells
   are scaled to reference seconds by the mean of the probes on either
   side of it. A long block (a farm run) gets one probe run per 0.5 s of
   it, and their median, so that its scale is no noisier than a short
   block's. *)
let block_s = 0.1

let probe_block block =
  Sample.median
    (List.init (1 + int_of_float (block /. 0.5)) (fun _ -> Probe.run ()))

let sweep ?(between = fun () -> ()) ?counters ?(on_cell = fun () -> ())
    ?(probe = false) t (w : Cells.workload) =
  let ops = ref 0 and wall = ref 0. and ref_wall = ref 0. and cells = ref [] in
  let words = ref 0. in
  let block = ref 0. in
  let close_block () =
    if probe then begin
      let p = probe_block !block in
      let before = if Float.is_nan !last_probe then p else !last_probe in
      ref_wall := !ref_wall +. (!block *. Probe.ref_s /. ((before +. p) /. 2.));
      last_probe := p
    end;
    block := 0.
  in
  let (), call_s =
    Cells.time (fun () ->
        List.iteri
          (fun i (c : Cells.cell) ->
            on_cell ();
            let w0 = Gc.minor_words () in
            let r = run_cell t w c counters in
            words := !words +. (Gc.minor_words () -. w0);
            (match r with
            | Some o ->
              ops := !ops + o.ops;
              wall := !wall +. o.wall_s;
              block := !block +. o.wall_s;
              cells := (c.placement, o.wall_s, o.units) :: !cells
            | None -> ());
            between ();
            if !block >= block_s || i = List.length w.cells - 1 then
              close_block ())
          w.cells)
  in
  {
    ops = !ops;
    wall_s = !wall;
    ref_s = !ref_wall;
    call_s;
    words = !words;
    cells = List.rev !cells;
  }

(* Time topology builds of every cell, at least [reps] of them and for
   at least [min_s] seconds, onto [samples]. *)
let setup_reps ?(reps = 1) ?(min_s = 0.) samples (w : Cells.workload) =
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n < reps || Unix.gettimeofday () -. t0 < min_s do
    let (), s =
      Cells.time (fun () ->
          List.iter (fun (c : Cells.cell) -> c.setup ~seed:!seed) w.cells)
    in
    samples := s :: !samples;
    incr n
  done

(* --- metrics ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.) }

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let mb_of_words w = fi w *. fi (Sys.word_size / 8) /. 1e6

(* --- the scored run ----------------------------------------------------- *)

let scored t (w : Cells.workload) =
  (* the first sweep fills the heap and any lazy state; it is checked
     but not timed, and the heap's peak is read after it, before the
     probe's own tree exists *)
  ignore (sweep t w);
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let budget = fi !seconds in
  let t0 = Unix.gettimeofday () in
  let samples = ref [] and setups = ref [] in
  while List.length !samples < 3 || Unix.gettimeofday () -. t0 < budget do
    samples := sweep ~probe:true t w :: !samples;
    (* set-up is timed in short bursts between the sweeps, scaled to
       the reference host by the probe that closed the sweep *)
    let burst = ref [] in
    setup_reps ~reps:3 ~min_s:0.01 burst w;
    setups :=
      List.map (fun s -> s *. Probe.ref_s /. !last_probe) !burst @ !setups
  done;
  let setup = Sample.median !setups in
  let s = !samples in
  let rate = Sample.median (List.map (fun x -> ratio (fi x.ops) x.wall_s) s) in
  let ref_rate =
    Sample.median (List.map (fun x -> ratio (fi x.ops) x.ref_s) s)
  in
  let words = Sample.median (List.map (fun x -> ratio x.words (fi x.ops)) s) in
  Printf.printf "# %s: %d timed sweeps of %d cells, op = %s\n" w.name
    (List.length s) (List.length w.cells) w.op;
  (* the raw rate swings with the shared host's load too much to gate
     on; it is printed, and ops_per_ref_s is the gated figure *)
  (match w.name with
  | "c10k" ->
    Printf.printf "#   conns_per_wall_s %.1f 1/s, bytes_per_conn %.1f B\n" rate
      !Cells.last_bytes_per_conn
  | "rpc" -> Printf.printf "#   rtts_per_wall_s %.1f 1/s\n" rate
  | _ -> Printf.printf "#   sim_mb_per_wall_s %.3f MB/s\n" rate);
  [
    m "setup_s" "s" setup;
    m "ops_per_ref_s" "1/s" ref_rate;
    m "alloc_words_per_op" "words" words;
    m "peak_heap_mb" "MB" (mb_of_words peak_words);
  ]

(* --- the traced run ----------------------------------------------------- *)

(* A synthetic driver on the public Engine API: [fibers] fibers, each
   with a re-armed protocol-style timer, cycling through sleep, suspend
   and resume — the engine's dispatch cost at the workload's live fiber
   and timer population. Returns wall ns per scheduled event. *)
let engine_dispatch ~fibers =
  let open Psd_sim in
  let eng = Engine.create ~seed:1 () in
  let rounds = max 4 (600_000 / (3 * fibers)) in
  for i = 0 to fibers - 1 do
    let tm = Engine.timer () in
    Engine.spawn eng (fun () ->
        for r = 1 to rounds do
          Engine.timer_arm eng tm (Time.ms 50) ignore;
          Engine.sleep eng (1 + (((i * 7919) + (r * 104729)) mod 10_000));
          Engine.suspend eng (fun resume -> Engine.schedule eng 0 resume);
          if r land 1 = 0 then Engine.timer_cancel eng tm
        done)
  done;
  let (), s = Cells.time (fun () -> Engine.run eng) in
  s *. 1e9 /. fi (Engine.events_scheduled eng)

type copies = { mutable rx : int; mutable tx : int; mutable bytes : int }

let not_a_copy = Psd_util.Copies.[ Wire; Rx_loan; Tx_owned ]

(* Copy counters since the last reset, into [acc]. *)
let add_copies acc =
  acc.rx <- acc.rx + Psd_util.Copies.rx_datapath_copies ();
  acc.tx <- acc.tx + Psd_util.Copies.tx_datapath_copies ();
  List.iter
    (fun s ->
      if not (List.mem s not_a_copy) then
        acc.bytes <- acc.bytes + Psd_util.Copies.bytes s)
    Psd_util.Copies.all_sites

let out_dir () =
  Option.value
    (Sys.getenv_opt "PERFBENCH_OUT")
    ~default:".bench_build/perfbench"

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let traced t (w : Cells.workload) =
  Spans.all := [];
  let counters = Topo.counters () in
  let copies = { rx = 0; tx = 0; bytes = 0 } in
  let replica_counters =
    if w.counters_from_replicas then counters else Topo.counters ()
  in
  let cap = Replay.create () in
  let replay = ref None in
  let dispatch_ns = ref 0. in
  let baseline = ref [] in
  let traced_sweep = ref None in
  let gc_run = ref None in
  let run_span = ref None in
  Spans.with_span "workload" (fun () ->
      Spans.with_span "setup" (fun () -> setup_reps (ref []) w);
      (* untraced sweeps: the reference outputs, the cell times for
         placement attribution, and the base of the tracing overhead *)
      Spans.with_span "baseline" (fun () ->
          ignore (sweep t w);
          baseline := List.init 3 (fun _ -> sweep t w));
      Gcphases.start ();
      Spans.with_span "run" (fun () ->
          let g0 = Gc.quick_stat () in
          let on_cell () = Psd_util.Copies.reset () in
          let between () =
            if not w.counters_from_replicas then add_copies copies;
            Gcphases.poll ()
          in
          traced_sweep :=
            Some
              (sweep ~between ~on_cell
                 ?counters:
                   (if w.counters_from_replicas then None else Some counters)
                 t w);
          gc_run := Some (g0, Gc.quick_stat ());
          run_span := Some (List.hd !Spans.open_spans));
      Spans.with_span "replay" (fun () ->
          Spans.with_span "capture" (fun () ->
              List.iter
                (fun (c : Cells.cell) ->
                  match c.replica with
                  | None -> ()
                  | Some replica -> (
                    Replay.new_cell cap;
                    Psd_util.Copies.reset ();
                    let on_frame = Replay.capture cap in
                    match
                      replica ~seed:!seed ~between:Gcphases.poll
                        replica_counters on_frame
                    with
                    | virt ->
                      if w.counters_from_replicas then add_copies copies;
                      let want = Hashtbl.find_opt t.first_virt (w.name, c.id) in
                      if want <> Some virt then begin
                        t.failed <- t.failed + c.nominal_ops;
                        error t
                          (Printf.sprintf
                             "%s/%s: tapped replica output %S differs from the \
                              entry point's %S"
                             w.name c.id virt
                             (Option.value want ~default:"(none)"))
                      end
                    | exception e ->
                      t.failed <- t.failed + c.nominal_ops;
                      error t
                        (Printf.sprintf "%s/%s: tapped replica raised %s" w.name
                           c.id (Printexc.to_string e))))
                (Cells.tapped w));
          replay := Some (Replay.run cap));
      Spans.with_span "engine.dispatch" (fun () ->
          dispatch_ns :=
            engine_dispatch ~fibers:(max 2 replica_counters.fibers_peak)));
  Gcphases.finish ();
  let replay = Option.get !replay in
  let tsw = Option.get !traced_sweep in
  let run_span = Option.get !run_span in
  let g0, g1 = Option.get !gc_run in
  let ops =
    if w.counters_from_replicas then
      fi
        (List.fold_left
           (fun a (c : Cells.cell) -> a + c.nominal_ops)
           0 w.cells)
    else fi tsw.ops
  in
  let events = fi counters.events in
  let base_wall = Sample.median (List.map (fun s -> s.wall_s) !baseline) in
  let base_call = Sample.median (List.map (fun s -> s.call_s) !baseline) in
  let gc_minor = Gcphases.within run_span "gc.minor" in
  let gc_major = Gcphases.within run_span "gc.major" in
  let c = counters in
  (* per placement: the median over the baseline sweeps of the summed
     cell walls, per segment (ttcp) or per round trip (protolat) *)
  let placement_cost id =
    let per_sweep s =
      let wall, units =
        List.fold_left
          (fun (wa, u) (p, wl, n) ->
            if p = id then (wa +. wl, u + n) else (wa, u))
          (0., 0) s.cells
      in
      ratio wall (fi units)
    in
    Sample.median (List.map per_sweep !baseline)
  in
  let ttcp_w = w.name = "bulk" || w.name = "lossy" in
  let placement_metrics =
    List.map
      (fun (id, _) ->
        m (Printf.sprintf "placement.%s.host_ns_per_seg" id) "ns"
          (if ttcp_w then placement_cost id *. 1e9 else 0.))
      Cells.placements
    @ List.map
        (fun id ->
          m (Printf.sprintf "placement.%s.host_us_per_rtt" id) "us"
            (if w.name = "rpc" then placement_cost id *. 1e6 else 0.))
        Cells.rpc_placements
  in
  let overhead_pct = (tsw.call_s -. base_call) /. base_call *. 100. in
  (* the span file *)
  let dir = out_dir () in
  mkdir_p dir;
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" w.name !seed)
  in
  let oc = open_out path in
  output_string oc (Spans.to_json ());
  output_string oc "\n";
  close_out oc;
  Printf.printf
    "# %s: spans in %s; %d frames replayed, %d mismatches; GC events lost: \
     %d\n"
    w.name path replay.frames replay.mismatches !Gcphases.lost;
  Printf.printf "#   udp.verify_ns_per_dgram %.1f ns\n" replay.udp_ns;
  if replay.mismatches > 0 then begin
    t.failed <- t.failed + 1;
    error t
      (Printf.sprintf "%s: %d replayed frames changed verdict" w.name
         replay.mismatches)
  end;
  [
    m "engine.events_per_op" "count" (ratio events ops);
    m "engine.host_ns_per_event" "ns" (ratio (base_wall *. 1e9) events);
    m "engine.dispatch_ns" "ns" !dispatch_ns;
    m "engine.fibers_alive_end" "count" (fi c.fibers_alive_end);
    m "gc.minor_words_per_event" "words"
      (ratio (g1.Gc.minor_words -. g0.Gc.minor_words) events);
    m "gc.promoted_words_per_event" "words"
      (ratio (g1.Gc.promoted_words -. g0.Gc.promoted_words) events);
    m "gc.minor_collections" "count"
      (fi (g1.Gc.minor_collections - g0.Gc.minor_collections));
    m "gc.major_collections" "count"
      (fi (g1.Gc.major_collections - g0.Gc.major_collections));
    m "gc.minor_ns" "ns" gc_minor;
    m "gc.major_ns" "ns" gc_major;
    m "gc.share" "ratio"
      (ratio (gc_minor +. gc_major) (Spans.duration run_span));
    m "netdev.rx_frames_per_op" "count" (ratio (fi c.rx_frames) ops);
    m "netdev.rx_unmatched" "count" (fi c.rx_unmatched);
    m "bpf.demux_ns_per_frame" "ns" replay.bpf_ns;
    m "ip.delivered_per_op" "count" (ratio (fi c.ip_delivered) ops);
    m "ip.fragmented" "count" (fi c.ip_fragmented);
    m "ip.reassembled" "count" (fi c.ip_reassembled);
    m "ip.dropped" "count" (fi c.ip_dropped);
    m "ip.decode_ns_per_pkt" "ns" replay.ip_ns;
    m "tcp.segs_per_op" "count" (ratio (fi c.tcp_segs_out) ops);
    m "tcp.predict_hit_ratio" "ratio"
      (ratio (fi c.tcp_predict_hit)
         (fi (c.tcp_predict_hit + c.tcp_predict_miss)));
    m "tcp.rexmt_segs" "count" (fi c.tcp_rexmt_segs);
    m "tcp.ooo_segs" "count" (fi c.tcp_ooo_segs);
    m "tcp.dup_acks_in" "count" (fi c.tcp_dup_acks_in);
    m "tcp.pool_hit_ratio" "ratio"
      (ratio (fi c.pool_hits) (fi (c.pool_hits + c.pool_fresh)));
    m "tcp.decode_ns_per_seg" "ns" replay.tcp_ns;
    m "copies.rx_body_per_pkt" "count" (ratio (fi copies.rx) (fi c.rx_frames));
    m "copies.tx_body_per_pkt" "count" (ratio (fi copies.tx) (fi c.rx_frames));
    m "copies.bytes_per_op" "B" (ratio (fi copies.bytes) ops);
    m "mbuf.rx_chain_ns_per_seg" "ns" replay.mbuf_ns;
    m "checksum.ns_per_kb" "ns" replay.checksum_ns_per_kb;
  ]
  @ placement_metrics
  @ [
      m "replay.frames" "count" (fi replay.frames);
      m "replay.mismatches" "count" (fi replay.mismatches);
      m "trace.overhead_pct" "%" overhead_pct;
    ]

(* --- output ------------------------------------------------------------- *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
           x.unit_)
       ms)

let host_facts () =
  Printf.sprintf
    "{\"host\": {\"nproc\": %s, \"recommended_domain_count\": %d, \
     \"ocaml\": %S, \"commit\": %S, \"trace\": %d, \"seed\": %d, \
     \"seconds\": %d}}"
    (Option.value (Sys.getenv_opt "PERFBENCH_NPROC") ~default:"null")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown")
    !trace !seed !seconds

let record () =
  List.iter
    (fun (w : Cells.workload) ->
      List.iter
        (fun (c : Cells.cell) ->
          let o = c.run ~seed:!seed None in
          Printf.printf "%d %s %s %s\n%!" !seed w.name c.id o.virt)
        w.cells)
    workloads

let () =
  if !record_golden then record ()
  else begin
    let t = tally () in
    let results =
      List.map
        (fun (w : Cells.workload) ->
          let ms = if !trace = 1 then traced t w else scored t w in
          List.iter
            (fun x ->
              Printf.printf "%-40s %16.6g %s\n" (w.name ^ " " ^ x.name) x.value
                x.unit_)
            ms;
          (w.name, ms))
        workloads
    in
    List.iter
      (fun e -> prerr_endline ("perfbench: FAILED " ^ e))
      (List.rev t.errors);
    let ms =
      match results with
      | [ (_, ms) ] -> ms
      | _ ->
        List.concat_map
          (fun (wn, ms) ->
            List.map (fun x -> { x with name = wn ^ "." ^ x.name }) ms)
          results
    in
    Printf.printf "#   error_rate %.6g\n"
      (ratio (fi t.failed) (fi (max 1 t.attempted)));
    print_endline (host_facts ());
    Printf.printf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
       {%s}}\n"
      (t.failed = 0) (max 1 t.attempted) t.failed (json_metrics ms);
    exit (if t.failed = 0 then 0 else 1)
  end
