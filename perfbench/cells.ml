(* The four workloads, as calls into the public entry points
   [Ttcp.run], [Protolat.run] and [Scale.run]. A cell is one call; a
   workload's sweep runs every cell once. See README.md for why each
   workload exists and what one op is. *)

open Psd_workloads

type outcome = {
  ops : int;  (* ops the cell completed *)
  failed : int;  (* ops lost to a failed check *)
  units : int;
      (* what placement attribution divides by: sender data segments
         (ttcp) or round trips (protolat) *)
  virt : string;  (* virtual-time output, compared against the golden *)
  wall_s : float;  (* host seconds charged to the cell *)
}

type cell = {
  id : string;
  placement : string;
  nominal_ops : int;  (* ops a failure of the whole cell loses *)
  run : seed:int -> Topo.counters option -> outcome;
      (* with [Some c], fold the layer counters the entry point exposes
         into [c] *)
  setup : seed:int -> unit;  (* build the cell's topology, run nothing *)
  replica :
    (seed:int ->
    between:(unit -> unit) ->
    Topo.counters ->
    (Bytes.t -> unit) ->
    string)
    option;
      (* the traced run's tapped rebuild; returns its virtual output *)
}

type workload = {
  name : string;
  op : string;  (* what one op is *)
  cells : cell list;
  counters_from_replicas : bool;
      (* the entry point exposes no counters, so the traced run reads
         the layer counters off the replicas *)
}

let placements =
  Psd_cost.Config.
    [
      ("mach25", mach25_kernel);
      ("ultrix", ultrix_kernel);
      ("ux", ux_server);
      ("lib_ipc", library_ipc);
      ("lib_shm", library_shm);
      ("lib_shm_ipf", library_shm_ipf);
      ("lib_newapi_shm_ipf", library_newapi_shm_ipf);
      ("offload", offload);
    ]

let config_of id = List.assoc id placements

let time f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

(* --- virtual-time outputs ----------------------------------------------- *)

let ttcp_virt (r : Ttcp.result) =
  let v = r.recovery in
  Printf.sprintf
    "kb_per_sec=%.17g elapsed_ns=%d segs_out=%d rexmt=%d fast_rexmt=%d \
     dup_acks_in=%d ooo_segs=%d drop_checksum=%d drop_malformed=%d \
     reass_timed_out=%d injected=%d"
    r.kb_per_sec r.elapsed_ns r.segs_out v.rexmt v.fast_rexmt v.dup_acks_in
    v.ooo_segs v.drop_checksum v.drop_malformed v.reass_timed_out v.injected

let protolat_virt (r : Protolat.result) =
  Printf.sprintf "rtt_ms=%.17g rounds=%d" r.rtt_ms r.rounds

let scale_virt ~echoed ~failed ~virtual_ns ~peak_pcbs ~final_pcbs =
  Printf.sprintf "echoed=%d failed=%d virtual_ns=%d peak_pcbs=%d final_pcbs=%d"
    echoed failed virtual_ns peak_pcbs final_pcbs

(* --- ttcp cells (bulk, lossy) ------------------------------------------- *)

let ttcp_cell ?fault placement =
  let config = config_of placement in
  let mb = Topo.ttcp_mb in
  let run ~seed counters =
    let probe ~sender ~receiver =
      match counters with
      | None -> ()
      | Some c ->
        Topo.add_engine c
          (Psd_mach.Host.eng (Psd_core.System.host sender));
        Topo.add_system c sender;
        Topo.add_system c receiver
    in
    let r, wall_s = time (fun () -> Ttcp.run ~mb ~seed ?fault ~probe config) in
    (* Ttcp.run itself raises on a short or corrupt transfer *)
    { ops = mb; failed = 0; units = r.segs_out; virt = ttcp_virt r; wall_s }
  in
  let replica =
    if config.Psd_cost.Config.api = Psd_cost.Config.Classic then
      Some
        (fun ~seed ~between c on_frame ->
          ttcp_virt (Topo.ttcp ~seed ?fault ~between c on_frame config))
    else None
  in
  {
    id = placement;
    placement;
    nominal_ops = mb;
    run;
    setup = (fun ~seed -> Topo.ttcp_setup ~seed ?fault config);
    replica;
  }

(* --- protolat cells (rpc) ----------------------------------------------- *)

let rpc_cell (proto, size) placement =
  let config = config_of placement in
  let rtts = Topo.rpc_rounds + Topo.rpc_warmup in
  let run ~seed _ =
    let r, wall_s =
      time (fun () ->
          Protolat.run ~rounds:Topo.rpc_rounds ~warmup:Topo.rpc_warmup ~seed
            ~proto ~size config)
    in
    let failed = if r.na || r.rounds <> Topo.rpc_rounds then rtts else 0 in
    {
      ops = rtts - failed;
      failed;
      units = rtts;
      virt = protolat_virt r;
      wall_s;
    }
  in
  {
    id =
      Printf.sprintf "%s%d.%s"
        (match proto with Protolat.Tcp -> "tcp" | Protolat.Udp -> "udp")
        size placement;
    placement;
    nominal_ops = rtts;
    run;
    setup = (fun ~seed -> Topo.protolat_setup ~seed config);
    replica =
      Some
        (fun ~seed ~between c on_frame ->
          protolat_virt
            (Topo.protolat ~seed ~between c on_frame ~proto ~size config));
  }

(* --- the farm (c10k) ---------------------------------------------------- *)

let c10k_conns = 10_000

(* bytes_per_conn of the last farm run: an end-to-end figure of c10k
   that only Scale.result carries (printed with the workload's lines) *)
let last_bytes_per_conn = ref nan

let farm_cell =
  let conns = c10k_conns in
  let run ~seed _ =
    match Scale.run ~conns ~seed () with
    | Error e -> failwith (Format.asprintf "scale: %a" Scale.pp_error e)
    | Ok r ->
      last_bytes_per_conn := r.bytes_per_conn;
      let failed =
        if r.final_pcbs <> 0 then conns else conns - r.echoed
      in
      {
        ops = conns - failed;
        failed;
        units = conns;
        virt =
          scale_virt ~echoed:r.echoed ~failed:r.failed
            ~virtual_ns:r.virtual_ns ~peak_pcbs:r.peak_pcbs
            ~final_pcbs:r.final_pcbs;
        (* Scale.run times its simulation phase itself, leaving out the
           topology build and the GC walks of its memory samples *)
        wall_s = r.wall_s;
      }
  in
  {
    id = "farm10k.mach25";
    placement = "mach25";
    nominal_ops = conns;
    run;
    setup = (fun ~seed -> Topo.farm_setup ~seed ~conns);
    replica =
      Some
        (fun ~seed ~between c on_frame ->
          let r = Topo.scale ~seed ~conns ~between c on_frame in
          scale_virt ~echoed:r.echoed ~failed:r.failed ~virtual_ns:r.virtual_ns
            ~peak_pcbs:r.peak_pcbs ~final_pcbs:r.final_pcbs);
  }

(* --- the workloads ------------------------------------------------------ *)

let rpc_shapes = Protolat.[ (Tcp, 1); (Udp, 1); (Udp, 4000) ]

let rpc_placements =
  [ "mach25"; "ux"; "lib_shm_ipf"; "lib_newapi_shm_ipf"; "offload" ]

let workloads =
  [
    {
      name = "bulk";
      op = "MB";
      cells = List.map (fun (p, _) -> ttcp_cell p) placements;
      counters_from_replicas = false;
    };
    {
      name = "rpc";
      op = "rtt";
      cells =
        List.concat_map
          (fun shape ->
            List.map (rpc_cell shape)
              rpc_placements)
          rpc_shapes;
      counters_from_replicas = true;
    };
    {
      name = "c10k";
      op = "conn";
      cells = [ farm_cell ];
      counters_from_replicas = true;
    };
    {
      name = "lossy";
      op = "MB";
      cells =
        List.map
          (ttcp_cell ~fault:(Psd_link.Fault.chaos 0.01))
          [ "mach25"; "lib_shm_ipf" ];
      counters_from_replicas = false;
    };
  ]

(* The cells whose tapped replicas feed the replay: the Mach 2.5 kernel
   cell of bulk (all eight transfers put the same 16 MB of MSS-sized
   segments on the wire, and the replayed layers do not depend on the
   placement), both lossy cells, every rpc cell, and the farm. *)
let tapped w =
  List.filter
    (fun c ->
      c.replica <> None && (w.name <> "bulk" || c.placement = "mach25"))
    w.cells
