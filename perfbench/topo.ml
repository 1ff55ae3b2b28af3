(* Topologies rebuilt from the public System / Sockets / Router API.

   setup_s times how long building a workload's topology takes, so the
   builders here follow the entry points' construction step for step.
   The traced run also rebuilds whole cells (a ttcp transfer, a protolat
   echo, the scale farm) with a wire tap, because the entry points build
   their segments internally and expose no hook for one. A replica must
   reproduce its entry point's virtual-time output exactly; the traced
   run checks that and discards the layer numbers of any replica that
   does not. *)

open Psd_core

(* --- the wire tap ------------------------------------------------------- *)

(* A promiscuous NIC, like Snoop's, but with a null per-NIC fault process:
   that overrides a lossy segment's fault process for the tap's own
   deliveries, so the tap draws nothing from the fault RNG (the hosts'
   fault schedule is unchanged) and sees every frame as it was sent. *)
let attach_tap segment on_frame =
  let nic =
    Psd_link.Segment.attach segment
      ~mac:(Psd_link.Macaddr.of_host_id 0xffffe)
  in
  Psd_link.Segment.set_promiscuous nic true;
  Psd_link.Segment.set_nic_fault nic
    (Some
       (Psd_link.Fault.create
          ~rng:(Psd_util.Rng.create ~seed:0)
          Psd_link.Fault.none));
  Psd_link.Segment.set_rx nic on_frame

(* --- per-layer counters read after a replica ran ------------------------ *)

type counters = {
  mutable events : int;
  mutable fibers_alive_end : int;
  mutable fibers_peak : int;  (* sampled between run chunks *)
  mutable rx_frames : int;
  mutable rx_unmatched : int;
  mutable ip_delivered : int;
  mutable ip_fragmented : int;
  mutable ip_reassembled : int;
  mutable ip_dropped : int;
  mutable tcp_segs_out : int;
  mutable tcp_predict_hit : int;
  mutable tcp_predict_miss : int;
  mutable tcp_rexmt_segs : int;
  mutable tcp_ooo_segs : int;
  mutable tcp_dup_acks_in : int;
  mutable pool_fresh : int;
  mutable pool_hits : int;
}

let counters () =
  {
    events = 0;
    fibers_alive_end = 0;
    fibers_peak = 0;
    rx_frames = 0;
    rx_unmatched = 0;
    ip_delivered = 0;
    ip_fragmented = 0;
    ip_reassembled = 0;
    ip_dropped = 0;
    tcp_segs_out = 0;
    tcp_predict_hit = 0;
    tcp_predict_miss = 0;
    tcp_rexmt_segs = 0;
    tcp_ooo_segs = 0;
    tcp_dup_acks_in = 0;
    pool_fresh = 0;
    pool_hits = 0;
  }

(* Fold one host's device, IP, TCP and PCB-pool counters into [c]. *)
let add_system c sys =
  let nd = System.netdev sys in
  c.rx_frames <- c.rx_frames + Psd_mach.Netdev.rx_frames nd;
  c.rx_unmatched <- c.rx_unmatched + Psd_mach.Netdev.rx_unmatched nd;
  List.iter
    (fun (s : Psd_ip.Ip.stats) ->
      c.ip_delivered <- c.ip_delivered + s.ip_delivered;
      c.ip_fragmented <- c.ip_fragmented + s.ip_fragmented;
      c.ip_reassembled <- c.ip_reassembled + s.ip_reassembled;
      c.ip_dropped <-
        c.ip_dropped + s.ip_dropped_header + s.ip_dropped_proto
        + s.ip_dropped_addr + s.ip_no_route)
    (System.stacks_ip_stats sys);
  List.iter
    (fun (s : Psd_tcp.Tcp.stats) ->
      c.tcp_segs_out <- c.tcp_segs_out + s.segs_out;
      c.tcp_predict_hit <- c.tcp_predict_hit + s.predict_hit;
      c.tcp_predict_miss <- c.tcp_predict_miss + s.predict_miss;
      c.tcp_rexmt_segs <- c.tcp_rexmt_segs + s.rexmt_segs;
      c.tcp_ooo_segs <- c.tcp_ooo_segs + s.ooo_segs;
      c.tcp_dup_acks_in <- c.tcp_dup_acks_in + s.dup_acks_in)
    (System.stacks_tcp_stats sys);
  match System.kernel_stack sys with
  | Some st ->
    let fresh, hits, _, _ = Psd_tcp.Tcp.pool_stats (Netstack.tcp st) in
    c.pool_fresh <- c.pool_fresh + fresh;
    c.pool_hits <- c.pool_hits + hits
  | None -> ()

let add_engine c eng =
  c.events <- c.events + Psd_sim.Engine.events_scheduled eng;
  c.fibers_alive_end <- c.fibers_alive_end + Psd_sim.Engine.alive eng

(* Run [eng] up to absolute time [stop] in [chunk]-sized steps, calling
   [between] after each. Stepping [run_until] in chunks dispatches the
   same events in the same order as one call: nothing is scheduled from
   outside a fiber between the steps. *)
let run_chunked ?(chunk = Psd_sim.Time.ms 100) ~between c eng stop =
  while Psd_sim.Engine.now eng < stop do
    Psd_sim.Engine.run_until eng (min stop (Psd_sim.Engine.now eng + chunk));
    c.fibers_peak <- max c.fibers_peak (Psd_sim.Engine.alive eng);
    between ()
  done

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* --- two hosts on one segment (ttcp, protolat) -------------------------- *)

type pair = {
  eng : Psd_sim.Engine.t;
  segment : Psd_link.Segment.t;
  wire_fault : Psd_link.Fault.t option;
  a : System.t;
  b : System.t;
}

(* The construction [Ttcp.run] and [Protolat.run] perform before their
   first event: engine, segment, optional wire fault process (split off
   the engine's RNG only for a live policy), two hosts. *)
let pair ~seed ?rcv_buf ?fault ~names:(na, nb) config =
  let eng = Psd_sim.Engine.create ~seed () in
  let segment = Psd_link.Segment.create eng () in
  let wire_fault =
    match fault with
    | Some policy when not (Psd_link.Fault.is_null policy) ->
      let f =
        Psd_link.Fault.create
          ~rng:(Psd_util.Rng.split (Psd_sim.Engine.rng eng))
          policy
      in
      Psd_link.Segment.set_fault segment (Some f);
      Some f
    | _ -> None
  in
  let plat = Psd_cost.Platform.decstation in
  let a =
    System.create ~eng ~segment ~config ~plat ?rcv_buf ~addr:"10.0.0.1"
      ~name:na ()
  in
  let b =
    System.create ~eng ~segment ~config ~plat ?rcv_buf ~addr:"10.0.0.2"
      ~name:nb ()
  in
  { eng; segment; wire_fault; a; b }

(* --- ttcp --------------------------------------------------------------- *)

let ttcp_mb = 16

let ttcp_pair ~seed ?fault config =
  pair ~seed
    ~rcv_buf:(Psd_workloads.Paper.best_rcv_buf Psd_workloads.Paper.Dec config)
    ?fault ~names:("sender", "receiver") config

(* [Ttcp.run]'s topology, including both applications. *)
let ttcp_setup ~seed ?fault config =
  let p = ttcp_pair ~seed ?fault config in
  ignore (System.app p.b ~name:"ttcp-r");
  ignore (System.app p.a ~name:"ttcp-s")

let pattern = String.init (65536 + 256) (fun i -> Char.chr (i land 0xff))

(* Replica of [Ttcp.run] for the classic socket API (the placements the
   traced run taps): same calls, in the same order, on the same
   topology, plus a tap. Returns the entry point's result record. *)
let ttcp ~seed ?fault ~between c on_frame config =
  if config.Psd_cost.Config.api <> Psd_cost.Config.Classic then
    invalid_arg "Topo.ttcp: classic socket API only";
  let p = ttcp_pair ~seed ?fault config in
  attach_tap p.segment on_frame;
  let total = ttcp_mb * 1024 * 1024 in
  let received = ref 0 and t_start = ref 0 and t_end = ref 0 in
  let busy_start = ref 0 in
  let rapp = System.app p.b ~name:"ttcp-r" in
  Psd_sim.Engine.spawn p.eng ~name:"ttcp-r" (fun () ->
      let s = Sockets.stream rapp in
      ignore (ok "ttcp bind" (Sockets.bind s ~port:5001 ()));
      ok "ttcp listen" (Sockets.listen s ());
      let conn = ok "ttcp accept" (Sockets.accept s) in
      let rec drain () =
        match Sockets.recv conn ~max:65536 with
        | Ok "" -> t_end := Psd_sim.Engine.now p.eng
        | Ok d ->
          let n = String.length d in
          if
            not (String.equal d (String.sub pattern (!received land 0xff) n))
          then failwith "ttcp replica: payload corrupt";
          received := !received + n;
          drain ()
        | Error e -> failwith ("ttcp receiver: " ^ e)
      in
      drain ());
  let sapp = System.app p.a ~name:"ttcp-s" in
  Psd_sim.Engine.spawn p.eng ~name:"ttcp-s" (fun () ->
      let s = Sockets.stream sapp in
      ok "ttcp connect" (Sockets.connect s (System.addr p.b) 5001);
      t_start := Psd_sim.Engine.now p.eng;
      busy_start := Psd_link.Segment.busy_ns p.segment;
      let block = String.init 8192 (fun i -> Char.chr (i land 0xff)) in
      let rec pump sent =
        if sent < total then begin
          let n = min 8192 (total - sent) in
          let chunk = if n = 8192 then block else String.sub block 0 n in
          ignore (ok "ttcp send" (Sockets.send s chunk));
          pump (sent + n)
        end
      in
      pump 0;
      Sockets.close s);
  run_chunked ~between c p.eng (Psd_sim.Time.sec (60 * (ttcp_mb + 4)));
  if !received < total then failwith "ttcp replica: transfer incomplete";
  add_engine c p.eng;
  add_system c p.a;
  add_system c p.b;
  let sa = System.stacks_tcp_stats p.a in
  let both = sa @ System.stacks_tcp_stats p.b in
  let sum l f = List.fold_left (fun acc st -> acc + f st) 0 l in
  let elapsed = !t_end - !t_start in
  let recovery : Psd_workloads.Ttcp.recovery =
    {
      rexmt = sum both (fun st -> st.Psd_tcp.Tcp.rexmt_segs);
      fast_rexmt = sum both (fun st -> st.Psd_tcp.Tcp.fast_rexmt);
      dup_acks_in = sum both (fun st -> st.Psd_tcp.Tcp.dup_acks_in);
      ooo_segs = sum both (fun st -> st.Psd_tcp.Tcp.ooo_segs);
      drop_checksum = sum both (fun st -> st.Psd_tcp.Tcp.drop_checksum);
      drop_malformed = sum both (fun st -> st.Psd_tcp.Tcp.drop_malformed);
      reass_timed_out = System.reass_timed_out p.a + System.reass_timed_out p.b;
      injected =
        (match p.wire_fault with
        | None -> 0
        | Some f -> Psd_link.Fault.injected (Psd_link.Fault.stats f));
      predict_hit = sum both (fun st -> st.Psd_tcp.Tcp.predict_hit);
      predict_miss = sum both (fun st -> st.Psd_tcp.Tcp.predict_miss);
    }
  in
  ({
     config;
     bytes = total;
     elapsed_ns = elapsed;
     kb_per_sec = float_of_int total /. 1024. /. (float_of_int elapsed /. 1e9);
     rcv_buf = Psd_workloads.Paper.best_rcv_buf Psd_workloads.Paper.Dec config;
     segs_out = sum sa (fun st -> st.Psd_tcp.Tcp.segs_out);
     rexmt = sum sa (fun st -> st.Psd_tcp.Tcp.rexmt_segs);
     wire_utilization =
       float_of_int (Psd_link.Segment.busy_ns p.segment - !busy_start)
       /. float_of_int elapsed;
     recovery;
   }
    : Psd_workloads.Ttcp.result)

(* --- protolat ----------------------------------------------------------- *)

let rpc_rounds = 200
let rpc_warmup = 8

let protolat_pair ~seed config =
  pair ~seed ~names:("client", "server") config

let protolat_setup ~seed config =
  let p = protolat_pair ~seed config in
  ignore (System.app p.b ~name:"echo");
  ignore (System.app p.a ~name:"protolat")

(* Replica of [Protolat.run] (default rounds and warm-up), plus a tap. *)
let protolat ~seed ~between c on_frame ~proto ~size config =
  let open Psd_workloads.Protolat in
  let p = protolat_pair ~seed config in
  attach_tap p.segment on_frame;
  let eng = p.eng in
  let stats = Psd_util.Stats.create () in
  let payload = String.make size 'p' in
  let sapp = System.app p.b ~name:"echo" in
  Psd_sim.Engine.spawn eng ~name:"echo" (fun () ->
      match proto with
      | Udp ->
        let s = Sockets.dgram sapp in
        ignore (ok "echo bind" (Sockets.bind s ~port:7 ()));
        let rec loop () =
          match Sockets.recvfrom s ~max:65536 with
          | Ok (d, Some src) ->
            ignore (ok "echo send" (Sockets.send s ~dst:src d));
            loop ()
          | Ok (_, None) -> failwith "no source"
          | Error e -> failwith e
        in
        loop ()
      | Tcp ->
        let s = Sockets.stream sapp in
        ignore (ok "echo bind" (Sockets.bind s ~port:7 ()));
        ok "echo listen" (Sockets.listen s ());
        let conn = ok "echo accept" (Sockets.accept s) in
        Sockets.set_nodelay conn true;
        let rec loop () =
          let rec read_msg acc =
            if String.length acc >= size then acc
            else
              match Sockets.recv conn ~max:size with
              | Ok "" -> acc
              | Ok d -> read_msg (acc ^ d)
              | Error _ -> acc
          in
          let msg = read_msg "" in
          if String.length msg = size then begin
            ignore (Sockets.send conn msg);
            loop ()
          end
        in
        loop ());
  let capp = System.app p.a ~name:"protolat" in
  let finished = ref false in
  Psd_sim.Engine.spawn eng ~name:"protolat" (fun () ->
      let s, recv_reply =
        match proto with
        | Udp ->
          let s = Sockets.dgram capp in
          ignore (ok "client bind" (Sockets.bind s ()));
          ok "client connect" (Sockets.connect s (System.addr p.b) 7);
          (s, fun () -> ignore (ok "recv" (Sockets.recv s ~max:65536)))
        | Tcp ->
          let s = Sockets.stream capp in
          ok "client connect" (Sockets.connect s (System.addr p.b) 7);
          Sockets.set_nodelay s true;
          ( s,
            fun () ->
              let rec read_msg got =
                if got < size then
                  match Sockets.recv s ~max:size with
                  | Ok "" -> failwith "eof"
                  | Ok d -> read_msg (got + String.length d)
                  | Error e -> failwith e
              in
              read_msg 0 )
      in
      let round () =
        let t0 = Psd_sim.Engine.now eng in
        ignore (ok "send" (Sockets.send s payload));
        recv_reply ();
        Psd_sim.Engine.now eng - t0
      in
      for _ = 1 to rpc_warmup do
        ignore (round ())
      done;
      for _ = 1 to rpc_rounds do
        Psd_util.Stats.add stats (float_of_int (round ()))
      done;
      finished := true);
  run_chunked ~between c eng (Psd_sim.Time.sec (60 + (rpc_rounds / 5)));
  if not !finished then failwith "protolat replica: did not complete";
  add_engine c eng;
  add_system c p.a;
  add_system c p.b;
  {
    config;
    proto;
    size;
    rounds = rpc_rounds;
    rtt_ms = Psd_util.Stats.mean stats /. 1e6;
    na = false;
  }

(* --- the scale farm ----------------------------------------------------- *)

(* Scale.run's defaults, which the c10k workload keeps. *)
let farm_per_host = 500
let farm_spacing_ns = Psd_sim.Time.us 2000
let farm_hold_ns = Psd_sim.Time.sec 5
let farm_ping = 64
let farm_port = 4000
let hosts_per_segment = 250

type farm = {
  f_eng : Psd_sim.Engine.t;
  server : System.t;
  clients : System.t array;
  seg_srv : Psd_link.Segment.t;
}

(* [Scale.run]'s topology: client /24 segments behind a gateway router,
   one server segment, routes both ways. *)
let farm ~seed ~conns =
  let config = Psd_cost.Config.mach25_kernel in
  let hosts = (conns + farm_per_host - 1) / farm_per_host in
  let nsegs = (hosts + hosts_per_segment - 1) / hosts_per_segment in
  let bps = 100_000_000 in
  let eng = Psd_sim.Engine.create ~seed () in
  let client_segs =
    Array.init nsegs (fun _ -> Psd_link.Segment.create eng ~bps ())
  in
  let seg_srv = Psd_link.Segment.create eng ~bps () in
  let server =
    System.create ~eng ~segment:seg_srv ~config ~addr:"10.1.0.1" ~name:"srv"
      ()
  in
  let clients =
    Array.init hosts (fun h ->
        System.create ~eng
          ~segment:client_segs.(h / hosts_per_segment)
          ~config
          ~addr:
            (Printf.sprintf "10.0.%d.%d"
               ((h / hosts_per_segment) + 1)
               ((h mod hosts_per_segment) + 1))
          ~name:(Printf.sprintf "cli%d" h)
          ())
  in
  let gw k = Printf.sprintf "10.0.%d.254" (k + 1) in
  ignore
    (Router.create ~eng ~name:"gw"
       ~ifaces:
         (List.init nsegs (fun k -> (client_segs.(k), gw k))
         @ [ (seg_srv, "10.1.0.254") ])
       ());
  Array.iteri
    (fun h sys ->
      System.add_route sys ~net:"10.1.0.0" ~mask:"255.255.255.0"
        ~gateway:(gw (h / hosts_per_segment)))
    clients;
  for k = 0 to nsegs - 1 do
    System.add_route server
      ~net:(Printf.sprintf "10.0.%d.0" (k + 1))
      ~mask:"255.255.255.0" ~gateway:"10.1.0.254"
  done;
  { f_eng = eng; server; clients; seg_srv }

let farm_setup ~seed ~conns =
  let f = farm ~seed ~conns in
  ignore (System.app f.server ~name:"scale-srv");
  Array.iteri
    (fun h sys ->
      ignore (System.app sys ~name:(Printf.sprintf "scale-cli%d" h)))
    f.clients

type farm_result = {
  echoed : int;
  failed : int;
  virtual_ns : int;
  peak_pcbs : int;
  final_pcbs : int;
}

(* Replica of [Scale.run] with its defaults (no faults), tapping the
   server segment. *)
let scale ~seed ~conns ~between c on_frame =
  let f = farm ~seed ~conns in
  let eng = f.f_eng in
  attach_tap f.seg_srv on_frame;
  let hosts = Array.length f.clients in
  let all_systems = f.server :: Array.to_list f.clients in
  let live_pcbs = ref 0 in
  List.iter
    (fun sys ->
      match System.kernel_stack sys with
      | Some st ->
        Psd_tcp.Tcp.set_conn_gauge (Netstack.tcp st) (fun d ->
            live_pcbs := !live_pcbs + d)
      | None -> ())
    all_systems;
  let srv_app = System.app f.server ~name:"scale-srv" in
  Psd_sim.Engine.spawn eng ~name:"scale-accept" (fun () ->
      let l = Sockets.stream srv_app in
      ignore (ok "scale bind" (Sockets.bind l ~port:farm_port ()));
      ok "scale listen" (Sockets.listen l ~backlog:4096 ());
      let rec loop () =
        let conn = ok "scale accept" (Sockets.accept l) in
        Psd_sim.Engine.spawn eng ~name:"scale-echo" (fun () ->
            let rec echo got =
              if got >= farm_ping then
                Sockets.on_hangup conn (fun () -> Sockets.close conn)
              else
                match Sockets.recv conn ~max:65536 with
                | Ok "" | Error _ -> Sockets.close conn
                | Ok d -> (
                  match Sockets.send conn d with
                  | Ok _ -> echo (got + String.length d)
                  | Error _ -> Sockets.close conn)
            in
            echo 0);
        loop ()
      in
      loop ());
  let echoed = ref 0 and failed = ref 0 in
  let ramp_ns = conns * farm_spacing_ns in
  let close_at = ramp_ns + farm_hold_ns in
  let ping = String.init farm_ping (fun i -> Char.chr (i land 0xff)) in
  for h = 0 to hosts - 1 do
    let app =
      System.app f.clients.(h) ~name:(Printf.sprintf "scale-cli%d" h)
    in
    let g = ref h in
    while !g < conns do
      let start_ns = !g * farm_spacing_ns in
      Psd_sim.Engine.spawn eng ~name:"scale-conn" (fun () ->
          Psd_sim.Engine.sleep eng start_ns;
          let s = Sockets.stream app in
          match Sockets.connect s (System.addr f.server) farm_port with
          | Error _ ->
            incr failed;
            Sockets.close s
          | Ok () ->
            let finish okp =
              if okp then incr echoed else incr failed;
              let leave_at = close_at + (start_ns / 2) in
              let nowv = Psd_sim.Engine.now eng in
              if leave_at > nowv then
                Psd_sim.Engine.sleep eng (leave_at - nowv);
              Sockets.close s
            in
            (match Sockets.send s ping with
            | Error _ -> finish false
            | Ok _ ->
              let rec drain got =
                if got >= farm_ping then finish true
                else
                  match Sockets.recv s ~max:(farm_ping - got) with
                  | Ok "" | Error _ -> finish false
                  | Ok d -> drain (got + String.length d)
              in
              drain 0));
      g := !g + hosts
    done
  done;
  let chunk = Psd_sim.Time.ms 200 in
  while !echoed + !failed < conns && Psd_sim.Engine.now eng < close_at do
    Psd_sim.Engine.run_for eng chunk;
    c.fibers_peak <- max c.fibers_peak (Psd_sim.Engine.alive eng);
    between ()
  done;
  let peak_pcbs = !live_pcbs in
  let drain_until = close_at + (ramp_ns / 2) + Psd_sim.Time.sec 70 in
  run_chunked ~chunk ~between c eng drain_until;
  add_engine c eng;
  List.iter (add_system c) all_systems;
  {
    echoed = !echoed;
    failed = !failed;
    virtual_ns = Psd_sim.Engine.now eng;
    peak_pcbs;
    final_pcbs = !live_pcbs;
  }
