open Psd_cost

type t = {
  eng : Psd_sim.Engine.t;
  host : Psd_mach.Host.t;
  config : Config.t;
  netdev : Psd_mach.Netdev.t;
  addr : Psd_ip.Addr.t;
  routes : Psd_ip.Route.t;
  server : Os_server.t option;
  kernel_stack : Netstack.t option;
  kernel_tcp_ports : Portalloc.t option;
  kernel_udp_ports : Portalloc.t option;
  mutable app_stacks : Netstack.t list;
  mutable ctxs : Ctx.t list; (* every context on this host *)
  mutable next_app_seq : int;
  mutable tcp_predict : bool; (* applied to stacks created later too *)
  rcv_buf : int option;
  delack_ns : int option;
  fault : Psd_link.Fault.t option;
}

let mac_counter = ref 0

let fresh_mac () =
  incr mac_counter;
  Psd_link.Macaddr.of_host_id !mac_counter

let create ~eng ~segment ~config ?plat ?rcv_buf ?delack_ns ?fault ~addr
    ~name () =
  let base_plat = Option.value plat ~default:Platform.decstation in
  let plat = Config.effective_platform base_plat config.Config.os in
  let host = Psd_mach.Host.create ~eng ~plat ~name in
  let netdev = Psd_mach.Netdev.create host segment ~mac:(fresh_mac ()) in
  (* A null policy installs nothing and draws nothing, so fault-free
     runs stay bit-identical whether or not the argument was passed. *)
  let fault =
    match fault with
    | Some policy when not (Psd_link.Fault.is_null policy) ->
      let f =
        Psd_link.Fault.create
          ~rng:(Psd_util.Rng.split (Psd_sim.Engine.rng eng))
          policy
      in
      Psd_mach.Netdev.set_fault netdev (Some f);
      Some f
    | _ -> None
  in
  (match (config.Config.placement, config.Config.delivery) with
  | Config.Library, Config.Pf_shm_ipf ->
    Psd_mach.Netdev.set_rx_mode netdev Psd_mach.Netdev.Rx_deferred
  | _ -> ());
  let addr = Psd_ip.Addr.of_string addr in
  let routes = Psd_ip.Route.create () in
  Psd_ip.Route.add routes
    {
      Psd_ip.Route.net = Psd_ip.Addr.of_int (Psd_ip.Addr.to_int addr land 0xffffff00);
      mask = Psd_ip.Addr.of_string "255.255.255.0";
      hop = Psd_ip.Route.Direct;
      iface = 0;
    };
  let t =
    {
      eng;
      host;
      config;
      netdev;
      addr;
      routes;
      server = None;
      kernel_stack = None;
      kernel_tcp_ports = None;
      kernel_udp_ports = None;
      app_stacks = [];
      ctxs = [ Psd_mach.Host.kernel_ctx host ];
      next_app_seq = 1;
      tcp_predict = true;
      rcv_buf;
      delack_ns;
      fault;
    }
  in
  match config.Config.placement with
  | Config.In_kernel ->
    let kctx = Psd_mach.Host.kernel_ctx host in
    let arp_cache = Psd_arp.Cache.create eng () in
    let stack =
      Netstack.create ~ctx:kctx ~netdev ~addr ~routes
        ~arp:Netstack.Arp_authoritative ~arp_cache
        ~input:Netstack.Netisr_queue ?rcv_buf ?delack_ns ()
    in
    let (_ : Psd_mach.Netdev.filter_id) =
      Psd_mach.Netdev.attach netdev ~prio:100 ~prog:Psd_bpf.Filter.ip_all
        ~sink:(Netstack.sink stack) ()
    in
    let (_ : Psd_mach.Netdev.filter_id) =
      Psd_mach.Netdev.attach netdev ~prio:50 ~prog:Psd_bpf.Filter.arp
        ~sink:(Netstack.sink stack) ()
    in
    {
      t with
      kernel_stack = Some stack;
      kernel_tcp_ports = Some (Portalloc.create ());
      kernel_udp_ports = Some (Portalloc.create ());
    }
  | Config.Offload ->
    (* The seventh placement: the protocol stack's logic runs under a
       zero-cost platform (it executes but charges the host nothing);
       all datapath time comes from the NIC pipeline model installed on
       the netdev, plus explicit doorbell/completion/crossing charges at
       the socket boundary.  No packet filters: the device hands every
       frame straight to the on-NIC stack at pipeline completion. *)
    let nic_prof =
      Option.value config.Config.nic ~default:Platform.nic_default
    in
    let pipe = Psd_mach.Nicpipe.create eng nic_prof in
    let nic_ctx =
      Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu host)
        ~plat:(Platform.zero_cost plat) ~role:Ctx.Kernel_stack
    in
    let arp_cache = Psd_arp.Cache.create eng () in
    let stack =
      Netstack.create ~ctx:nic_ctx ~netdev ~addr ~routes
        ~arp:Netstack.Arp_authoritative ~arp_cache
        ~input:Netstack.Netisr_queue ?rcv_buf ?delack_ns ()
    in
    Psd_mach.Netdev.install_offload netdev pipe ~sink:(Netstack.sink stack);
    {
      t with
      kernel_stack = Some stack;
      kernel_tcp_ports = Some (Portalloc.create ());
      kernel_udp_ports = Some (Portalloc.create ());
      ctxs = nic_ctx :: t.ctxs;
    }
  | Config.Server | Config.Library ->
    let server = Os_server.create ~host ~netdev ~config ~addr ~routes ?rcv_buf ?delack_ns () in
    {
      t with
      server = Some server;
      ctxs = Netstack.ctx (Os_server.stack server) :: t.ctxs;
    }

(* Delivery channel for an application's protocol library. Under a
   NEWAPI configuration the channel's receive memory counts as loaned
   by the application (copy bookkeeping only; same costs). *)
let app_channel t =
  let plat = Psd_mach.Host.plat t.host in
  let newapi = t.config.Config.api = Config.Newapi in
  match t.config.Config.delivery with
  | Config.Pf_ipc ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:Psd_mach.Pktchan.Ipc
      ~deliver_fixed:10_000
      ~deliver_per_byte:plat.Platform.kernel_mem_read_per_byte
  | Config.Pf_shm ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:(Psd_mach.Pktchan.Shm 64)
      ~deliver_fixed:plat.Platform.shm_deliver_fixed
      ~deliver_per_byte:plat.Platform.kernel_mem_read_per_byte
  | Config.Pf_shm_ipf ->
    Psd_mach.Pktchan.create ~newapi t.host ~kind:(Psd_mach.Pktchan.Shm 64)
      ~deliver_fixed:plat.Platform.shm_deliver_fixed
      ~deliver_per_byte:plat.Platform.device_read_per_byte

let rec app t ~name =
  let seq = t.next_app_seq in
  t.next_app_seq <- seq + 1;
  let task = Psd_mach.Task.create t.host ~name () in
  let eng = t.eng in
  let plat = Psd_mach.Host.plat t.host in
  let a =
    match t.config.Config.placement with
    | Config.In_kernel | Config.Offload ->
      let call_ctx =
        Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu t.host) ~plat
          ~role:Ctx.Library_stack
      in
      t.ctxs <- call_ctx :: t.ctxs;
      Sockets.make_app ~host:t.host ~config:t.config ~task ~stack:None
        ~call_ctx ~server:None ~server_app_id:None
        ~kernel_stack:t.kernel_stack ~kernel_tcp_ports:t.kernel_tcp_ports
        ~kernel_udp_ports:t.kernel_udp_ports
    | Config.Server ->
      let server = Option.get t.server in
      let call_ctx =
        Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu t.host) ~plat
          ~role:Ctx.Library_stack
      in
      t.ctxs <- call_ctx :: t.ctxs;
      let err_fwd = ref (fun _ _ -> ()) in
      let app_ref =
        Os_server.register_app server ~task ~sink:(fun _ -> ())
          ~on_error:(fun sid msg -> !err_fwd sid msg) ()
      in
      ignore err_fwd;
      Sockets.make_app ~host:t.host ~config:t.config ~task ~stack:None
        ~call_ctx
        ~server:(Some (Os_server.rpc_port server))
        ~server_app_id:(Some (Os_server.app_id app_ref))
        ~kernel_stack:None ~kernel_tcp_ports:None ~kernel_udp_ports:None
    | Config.Library ->
      let server = Option.get t.server in
      let ctx =
        Ctx.create ~eng ~cpu:(Psd_mach.Host.cpu t.host) ~plat
          ~role:Ctx.Library_stack
      in
      t.ctxs <- ctx :: t.ctxs;
      let chan = app_channel t in
      (* metastate: a local ARP cache invalidated from the server's
         master; misses are proxy RPCs *)
      let arp_cache = Psd_arp.Cache.create eng () in
      Psd_arp.Cache.subscribe (Os_server.arp_master server) (fun ip ->
          Psd_arp.Cache.invalidate arp_cache ip);
      let rpc_port = Os_server.rpc_port server in
      let arp_miss ip =
        match
          Psd_mach.Ipc.call rpc_port ~ctx ~phase:Phase.Ether_output
            (Session.R_arp ip)
        with
        | Session.Rs_arp mac -> mac
        | _ -> None
      in
      let stack =
        Netstack.create ~ctx ~netdev:t.netdev ~addr:t.addr ~routes:t.routes
          ~arp:(Netstack.Arp_cached arp_miss) ~arp_cache
          ~input:(Netstack.Chan chan) ?rcv_buf:t.rcv_buf
          ?delack_ns:t.delack_ns ()
      in
      t.app_stacks <- stack :: t.app_stacks;
      Psd_tcp.Tcp.set_predict (Netstack.tcp stack) t.tcp_predict;
      let err_fwd = ref (fun _ _ -> ()) in
      let app_ref =
        Os_server.register_app server ~task ~sink:(Netstack.sink stack)
          ~on_error:(fun sid msg -> !err_fwd sid msg) ()
      in
      let a =
        Sockets.make_app ~host:t.host ~config:t.config ~task
          ~stack:(Some stack) ~call_ctx:ctx ~server:(Some rpc_port)
          ~server_app_id:(Some (Os_server.app_id app_ref))
          ~kernel_stack:None ~kernel_tcp_ports:None ~kernel_udp_ports:None
      in
      err_fwd := Sockets.deliver_soft_error a;
      a
  in
  Sockets.set_forker a (fun ~name -> app t ~name);
  a

let add_route t ~net ~mask ~gateway =
  Psd_ip.Route.add t.routes
    {
      Psd_ip.Route.net = Psd_ip.Addr.of_string net;
      mask = Psd_ip.Addr.of_string mask;
      hop = Psd_ip.Route.Gateway (Psd_ip.Addr.of_string gateway);
      iface = 0;
    }

let host t = t.host
let config t = t.config
let addr t = t.addr
let netdev t = t.netdev
let server t = t.server
let kernel_stack t = t.kernel_stack

let nic_pipe t = Psd_mach.Netdev.offload_pipe t.netdev

let fault_stats t = Option.map Psd_link.Fault.stats t.fault

let stacks t =
  let base =
    match (t.kernel_stack, t.server) with
    | Some s, _ -> [ s ]
    | None, Some srv -> [ Os_server.stack srv ]
    | None, None -> []
  in
  base @ t.app_stacks

let stacks_tcp_stats t =
  List.map (fun s -> Psd_tcp.Tcp.stats (Netstack.tcp s)) (stacks t)

let stacks_ip_stats t =
  List.map (fun s -> Psd_ip.Ip.stats (Netstack.ip s)) (stacks t)

let reass_timed_out t =
  List.fold_left
    (fun acc s -> acc + Psd_ip.Ip.reass_timed_out (Netstack.ip s))
    0 (stacks t)

let set_breakdown t b = List.iter (fun ctx -> ctx.Ctx.breakdown <- b) t.ctxs

let set_tcp_predict t v =
  t.tcp_predict <- v;
  List.iter
    (fun s -> Psd_tcp.Tcp.set_predict (Netstack.tcp s) v)
    (stacks t)
