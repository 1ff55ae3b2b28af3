open Psd_mach

let ( => ) name b = Alcotest.(check bool) name true b

let make_host ?(name = "h") () =
  let eng = Psd_sim.Engine.create () in
  let host = Host.create ~eng ~plat:Psd_cost.Platform.decstation ~name in
  (eng, host)

(* --- Task -------------------------------------------------------------- *)

let test_task_lifecycle () =
  let _eng, host = make_host () in
  let t = Task.create host ~name:"init" () in
  "alive" => Task.alive t;
  let log = ref [] in
  Task.on_exit t (fun () -> log := "a" :: !log);
  Task.on_exit t (fun () -> log := "b" :: !log);
  Task.exit t;
  "dead" => not (Task.alive t);
  Alcotest.(check (list string)) "hooks in order" [ "a"; "b" ] (List.rev !log);
  Task.exit t;
  Alcotest.(check int) "exit idempotent" 2 (List.length !log)

let test_task_fork () =
  let _eng, host = make_host () in
  let parent = Task.create host ~name:"parent" () in
  let child = Task.fork parent ~name:"child" in
  (* physical identity: a task transitively holds the engine (timer
     wheel, event heap), so structural [=] would walk into closures *)
  "parent link"
  => (match Task.parent child with Some p -> p == parent | None -> false);
  "distinct ids" => (Task.id parent <> Task.id child);
  Task.exit parent;
  Alcotest.check_raises "fork after death"
    (Invalid_argument "Task.fork: dead task") (fun () ->
      ignore (Task.fork parent ~name:"x"))

(* --- Ipc --------------------------------------------------------------- *)

let mk_ctx eng host =
  Psd_cost.Ctx.create ~eng ~cpu:(Host.cpu host)
    ~plat:(Host.plat host) ~role:Psd_cost.Ctx.Library_stack

let test_ipc_rpc_roundtrip () =
  let eng, host = make_host () in
  let port : (int, int) Ipc.port = Ipc.create_port host in
  Ipc.serve port (fun x -> x * 2);
  let results = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      for i = 1 to 3 do
        results := Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control i :: !results
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check (list int)) "replies" [ 2; 4; 6 ] (List.rev !results)

let test_ipc_costs_charged () =
  let eng, host = make_host () in
  let port : (unit, unit) Ipc.port = Ipc.create_port host in
  Ipc.serve port (fun () -> ());
  let elapsed = ref 0 in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      let t0 = Psd_sim.Engine.now eng in
      ignore (Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control ());
      elapsed := Psd_sim.Engine.now eng - t0);
  Psd_sim.Engine.run eng;
  (* trap + 2 messages + 2 wakeups on the DECstation: several hundred us *)
  "rpc costs simulated time" => (!elapsed > Psd_sim.Time.us 200);
  "but well under a millisecond" => (!elapsed < Psd_sim.Time.ms 1)

let test_ipc_blocking_handler_with_workers () =
  (* One handler blocks forever; other workers keep serving. *)
  let eng, host = make_host () in
  let port : (bool, unit) Ipc.port = Ipc.create_port host in
  let forever = Psd_sim.Cond.create eng in
  Ipc.serve port ~workers:2 (fun block ->
      if block then Psd_sim.Cond.wait forever);
  let served = ref 0 in
  Psd_sim.Engine.spawn eng (fun () ->
      let ctx = mk_ctx eng host in
      ignore (Ipc.oneway port ~ctx ~phase:Psd_cost.Phase.Control true);
      ignore (Ipc.call port ~ctx ~phase:Psd_cost.Phase.Control false);
      incr served);
  Psd_sim.Engine.run_for eng (Psd_sim.Time.sec 1);
  Alcotest.(check int) "second worker served" 1 !served

(* --- Pktchan ------------------------------------------------------------ *)

let test_pktchan_ipc_delivers_in_order () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:Pktchan.Ipc ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Bytes.to_string (Pktchan.recv ch) :: !got
      done);
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "one"; "two"; "three" ]);
  Psd_sim.Engine.run eng;
  Alcotest.(check (list string)) "order" [ "one"; "two"; "three" ]
    (List.rev !got);
  Alcotest.(check int) "ipc wakes per packet" 3 (Pktchan.wakeups ch)

let test_pktchan_shm_batches_wakeups () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 16) ~deliver_fixed:1000
      ~deliver_per_byte:10
  in
  let got = ref 0 in
  (* consumer that takes a while per packet: deliveries pile up *)
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 6 do
        ignore (Pktchan.recv ch);
        incr got;
        Psd_sim.Engine.sleep eng (Psd_sim.Time.ms 1)
      done);
  Psd_sim.Engine.spawn eng (fun () ->
      for i = 1 to 6 do
        Pktchan.deliver ch (Bytes.make 10 (Char.chr i));
        Psd_sim.Engine.sleep eng (Psd_sim.Time.us 50)
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "all delivered" 6 !got;
  "wakeups amortised over the train" => (Pktchan.wakeups ch < 6)

let test_pktchan_shm_drops_when_full () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 2) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  Psd_sim.Engine.spawn eng (fun () ->
      for _ = 1 to 5 do
        Pktchan.deliver ch (Bytes.create 4)
      done);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "kept ring capacity" 2 (Pktchan.queued ch);
  Alcotest.(check int) "dropped the rest" 3 (Pktchan.dropped ch)

let test_pktchan_shm_tail_drop_preserves_queue () =
  (* Overflow must tail-drop: the packets already in the ring are the
     oldest deliveries, byte-for-byte, never overwritten by later ones —
     and with no receiver blocked the kernel never pays a wakeup. *)
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 2) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "a"; "b"; "c"; "d"; "e" ]);
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "dropped the overflow" 3 (Pktchan.dropped ch);
  Alcotest.(check int) "no wakeups while receiver not blocked" 0
    (Pktchan.wakeups ch);
  let first = Pktchan.try_recv ch in
  let second = Pktchan.try_recv ch in
  let kept = List.filter_map (Option.map Bytes.to_string) [ first; second ] in
  Alcotest.(check (list string)) "oldest survive, in order" [ "a"; "b" ] kept;
  Alcotest.(check bool) "nothing behind them" true (Pktchan.try_recv ch = None);
  Alcotest.(check int) "ring empty" 0 (Pktchan.queued ch)

let test_pktchan_recv_takes_train () =
  let eng, host = make_host () in
  let ch =
    Pktchan.create host ~kind:(Pktchan.Shm 8) ~deliver_fixed:0
      ~deliver_per_byte:0
  in
  let got = ref [] in
  Psd_sim.Engine.spawn eng (fun () ->
      List.iter
        (fun s -> Pktchan.deliver ch (Bytes.of_string s))
        [ "x"; "y"; "z" ]);
  Psd_sim.Engine.spawn eng (fun () ->
      Psd_sim.Engine.sleep eng (Psd_sim.Time.us 10);
      let at = Psd_sim.Engine.now eng in
      for _ = 1 to 3 do
        got := Bytes.to_string (Pktchan.recv ch) :: !got
      done;
      Alcotest.(check int) "train taken without blocking" at
        (Psd_sim.Engine.now eng));
  Psd_sim.Engine.run eng;
  Alcotest.(check (list string)) "whole train, oldest first" [ "x"; "y"; "z" ]
    (List.rev !got);
  Alcotest.(check int) "queued train needs no wakeup" 0 (Pktchan.wakeups ch)

(* --- Netdev ------------------------------------------------------------- *)

let frame_to dst_mac src_mac =
  let b = Bytes.make 64 '\x00' in
  Psd_link.Frame.set_header b ~off:0 ~dst:dst_mac ~src:src_mac
    ~ethertype:Psd_link.Frame.ethertype_ip;
  (* minimal IP header so session filters can parse if needed *)
  Psd_util.Codec.set_u8 b 14 0x45;
  b

let test_netdev_filter_priority_first_match () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  let hits_hi = ref 0 and hits_lo = ref 0 in
  let accept_all = Psd_bpf.Filter.ip_all in
  let _lo =
    Netdev.attach dev ~prio:50 ~prog:accept_all
      ~sink:(fun _ -> incr hits_lo) ()
  in
  let hi =
    Netdev.attach dev ~prio:5 ~prog:accept_all ~sink:(fun _ -> incr hits_hi) ()
  in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "high priority won" 1 !hits_hi;
  Alcotest.(check int) "low priority skipped" 0 !hits_lo;
  (* detach the high-priority one: low now receives *)
  Netdev.detach dev hi;
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "fallback after detach" 1 !hits_lo

let test_netdev_unmatched_counted () =
  let eng, host = make_host () in
  let seg = Psd_link.Segment.create eng () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
  Psd_link.Segment.transmit other
    (frame_to (Netdev.mac dev) (Psd_link.Macaddr.of_host_id 2));
  Psd_sim.Engine.run eng;
  Alcotest.(check int) "rx seen" 1 (Netdev.rx_frames dev);
  Alcotest.(check int) "unmatched dropped" 1 (Netdev.rx_unmatched dev)

let test_netdev_rejects_invalid_filter () =
  let eng, host = make_host () in
  ignore eng;
  let seg = Psd_sim.Engine.create () |> fun e -> Psd_link.Segment.create e () in
  let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
  match
    Netdev.attach dev ~prog:[| Psd_bpf.Insn.Ld (Psd_bpf.Insn.W, Psd_bpf.Insn.Imm 0) |]
      ~sink:(fun _ -> ()) ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid program accepted"

let test_netdev_deferred_rx_cheaper_interrupt () =
  (* Rx_deferred charges less CPU at interrupt time than Rx_full_copy. *)
  let run mode =
    let eng, host = make_host () in
    let seg = Psd_link.Segment.create eng () in
    let dev = Netdev.create host seg ~mac:(Psd_link.Macaddr.of_host_id 1) in
    Netdev.set_rx_mode dev mode;
    let other = Psd_link.Segment.attach seg ~mac:(Psd_link.Macaddr.of_host_id 2) in
    let _f =
      Netdev.attach dev ~prog:Psd_bpf.Filter.ip_all ~sink:(fun _ -> ()) ()
    in
    let big = Bytes.make 1400 'x' in
    let frame = Bytes.create (14 + Bytes.length big) in
    Psd_link.Frame.set_header frame ~off:0 ~dst:(Netdev.mac dev)
      ~src:(Psd_link.Macaddr.of_host_id 2)
      ~ethertype:Psd_link.Frame.ethertype_ip;
    Bytes.blit big 0 frame 14 (Bytes.length big);
    Psd_link.Segment.transmit other frame;
    Psd_sim.Engine.run eng;
    Psd_sim.Cpu.busy_time (Host.cpu host)
  in
  let full = run Netdev.Rx_full_copy in
  let deferred = run Netdev.Rx_deferred in
  "deferred interrupt is much cheaper" => (deferred * 2 < full)

let () =
  Alcotest.run "psd_mach"
    [
      ( "task",
        [
          Alcotest.test_case "lifecycle" `Quick test_task_lifecycle;
          Alcotest.test_case "fork" `Quick test_task_fork;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "rpc roundtrip" `Quick test_ipc_rpc_roundtrip;
          Alcotest.test_case "costs" `Quick test_ipc_costs_charged;
          Alcotest.test_case "blocking handler" `Quick
            test_ipc_blocking_handler_with_workers;
        ] );
      ( "pktchan",
        [
          Alcotest.test_case "ipc order" `Quick
            test_pktchan_ipc_delivers_in_order;
          Alcotest.test_case "shm batching" `Quick
            test_pktchan_shm_batches_wakeups;
          Alcotest.test_case "shm overflow" `Quick
            test_pktchan_shm_drops_when_full;
          Alcotest.test_case "shm tail-drop" `Quick
            test_pktchan_shm_tail_drop_preserves_queue;
          Alcotest.test_case "recv train" `Quick
            test_pktchan_recv_takes_train;
        ] );
      ( "netdev",
        [
          Alcotest.test_case "filter priority" `Quick
            test_netdev_filter_priority_first_match;
          Alcotest.test_case "unmatched" `Quick test_netdev_unmatched_counted;
          Alcotest.test_case "invalid filter" `Quick
            test_netdev_rejects_invalid_filter;
          Alcotest.test_case "deferred rx" `Quick
            test_netdev_deferred_rx_cheaper_interrupt;
        ] );
    ]
