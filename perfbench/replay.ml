(* Frame capture and replay: the per-frame layers (BPF demux, IP, TCP,
   UDP, mbuf/sockbuf, checksum) timed outside the simulation.

   The tap of a traced replica hands every frame to [capture], which
   records the verdict each layer reaches on it right then, in the live
   run. [run] later drives the same frames through the same public
   functions, one layer at a time over the whole capture, and checks that
   every frame reaches its live verdict again. A layer is timed over the
   batch rather than per frame because one clock read costs about as much
   as the work of a layer on one frame. *)

open Psd_bpf

let eth = Psd_link.Frame.header_size
let l4_off = eth + Psd_ip.Header.size

(* --- verdicts ----------------------------------------------------------- *)

type l4 =
  | No_l4  (* ARP, bad IP header, or a non-first fragment *)
  | Tcp of (Psd_tcp.Segment.t, Psd_tcp.Segment.decode_error) result
  | Udp of bool  (* checksum valid *)
  | Fragment  (* first fragment: the datagram is checked once reassembled *)

type verdict = {
  accept : int;  (* bytes the demux filter accepted; 0 is a reject *)
  insns : int;  (* filter instructions the simulated cost is charged for *)
  ip : (Psd_ip.Header.t, Psd_ip.Header.error) result option;
  l4 : l4;
}

type frame = {
  b : Bytes.t;
  flat : Filter.flat option;  (* the session's flat descriptor, if any *)
  prog : Compile.t;  (* the filter the device would run on it *)
  live : verdict;
}

(* --- capture ------------------------------------------------------------ *)

type capture = {
  mutable frames : frame list;  (* newest first *)
  mutable sessions : (int * int * int * int, Filter.flat * Compile.t) Hashtbl.t;
  mutable frag_sessions : (int * int * int, Filter.flat * Compile.t) Hashtbl.t;
}

let create () =
  {
    frames = [];
    sessions = Hashtbl.create 64;
    frag_sessions = Hashtbl.create 8;
  }

(* Each cell gets its own session tables: two cells may reuse one port. *)
let new_cell cap =
  cap.sessions <- Hashtbl.create 64;
  cap.frag_sessions <- Hashtbl.create 8

let arp_prog = Compile.compile_exn Filter.arp
let ip_all_prog = Compile.compile_exn Filter.ip_all

(* The receiving endpoint's session filter — the program the operating
   system installs for it (paper Section 3.1) — made on first sight of
   the session. *)
let session cap (h : Psd_ip.Header.t) b =
  let open Psd_ip.Header in
  let first = h.frag_off = 0 in
  let frag_key =
    (Psd_ip.Addr.to_int h.src, Psd_ip.Addr.to_int h.dst, h.ident)
  in
  if not first then Hashtbl.find_opt cap.frag_sessions frag_key
  else if h.proto <> proto_tcp && h.proto <> proto_udp then None
  else begin
    let sport = Psd_util.Codec.get_u16 b l4_off in
    let dport = Psd_util.Codec.get_u16 b (l4_off + 2) in
    let key =
      (Psd_ip.Addr.to_int h.dst, dport, Psd_ip.Addr.to_int h.src, sport)
    in
    let s =
      match Hashtbl.find_opt cap.sessions key with
      | Some s -> s
      | None ->
        let spec =
          {
            Filter.proto =
              (if h.proto = proto_tcp then Filter.Tcp else Filter.Udp);
            local_ip = Psd_ip.Addr.to_int h.dst;
            local_port = dport;
            remote_ip = Some (Psd_ip.Addr.to_int h.src);
            remote_port = Some sport;
          }
        in
        let s =
          (Filter.flat_of_spec spec, Compile.compile_exn (Filter.session spec))
        in
        Hashtbl.add cap.sessions key s;
        s
    in
    if h.more_frags then Hashtbl.replace cap.frag_sessions frag_key s;
    Some s
  end

let demux flat prog b =
  let a, n = Compile.run prog b in
  match flat with
  | None -> (a, n)
  | Some f ->
    (* both rungs the device may run must agree; -1 marks a disagreement *)
    let a', n' = Filter.flat_run f b in
    if a = a' && n = n' then (a, n) else (-1, -1)

let ip_decode b = Psd_ip.Header.decode b ~off:eth ~len:(Bytes.length b - eth)

let tcp_decode b (h : Psd_ip.Header.t) =
  Psd_tcp.Segment.decode ~off:l4_off ~len:(h.total_len - Psd_ip.Header.size) b
    ~src:h.src ~dst:h.dst

(* The UDP input check: pseudo-header plus datagram sum to zero, or the
   sender left the checksum out. *)
let udp_valid (h : Psd_ip.Header.t) m =
  let len = Psd_mbuf.Mbuf.length m in
  len >= 8
  && begin
    let ck = (Psd_mbuf.Mbuf.get_u8 m 6 lsl 8) lor Psd_mbuf.Mbuf.get_u8 m 7 in
    ck = 0
    ||
    let acc =
      Psd_ip.Header.pseudo_checksum ~src:h.src ~dst:h.dst
        ~proto:Psd_ip.Header.proto_udp ~len
    in
    Psd_util.Checksum.finish (Psd_mbuf.Mbuf.checksum_add m acc) = 0
  end

let is_fragment (h : Psd_ip.Header.t) = h.more_frags || h.frag_off > 0

let l4_view b (h : Psd_ip.Header.t) =
  Psd_mbuf.Mbuf.of_bytes_view b ~off:l4_off
    ~len:(h.total_len - Psd_ip.Header.size)

(* The tap callback: classify one frame as the live run delivers it. *)
let capture (cap : capture) b =
  let et = Psd_link.Frame.ethertype b in
  let flat, prog, ip, l4 =
    if et <> Psd_link.Frame.ethertype_ip then (None, arp_prog, None, No_l4)
    else
      match ip_decode b with
      | Error e -> (None, ip_all_prog, Some (Error e), No_l4)
      | Ok h ->
        let flat, prog =
          match session cap h b with
          | Some (f, p) -> (Some f, p)
          | None -> (None, ip_all_prog)
        in
        let l4 =
          if h.frag_off > 0 then No_l4
          else if h.more_frags then Fragment
          else if h.proto = Psd_ip.Header.proto_tcp then
            Tcp (Result.map fst (tcp_decode b h))
          else if h.proto = Psd_ip.Header.proto_udp then
            Udp (udp_valid h (l4_view b h))
          else No_l4
        in
        (flat, prog, Some (Ok h), l4)
  in
  let accept, insns = demux flat prog b in
  cap.frames <-
    { b; flat; prog; live = { accept; insns; ip; l4 } } :: cap.frames

(* --- replay ------------------------------------------------------------- *)

type result = {
  frames : int;
  mismatches : int;
  bpf_ns : float;  (* per frame *)
  ip_ns : float;  (* per IPv4 frame, reassembly included *)
  tcp_ns : float;  (* per TCP segment *)
  udp_ns : float;  (* per UDP datagram *)
  mbuf_ns : float;  (* per TCP segment carrying data *)
  checksum_ns_per_kb : float;
}

let now_ns () = Monotonic_clock.now ()

(* Run [f] repeatedly — at least 3 times and for at least [min_ns] — and
   return the median duration of one pass, in ns. The first pass's
   result goes to [check]. *)
let timed ~span ~check f =
  Spans.with_span span (fun () ->
      let min_ns = 20_000_000L in
      let t_start = now_ns () in
      let samples = ref [] in
      let first = ref true in
      while
        List.length !samples < 3 || Int64.sub (now_ns ()) t_start < min_ns
      do
        let t0 = now_ns () in
        let r = f () in
        samples := Int64.to_float (Int64.sub (now_ns ()) t0) :: !samples;
        if !first then begin
          first := false;
          check r
        end
      done;
      Sample.median !samples)

let per total n = if n = 0 then 0. else total /. float_of_int n

let run (cap : capture) =
  let frames = Array.of_list (List.rev cap.frames) in
  let nf = Array.length frames in
  let mismatches = ref 0 in
  let miss () = incr mismatches in
  (* BPF: the session filter (flat descriptor and compiled program) *)
  let bpf_out = Array.make nf (0, 0) in
  let bpf_ns =
    timed ~span:"bpf"
      ~check:(fun () ->
        Array.iteri
          (fun i fr ->
            if
              bpf_out.(i) <> (fr.live.accept, fr.live.insns)
              || fst bpf_out.(i) < 0
            then miss ())
          frames)
      (fun () ->
        Array.iteri
          (fun i fr -> bpf_out.(i) <- demux fr.flat fr.prog fr.b)
          frames)
  in
  (* IP: header decode and checksum, and reassembly of fragments *)
  let ip_frames =
    List.filter (fun fr -> fr.live.ip <> None) (Array.to_list frames)
    |> Array.of_list
  in
  let ip_out =
    Array.make (Array.length ip_frames) (Error Psd_ip.Header.Too_short)
  in
  let datagrams = ref [] in
  let ip_ns =
    timed ~span:"ip"
      ~check:(fun dgrams ->
        datagrams := dgrams;
        (* every first fragment the live run saw must complete a datagram *)
        let firsts =
          Array.fold_left
            (fun n fr -> if fr.live.l4 = Fragment then n + 1 else n)
            0 ip_frames
        in
        mismatches := !mismatches + abs (firsts - List.length dgrams);
        Array.iteri
          (fun i fr -> if Some ip_out.(i) <> fr.live.ip then miss ())
          ip_frames)
      (fun () ->
        let reass = Psd_ip.Reass.create (Psd_sim.Engine.create ()) () in
        let dgrams = ref [] in
        Array.iteri
          (fun i fr ->
            let r = ip_decode fr.b in
            ip_out.(i) <- r;
            match r with
            | Ok h when is_fragment h -> (
              match Psd_ip.Reass.input reass h (l4_view fr.b h) with
              | Some d -> dgrams := d :: !dgrams
              | None -> ())
            | _ -> ())
          ip_frames;
        List.rev !dgrams)
  in
  let with_hdr fr =
    match fr.live.ip with Some (Ok h) -> Some (fr, h) | _ -> None
  in
  (* TCP: segment decode with its checksum *)
  let segs =
    Array.of_list
      (List.filter_map
         (fun fr -> match fr.live.l4 with Tcp _ -> with_hdr fr | _ -> None)
         (Array.to_list frames))
  in
  let tcp_out =
    Array.make (Array.length segs) (Error Psd_tcp.Segment.Truncated)
  in
  let tcp_ns =
    timed ~span:"tcp"
      ~check:(fun () ->
        Array.iteri
          (fun i (fr, _) ->
            let got = Result.map fst tcp_out.(i) in
            if fr.live.l4 <> Tcp got then miss ())
          segs)
      (fun () ->
        Array.iteri (fun i (fr, h) -> tcp_out.(i) <- tcp_decode fr.b h) segs)
  in
  (* UDP: datagram checksum, on whole frames and reassembled datagrams *)
  let udp_items =
    Array.of_list
      (List.filter_map
         (fun fr ->
           match (fr.live.l4, with_hdr fr) with
           | Udp _, Some (_, h) -> Some (h, l4_view fr.b h, fr.live.l4)
           | _ -> None)
         (Array.to_list frames)
      @ List.map (fun (h, m) -> (h, m, Udp true)) !datagrams)
  in
  let udp_out = Array.make (Array.length udp_items) false in
  let udp_ns =
    timed ~span:"udp"
      ~check:(fun () ->
        Array.iteri
          (fun i (_, _, live) -> if live <> Udp udp_out.(i) then miss ())
          udp_items)
      (fun () ->
        Array.iteri (fun i (h, m, _) -> udp_out.(i) <- udp_valid h m) udp_items)
  in
  (* mbuf/sockbuf: the receive chain of every data-carrying segment *)
  let payloads =
    Array.of_list
      (List.filter_map
         (fun r ->
           match r with
           | Ok (_, m) when Psd_mbuf.Mbuf.length m > 0 ->
             Psd_mbuf.Mbuf.contiguous m
           | _ -> None)
         (Array.to_list tcp_out))
  in
  let sb =
    Psd_socket.Sockbuf.create (Psd_sim.Engine.create ()) ~hiwat:max_int ()
  in
  let mbuf_out = Array.make (Array.length payloads) 0 in
  let mbuf_ns =
    timed ~span:"mbuf"
      ~check:(fun () ->
        Array.iteri
          (fun i (_, _, len) -> if mbuf_out.(i) <> len then miss ())
          payloads)
      (fun () ->
        Array.iteri
          (fun i (b, off, len) ->
            Psd_socket.Sockbuf.append sb
              (Psd_mbuf.Mbuf.of_bytes_view b ~off ~len);
            mbuf_out.(i) <-
              (match Psd_socket.Sockbuf.try_read sb ~max:max_int with
              | Ok m -> Psd_mbuf.Mbuf.length m
              | Error _ -> -1))
          payloads)
  in
  let payload_bytes = Array.fold_left (fun a (_, _, l) -> a + l) 0 payloads in
  let sums = Array.make (Array.length payloads) 0 in
  let checksum_ns =
    timed ~span:"checksum"
      ~check:(fun () -> ())
      (fun () ->
        Array.iteri
          (fun i (b, off, len) ->
            sums.(i) <- Psd_util.Checksum.of_bytes b ~off ~len)
          payloads)
  in
  {
    frames = nf;
    mismatches = !mismatches;
    bpf_ns = per bpf_ns nf;
    ip_ns = per ip_ns (Array.length ip_frames);
    tcp_ns = per tcp_ns (Array.length segs);
    udp_ns = per udp_ns (Array.length udp_items);
    mbuf_ns = per mbuf_ns (Array.length payloads);
    checksum_ns_per_kb = per checksum_ns payload_bytes *. 1024.;
  }
