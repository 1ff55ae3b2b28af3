type proto = Tcp | Udp

type spec = {
  proto : proto;
  local_ip : int;
  local_port : int;
  remote_ip : int option;
  remote_port : int option;
}

let snaplen = 0xffff

(* Ethernet II offsets *)
let off_ethertype = 12
let off_ip = 14
let off_ip_frag = off_ip + 6
let off_ip_proto = off_ip + 9
let off_ip_src = off_ip + 12
let off_ip_dst = off_ip + 16

let ethertype_ip = 0x0800
let ethertype_arp = 0x0806

let proto_number = function Tcp -> 6 | Udp -> 17

let session spec =
  let open Insn in
  let open Asm in
  let check_remote_ip =
    match spec.remote_ip with
    | None -> []
    | Some ip ->
      [ I (Ld (W, Abs off_ip_src)); J (Jeq, K ip, "cont_rip", "reject");
        Label "cont_rip" ]
  in
  let check_remote_port =
    match spec.remote_port with
    | None -> []
    | Some port ->
      (* source port: first TCP/UDP header field, at x + 14 *)
      [ I (Ld (H, Ind off_ip)); J (Jeq, K port, "cont_rport", "reject");
        Label "cont_rport" ]
  in
  Asm.assemble_exn
    ([
       I (Ld (H, Abs off_ethertype));
       J (Jeq, K ethertype_ip, "is_ip", "reject");
       Label "is_ip";
       I (Ld (B, Abs off_ip_proto));
       J (Jeq, K (proto_number spec.proto), "proto_ok", "reject");
       Label "proto_ok";
       I (Ld (W, Abs off_ip_dst));
       J (Jeq, K spec.local_ip, "dst_ok", "reject");
       Label "dst_ok";
     ]
    @ check_remote_ip
    @ [
        (* Non-first fragment: ports are not present; accept on addresses. *)
        I (Ld (H, Abs off_ip_frag));
        J (Jset, K 0x1fff, "accept", "first_frag");
        Label "first_frag";
        I (Ldx (Msh off_ip));
        (* destination port at x + 14 + 2 *)
        I (Ld (H, Ind (off_ip + 2)));
        J (Jeq, K spec.local_port, "lport_ok", "reject");
        Label "lport_ok";
      ]
    @ check_remote_port
    @ [
        Label "accept";
        I (Ret (RetK snaplen));
        Label "reject";
        I (Ret (RetK 0));
      ])

(* --- flat session descriptors ----------------------------------------

   A session filter is entirely determined by its [spec]: a handful of
   equality tests against fields at fixed (or IHL-derived) offsets. The
   flat descriptor records exactly those fields so the kernel's
   demultiplexer can match a frame with direct byte comparisons instead
   of running the program at all.

   [flat_match] is a transliteration of the program [session] emits —
   same tests, same order, same out-of-bounds behaviour — and counts the
   instructions the interpreter would have executed on the same frame,
   so the simulated per-instruction demultiplexing cost is unchanged.
   The differential test suite checks (accept, steps) equality against
   the interpreter on random frames. *)

type flat = {
  f_proto : int;  (** IP protocol number *)
  f_local_ip : int;
  f_local_port : int;
  f_remote_ip : int option;
  f_remote_port : int option;
}

let flat_of_spec spec =
  {
    f_proto = proto_number spec.proto;
    f_local_ip = spec.local_ip land 0xffffffff;
    (* same masking the VM applies to jump constants: a port outside
       0..0xffff can never equal a 16-bit load, in either engine *)
    f_local_port = spec.local_port land 0xffffffff;
    f_remote_ip = Option.map (fun ip -> ip land 0xffffffff) spec.remote_ip;
    f_remote_port = Option.map (fun p -> p land 0xffffffff) spec.remote_port;
  }

(* Straight-line transliteration: every test reads the frame in place
   and returns as soon as the program would, with the instruction count
   spelled out (a load that runs off the frame rejects with the
   faulting load counted, as Vm.load_size does; a taken jump to a Ret
   counts the jump and the Ret). [s] is the count before the step. No
   closure, no ref, no exception: the only allocation is the result
   pair. *)

(* Fragment test, then the port checks; [s] instructions ran so far. *)
let flat_ports f pkt off len s =
  if off_ip_frag + 2 > len then (0, s + 1)
  else if Psd_util.Codec.get_u16 pkt (off + off_ip_frag) land 0x1fff <> 0
  then (snaplen, s + 3)
  else if off_ip + 1 > len then (0, s + 3) (* ldx msh *)
  else
    let ihl4 = 4 * (Char.code (Bytes.unsafe_get pkt (off + off_ip)) land 0xf) in
    let dport = ihl4 + off_ip + 2 in
    if dport + 2 > len then (0, s + 4)
    else if Psd_util.Codec.get_u16 pkt (off + dport) <> f.f_local_port then
      (0, s + 6)
    else
      match f.f_remote_port with
      | None -> (snaplen, s + 6)
      | Some p ->
        let sport = ihl4 + off_ip in
        if sport + 2 > len then (0, s + 6)
        else if Psd_util.Codec.get_u16 pkt (off + sport) <> p then (0, s + 8)
        else (snaplen, s + 8)

let flat_match f pkt ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length pkt then
    invalid_arg "Filter.flat_match";
  if off_ethertype + 2 > len then (0, 1)
  else if Psd_util.Codec.get_u16 pkt (off + off_ethertype) <> ethertype_ip
  then (0, 3)
  else if off_ip_proto + 1 > len then (0, 3)
  else if Char.code (Bytes.unsafe_get pkt (off + off_ip_proto)) <> f.f_proto
  then (0, 5)
  else if off_ip_dst + 4 > len then (0, 5)
  else if Psd_util.Codec.get_u32i pkt (off + off_ip_dst) <> f.f_local_ip then
    (0, 7)
  else
    match f.f_remote_ip with
    | None -> flat_ports f pkt off len 6
    | Some ip ->
      if off_ip_src + 4 > len then (0, 7)
      else if Psd_util.Codec.get_u32i pkt (off + off_ip_src) <> ip then (0, 9)
      else flat_ports f pkt off len 8

let flat_run f pkt = flat_match f pkt ~off:0 ~len:(Bytes.length pkt)

let arp =
  let open Insn in
  let open Asm in
  Asm.assemble_exn
    [
      I (Ld (H, Abs off_ethertype));
      J (Jeq, K ethertype_arp, "accept", "reject");
      Label "accept";
      I (Ret (RetK snaplen));
      Label "reject";
      I (Ret (RetK 0));
    ]

let ip_all =
  let open Insn in
  let open Asm in
  Asm.assemble_exn
    [
      I (Ld (H, Abs off_ethertype));
      J (Jeq, K ethertype_ip, "accept", "reject");
      Label "accept";
      I (Ret (RetK snaplen));
      Label "reject";
      I (Ret (RetK 0));
    ]

let icmp ~local_ip =
  let open Insn in
  let open Asm in
  Asm.assemble_exn
    [
      I (Ld (H, Abs off_ethertype));
      J (Jeq, K ethertype_ip, "is_ip", "reject");
      Label "is_ip";
      I (Ld (B, Abs off_ip_proto));
      J (Jeq, K 1, "is_icmp", "reject");
      Label "is_icmp";
      I (Ld (W, Abs off_ip_dst));
      J (Jeq, K local_ip, "accept", "reject");
      Label "accept";
      I (Ret (RetK snaplen));
      Label "reject";
      I (Ret (RetK 0));
    ]
