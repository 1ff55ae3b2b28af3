type nic = {
  nic_mac : Macaddr.t;
  mutable rx : Bytes.t -> unit;
  mutable promisc : bool;
  mutable nic_fault : Fault.t option;
  segment : t;
}

and t = {
  eng : Psd_sim.Engine.t;
  bps : int;
  ifg_ns : int;
  mutable nics : nic list;
  mutable fault : Fault.t option;
  mutable busy_until : int;
  mutable frames : int;
  mutable bytes : int;
  mutable busy_ns : int;
}

let preamble_bytes = 8

let create eng ?(bps = 10_000_000) ?(ifg_ns = 9_600) () =
  {
    eng;
    bps;
    ifg_ns;
    nics = [];
    fault = None;
    busy_until = 0;
    frames = 0;
    bytes = 0;
    busy_ns = 0;
  }

let attach t ~mac =
  let nic =
    {
      nic_mac = mac;
      rx = (fun _ -> ());
      promisc = false;
      nic_fault = None;
      segment = t;
    }
  in
  t.nics <- t.nics @ [ nic ];
  nic

let mac nic = nic.nic_mac

let set_rx nic f = nic.rx <- f

let set_promiscuous nic v = nic.promisc <- v

let set_fault t f = t.fault <- f

let set_nic_fault nic f = nic.nic_fault <- f

let fault t = t.fault

let nic_fault nic = nic.nic_fault

let frame_time t len =
  let len = max len Frame.min_frame in
  let bits = (len + preamble_bytes) * 8 in
  (bits * 1_000_000_000 / t.bps) + t.ifg_ns

let pad frame =
  let len = Bytes.length frame in
  if len >= Frame.min_frame then frame
  else begin
    let padded = Bytes.make Frame.min_frame '\x00' in
    Bytes.blit frame 0 padded 0 len;
    padded
  end

(* [r] wants [frame], which [sender] put on the wire. *)
let wants sender r frame =
  r != sender
  && (r.promisc
     || Macaddr.is_broadcast_at frame 0
     || Macaddr.equal_at r.nic_mac frame 0)

(* The last NIC in [nics] that wants [frame]; [sender] when none does
   (the sender never receives its own frame). *)
let rec last_wanted sender frame last = function
  | [] -> last
  | r :: rest ->
    last_wanted sender frame (if wants sender r frame then r else last) rest

let rec deliver_faulted t r = function
  | [] -> ()
  | (extra_ns, frm) :: rest ->
    if extra_ns = 0 then r.rx frm
    else Psd_sim.Engine.schedule t.eng extra_ns (fun () -> r.rx frm);
    deliver_faulted t r rest

(* [frame] is [r]'s own buffer from here on: a fault may corrupt it in
   place, and the receiver may keep it. *)
let deliver t r frame =
  Psd_util.Copies.count Psd_util.Copies.Wire (Bytes.length frame);
  (* a NIC-specific fault process overrides the segment's *)
  match (match r.nic_fault with Some _ as f -> f | None -> t.fault) with
  | None -> r.rx frame
  | Some f -> deliver_faulted t r (Fault.apply f frame)

(* Every receiver before [last] gets a private copy, taken while the
   transmitted buffer is still untouched; [last] then gets the buffer
   itself. *)
let rec deliver_all t sender frame last = function
  | [] -> ()
  | r :: rest ->
    if r == last then deliver t r frame
    else begin
      if wants sender r frame then deliver t r (Bytes.copy frame);
      deliver_all t sender frame last rest
    end

let transmit nic frame =
  let t = nic.segment in
  let len = Bytes.length frame in
  if len < Frame.header_size then invalid_arg "Segment.transmit: runt frame";
  if len > Frame.max_frame then invalid_arg "Segment.transmit: giant frame";
  let frame = pad frame in
  let now = Psd_sim.Engine.now t.eng in
  let start = max now t.busy_until in
  let occupancy = frame_time t (Bytes.length frame) in
  t.busy_until <- start + occupancy;
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + Bytes.length frame;
  t.busy_ns <- t.busy_ns + occupancy;
  let arrival = start + occupancy - t.ifg_ns in
  Psd_sim.Engine.schedule t.eng (arrival - now) (fun () ->
      let nics = t.nics in
      let last = last_wanted nic frame nic nics in
      if last != nic then deliver_all t nic frame last nics)

let frames_sent t = t.frames

let bytes_sent t = t.bytes

let busy_ns t = t.busy_ns
