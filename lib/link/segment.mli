(** A shared 10 Mb/s Ethernet segment.

    Frames are serialised FIFO at the configured bit rate with a preamble
    and inter-frame gap per frame; a frame is delivered to the NICs whose
    address matches (or that are promiscuous) when its last bit arrives.
    Collisions are not modelled — the paper's measurements are taken on a
    private two-host network where the medium is effectively
    collision-free (DESIGN.md section 6). *)

type t

type nic

val create : Psd_sim.Engine.t -> ?bps:int -> ?ifg_ns:int -> unit -> t
(** Default 10 Mb/s with the standard 9.6 µs inter-frame gap. *)

val attach : t -> mac:Macaddr.t -> nic
(** Attach a NIC with the given address. *)

val mac : nic -> Macaddr.t

val set_rx : nic -> (Bytes.t -> unit) -> unit
(** Install the receive handler (the host's device-interrupt entry).
    The handler receives the padded on-wire frame. *)

val set_promiscuous : nic -> bool -> unit

val set_fault : t -> Fault.t option -> unit
(** Install (or clear) a fault process for every delivery on this
    segment. With [None] — the default — delivery is byte-perfect and
    event-for-event identical to a segment that never had a fault
    process, so fault-free runs replay bit-identically. *)

val set_nic_fault : nic -> Fault.t option -> unit
(** Per-NIC fault process; when set it overrides the segment-wide one
    for deliveries to this NIC (it is not composed with it). *)

val fault : t -> Fault.t option

val nic_fault : nic -> Fault.t option

val transmit : nic -> Bytes.t -> unit
(** Queue a frame for transmission. Undersized frames are padded to the
    Ethernet minimum; frames above the MTU raise [Invalid_argument].
    Transmission is asynchronous: the call returns immediately and
    delivery happens when serialisation completes.

    Ownership: [transmit] takes the frame. The caller must not read or
    write it afterwards. Of the NICs that want the frame, in attach
    order, the last one receives the transmitted buffer itself (the
    padded copy, for an undersized frame); every earlier one receives
    a private copy, taken before any receiver sees the frame. Each
    receiver therefore owns the buffer it is handed: a fault process
    may corrupt it in place and the receiver may keep it, without
    another receiver seeing the change. Fault duplicates are private
    copies too. {!Psd_util.Copies.Wire} counts one per delivered
    frame, the handed-over buffer included. *)

val frame_time : t -> int -> int
(** Wire occupancy (ns) of a frame of the given length on this segment,
    including preamble, padding and inter-frame gap. *)

val frames_sent : t -> int

val bytes_sent : t -> int

val busy_ns : t -> int
(** Cumulative wire-busy time, for utilisation reporting. *)
