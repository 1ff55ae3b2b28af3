(* Wall-clock copy accounting: every remaining [Bytes.blit]-class data
   copy on the packet datapath is charged to one of these sites, so the
   placements' copy discipline (paper Section 4: SHM-IPF copies the body
   exactly once) is measurable rather than asserted. The counters are
   global and observational only — nothing on the virtual-time side reads
   them — so they can never perturb simulated results. *)

type site =
  | Tx_copyin (* user data copied into mbufs at the socket layer *)
  | Tx_retain (* send-queue range copied for (re)transmission *)
  | Tx_frame (* mbuf chain flattened into the outgoing frame *)
  | Tx_rpc (* send payload copied through RPC messages to the server *)
  | Wire (* one per frame the shared segment delivers to a NIC *)
  | Rx_device (* driver copy out of device memory (full-copy rx mode) *)
  | Rx_ipc (* per-packet message: copy into and out of the IPC msg *)
  | Rx_ring (* packet copied into the shared-memory ring *)
  | Rx_flatten (* non-contiguous chain flattened for header decode *)
  | Rx_copyout (* received data copied out to the application string *)
  | Rx_rpc (* received payload copied through RPC messages *)
  | Rx_loan (* NEWAPI: packet placed in application-loaned memory *)
  | Tx_owned (* NEWAPI: caller-owned buffer aliased for transmit *)

let site_index = function
  | Tx_copyin -> 0
  | Tx_retain -> 1
  | Tx_frame -> 2
  | Tx_rpc -> 3
  | Wire -> 4
  | Rx_device -> 5
  | Rx_ipc -> 6
  | Rx_ring -> 7
  | Rx_flatten -> 8
  | Rx_copyout -> 9
  | Rx_rpc -> 10
  | Rx_loan -> 11
  | Tx_owned -> 12

let site_name = function
  | Tx_copyin -> "tx_copyin"
  | Tx_retain -> "tx_retain"
  | Tx_frame -> "tx_frame"
  | Tx_rpc -> "tx_rpc"
  | Wire -> "wire"
  | Rx_device -> "rx_device"
  | Rx_ipc -> "rx_ipc"
  | Rx_ring -> "rx_ring"
  | Rx_flatten -> "rx_flatten"
  | Rx_copyout -> "rx_copyout"
  | Rx_rpc -> "rx_rpc"
  | Rx_loan -> "rx_loan"
  | Tx_owned -> "tx_owned"

let all_sites =
  [
    Tx_copyin; Tx_retain; Tx_frame; Tx_rpc; Wire; Rx_device; Rx_ipc;
    Rx_ring; Rx_flatten; Rx_copyout; Rx_rpc; Rx_loan; Tx_owned;
  ]

let n_sites = List.length all_sites

let copies_a = Array.make n_sites 0

let bytes_a = Array.make n_sites 0

let count site ?(n = 1) bytes =
  let i = site_index site in
  copies_a.(i) <- copies_a.(i) + n;
  bytes_a.(i) <- bytes_a.(i) + bytes

let copies site = copies_a.(site_index site)

let bytes site = bytes_a.(site_index site)

let reset () =
  Array.fill copies_a 0 n_sites 0;
  Array.fill bytes_a 0 n_sites 0

let all () =
  List.map (fun s -> (site_name s, copies s, bytes s)) all_sites

(* The copies a received packet body undergoes between the shared wire's
   delivery and the receiving socket buffer — the quantity the paper's
   placements differ in. [Wire] (the simulated medium itself) and
   [Rx_copyout] (the API's final copy into the app string, identical
   everywhere) are excluded. [Rx_loan] is excluded too: under the NEWAPI
   the delivery lands directly in application-loaned shared memory, so
   the deposit *is* the API boundary crossing — the loan site records
   that the bytes became application-visible, taking the place of the
   excluded [Rx_copyout], not adding a body copy. *)
let rx_datapath_sites = [ Rx_device; Rx_ipc; Rx_ring; Rx_flatten; Rx_rpc ]

let rx_datapath_copies () =
  List.fold_left (fun acc s -> acc + copies s) 0 rx_datapath_sites

(* The copies a transmitted packet body undergoes between the user's
   send buffer and the wire. Unlike the rx direction, the final gather
   into the outgoing frame ([Tx_frame]) is included: it is the one
   unavoidable body copy of the zero-copy send path, so "SHM-IPF tx = 1"
   means exactly the frame gather and nothing else. [Wire] stays
   excluded (the medium itself, identical everywhere), and so is
   [Tx_owned]: aliasing a caller-owned buffer as a shared view moves no
   bytes — it is the NEWAPI's ownership-transfer event, the analogue of
   the copy-in it replaces. *)
let tx_datapath_sites = [ Tx_copyin; Tx_retain; Tx_frame; Tx_rpc ]

let tx_datapath_copies () =
  List.fold_left (fun acc s -> acc + copies s) 0 tx_datapath_sites
