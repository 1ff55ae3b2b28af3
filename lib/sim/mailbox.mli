(** Unbounded blocking FIFO between fibers.

    The building block for IPC message queues and protocol input queues:
    senders never block; receivers block until a message arrives. *)

type 'a t

val create : Engine.t -> 'a t

val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Block the calling fiber until a message is available. Messages are
    delivered in FIFO order; concurrent receivers are served oldest-first. *)

val recv_timeout : 'a t -> int -> 'a option
(** [None] when the timeout (nanoseconds) elapses first. *)

val try_recv : 'a t -> 'a option

val length : 'a t -> int
