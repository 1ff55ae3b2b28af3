(** FIFO ring buffer.

    Models the fixed-size packet rings used by the shared-memory
    kernel/application channel: producers fail (drop) when the ring is
    full rather than blocking. {!push_grow} makes it an unbounded FIFO
    instead. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val is_full : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t x] appends [x]; [false] (and no change) when full. *)

val push_grow : 'a t -> 'a -> unit
(** [push_grow t x] appends [x], doubling the capacity first when the
    ring is full. A popped slot never keeps its element reachable,
    which a linked queue's taken cells can do. *)

val pop : 'a t -> 'a option

val peek : 'a t -> 'a option

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
(** Iterate oldest-first without consuming. *)
