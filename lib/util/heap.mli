(** Imperative 4-ary min-heap keyed by [(key, seq)].

    Backbone of the simulator's event queue. The caller supplies [seq]
    from a monotone counter, so events scheduled for the same instant
    fire FIFO, which keeps simulations deterministic. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills every slot that holds no element, so a popped value
    is not kept reachable by the heap. *)

val push_seq : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert with a caller-supplied tie-break sequence number. [seq] must
    be strictly greater than every seq currently in the heap; the
    engine's queues share one monotone counter so that (key, seq)
    totally orders entries across all of them. The heap holds at most
    2^24 entries.
    @raise Invalid_argument unless [0 <= seq < 2^38]. *)

val min_key : 'a t -> int
(** The smallest key, or [max_int] when empty. Allocates nothing. *)

val min_seq : 'a t -> int
(** Tie-break seq of the minimum entry, or [max_int] when empty. *)

val pop_min : 'a t -> 'a
(** Remove and return the minimum entry's value without allocating,
    FIFO among equal keys. Raises [Invalid_argument] on an empty heap;
    pair with {!min_key}. *)

val size : 'a t -> int
