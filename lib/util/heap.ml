(* Min-heap keyed by (key, seq): seq comes from the caller's
   monotonically increasing counter, so entries with equal keys pop in
   FIFO order — the engine's same-instant determinism contract.

   Layout notes, because this sits under every simulated event:
   - 4-ary: children of [i] are [4i+1 .. 4i+4]. The comparator is a
     strict total order (unique [seq] breaks every key tie), so any
     correct heap shape yields the same pop sequence — arity is purely
     a constant-factor choice; four-way nodes halve sift depth and
     keep a node's children in adjacent slots.
   - The sifts move ints only. Heap position [i] holds [keys.(i)] and
     [tags.(i)], which packs its seq above the index of its value in
     [vals]; a value is written once at push and blanked once at pop.
     Moving the values themselves cost a write barrier per level, and
     a remembered-set entry per level for a young closure. Seqs are
     unique, so comparing tags orders by seq; packing the index into
     the tag keeps the heap at three arrays.
   - Positions at or past [n] hold the free value indices, so the free
     list costs nothing: a push takes [tags.(n)] as it claims position
     [n], and a pop leaves the freed index at the position it vacates.
   - Both sifts bubble a hole instead of swapping.
   - Unused entries of [vals] hold [dummy], never a popped value: a fired event
     closure (and whatever frame it captured) must not outlive its
     dispatch just because the array still points at it. *)

type 'a t = {
  mutable keys : int array;
  mutable tags : int array;
  mutable vals : 'a array;
  mutable n : int;
  dummy : 'a;
}

(* 2^24 entries at most, and seqs below 2^38 on 64-bit hosts: 2.7e11
   events, days of simulation at the engine's rate. *)
let index_bits = 24

let index_mask = (1 lsl index_bits) - 1

let create ~dummy () = { keys = [||]; tags = [||]; vals = [||]; n = 0; dummy }

(* Only called when full, so every value index is in use and the new
   ones are exactly the new positions. *)
let grow h =
  let old = Array.length h.keys in
  let cap = max 16 (2 * old) in
  if cap > 1 lsl index_bits then failwith "Heap: more than 2^24 entries";
  let keys = Array.make cap 0
  and tags = Array.init cap Fun.id
  and vals = Array.make cap h.dummy in
  Array.blit h.keys 0 keys 0 old;
  Array.blit h.tags 0 tags 0 old;
  Array.blit h.vals 0 vals 0 old;
  h.keys <- keys;
  h.tags <- tags;
  h.vals <- vals

(* [seq] must exceed every seq currently in the heap — the engine
   shares one counter between its queues so that cross-queue
   (key, seq) order is a total order over all events. *)
let push_seq h ~key ~seq value =
  if seq < 0 || seq > max_int lsr index_bits then
    invalid_arg "Heap.push_seq: seq out of range";
  if h.n = Array.length h.keys then grow h;
  let keys = h.keys and tags = h.tags in
  let slot = tags.(h.n) in
  h.vals.(slot) <- value;
  let tag = (seq lsl index_bits) lor slot in
  (* hole bubble-up; the fresh element holds the largest seq, so a key
     tie with a parent is never "less" and the key compare suffices *)
  let i = ref h.n in
  h.n <- h.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      tags.(!i) <- tags.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  tags.(!i) <- tag

let pop_min h =
  if h.n = 0 then invalid_arg "Heap.pop_min: empty";
  let keys = h.keys and tags = h.tags in
  let slot = tags.(0) land index_mask in
  let top = h.vals.(slot) in
  h.vals.(slot) <- h.dummy;
  let n = h.n - 1 in
  h.n <- n;
  if n > 0 then begin
    (* hole bubble-down: place the displaced last element *)
    let ek = keys.(n) and et = tags.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (4 * !i) + 1 in
      if base >= n then continue := false
      else begin
        let m = ref base in
        let last = if base + 3 < n then base + 3 else n - 1 in
        for c = base + 1 to last do
          if
            keys.(c) < keys.(!m)
            || (keys.(c) = keys.(!m) && tags.(c) < tags.(!m))
          then m := c
        done;
        let m = !m in
        if keys.(m) < ek || (keys.(m) = ek && tags.(m) < et) then begin
          keys.(!i) <- keys.(m);
          tags.(!i) <- tags.(m);
          i := m
        end
        else continue := false
      end
    done;
    keys.(!i) <- ek;
    tags.(!i) <- et
  end;
  tags.(n) <- slot;
  top

(* allocation-free peek for hot paths; empty heap reads as +inf *)
let min_key h = if h.n = 0 then max_int else h.keys.(0)

let min_seq h = if h.n = 0 then max_int else h.tags.(0) lsr index_bits

let size h = h.n
