(* Hierarchical timing wheel (Varghese & Lauck), specialised for the
   engine's determinism contract: every entry carries the same (key, seq)
   pair the 4-ary event heap would have given it, and [pop_min] yields
   entries in exactly (key, seq) order — so a run whose timers live here
   is event-for-event identical to one whose timers live in the heap.

   Layout: [levels] levels of [slots] buckets; level [k] bucket [s]
   holds entries whose key agrees with the wheel cursor [cur] on every
   base-[slots] digit above [k] and whose digit [k] is [s]. Equivalently,
   an entry lives at the level of the highest base-[slots] digit where
   its key differs from [cur] (level 0 if none). 8 levels of 256 slots
   cover the full 62-bit non-negative key space.

   The wheel only ever advances [cur] to the key of the entry being
   popped — i.e. to the current minimum. That restriction is what keeps
   placement cheap: advancing to the minimum can only change cursor
   digits at or below the popped entry's level, and any entry that the
   digit change would misplace would have to sort below the minimum —
   a contradiction — so only the boundary buckets on the advance path
   need cascading, and every other entry's placement stays valid.

   Tie-breaking: a level-0 bucket is single-key (all digits of the key
   are pinned by cursor agreement + the slot index), so its FIFO list
   order is insertion order = seq order, given the engine's monotone
   seq counter. Cascades walk buckets in list order and append at the
   tail, preserving relative order of equal keys across levels.

   Storage: all [levels * slots] buckets are heads in one flat array.
   A bucket is a list linked through [next] and ended by the wheel's
   [nil] node; its head's [prev] is the tail (so appending is O(1)),
   every other node's [prev] its predecessor. An empty bucket's head is
   [nil] itself, so a fresh wheel is one array of [nil]s rather than a
   sentinel record per bucket. A fired or cancelled node has [prev]
   and [next] at [nil] (a released one links only to the free list),
   so it keeps no former neighbour reachable.
   Cancel is O(1), allocation-free and idempotent; nodes are reusable
   via [reinsert] so a re-armed timer costs no allocation. *)

type 'a node = {
  mutable key : int;
  mutable seq : int;
  mutable value : 'a;
  mutable prev : 'a node;
  mutable next : 'a node;
  mutable bucket : int; (* index into [heads] while linked, else -1 *)
}

let slot_bits = 8
let slots = 1 lsl slot_bits
let levels = 8
let slot_mask = slots - 1

type 'a t = {
  dummy : 'a;
  heads : 'a node array; (* [level * slots + slot]; [nil] when empty *)
  level_count : int array; (* live entries per level *)
  mutable cur : int; (* wheel time; all live keys are >= cur *)
  mutable count : int;
  (* Exact cached minimum, or [nil] for empty or unknown (recomputed
     lazily by [min_node]). *)
  mutable cached : 'a node;
  (* Ends every bucket list and the free list, and stands for "no
     node". Its key and seq are [max_int], so the minimum of an empty
     wheel reads as [max_int] without a branch. *)
  nil : 'a node;
  (* Node pool: singly linked through [next], terminated by [nil].
     [acquire]/[release] recycle nodes here so arm/fire/re-arm churn
     allocates nothing and an idle timer pins no node. *)
  mutable free : 'a node;
  mutable free_len : int;
}

let create ~dummy () =
  let rec nil =
    { key = max_int; seq = max_int; value = dummy; prev = nil; next = nil;
      bucket = -1 }
  in
  (* The bucket array is too big for the minor heap, and [Array.make]
     runs a whole minor collection before filling such an array with a
     minor-heap value — [nil] is one. So it is made with an immediate
     placeholder, never read, and then filled with [nil]. *)
  let heads = Array.make (levels * slots) (Obj.magic 0) in
  Array.fill heads 0 (levels * slots) nil;
  {
    dummy;
    heads;
    level_count = Array.make levels 0;
    cur = 0;
    count = 0;
    cached = nil;
    nil;
    free = nil;
    free_len = 0;
  }

let size t = t.count

let is_empty t = t.count = 0

let now t = t.cur

let active n = n.bucket >= 0

let slot_of key k = (key lsr (k * slot_bits)) land slot_mask

(* Highest base-[slots] digit where [key] differs from [cur]; 0 if none. *)
let level_of t key =
  let d = key lxor t.cur in
  if d <= slot_mask then 0
  else begin
    let k = ref 0 and d = ref d in
    while !d > slot_mask do
      incr k;
      d := !d lsr slot_bits
    done;
    !k
  end

let bucket_of t key =
  let k = level_of t key in
  (k lsl slot_bits) lor slot_of key k

(* Append [n] to the bucket its key belongs in under the current
   cursor. *)
let link_tail t n =
  let i = bucket_of t n.key in
  let h = t.heads.(i) in
  n.next <- t.nil;
  if h == t.nil then begin
    n.prev <- n;
    t.heads.(i) <- n
  end
  else begin
    let tail = h.prev in
    tail.next <- n;
    n.prev <- tail;
    h.prev <- n
  end;
  n.bucket <- i;
  let k = i lsr slot_bits in
  t.level_count.(k) <- t.level_count.(k) + 1

let unlink t n =
  let i = n.bucket in
  let h = t.heads.(i) in
  let next = n.next in
  if h == n then begin
    if next != t.nil then next.prev <- n.prev;
    t.heads.(i) <- next
  end
  else begin
    n.prev.next <- next;
    if next == t.nil then h.prev <- n.prev else next.prev <- n.prev
  end;
  n.prev <- t.nil;
  n.next <- t.nil;
  n.bucket <- -1;
  let k = i lsr slot_bits in
  t.level_count.(k) <- t.level_count.(k) - 1

(* (key, seq) strict order: [a] sorts before [b] *)
let beats a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let place t n =
  link_tail t n;
  t.count <- t.count + 1;
  let m = t.cached in
  if m != t.nil then begin
    if beats n m then t.cached <- n
  end
  else if t.count = 1 then t.cached <- n
(* count > 1 with no cache: stay lazy; min_node recomputes *)

let insert t ~key ~seq value =
  if key < t.cur then invalid_arg "Wheel.insert: key precedes wheel time";
  let n =
    { key; seq; value; prev = t.nil; next = t.nil; bucket = -1 }
  in
  place t n;
  n

let reinsert t n ~key ~seq value =
  if active n then invalid_arg "Wheel.reinsert: node still linked";
  if key < t.cur then invalid_arg "Wheel.reinsert: key precedes wheel time";
  n.key <- key;
  n.seq <- seq;
  n.value <- value;
  place t n

let cancel t n =
  if active n then begin
    unlink t n;
    t.count <- t.count - 1;
    n.value <- t.dummy;
    if t.cached == n then t.cached <- t.nil
  end

(* Pooled variant of [insert]: serve from the free list when possible.
   The returned node is owned by the caller until [release]d. *)
let acquire t ~key ~seq value =
  if t.free == t.nil then insert t ~key ~seq value
  else begin
    let n = t.free in
    t.free <- n.next;
    t.free_len <- t.free_len - 1;
    reinsert t n ~key ~seq value;
    n
  end

(* Unlink (if still linked) and return the node to the pool. The caller
   must drop its reference: releasing the same node twice corrupts the
   free list. *)
let release t n =
  cancel t n;
  n.next <- t.free;
  t.free <- n;
  t.free_len <- t.free_len + 1

let pool_size t = t.free_len

(* First non-empty bucket of level [k] at slot [s] or above; [nil] if
   none. *)
let rec first_bucket t k s =
  if s >= slots then t.nil
  else begin
    let h = t.heads.((k lsl slot_bits) lor s) in
    if h == t.nil then first_bucket t k (s + 1) else h
  end

(* (key, seq) minimum of the list from [n] on, against [m] so far. *)
let rec list_min t m n =
  if n == t.nil then m else list_min t (if beats n m then n else m) n.next

(* Scan for the minimum entry. Levels are scanned bottom-up and, within
   a level, slots in increasing order from the cursor digit: level-j
   entries always sort below level-k entries for j < k (they agree with
   [cur] on strictly more high digits), and within a level the slot
   index orders the keys (all higher digits agree with [cur]). The first
   non-empty level-0 bucket is single-key and FIFO-ordered, so its head
   is the answer; at higher levels the bucket spans a key range and must
   be scanned for the (key, seq) minimum. *)
let rec find_min t k =
  if k >= levels then t.nil
  else if t.level_count.(k) = 0 then find_min t (k + 1)
  else begin
    let h = first_bucket t k (slot_of t.cur k + if k = 0 then 0 else 1) in
    if h == t.nil then find_min t (k + 1)
    else if k = 0 then h
    else list_min t h h.next
  end

let min_node t =
  let c = t.cached in
  if c != t.nil || t.count = 0 then c
  else begin
    let m = find_min t 0 in
    t.cached <- m;
    m
  end

let min_key t = (min_node t).key

let min_seq t = (min_node t).seq

(* Re-place the entries of a detached level-[k] bucket, from [n] on,
   in list order. *)
let rec replace t k n =
  if n != t.nil then begin
    let next = n.next in
    t.level_count.(k) <- t.level_count.(k) - 1;
    link_tail t n;
    replace t k next
  end

(* Advance the cursor to [target] (the current minimum key) and cascade
   the boundary buckets: detach, top-down, each level's bucket at the
   target's digit and re-place its entries at their (strictly lower)
   new level in list order, so equal-key FIFO order survives the
   cascade. Buckets below the highest changed digit are provably empty
   (any occupant would sort below the minimum), so the loop does no
   work there beyond a counter check. *)
let advance t target =
  if target <> t.cur then begin
    let hk = level_of t target in
    t.cur <- target;
    for k = hk downto 1 do
      if t.level_count.(k) > 0 then begin
        let i = (k lsl slot_bits) lor slot_of target k in
        let h = t.heads.(i) in
        t.heads.(i) <- t.nil;
        replace t k h
      end
    done
  end

let pop_min t =
  let m = min_node t in
  if m == t.nil then invalid_arg "Wheel.pop_min: empty";
  advance t m.key;
  unlink t m;
  t.count <- t.count - 1;
  let v = m.value in
  m.value <- t.dummy;
  (* After the cascade the minimum's level-0 bucket holds every
     remaining entry with the same key, in seq order — so its head, if
     any, is the next minimum for free. Otherwise ([nil]) fall back to
     a lazy rescan. *)
  t.cached <- t.heads.(slot_of m.key 0);
  v
