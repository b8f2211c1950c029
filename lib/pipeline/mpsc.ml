type 'a t = {
  (* Slots outside the live window [head, head + len) hold [vacant], so
     a popped element is never kept alive, and an element is stored as
     itself: a push allocates nothing. *)
  buf : 'a array;
  capacity : int;
  mutable head : int; (* index of the next element to pop *)
  mutable len : int;
  mutable closed : bool;
  (* The consumer's wake threshold: producers signal [not_empty] only once
     [len] reaches it (or the queue is full). 1 except while a
     [pop_into ~min] waits; one consumer, so one field. *)
  mutable want : int;
  (* A pending {!kick}: the next [pop_into] returns without waiting for
     [want], or the current one stops waiting. Cleared by that
     [pop_into]. *)
  mutable kicked : bool;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

(* The filler of free slots: an immediate, never read back as an ['a].
   Being an immediate, it also makes [Array.make] build an ordinary array,
   never a flat float array, whatever ['a] is; every access below is
   polymorphic, so it treats the slots as ordinary values. *)
let vacant () : 'a = Obj.magic 0

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mpsc.create: capacity must be positive";
  {
    buf = Array.make capacity (vacant ());
    capacity;
    head = 0;
    len = 0;
    closed = false;
    want = 1;
    kicked = false;
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let unsafe_put t x =
  t.buf.((t.head + t.len) mod t.capacity) <- x;
  t.len <- t.len + 1

(* Whether the consumer is owed a signal, read under the mutex. [want <=
   capacity] always, so a full queue always signals. Producers send the
   signal after unlocking: a consumer woken under the producer's lock
   would only block again on the mutex, and the producer would pay a
   second futex call to hand it over. *)
let progress t = t.len >= t.want

(* A loop, not a local recursive function: a closure over [t] and [x]
   would be allocated on every push. *)
let push t x =
  Mutex.lock t.m;
  while t.len = t.capacity && not t.closed do
    Condition.wait t.not_full t.m
  done;
  let ok = not t.closed in
  if ok then unsafe_put t x;
  let wake = ok && progress t in
  Mutex.unlock t.m;
  if wake then Condition.signal t.not_empty;
  ok

(* One lock hold per chunk: as much of the slice as fits goes in under one
   acquisition with one consumer signal, so a whole frame costs the queue a
   handful of lock holds instead of one per element. *)
let push_slice t src ~off ~len =
  if off < 0 || len < 0 || off > Array.length src - len then
    invalid_arg "Mpsc.push_slice: slice out of bounds";
  Mutex.lock t.m;
  (* a loop, as in [push]: a local recursive function would close over
     the slice and be allocated on every call *)
  let pushed = ref 0 in
  while !pushed < len && not t.closed do
    if t.len = t.capacity then begin
      (* the consumer must hear of a full queue before we sleep on it *)
      Condition.signal t.not_empty;
      Condition.wait t.not_full t.m
    end
    else begin
      let k = min (len - !pushed) (t.capacity - t.len) in
      for j = off + !pushed to off + !pushed + k - 1 do
        unsafe_put t (Array.unsafe_get src j)
      done;
      pushed := !pushed + k
    end
  done;
  let n = !pushed in
  let wake = n > 0 && progress t in
  Mutex.unlock t.m;
  if wake then Condition.signal t.not_empty;
  n

let try_push t x =
  Mutex.lock t.m;
  let r =
    if t.closed then `Closed
    else if t.len = t.capacity then `Full
    else begin
      unsafe_put t x;
      `Ok
    end
  in
  let wake = match r with `Ok -> progress t | `Full | `Closed -> false in
  Mutex.unlock t.m;
  if wake then Condition.signal t.not_empty;
  r

(* One element per lock hold, the only allocation its [Some]: the merger
   pops once per merge, each subscriber pump once per delta. *)
let pop t =
  Mutex.lock t.m;
  while t.len = 0 && not t.closed do
    Condition.wait t.not_empty t.m
  done;
  let r =
    if t.len = 0 then None
    else begin
      let x = t.buf.(t.head) in
      t.buf.(t.head) <- vacant ();
      t.head <- (t.head + 1) mod t.capacity;
      t.len <- t.len - 1;
      Condition.broadcast t.not_full;
      Some x
    end
  in
  Mutex.unlock t.m;
  r

(* Array-based pops: up to [max] elements per lock hold, written into a
   caller-owned buffer, so steady-state consumption allocates nothing.
   Because every consumer runs under the queue mutex these are also safe
   for multiple concurrent consumers. *)

(* The live window wraps at most once, so the [n] elements are at most
   two runs of [buf]; each is copied element by element ([Array.blit]
   would trust [buf]'s float-array tag, see [vacant]) and then cleared
   with one fill, keeping the producers' wait for the mutex short. *)
let unsafe_take_into t buf n =
  let first = min n (t.capacity - t.head) in
  for j = 0 to first - 1 do
    Array.unsafe_set buf j (Array.unsafe_get t.buf (t.head + j))
  done;
  for j = first to n - 1 do
    Array.unsafe_set buf j (Array.unsafe_get t.buf (j - first))
  done;
  Array.fill t.buf t.head first (vacant ());
  Array.fill t.buf 0 (n - first) (vacant ());
  t.head <- (t.head + n) mod t.capacity;
  t.len <- t.len - n;
  if n > 0 then Condition.broadcast t.not_full

let try_pop_into t buf ~max =
  if max <= 0 then invalid_arg "Mpsc.try_pop_into: max must be positive";
  Mutex.lock t.m;
  let n = min (min max (Array.length buf)) t.len in
  let r = if n = 0 then if t.closed then -1 else 0 else n in
  unsafe_take_into t buf n;
  Mutex.unlock t.m;
  r

let pop_into ?min:(least = 1) t buf ~max =
  if max <= 0 then invalid_arg "Mpsc.pop_into: max must be positive";
  if least <= 0 then invalid_arg "Mpsc.pop_into: min must be positive";
  Mutex.lock t.m;
  let want = min least t.capacity in
  if t.len < want && not (t.closed || t.kicked) then begin
    t.want <- want;
    while t.len < want && not (t.closed || t.kicked) do
      Condition.wait t.not_empty t.m
    done;
    t.want <- 1
  end;
  t.kicked <- false;
  let n = min (min max (Array.length buf)) t.len in
  (* [n = 0] open: kicked with nothing queued *)
  let r = if n > 0 then n else if t.closed then -1 else 0 in
  unsafe_take_into t buf n;
  Mutex.unlock t.m;
  r

(* The flag is set under the mutex, so a consumer about to wait sees it;
   the signal, sent after unlocking like a push's, ends a wait already
   begun. *)
let kick t =
  Mutex.lock t.m;
  t.kicked <- true;
  Mutex.unlock t.m;
  Condition.signal t.not_empty

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m

let reopen t =
  Mutex.lock t.m;
  t.closed <- false;
  (* Whatever survived the close is still queued, in order: a restarted
     consumer picks up exactly where the dead one left off. *)
  if t.len > 0 then Condition.broadcast t.not_empty;
  if t.len < t.capacity then Condition.broadcast t.not_full;
  Mutex.unlock t.m

let drain_remaining t =
  Mutex.lock t.m;
  let n = t.len in
  for _ = 1 to n do
    t.buf.(t.head) <- vacant ();
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1
  done;
  if n > 0 then Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  n

let length t =
  Mutex.lock t.m;
  let n = t.len in
  Mutex.unlock t.m;
  n

(* Unsynchronized read of [len]: immediates cannot tear, so this returns
   *some* recently written length — approximate, monotone in neither
   direction. The stats path uses it so scrapes and ingest-side
   depth tracking never contend with the consumer's lock. *)
let length_relaxed t = t.len
