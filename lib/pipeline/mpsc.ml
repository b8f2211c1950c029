type 'a t = {
  buf : 'a option array;
  capacity : int;
  mutable head : int; (* index of the next element to pop *)
  mutable len : int;
  mutable closed : bool;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mpsc.create: capacity must be positive";
  {
    buf = Array.make capacity None;
    capacity;
    head = 0;
    len = 0;
    closed = false;
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let unsafe_put t x =
  t.buf.((t.head + t.len) mod t.capacity) <- Some x;
  t.len <- t.len + 1

let push t x =
  Mutex.lock t.m;
  let rec go () =
    if t.closed then false
    else if t.len = t.capacity then begin
      Condition.wait t.not_full t.m;
      go ()
    end
    else begin
      unsafe_put t x;
      Condition.signal t.not_empty;
      true
    end
  in
  let ok = go () in
  Mutex.unlock t.m;
  ok

(* One lock hold per chunk: as much of the slice as fits goes in under one
   acquisition with one consumer signal, so a whole frame costs the queue a
   handful of lock holds instead of one per element. *)
let push_slice t src ~off ~len =
  if off < 0 || len < 0 || off > Array.length src - len then
    invalid_arg "Mpsc.push_slice: slice out of bounds";
  Mutex.lock t.m;
  let rec go pushed =
    if pushed = len || t.closed then pushed
    else if t.len = t.capacity then begin
      Condition.wait t.not_full t.m;
      go pushed
    end
    else begin
      let k = min (len - pushed) (t.capacity - t.len) in
      for j = off + pushed to off + pushed + k - 1 do
        unsafe_put t (Array.unsafe_get src j)
      done;
      Condition.signal t.not_empty;
      go (pushed + k)
    end
  in
  let n = go 0 in
  Mutex.unlock t.m;
  n

let try_push t x =
  Mutex.lock t.m;
  let r =
    if t.closed then `Closed
    else if t.len = t.capacity then `Full
    else begin
      unsafe_put t x;
      Condition.signal t.not_empty;
      `Ok
    end
  in
  Mutex.unlock t.m;
  r

let pop_batch t ~max =
  if max <= 0 then invalid_arg "Mpsc.pop_batch: max must be positive";
  Mutex.lock t.m;
  while t.len = 0 && not t.closed do
    Condition.wait t.not_empty t.m
  done;
  let n = min max t.len in
  let items = ref [] in
  for _ = 1 to n do
    (match t.buf.(t.head) with
    | Some x -> items := x :: !items
    | None -> assert false);
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1
  done;
  if n > 0 then Condition.broadcast t.not_full;
  Mutex.unlock t.m;
  List.rev !items

let pop t = match pop_batch t ~max:1 with [] -> None | x :: _ -> Some x

(* Array-based pops: same semantics as [pop_batch] but writing into a
   caller-owned buffer, so steady-state consumption allocates nothing.
   Because every consumer runs under the queue mutex these are also safe
   for multiple concurrent consumers. *)

let unsafe_take_into t buf n =
  for j = 0 to n - 1 do
    (match t.buf.(t.head) with
    | Some x -> buf.(j) <- x
    | None -> assert false);
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod t.capacity;
    t.len <- t.len - 1
  done;
  if n > 0 then Condition.broadcast t.not_full

let try_pop_into t buf ~max =
  if max <= 0 then invalid_arg "Mpsc.try_pop_into: max must be positive";
  Mutex.lock t.m;
  let n = min (min max (Array.length buf)) t.len in
  let r = if n = 0 then if t.closed then -1 else 0 else n in
  unsafe_take_into t buf n;
  Mutex.unlock t.m;
  r

let pop_into t buf ~max =
  if max <= 0 then invalid_arg "Mpsc.pop_into: max must be positive";
  Mutex.lock t.m;
  while t.len = 0 && not t.closed do
    Condition.wait t.not_empty t.m
  done;
  let n = min (min max (Array.length buf)) t.len in
  let r = if n = 0 then -1 (* closed and drained *) else n in
  unsafe_take_into t buf n;
  Mutex.unlock t.m;
  r

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
    t.buf.(t.head) <- None;
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

let is_closed t =
  Mutex.lock t.m;
  let c = t.closed in
  Mutex.unlock t.m;
  c
