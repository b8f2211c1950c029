(* Occupancy: each row keeps a bitmap with one bit per column, set iff
   that cell is non-zero, and a count of its set bits. A cell is marked
   when it goes from 0 to non-zero; counts never go down (every addition
   is non-negative), so only [reset] clears marks. [iter_row] and [reset]
   then cost O(bitmap words + non-zero cells) instead of O(width): a
   shard delta of a few hundred keys touches a few hundred of a row's
   thousands of cells. *)
type t = {
  family : Hashing.Family.t;
  cells : int array array; (* rows × width *)
  occ : int array array; (* rows × ⌈width/32⌉, bit [col land 31] of word [col lsr 5] *)
  nz : int array; (* per row: set bits in [occ], = non-zero cells *)
  mutable n : int;
}

let create ~family =
  let d = Hashing.Family.rows family and w = Hashing.Family.width family in
  {
    family;
    cells = Array.make_matrix d w 0;
    occ = Array.make_matrix d ((w + 31) lsr 5) 0;
    nz = Array.make d 0;
    n = 0;
  }

let create_for_error ~seed ~alpha ~delta =
  if alpha <= 0.0 then invalid_arg "Countmin.create_for_error: alpha must be positive";
  if delta <= 0.0 || delta >= 1.0 then
    invalid_arg "Countmin.create_for_error: delta must lie in (0,1)";
  let w = int_of_float (ceil (Float.exp 1.0 /. alpha)) in
  let d = max 1 (int_of_float (ceil (log (1.0 /. delta)))) in
  create ~family:(Hashing.Family.seeded ~seed ~rows:d ~width:w)

let family t = t.family

let rows t = Array.length t.cells

let width t = Hashing.Family.width t.family

let[@inline] mark t row col =
  let occ = Array.unsafe_get t.occ row in
  let j = col lsr 5 in
  Array.unsafe_set occ j (Array.unsafe_get occ j lor (1 lsl (col land 31)));
  Array.unsafe_set t.nz row (Array.unsafe_get t.nz row + 1)

(* Add [c >= 0] to a cell whose row and column are in range, marking it
   if it turns non-zero. *)
let[@inline] bump t row col c =
  let r = Array.unsafe_get t.cells row in
  let v = Array.unsafe_get r col in
  if v = 0 && c <> 0 then mark t row col;
  Array.unsafe_set r col (v + c)

(* The loops hoist the row count and probe once per element
   (Family.probe/probe_col): on a double-hashed family an update costs 2
   field evaluations instead of d. [probe_col] is always in [0, width). *)

let update t a =
  let d = Array.length t.cells in
  let p = Hashing.Family.probe t.family a in
  for i = 0 to d - 1 do
    bump t i (Hashing.Family.probe_col t.family p ~row:i) 1
  done;
  t.n <- t.n + 1

let update_many t a ~count =
  if count < 0 then invalid_arg "Countmin.update_many: count must be non-negative";
  if count > 0 then begin
    let d = Array.length t.cells in
    let p = Hashing.Family.probe t.family a in
    for i = 0 to d - 1 do
      bump t i (Hashing.Family.probe_col t.family p ~row:i) count
    done;
    t.n <- t.n + count
  end

let query t a =
  let d = Array.length t.cells in
  let p = Hashing.Family.probe t.family a in
  let best = ref max_int in
  for i = 0 to d - 1 do
    let col = Hashing.Family.probe_col t.family p ~row:i in
    if t.cells.(i).(col) < !best then best := t.cells.(i).(col)
  done;
  !best

let updates t = t.n

let error_bound t = Float.exp 1.0 /. float_of_int (width t) *. float_of_int t.n

let cell t ~row ~col = t.cells.(row).(col)

let nonzero t ~row = t.nz.(row)

(* Index of the one set bit of a power of two below 2^32: a de Bruijn
   multiply puts a distinct 5-bit pattern in the top bits. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] bit_index low =
  Array.unsafe_get debruijn (((low * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let occupancy t ~row = t.occ.(row)
let counters t ~row = t.cells.(row)

let iter_row t ~row f =
  let r = t.cells.(row) and occ = t.occ.(row) in
  for j = 0 to Array.length occ - 1 do
    let w = ref (Array.unsafe_get occ j) in
    while !w <> 0 do
      let low = !w land (- !w) in
      let col = (j lsl 5) lor bit_index low in
      f col (Array.unsafe_get r col);
      w := !w lxor low
    done
  done

(* [iter_row]'s scan with the write in the loop: a shard resets its delta
   after every ship, and a closure call per cell cost more than the write. *)
let reset t =
  for i = 0 to Array.length t.cells - 1 do
    let r = t.cells.(i) and occ = t.occ.(i) in
    for j = 0 to Array.length occ - 1 do
      let w = ref (Array.unsafe_get occ j) in
      if !w <> 0 then begin
        while !w <> 0 do
          let low = !w land (- !w) in
          Array.unsafe_set r ((j lsl 5) lor bit_index low) 0;
          w := !w lxor low
        done;
        Array.unsafe_set occ j 0
      end
    done;
    t.nz.(i) <- 0
  done;
  t.n <- 0

let merge a b =
  if not (Hashing.Family.compatible a.family b.family) then
    invalid_arg "Countmin.merge: sketches must share a compatible hash family";
  let t = create ~family:a.family in
  for i = 0 to rows a - 1 do
    iter_row a ~row:i (fun col c -> bump t i col c);
    iter_row b ~row:i (fun col c -> bump t i col c)
  done;
  t.n <- a.n + b.n;
  t

let add t ~row ~col c =
  if c < 0 then invalid_arg "Countmin.add: negative count";
  let r = t.cells.(row) in
  let v = r.(col) in
  if v = 0 && c <> 0 then mark t row col;
  Array.unsafe_set r col (v + c)

let[@inline] unsafe_add t ~row ~col c = bump t row col c

let add_updates t n =
  if n < 0 then invalid_arg "Countmin.add_updates: negative count";
  t.n <- t.n + n
