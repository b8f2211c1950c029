type t = {
  family : Hashing.Family.t;
  cells : int array array; (* rows × width *)
  mutable n : int;
}

let create ~family =
  let d = Hashing.Family.rows family and w = Hashing.Family.width family in
  { family; cells = Array.make_matrix d w 0; n = 0 }

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

(* The loops hoist the row count and probe once per element
   (Family.probe/probe_col): on a double-hashed family an update costs 2
   field evaluations instead of d. *)

let update t a =
  let d = Array.length t.cells in
  let p = Hashing.Family.probe t.family a in
  for i = 0 to d - 1 do
    let col = Hashing.Family.probe_col t.family p ~row:i in
    t.cells.(i).(col) <- t.cells.(i).(col) + 1
  done;
  t.n <- t.n + 1

let update_many t a ~count =
  if count < 0 then invalid_arg "Countmin.update_many: count must be non-negative";
  if count > 0 then begin
    let d = Array.length t.cells in
    let p = Hashing.Family.probe t.family a in
    for i = 0 to d - 1 do
      let col = Hashing.Family.probe_col t.family p ~row:i in
      t.cells.(i).(col) <- t.cells.(i).(col) + count
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

let iter_row t ~row f =
  let r = t.cells.(row) in
  for col = 0 to Array.length r - 1 do
    let c = Array.unsafe_get r col in
    if c <> 0 then f col c
  done

let reset t =
  Array.iter (fun r -> Array.fill r 0 (Array.length r) 0) t.cells;
  t.n <- 0

let merge a b =
  if not (Hashing.Family.compatible a.family b.family) then
    invalid_arg "Countmin.merge: sketches must share a compatible hash family";
  let t = create ~family:a.family in
  for i = 0 to rows a - 1 do
    for j = 0 to width a - 1 do
      t.cells.(i).(j) <- a.cells.(i).(j) + b.cells.(i).(j)
    done
  done;
  t.n <- a.n + b.n;
  t

let add t ~row ~col c =
  if c < 0 then invalid_arg "Countmin.add: negative count";
  t.cells.(row).(col) <- t.cells.(row).(col) + c

let add_updates t n =
  if n < 0 then invalid_arg "Countmin.add_updates: negative count";
  t.n <- t.n + n
