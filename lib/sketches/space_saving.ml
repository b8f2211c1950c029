(* A straightforward implementation: a hash table from element to entry plus
   linear scan for the minimum on eviction. Asymptotically a heap would be
   better; capacities in this repository are small (hundreds), and the simple
   structure keeps the invariants legible. *)

type entry = { mutable count : int; mutable error : int }

type t = { capacity : int; table : (int, entry) Hashtbl.t; mutable n : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Space_saving.create: capacity must be positive";
  { capacity; table = Hashtbl.create (2 * capacity); n = 0 }

let min_entry t =
  Hashtbl.fold
    (fun elt e acc ->
      match acc with
      | Some (_, best) when best.count <= e.count -> acc
      | _ -> Some (elt, e))
    t.table None

let update t a =
  t.n <- t.n + 1;
  match Hashtbl.find_opt t.table a with
  | Some e -> e.count <- e.count + 1
  | None ->
      if Hashtbl.length t.table < t.capacity then
        Hashtbl.replace t.table a { count = 1; error = 0 }
      else begin
        match min_entry t with
        | None -> Hashtbl.replace t.table a { count = 1; error = 0 }
        | Some (victim, e) ->
            Hashtbl.remove t.table victim;
            (* The newcomer inherits the evicted count: its true count is at
               most that, so [error] records the possible over-estimation. *)
            Hashtbl.replace t.table a { count = e.count + 1; error = e.count }
      end

let query t a = match Hashtbl.find_opt t.table a with Some e -> e.count | None -> 0

let guaranteed_error t =
  if Hashtbl.length t.table < t.capacity then 0
  else match min_entry t with None -> 0 | Some (_, e) -> e.count

let top t =
  Hashtbl.fold (fun elt e acc -> (elt, e.count) :: acc) t.table []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let total t = t.n

let copy t =
  let c = { capacity = t.capacity; table = Hashtbl.create (2 * t.capacity); n = t.n } in
  Hashtbl.iter
    (fun elt (e : entry) -> Hashtbl.replace c.table elt { count = e.count; error = e.error })
    t.table;
  c

let merge ~capacity a b =
  if capacity <= 0 then invalid_arg "Space_saving.merge: capacity must be positive";
  let min_count t =
    if Hashtbl.length t.table < t.capacity then 0
    else match min_entry t with None -> 0 | Some (_, e) -> e.count
  in
  let min_a = min_count a and min_b = min_count b in
  let merged = Hashtbl.create (2 * capacity) in
  let add ~other_min elt (e : entry) =
    match Hashtbl.find_opt merged elt with
    | Some m ->
        m.count <- m.count + e.count;
        m.error <- m.error + e.error
    | None ->
        (* An element absent from the other sketch may still have occurred up
           to its minimum count there: fold that into count and error, the
           standard conservative merge. *)
        Hashtbl.replace merged elt
          { count = e.count + other_min; error = e.error + other_min }
  in
  Hashtbl.iter (fun elt e -> add ~other_min:min_b elt e) a.table;
  (* Elements already merged from [a] must not add min_a again. *)
  Hashtbl.iter
    (fun elt (e : entry) ->
      match Hashtbl.find_opt merged elt with
      | Some m ->
          (* Present in both: undo the conservative other-side minimum that
             [a]'s pass added, then add the real counts. *)
          m.count <- m.count - min_b + e.count;
          m.error <- m.error - min_b + e.error
      | None ->
          Hashtbl.replace merged elt
            { count = e.count + min_a; error = e.error + min_a })
    b.table;
  let t = { capacity; table = Hashtbl.create (2 * capacity); n = a.n + b.n } in
  (* Keep the [capacity] largest entries. *)
  Hashtbl.fold (fun elt e acc -> (elt, e) :: acc) merged []
  |> List.sort (fun (_, (x : entry)) (_, (y : entry)) -> Int.compare y.count x.count)
  |> List.filteri (fun i _ -> i < capacity)
  |> List.iter (fun (elt, e) -> Hashtbl.replace t.table elt e);
  t

let capacity t = t.capacity

let entries t =
  Hashtbl.fold (fun elt (e : entry) acc -> (elt, e.count, e.error) :: acc) t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
