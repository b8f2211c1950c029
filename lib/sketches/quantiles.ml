(* Compactor hierarchy. Level i holds items of weight 2^i. A level at
   capacity sorts its buffer and promotes every other item (random offset) to
   level i+1, discarding the rest — the classic randomized-compaction step
   whose rank error is unbiased. *)

type t = {
  k : int;
  seed : int64;
  g : Rng.Splitmix.t;
  mutable levels : int list array; (* levels.(i): buffered items of weight 2^i *)
  mutable sizes : int array;
  mutable n : int;
}

let create ?(k = 200) ~seed () =
  if k < 2 then invalid_arg "Quantiles.create: k must be at least 2";
  {
    k;
    seed;
    g = Rng.Splitmix.create seed;
    levels = Array.make 1 [];
    sizes = Array.make 1 0;
    n = 0;
  }

(* Capacity of level i shrinks geometrically below the top, never under 2. *)
let capacity t level =
  let height = Array.length t.levels in
  let c =
    float_of_int t.k *. (0.7 ** float_of_int (height - 1 - level))
  in
  max 2 (int_of_float (ceil c))

let grow t =
  let h = Array.length t.levels in
  let levels = Array.make (h + 1) [] and sizes = Array.make (h + 1) 0 in
  Array.blit t.levels 0 levels 0 h;
  Array.blit t.sizes 0 sizes 0 h;
  t.levels <- levels;
  t.sizes <- sizes

let rec compact t level =
  if level = Array.length t.levels - 1 then grow t;
  let items = List.sort Int.compare t.levels.(level) in
  let offset = if Rng.Splitmix.next_bool t.g then 0 else 1 in
  let promoted =
    List.filteri (fun i _ -> i mod 2 = offset) items
  in
  t.levels.(level) <- [];
  t.sizes.(level) <- 0;
  t.levels.(level + 1) <- List.rev_append promoted t.levels.(level + 1);
  t.sizes.(level + 1) <- t.sizes.(level + 1) + List.length promoted;
  if t.sizes.(level + 1) >= capacity t (level + 1) then compact t (level + 1)

let update t x =
  t.levels.(0) <- x :: t.levels.(0);
  t.sizes.(0) <- t.sizes.(0) + 1;
  t.n <- t.n + 1;
  if t.sizes.(0) >= capacity t 0 then compact t 0

let rank t x =
  let r = ref 0 in
  Array.iteri
    (fun i items ->
      let w = 1 lsl i in
      List.iter (fun y -> if y <= x then r := !r + w) items)
    t.levels;
  !r

let quantile t phi =
  if phi < 0.0 || phi > 1.0 then invalid_arg "Quantiles.quantile: phi must lie in [0,1]";
  let weighted =
    Array.to_list t.levels
    |> List.mapi (fun i items -> List.map (fun x -> (x, 1 lsl i)) items)
    |> List.concat
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  if weighted = [] then raise Not_found;
  let total_w = List.fold_left (fun acc (_, w) -> acc + w) 0 weighted in
  let target = phi *. float_of_int total_w in
  let rec walk acc = function
    | [] -> fst (List.nth weighted (List.length weighted - 1))
    | (x, w) :: rest ->
        let acc = acc + w in
        if float_of_int acc >= target then x else walk acc rest
  in
  walk 0 weighted

let total t = t.n

let retained t = Array.fold_left ( + ) 0 t.sizes

let copy t =
  {
    k = t.k;
    seed = t.seed;
    g = Rng.Splitmix.copy t.g;
    levels = Array.map (fun l -> l) t.levels;
    sizes = Array.copy t.sizes;
    n = t.n;
  }

let merge a b =
  let height = max (Array.length a.levels) (Array.length b.levels) in
  let t =
    {
      k = a.k;
      seed = a.seed;
      g = Rng.Splitmix.copy a.g;
      levels = Array.make height [];
      sizes = Array.make height 0;
      n = a.n + b.n;
    }
  in
  let take (src : t) i =
    if i < Array.length src.levels then (src.levels.(i), src.sizes.(i)) else ([], 0)
  in
  for i = 0 to height - 1 do
    let la, sa = take a i and lb, sb = take b i in
    t.levels.(i) <- List.rev_append la lb;
    t.sizes.(i) <- sa + sb
  done;
  (* Re-establish the capacity invariant bottom-up. *)
  let i = ref 0 in
  while !i < Array.length t.levels do
    if t.sizes.(!i) >= capacity t !i then compact t !i;
    incr i
  done;
  t

