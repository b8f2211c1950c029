(* Pure metric code of the stack benchmark: percentiles, visibility latency,
   window slices, the IVL monotone check, span self time. Nothing here
   touches a clock or the system under test, so test_stack.ml can drive it
   with synthetic series. *)

(* Every [stride]-th key (by global push index) has its due time recorded.
   31 is prime, so the sample does not alias with the client's 256-key
   frames or the engine's 512-key deltas. *)
let stride = 31
let sampled i = i mod stride = 0

(* [Stats.Percentile], except that an empty sample reads 0.0, so a layer
   a workload does not run prints as 0. *)
let percentile a p =
  if Array.length a = 0 then 0.0 else Stats.Percentile.percentile a p

let median a = percentile a 50.0

(* The quartiles of Python's [statistics.quantiles(data, n=4)] (its default
   "exclusive" method), so spreads printed here match an external check
   computed that way. One value is its own quartiles. *)
let quartiles a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Measure.quartiles: no data";
  if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Index of the first sample lower than its predecessor: an IVL counter read
   through one connection must never go backwards. *)
let first_decrease (series : int array) =
  let n = Array.length series in
  let rec go i =
    if i >= n then None
    else if series.(i) < series.(i - 1) then Some i
    else go (i + 1)
  in
  go 1

(* Visibility latency of sampled keys against one sampler series.

   Key [i] (global push index) is visible at the first sample whose observed
   total is at least [base + i + 1] and that was taken no earlier than the
   key's due time; its latency is that sample's time minus [due.(k)].
   Counting, not identity: merges land out of order across shards, and the
   total is what a reader of the IVL counter sees. The series is read
   through its running maximum, so a follower that dips during a resync
   still counts as having shown the weight. Keys never reached get
   [infinity]; the second result counts them. *)
let visibility ~ts ~total ~base ~idx ~due =
  let m = Array.length ts in
  if Array.length total <> m then invalid_arg "Measure.visibility: ts/total";
  if Array.length idx <> Array.length due then
    invalid_arg "Measure.visibility: idx/due";
  let pmax = Array.copy total in
  for j = 1 to m - 1 do
    if pmax.(j) < pmax.(j - 1) then pmax.(j) <- pmax.(j - 1)
  done;
  (* first j with pmax.(j) >= need, or m *)
  let first_at_least need =
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pmax.(mid) >= need then hi := mid else lo := mid + 1
    done;
    !lo
  in
  let unresolved = ref 0 in
  let lat =
    Array.mapi
      (fun k i ->
        let d = due.(k) in
        let j = ref (first_at_least (base + i + 1)) in
        while !j < m && ts.(!j) < d do
          incr j
        done;
        if !j < m then ts.(!j) -. d
        else begin
          incr unresolved;
          infinity
        end)
      idx
  in
  (lat, !unresolved)

(* The window is cut into slices [edges.(j), edges.(j+1)); an end-to-end
   metric is the median over slices of its per-slice value, so one stalled
   second (a neighbour on the host, a major GC) moves it less than it moves
   a whole-window figure. *)
let slice_of edges t =
  let n = Array.length edges - 1 in
  if n < 1 || t < edges.(0) || t >= edges.(n) then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if edges.(mid) <= t then lo := mid else hi := mid - 1
    done;
    !lo
  end

(* Median over non-empty slices of [f] applied to the values whose time
   falls in the slice. *)
let slice_median ~edges ~times ~values f =
  let n = max 0 (Array.length edges - 1) in
  let groups = Array.make n [] in
  Array.iteri
    (fun k t ->
      let j = slice_of edges t in
      if j >= 0 then groups.(j) <- values.(k) :: groups.(j))
    times;
  Array.to_list groups
  |> List.filter_map (function
       | [] -> None
       | g -> Some (f (Array.of_list g)))
  |> Array.of_list |> median

(* Median over slices of a rate; [counts.(j)] is a cumulative counter read
   at [edges.(j)]. *)
let slice_rate ~edges ~counts =
  median
    (Array.init
       (max 0 (Array.length edges - 1))
       (fun j ->
         float_of_int (counts.(j + 1) - counts.(j))
         /. (edges.(j + 1) -. edges.(j))))

(* The same for events stamped with [times]. *)
let slice_event_rate ~edges ~times =
  let n = max 0 (Array.length edges - 1) in
  let c = Array.make (n + 1) 0 in
  Array.iter
    (fun t ->
      let j = slice_of edges t in
      if j >= 0 then c.(j + 1) <- c.(j + 1) + 1)
    times;
  for j = 1 to n do
    c.(j) <- c.(j) + c.(j - 1)
  done;
  slice_rate ~edges ~counts:c

let failed_frac ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Measure.failed_frac: nothing attempted";
  float_of_int failed /. float_of_int attempted

(* Self time of each span: its duration minus the part of its interval that
   its children cover (children clipped to the parent, overlaps counted
   once). [parent.(k)] is the index of span [k]'s parent, or -1. *)
let self_times ~start ~stop ~parent =
  let n = Array.length start in
  let kids = Array.make n [] in
  Array.iteri (fun k p -> if p >= 0 then kids.(p) <- k :: kids.(p)) parent;
  Array.init n (fun k ->
      let s0 = start.(k) and e0 = stop.(k) in
      let iv =
        List.map (fun c -> (max s0 start.(c), min e0 stop.(c))) kids.(k)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) iv
      in
      e0 - s0 - covered)
