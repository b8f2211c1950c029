(* Observations are stored in the KLL sketch as integer nanounits: the
   sketch is int-typed, and 1e-9 resolution comfortably covers latencies. *)

type stripe = {
  m : Mutex.t;
  mutable q : Sketches.Quantiles.t;
  mutable count : int;
  mutable sum_nano : int;
}

type t = { stripes : stripe array }

let create ~seed () =
  let root = Rng.Splitmix.create seed in
  {
    stripes =
      Array.init (Domain.recommended_domain_count () + 4) (fun _ ->
          {
            m = Mutex.create ();
            q = Sketches.Quantiles.create ~seed:(Rng.Splitmix.next_int64 root) ();
            count = 0;
            sum_nano = 0;
          });
  }

let stripe_of t = (Domain.self () :> int) mod Array.length t.stripes

let observe t v =
  let s = t.stripes.(stripe_of t) in
  let nano = int_of_float (v *. 1e9) in
  Mutex.lock s.m;
  Sketches.Quantiles.update s.q nano;
  s.count <- s.count + 1;
  s.sum_nano <- s.sum_nano + nano;
  Mutex.unlock s.m

let time t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe t (Unix.gettimeofday () -. t0)) f

(* Copy each stripe under its own lock, merge outside the locks. The merged
   view is an intermediate-value scrape: stripes copied early miss
   observations that land while later stripes are copied, exactly the
   Striped_total read semantics lifted to sketches. *)
let collect t =
  let copies =
    Array.map
      (fun s ->
        Mutex.lock s.m;
        let q = Sketches.Quantiles.copy s.q
        and count = s.count
        and sum_nano = s.sum_nano in
        Mutex.unlock s.m;
        (q, count, sum_nano))
      t.stripes
  in
  let merged =
    Array.fold_left
      (fun acc (q, _, _) ->
        if Sketches.Quantiles.total q = 0 then acc
        else match acc with None -> Some q | Some m -> Some (Sketches.Quantiles.merge m q))
      None copies
  in
  let count = Array.fold_left (fun a (_, c, _) -> a + c) 0 copies in
  let sum_nano = Array.fold_left (fun a (_, _, s) -> a + s) 0 copies in
  (merged, count, sum_nano)

let count t =
  let _, c, _ = collect t in
  c

let sum t =
  let _, _, s = collect t in
  float_of_int s *. 1e-9

let quantile_of merged phi =
  if phi < 0.0 || phi > 1.0 then invalid_arg "Timer.quantile: phi outside [0,1]";
  match merged with
  | None -> 0.0
  | Some m -> float_of_int (Sketches.Quantiles.quantile m phi) *. 1e-9

let quantile t phi =
  let merged, _, _ = collect t in
  quantile_of merged phi

let quantiles t phis =
  let merged, _, _ = collect t in
  List.map (fun phi -> (phi, quantile_of merged phi)) phis
