type row = Universal_row of Universal.t | Explicit_row of (int -> int)

(* Two layouts for "d hash functions with range w":

   - [Rows]: d independent functions, evaluated independently — the classic
     CountMin coin-flip vector, and the only layout explicit test mappings
     and serialized coefficients can express.

   - [Double]: Kirsch–Mitzenmacher double hashing — two base functions h1,
     h2 and derived rows g_i(x) = (h1(x) + i·step(x)) mod w with step(x) in
     [1, w-1]. An update needs 2 field evaluations instead of d; KM's
     result is that the derived family preserves the sketch's asymptotic
     error behaviour, and the bench ablation measures the constant-factor
     accuracy cost on real streams. *)
type kind =
  | Rows of row array
  | Double of { h1 : Universal.t; h2 : Universal.t; d : int }

type t = {
  kind : kind;
  width : int;
  mask : int; (* width - 1 when width is a power of two, else -1 *)
  shift : int; (* log2 width when width is a power of two, else 0 *)
}

(* Sketch widths are powers of two in every benched configuration; caching
   the mask/shift turns the per-row divisions of the [Double] derivation
   into shifts. Semantics are unchanged: for non-negative v and pow2 w,
   [v land (w-1) = v mod w] and [v lsr log2 w = v / w] exactly. *)
let make kind width =
  if width > 0 && width land (width - 1) = 0 then begin
    let shift = ref 0 in
    while 1 lsl !shift < width do
      incr shift
    done;
    { kind; width; mask = width - 1; shift = !shift }
  end
  else { kind; width; mask = -1; shift = 0 }

let create g ~rows ~width =
  if rows <= 0 then invalid_arg "Family.create: rows must be positive";
  if width <= 0 then invalid_arg "Family.create: width must be positive";
  make
    (Rows (Array.init rows (fun _ -> Universal_row (Universal.create g ~width))))
    width

let of_mapping ~width fns =
  if Array.length fns = 0 then invalid_arg "Family.of_mapping: empty family";
  if width <= 0 then invalid_arg "Family.of_mapping: width must be positive";
  make (Rows (Array.map (fun f -> Explicit_row f) fns)) width

let rows t = match t.kind with Rows a -> Array.length a | Double d -> d.d

let width t = t.width

let double_hashed t =
  match t.kind with Double _ -> true | Rows _ -> false

(* --- one-pass probing --------------------------------------------------

   [probe] does all per-element work that is independent of the row and
   packs it into one immediate int; [probe_col] derives a row's column from
   the pack with cheap integer arithmetic. For [Rows] the pack is the
   element itself (each row still evaluates its own function — nothing is
   shared); for [Double] the pack is h1·w + step, so an update touching d
   rows pays 2 field evaluations total instead of d (or 2d, were hash
   called per row). Packing instead of a tuple keeps the hot paths
   allocation-free. *)

let probe t x =
  match t.kind with
  | Rows _ -> x
  | Double { h1; h2; _ } ->
      if t.width = 1 then 0
      else (Universal.apply h1 x * t.width) + 1 + Universal.apply h2 x

let probe_col t p ~row =
  match t.kind with
  | Rows rs -> (
      match rs.(row) with
      | Universal_row f -> Universal.apply f p
      | Explicit_row f ->
          let v = f p mod t.width in
          if v < 0 then v + t.width else v)
  | Double _ ->
      if t.width = 1 then 0
      else if t.mask >= 0 then
        let h1x = p lsr t.shift and step = p land t.mask in
        (h1x + ((row * step) land t.mask)) land t.mask
      else
        let h1x = p / t.width and step = p mod t.width in
        (h1x + ((row * step) mod t.width)) mod t.width

let hash t ~row x = probe_col t (probe t x) ~row

let seeded ~seed ~rows ~width =
  let g = Rng.Splitmix.create seed in
  create g ~rows ~width

let seeded_km ~seed ~rows ~width =
  if rows <= 0 then invalid_arg "Family.seeded_km: rows must be positive";
  if width <= 0 then invalid_arg "Family.seeded_km: width must be positive";
  if width > 1 lsl 30 then
    invalid_arg "Family.seeded_km: width must fit the packed probe (<= 2^30)";
  let g = Rng.Splitmix.create seed in
  let h1 = Universal.create g ~width in
  (* step(x) = 1 + h2(x) with h2's range [0, w-2] keeps the stride nonzero,
     so consecutive derived rows never share a column (full distinctness
     needs step coprime to w, which KM's analysis does not require). *)
  let h2 = Universal.create g ~width:(max 1 (width - 1)) in
  make (Double { h1; h2; d = rows }) width

let coefficients t =
  match t.kind with
  | Double _ -> None
  | Rows rs -> (
      let exception Explicit in
      try
        Some
          (Array.map
             (function
               | Universal_row f -> Universal.coefficients f
               | Explicit_row _ -> raise Explicit)
             rs)
      with Explicit -> None)

let of_coefficients ~width coeffs =
  if Array.length coeffs = 0 then invalid_arg "Family.of_coefficients: empty family";
  if width <= 0 then invalid_arg "Family.of_coefficients: width must be positive";
  make
    (Rows
       (Array.map
          (fun (a, b) -> Universal_row (Universal.of_coefficients ~a ~b ~width))
          coeffs))
    width

let compatible a b =
  a == b
  || a.width = b.width
     &&
     match (a.kind, b.kind) with
     | Rows _, Rows _ -> (
         rows a = rows b
         &&
         match (coefficients a, coefficients b) with
         | Some ca, Some cb -> ca = cb
         | _ -> false)
     | Double d1, Double d2 ->
         d1.d = d2.d
         && Universal.coefficients d1.h1 = Universal.coefficients d2.h1
         && Universal.coefficients d1.h2 = Universal.coefficients d2.h2
     | _ -> false
