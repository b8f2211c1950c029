let p = (1 lsl 61) - 1

let[@inline] reduce x =
  let r = (x land p) + (x lsr 61) in
  if r >= p then r - p else r

let add a b = reduce (a + b)

(* a·x + b in four multiplies and four folds, where a fold is
   [(v land p) + (v lsr 61)]: 2^61 ≡ 1 (mod p), so it keeps v's residue
   and, for 0 <= v <= 2^62 - 2, leaves a value <= p. Split a and x (both < p <
   2^61) into a 30-bit high half and a 31-bit low half; then

     a·x = hh·2^62 + cross·2^31 + ll
     hh    = a_hi·x_hi               <= (2^30-1)^2             < 2^60
     cross = a_hi·x_lo + a_lo·x_hi   <= 2·(2^30-1)(2^31-1)     < 2^62
     ll    = a_lo·x_lo               <= (2^31-1)^2             < 2^62

   and every one of them is a non-negative OCaml int (max_int = 2^62-1).
   Modulo p, 2^62 ≡ 2 and cross·2^31 ≡ (cross lsr 30) + (cross land
   (2^30-1))·2^31, so

     t = 2·hh + (cross lsr 30) + (cross land (2^30-1))·2^31
       <= (2^61-2^32+2) + (2^32-1) + (2^61-2^31)    = 2^62 - 2^31 + 1

   folds to <= p; ll folds to <= p, plus b < p that is <= 2p - 1, which
   folds to <= p; the two folded halves sum to <= 2p = 2^62 - 2, and
   [reduce] (the fourth fold plus one conditional subtract) makes the
   result canonical. *)
let[@inline] mul_add a x b =
  let a_hi = a lsr 31 and a_lo = a land 0x7FFFFFFF in
  let x_hi = x lsr 31 and x_lo = x land 0x7FFFFFFF in
  let hh = a_hi * x_hi
  and cross = (a_hi * x_lo) + (a_lo * x_hi)
  and ll = a_lo * x_lo in
  let t = (hh lsl 1) + (cross lsr 30) + ((cross land 0x3FFFFFFF) lsl 31) in
  let t = (t land p) + (t lsr 61) in
  let u = (ll land p) + (ll lsr 61) + b in
  let u = (u land p) + (u lsr 61) in
  reduce (t + u)

let mul a b = mul_add a b 0

let random_element g =
  let rec loop () =
    let v = Int64.to_int (Rng.Splitmix.next_int64 g) land ((1 lsl 61) - 1) in
    if v >= p then loop () else v
  in
  loop ()

let random_nonzero g =
  let rec loop () =
    let v = random_element g in
    if v = 0 then loop () else v
  in
  loop ()
