type t = { a : int; b : int; w : int; mask : int }

(* For power-of-two widths the trailing [mod w] is a bit-mask — same value
   (the field image is non-negative), no integer division on the hash hot
   path. [mask = -1] marks other widths. *)
let mask_of w = if w land (w - 1) = 0 then w - 1 else -1

let create g ~width =
  if width <= 0 then invalid_arg "Universal.create: width must be positive";
  {
    a = Prime_field.random_nonzero g;
    b = Prime_field.random_element g;
    w = width;
    mask = mask_of width;
  }

let of_coefficients ~a ~b ~width =
  if width <= 0 then invalid_arg "Universal.of_coefficients: width must be positive";
  let a = Prime_field.reduce (abs a) and b = Prime_field.reduce (abs b) in
  { a; b; w = width; mask = mask_of width }

let[@inline] apply h x =
  let x = Prime_field.reduce (x land max_int) in
  let m = Prime_field.mul_add h.a x h.b in
  if h.mask >= 0 then m land h.mask else m mod h.w

let width h = h.w

let coefficients h = (h.a, h.b)
