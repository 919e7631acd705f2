(* Values are stored as their base-2 logarithm. 0 <-> neg_infinity. *)

type t = float

let zero = neg_infinity
let one = 0.0
let two = 1.0
let infinity = Float.infinity

let of_log2 x = if Float.is_nan x then invalid_arg "Logreal.of_log2: nan" else x
let to_log2 t = t

let of_float f =
  if Float.is_nan f || f < 0.0 then invalid_arg "Logreal.of_float: negative or nan"
  else if f = 0.0 then zero
  else Float.log f /. Float.log 2.0

let of_int i = of_float (float_of_int i)
let to_float t = Float.pow 2.0 t
let is_zero t = t = neg_infinity
let is_finite t = Float.is_finite t || t = neg_infinity
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Float.compare a b
let min (a : t) (b : t) = Float.min a b
let max (a : t) (b : t) = Float.max a b

let approx_equal ?(tol = 1e-6) a b =
  if Float.is_finite a && Float.is_finite b then Float.abs (a -. b) <= tol else a = b

let[@inline] mul (a : t) (b : t) : t =
  (* 0 * inf: treat as 0 (costs: an impossible plan dominates). *)
  if a = neg_infinity || b = neg_infinity then neg_infinity else a +. b

let inv (t : t) : t =
  if t = neg_infinity then raise Division_by_zero else -.t

let div a b = if b = neg_infinity then raise Division_by_zero else mul a (-.b)

(* log2(2^a + 2^b) = max + log2(1 + 2^(min-max)) *)
let[@inline] add (a : t) (b : t) : t =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else if a = Float.infinity || b = Float.infinity then Float.infinity
  else begin
    let hi = Float.max a b and lo = Float.min a b in
    hi +. (Float.log1p (Float.pow 2.0 (lo -. hi)) /. Float.log 2.0)
  end

let mul_log2 = mul
let add_log2 = add

let sub (a : t) (b : t) : t =
  if b = neg_infinity then a
  else if a = Float.infinity then Float.infinity
  else begin
    let d = b -. a in
    if d > 1e-9 then invalid_arg "Logreal.sub: negative result"
    else if d >= 0.0 then zero (* equal within tolerance *)
    else begin
      (* log2(2^a - 2^b) = a + log2(1 - 2^(b-a)) *)
      let m = 1.0 -. Float.pow 2.0 d in
      if m <= 0.0 then zero else a +. (Float.log m /. Float.log 2.0)
    end
  end

let pow (t : t) e =
  if t = neg_infinity then if e = 0.0 then one else if e > 0.0 then zero else Float.infinity
  else t *. e

let pow_int t e = pow t (float_of_int e)
let sum l = List.fold_left add zero l
let prod l = List.fold_left mul one l
let of_bignat n = if Bignum.Bignat.is_zero n then zero else Bignum.Bignat.log2 n

let of_bigq q =
  match Bignum.Bigq.sign q with
  | 0 -> zero
  | s when s < 0 -> invalid_arg "Logreal.of_bigq: negative"
  | _ -> Bignum.Bigq.log2 q

let to_string (t : t) =
  if t = neg_infinity then "0"
  else if t = Float.infinity then "inf"
  else if Float.abs t <= 40.0 then Printf.sprintf "%.6g" (to_float t)
  else Printf.sprintf "2^%.3f" t

let pp fmt t = Format.pp_print_string fmt (to_string t)
