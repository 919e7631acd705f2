(* Values are stored as their base-2 logarithm. 0 <-> neg_infinity. *)

type t = float

let zero = neg_infinity
let one = 0.0
let two = 1.0
let infinity = Float.infinity

(* hoisted: the compiler does not fold the libm call *)
let ln2 = Float.log 2.0

let of_log2 x = if Float.is_nan x then invalid_arg "Logreal.of_log2: nan" else x
let to_log2 t = t

let of_float f =
  if Float.is_nan f || f < 0.0 then invalid_arg "Logreal.of_float: negative or nan"
  else if f = 0.0 then zero
  else Float.log f /. ln2

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
    (* not [Float.max] / [min], whose signed-zero test calls C: the
       choice differs only on zeros of opposite sign, where [hi +. 1.]
       drops the sign anyway *)
    let hi = if a >= b then a else b and lo = if a >= b then b else a in
    hi +. (Float.log1p (Float.pow 2.0 (lo -. hi)) /. ln2)
  end

let mul_log2 = mul
let add_log2 = add

(* Bounds of [add] without libm. [add a b] is [hi +. g] where [g] is
   the computed [log2 (1 + 2^-x)], x = hi - lo. The gaps [0, span) are
   cut into cells of width 1 / per_unit, every larger gap (and the NaN
   of two equal infinities) falls in one tail cell. [bounds] holds, per
   cell c, the lower bound of [g] at [2c] and the upper bound at
   [2c + 1]: the correction at the cell's right end shrunk by [margin],
   and at its left end grown by it (the true correction decreases in x).
   The margin, relative, covers the libm error of [pow] / [log1p] / the
   division in both the table entry and the [g] it bounds, with room
   for thousands of ulps. The tail's lower bound is 0 (the correction is
   never negative), its upper bound the correction at [span]. Adding a
   bound to [hi] rounds monotonically, like [hi +. g], so the bounds of
   the sum hold whatever the magnitude of [hi]. *)
let per_unit = 32
let span = 64
let margin = 0x1p-40
let tail = span * per_unit

let bounds =
  let correction x = Float.log1p (Float.pow 2.0 (-.x)) /. ln2 in
  let at c = correction (float_of_int c /. float_of_int per_unit) in
  Float.Array.init
    ((2 * tail) + 2)
    (fun i ->
      let c = i / 2 in
      if i land 1 = 1 then at c *. (1.0 +. margin) else if c = tail then 0.0 else at (c + 1) *. (1.0 -. margin))

(* [hi +. bounds.(2 * cell + side)] for the cell of [|a - b|] *)
let[@inline] add_bound side (a : float) (b : float) =
  let hi = if a >= b then a else b in
  let x = if a >= b then a -. b else b -. a in
  let c = if x < float_of_int span then int_of_float (x *. float_of_int per_unit) else tail in
  hi +. Float.Array.unsafe_get bounds ((2 * c) + side)

let[@inline] add_log2_lower a b = add_bound 0 a b
let[@inline] add_log2_upper a b = add_bound 1 a b

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
      if m <= 0.0 then zero else a +. (Float.log m /. ln2)
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
