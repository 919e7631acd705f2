(** {!Cost.S} over exact rationals with an added infinity. See {!Cost}. *)

open Bignum

type t = Fin of Bigq.t | Inf

let zero = Fin Bigq.zero
let one = Fin Bigq.one
let infinity = Inf
let of_int i = Fin (Bigq.of_int i)
let of_bigq q = Fin q
let of_ints a b = Fin (Bigq.of_ints a b)

let lift2 f a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (f x y)
  | _ -> Inf

let add = lift2 Bigq.add

let sub a b =
  match (a, b) with
  | Fin x, Fin y ->
      let r = Bigq.sub x y in
      if Bigq.sign r < 0 then invalid_arg "Rat_cost.sub: negative result" else Fin r
  | Inf, Fin _ -> Inf
  | _, Inf -> invalid_arg "Rat_cost.sub: infinite subtrahend"

let mul a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Bigq.mul x y)
  | Inf, Fin x | Fin x, Inf -> if Bigq.is_zero x then Fin Bigq.zero else Inf
  | Inf, Inf -> Inf

let div a b =
  match (a, b) with
  | Fin x, Fin y -> Fin (Bigq.div x y)
  | Inf, Fin _ -> Inf
  | _, Inf -> Fin Bigq.zero

let pow_int a e =
  match a with
  | Fin x -> Fin (Bigq.pow x e)
  | Inf -> if e = 0 then one else Inf

(* Physically equal operands compare equal without a look inside: the
   parser shares one value between [sel.(i).(j)] and [sel.(j).(i)] and
   between an off-edge [w.(i).(j)] and [sizes.(i)], so most of
   [Nl.make]'s checks end here. *)
let compare a b =
  if a == b then 0
  else
  match (a, b) with
  | Fin x, Fin y -> Bigq.compare x y
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_finite = function Fin _ -> true | Inf -> false

let to_log2 = function
  | Fin q -> Bigq.log2 q
  | Inf -> Float.infinity

(* Error budget of one scalar in the kernels' key filter (see
   {!Cost.S.key_slack}); u = 2^-53, B = bits num + bits den.
   - [Bigq.log2] reads the top three limbs of num and den into floats
     (two roundings, truncation below 2^-62), takes a libm [log]
     (< 1 ulp) and rescales: within 2e-13 + 2uB of log2 x.
   - Every key operation rounds once at the magnitude of its result,
     [add_log2] three times more (its [lo - hi], [pow], [log1p], at
     most 3u|operand| + 4u). Magnitudes are bounded by the summed B of
     the scalars combined, and a key passes through at most
     n + n(n-1)/2 + 2n < 2048 operations for n <= 61, so rounding adds
     at most 2048 * 3u = 7e-13 per bit of B and 1e-12 in all.
   1e-11 per bit plus 8 bits of headroom covers both more than ten
   times over. An infinite scalar keys to [infinity] exactly.
   A heuristic's whole-plan key passes through K = 3n + |edges|
   operations; its budget is scaled by max 1 (K / 2048), which keeps
   the rounding share per operation. [to_log2] of a plan's exact cost,
   a sum of n - 1 products whose denominators multiply, has
   B <= n * (the scalars' summed B) + log2 n + 1: within
   2e-13 + 2uB, under the scaled budget at every n (2un <= 1e-11 while
   K <= 2048, i.e. n <= 682; past that the scale 3n / 2048 gives
   1.4e-14 n per bit). *)
let key_slack = function
  | Fin q -> 1e-11 *. float_of_int (Bigq.bit_width q + 8)
  | Inf -> 0.0

let to_bigq_opt = function Fin q -> Some q | Inf -> None

let pp fmt = function
  | Fin q -> Bigq.pp fmt q
  | Inf -> Format.pp_print_string fmt "inf"
