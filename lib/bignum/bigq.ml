(* Normalized rationals: num/den with den > 0 and gcd(|num|,den)=1. *)

type t = { n : Bigint.t; d : Bignat.t (* > 0 *) }

let zero = { n = Bigint.zero; d = Bignat.one }
let one = { n = Bigint.one; d = Bignat.one }

let is_one d = Bignat.equal d Bignat.one

(* [n / g] for a divisor [g] of [n], sign kept *)
let div_exact n g =
  if is_one g then n
  else begin
    let q = Bigint.of_nat (Bignat.div (Bigint.magnitude n) g) in
    if Bigint.sign n < 0 then Bigint.neg q else q
  end

let normalize n d =
  if Bignat.is_zero d then raise Division_by_zero
  else if Bigint.is_zero n then zero
  else begin
    let g = Bignat.gcd (Bigint.magnitude n) d in
    if is_one g then { n; d } else { n = div_exact n g; d = Bignat.div d g }
  end

let make num den =
  match Bigint.sign den with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> normalize num (Bigint.magnitude den)
  | _ -> normalize (Bigint.neg num) (Bigint.magnitude den)

let of_int i = { n = Bigint.of_int i; d = Bignat.one }
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Reduced in native ints; only [min_int], whose magnitude is no native
   int, goes through [make]. *)
let of_ints a b =
  if a = min_int || b = min_int then make (Bigint.of_int a) (Bigint.of_int b)
  else if b = 0 then raise Division_by_zero
  else begin
    let g = gcd_int (Stdlib.abs a) (Stdlib.abs b) in
    let a = a / g and b = b / g in
    { n = Bigint.of_int (if b < 0 then -a else a); d = Bignat.of_int (Stdlib.abs b) }
  end
let of_bigint n = { n; d = Bignat.one }
let num t = t.n
let den t = t.d
let is_zero t = Bigint.is_zero t.n
let sign t = Bigint.sign t.n
let neg t = { t with n = Bigint.neg t.n }
let abs t = { t with n = Bigint.abs t.n }

let inv t =
  match Bigint.sign t.n with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> { n = Bigint.of_nat t.d; d = Bigint.magnitude t.n }
  | _ -> { n = Bigint.neg (Bigint.of_nat t.d); d = Bigint.magnitude t.n }

let scale n d = if is_one d then n else Bigint.mul n (Bigint.of_nat d)
let dmul x y = if is_one x then y else if is_one y then x else Bignat.mul x y

(* Knuth 4.5.1: with d1 = gcd(a.d, b.d), the sum is
   t / (a.d/d1 * b.d/d2) where t = a.n*(b.d/d1) + b.n*(a.d/d1) and
   d2 = gcd(t, d1); no other common factor can arise, so the result
   needs no further normalization. d1 = 1 (every integer operand)
   skips both gcds. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    let d1 = if is_one a.d || is_one b.d then Bignat.one else Bignat.gcd a.d b.d in
    if is_one d1 then { n = Bigint.add (scale a.n b.d) (scale b.n a.d); d = dmul a.d b.d }
    else begin
      let ad = Bignat.div a.d d1 and bd = Bignat.div b.d d1 in
      let t = Bigint.add (scale a.n bd) (scale b.n ad) in
      if Bigint.is_zero t then zero
      else begin
        let d2 = Bignat.gcd (Bigint.magnitude t) d1 in
        { n = div_exact t d2; d = dmul ad (if is_one d2 then b.d else Bignat.div b.d d2) }
      end
    end
  end

let sub a b = add a (neg b)

(* Knuth 4.5.1: cancel gcd(a.n, b.d) and gcd(b.n, a.d) before
   multiplying; the product is then already in lowest terms. When every
   part is below 2^31 the products fit a native int, so the same steps
   run on ints. *)
let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let an = Bignat.one_limb (Bigint.magnitude a.n) and ad = Bignat.one_limb a.d in
    let bn = Bignat.one_limb (Bigint.magnitude b.n) and bd = Bignat.one_limb b.d in
    if an > 0 && ad > 0 && bn > 0 && bd > 0 then begin
      let g1 = gcd_int an bd and g2 = gcd_int bn ad in
      let m = an / g1 * (bn / g2) in
      {
        n = Bigint.of_int (if Bigint.sign a.n = Bigint.sign b.n then m else -m);
        d = Bignat.of_int (ad / g2 * (bd / g1));
      }
    end
    else begin
      let g1 = if is_one b.d then Bignat.one else Bignat.gcd (Bigint.magnitude a.n) b.d in
      let g2 = if is_one a.d then Bignat.one else Bignat.gcd (Bigint.magnitude b.n) a.d in
      let cut d g = if is_one g then d else Bignat.div d g in
      { n = Bigint.mul (div_exact a.n g1) (div_exact b.n g2); d = dmul (cut a.d g2) (cut b.d g1) }
    end
  end

let div a b = mul a (inv b)

let pow t e =
  if e >= 0 then { n = Bigint.pow t.n e; d = Bignat.pow t.d e }
  else inv { n = Bigint.pow t.n (-e); d = Bignat.pow t.d (-e) }

(* Sign first. Then, when every part is below 2^31, cross-multiply in
   native ints. Otherwise equal denominators, then magnitude: with
   e = bits(|num|) - bits(den), a positive value lies in
   (2^(e-1), 2^(e+1)), so exponents two or more apart decide without
   allocating. Only the remaining cases cross-multiply in [Bigint]. *)
let compare a b =
  let sa = Bigint.sign a.n and sb = Bigint.sign b.n in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else begin
    let an = Bignat.one_limb (Bigint.magnitude a.n) and ad = Bignat.one_limb a.d in
    let bn = Bignat.one_limb (Bigint.magnitude b.n) and bd = Bignat.one_limb b.d in
    if an > 0 && ad > 0 && bn > 0 && bd > 0 then sa * Int.compare (an * bd) (bn * ad)
    else if Bignat.equal a.d b.d then Bigint.compare a.n b.n
    else begin
      let e q = Bignat.num_bits (Bigint.magnitude q.n) - Bignat.num_bits q.d in
      let ea = e a and eb = e b in
      if ea >= eb + 2 then sa
      else if eb >= ea + 2 then -sa
      else Bigint.compare (scale a.n b.d) (scale b.n a.d)
    end
  end

let equal a b = Bigint.equal a.n b.n && Bignat.equal a.d b.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let log2 t =
  match Bigint.sign t.n with
  | 0 -> neg_infinity
  | s when s < 0 -> nan
  | _ -> Bignat.log2 (Bigint.magnitude t.n) -. Bignat.log2 t.d

let bit_width t = Bignat.num_bits (Bigint.magnitude t.n) + Bignat.num_bits t.d

let to_string t =
  if Bignat.equal t.d Bignat.one then Bigint.to_string t.n
  else Bigint.to_string t.n ^ "/" ^ Bignat.to_string t.d

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (Bigint.of_string s)
  | Some i ->
      let a = String.sub s 0 i and b = String.sub s (i + 1) (String.length s - i - 1) in
      make (Bigint.of_string a) (Bigint.of_string b)

let pp fmt t = Format.pp_print_string fmt (to_string t)
