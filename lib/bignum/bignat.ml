(* Arbitrary-precision naturals on 31-bit limbs.

   Representation: [int array], little-endian, each limb in [0, 2^31).
   Invariant: no trailing zero limb ([zero] is [||]).

   31-bit limbs leave enough headroom in OCaml's 63-bit native ints for
   schoolbook multiplication accumulators: limb*limb < 2^62, plus a limb
   and a carry still fits. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits (* 2_147_483_648 *)
let limb_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

let one_limb (a : t) = match Array.length a with 0 -> 0 | 1 -> a.(0) | _ -> -1

(* Drop trailing zero limbs. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative"
  else if n = 0 then zero
  else if n < base then [| n |]
  else begin
    (* a native int needs at most three 31-bit limbs *)
    let l0 = n land limb_mask in
    let l1 = (n lsr base_bits) land limb_mask in
    let l2 = n lsr (2 * base_bits) in
    normalize [| l0; l1; l2 |]
  end

let to_int_opt (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | _ ->
      (* a third limb puts the value at 2^62 or above, past [max_int]:
         bit 62 is a native int's sign bit *)
      None

let to_int_exn a =
  match to_int_opt a with
  | Some i -> i
  | None -> failwith "Bignat.to_int_exn: out of range"

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let num_bits (a : t) =
  let l = Array.length a in
  if l = 0 then 0
  else begin
    let top = a.(l - 1) in
    let rec width w n = if n = 0 then w else width (w + 1) (n lsr 1) in
    ((l - 1) * base_bits) + width 0 top
  end

let testbit (a : t) i =
  if i < 0 then invalid_arg "Bignat.testbit";
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let lmax = Stdlib.max la lb in
    let r = Array.make (lmax + 1) 0 in
    let carry = ref 0 in
    for i = 0 to lmax - 1 do
      let ai = if i < la then a.(i) else 0 in
      let bi = if i < lb then b.(i) else 0 in
      let s = ai + bi + !carry in
      r.(i) <- s land limb_mask;
      carry := s lsr base_bits
    done;
    r.(lmax) <- !carry;
    normalize r
  end

let succ a = add a one

let sub_opt (a : t) (b : t) : t option =
  if compare a b < 0 then None
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let bi = if i < lb then b.(i) else 0 in
      let d = a.(i) - bi - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    Some (normalize r)
  end

let sub a b =
  match sub_opt a b with
  | Some r -> r
  | None -> invalid_arg "Bignat.sub: negative result"

(* Schoolbook multiplication: O(|a|*|b|). *)
let mul_schoolbook (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land limb_mask;
          carry := cur lsr base_bits;
          incr k
        done
      end
    done;
    normalize r
  end

let karatsuba_threshold = 32

(* Split [a] at limb index [k]: returns (low, high) with
   a = low + high * base^k. *)
let split_at (a : t) k =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs (a : t) k =
  if is_zero a || k = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la < karatsuba_threshold || lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    (* Karatsuba: a = a0 + a1*B^k, b = b0 + b1*B^k,
       ab = a0b0 + ((a0+a1)(b0+b1) - a0b0 - a1b1)*B^k + a1b1*B^2k *)
    let k = Stdlib.max la lb / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let mul_int (a : t) k =
  if k < 0 then invalid_arg "Bignat.mul_int: negative"
  else if k = 0 || is_zero a then zero
  else if k < base then begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry land limb_mask;
    r.(la + 1) <- !carry lsr base_bits;
    normalize r
  end
  else mul a (of_int k)

let shift_left (a : t) n =
  if n < 0 then invalid_arg "Bignat.shift_left"
  else if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) n =
  if n < 0 then invalid_arg "Bignat.shift_right"
  else if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land limb_mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

(* Divide by a single limb [d] (0 < d < base); returns (quotient, rem). *)
let divmod_limb (a : t) d =
  if d <= 0 || d >= base then invalid_arg "Bignat.divmod_limb";
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth Algorithm D (TAOCP vol 2, 4.3.1) on 31-bit limbs. *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else begin
    (* Normalize so the top limb of the divisor has its high bit set. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go s v = if v land (1 lsl (base_bits - 1)) <> 0 then s else go (s + 1) (v lsl 1) in
      go 0 top
    in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    (* u gets one extra (possibly zero) top limb *)
    let u = Array.append u (Array.make (m + n + 1 - Array.length u) 0) in
    let q = Array.make (m + 1) 0 in
    let v_top = v.(n - 1) in
    let v_snd = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate q_hat from the top two limbs of the current remainder. *)
      let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let q_hat = ref (num / v_top) in
      let r_hat = ref (num mod v_top) in
      if !q_hat >= base then begin
        q_hat := base - 1;
        r_hat := num - (!q_hat * v_top)
      end;
      (* Refine: at most two corrections needed. *)
      while
        !r_hat < base
        && !q_hat * v_snd > (!r_hat lsl base_bits) lor u.(j + n - 2)
      do
        decr q_hat;
        r_hat := !r_hat + v_top
      done;
      (* Multiply-and-subtract u[j..j+n] -= q_hat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!q_hat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* q_hat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr q_hat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land limb_mask;
          carry := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !q_hat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow (b : t) e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      if e = 1 then acc else go acc (mul b b) (e lsr 1)
    end
  in
  if e = 0 then one else go one b e

(* [a mod d] for a single limb [0 < d < base], without building the
   quotient: [r lsl base_bits] stays below [2^62]. *)
let rem_limb (a : t) d =
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl base_bits) lor a.(i)) mod d
  done;
  !r

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* Euclid on limbs until one operand fits a single limb, then on
   native ints. *)
let rec gcd a b =
  if is_zero b then a
  else if is_zero a then b
  else if Array.length b = 1 then of_int (gcd_int b.(0) (rem_limb a b.(0)))
  else if Array.length a = 1 then of_int (gcd_int a.(0) (rem_limb b a.(0)))
  else gcd b (rem a b)

let sqrt (a : t) =
  if is_zero a then zero
  else begin
    (* Newton iteration starting from a power-of-two overestimate. *)
    let x0 = shift_left one (((num_bits a + 1) / 2) + 1) in
    let rec go x =
      let x' = shift_right (add x (div a x)) 1 in
      if compare x' x < 0 then go x' else x
    in
    let s = go x0 in
    (* [go] converges to floor(sqrt a) or one above; correct downward. *)
    if compare (mul s s) a > 0 then sub s one else s
  end

let to_float (a : t) =
  let l = Array.length a in
  if l = 0 then 0.0
  else begin
    (* Use the top ~3 limbs (93 bits) for full double precision. *)
    let hi = Stdlib.max 0 (l - 3) in
    let v = ref 0.0 in
    for i = l - 1 downto hi do
      v := (!v *. float_of_int base) +. float_of_int a.(i)
    done;
    !v *. (2.0 ** float_of_int (hi * base_bits))
  end

let log2 (a : t) =
  let l = Array.length a in
  if l = 0 then neg_infinity
  else begin
    let hi = Stdlib.max 0 (l - 3) in
    let v = ref 0.0 in
    for i = l - 1 downto hi do
      v := (!v *. float_of_int base) +. float_of_int a.(i)
    done;
    (Float.log !v /. Float.log 2.0) +. (float_of_int (hi * base_bits))
  end

let to_string (a : t) =
  match to_int_opt a with
  | Some i -> string_of_int i
  | None ->
    (* Peel 9 decimal digits at a time via division by 10^9 < 2^31. *)
    let chunk = 1_000_000_000 in
    let buf = Buffer.create 32 in
    let rec go a parts =
      if is_zero a then parts
      else begin
        let q, r = divmod_limb a chunk in
        go q (r :: parts)
      end
    in
    (match go a [] with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%09d" p)) rest);
    Buffer.contents buf

(* Digits gather in a native int nine at a time (10^9 < 2^31 keeps
   [mul_int] on its one-limb path), so a literal of at most nine
   digits never touches limb arithmetic. *)
let of_string s =
  if String.length s = 0 then invalid_arg "Bignat.of_string: empty";
  let acc = ref zero and chunk = ref 0 and scale = ref 1 in
  let seen_digit = ref false in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' ->
          seen_digit := true;
          if !scale = 1_000_000_000 then begin
            acc := add (mul_int !acc !scale) (of_int !chunk);
            chunk := 0;
            scale := 1
          end;
          chunk := (!chunk * 10) + (Char.code c - Char.code '0');
          scale := !scale * 10
      | '_' -> ()
      | _ -> invalid_arg "Bignat.of_string: not a digit")
    s;
  if not !seen_digit then invalid_arg "Bignat.of_string: no digits";
  add (mul_int !acc !scale) (of_int !chunk)

let pp fmt a =
  if num_bits a <= 64 then Format.pp_print_string fmt (to_string a)
  else Format.fprintf fmt "%s(~2^%.1f)" (to_string a) (log2 a)
