(* Signed integers as sign + magnitude over Bignat.
   Invariant: [mag] is never zero when [sg] is nonzero; zero is
   represented uniquely as { sg = 0; mag = Bignat.zero }. *)

type t = { sg : int; mag : Bignat.t }

let make sg mag = if Bignat.is_zero mag then { sg = 0; mag = Bignat.zero } else { sg; mag }
let zero = { sg = 0; mag = Bignat.zero }
let one = { sg = 1; mag = Bignat.one }
let minus_one = { sg = -1; mag = Bignat.one }

let of_nat n = make 1 n

(* |min_int| = max_int + 1: [-min_int] overflows back to [min_int] *)
let min_int_mag = Bignat.succ (Bignat.of_int max_int)

let of_int i =
  if i = 0 then zero
  else if i > 0 then { sg = 1; mag = Bignat.of_int i }
  else if i = min_int then { sg = -1; mag = min_int_mag }
  else { sg = -1; mag = Bignat.of_int (-i) }

let to_nat_opt t = if t.sg < 0 then None else Some t.mag

let to_int_opt t =
  match Bignat.to_int_opt t.mag with
  | Some m -> Some (if t.sg >= 0 then m else -m)
  | None -> if t.sg < 0 && Bignat.equal t.mag min_int_mag then Some min_int else None

let sign t = t.sg
let magnitude t = t.mag
let abs t = { t with sg = Stdlib.abs t.sg }
let neg t = { t with sg = -t.sg }
let is_zero t = t.sg = 0

let compare a b =
  if a.sg <> b.sg then Stdlib.compare a.sg b.sg
  else a.sg * Bignat.compare a.mag b.mag

let equal a b = compare a b = 0

let add a b =
  if a.sg = 0 then b
  else if b.sg = 0 then a
  else if a.sg = b.sg then { a with mag = Bignat.add a.mag b.mag }
  else begin
    let c = Bignat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sg (Bignat.sub a.mag b.mag)
    else make b.sg (Bignat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let mul a b = make (a.sg * b.sg) (Bignat.mul a.mag b.mag)

let mul_int a k =
  if k >= 0 then make a.sg (Bignat.mul_int a.mag k)
  else make (-a.sg) (Bignat.mul_int a.mag (-k))

(* Euclidean: remainder always non-negative. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  let q, r = Bignat.divmod a.mag b.mag in
  match (a.sg >= 0, b.sg >= 0) with
  | true, true -> (of_nat q, of_nat r)
  | true, false -> (neg (of_nat q), of_nat r)
  | false, true ->
      if Bignat.is_zero r then (neg (of_nat q), zero)
      else (neg (of_nat (Bignat.succ q)), of_nat (Bignat.sub b.mag r))
  | false, false ->
      if Bignat.is_zero r then (of_nat q, zero)
      else (of_nat (Bignat.succ q), of_nat (Bignat.sub b.mag r))

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow";
  let sg = if b.sg >= 0 || e land 1 = 0 then (if is_zero b && e > 0 then 0 else 1) else -1 in
  if is_zero b && e > 0 then zero
  else if e = 0 then one
  else make sg (Bignat.pow b.mag e)

let to_string t =
  match t.sg with
  | 0 -> "0"
  | s when s > 0 -> Bignat.to_string t.mag
  | _ -> "-" ^ Bignat.to_string t.mag

let of_string s =
  if String.length s > 0 && s.[0] = '-' then
    make (-1) (Bignat.of_string (String.sub s 1 (String.length s - 1)))
  else if String.length s > 0 && s.[0] = '+' then
    make 1 (Bignat.of_string (String.sub s 1 (String.length s - 1)))
  else of_nat (Bignat.of_string s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
