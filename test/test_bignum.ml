(* Tests for the bignum substrate: Bignat / Bigint / Bigq / Fixed.
   Property tests compare against native-int arithmetic in the overlap
   range and check algebraic laws beyond it. *)

open Bignum

let nat = Alcotest.testable (fun fmt n -> Bignat.pp fmt n) Bignat.equal

let test_basics () =
  Alcotest.(check string) "zero" "0" (Bignat.to_string Bignat.zero);
  Alcotest.(check nat) "of_int/to_string roundtrip" (Bignat.of_string "123456") (Bignat.of_int 123456);
  Alcotest.(check (option int)) "to_int small" (Some 42) (Bignat.to_int_opt (Bignat.of_int 42));
  Alcotest.(check (option int))
    "to_int max_int" (Some max_int)
    (Bignat.to_int_opt (Bignat.of_int max_int));
  Alcotest.(check (option int))
    "to_int overflow" None
    (Bignat.to_int_opt (Bignat.pow Bignat.two 70));
  Alcotest.(check string)
    "2^128"
    "340282366920938463463374607431768211456"
    (Bignat.to_string (Bignat.pow Bignat.two 128));
  Alcotest.(check nat)
    "underscored literals" (Bignat.of_int 1_000_000)
    (Bignat.of_string "1_000_000")

(* The native-int fast paths at their edges: [to_int_opt] at 2^62, where
   a third limb begins and a native int would turn negative, and
   [of_string] across its nine-digit chunks. *)
let test_native_edges () =
  let p62 = Bignat.pow Bignat.two 62 in
  Alcotest.(check (option int)) "2^62 does not fit" None (Bignat.to_int_opt p62);
  Alcotest.(check (option int)) "2^62 - 1 fits" (Some max_int)
    (Bignat.to_int_opt (Bignat.sub p62 Bignat.one));
  Alcotest.(check string) "2^62 prints" "4611686018427387904" (Bignat.to_string p62);
  Alcotest.(check string) "2^63 prints" "9223372036854775808"
    (Bignat.to_string (Bignat.mul p62 Bignat.two));
  List.iter
    (fun s ->
      Alcotest.(check string) ("round trip " ^ s) s (Bignat.to_string (Bignat.of_string s)))
    [ "0"; "7"; "999999999"; "1000000000"; "123456789012345678"; "1234567890123456789";
      "1000000000000000000000000000" ];
  Alcotest.(check nat) "leading zeros and '_' across a chunk" (Bignat.of_int 1_000_000_007)
    (Bignat.of_string "000_000_000_001_000_000_007");
  List.iter
    (fun (s, msg) ->
      Alcotest.check_raises s (Invalid_argument msg) (fun () -> ignore (Bignat.of_string s)))
    [ ("", "Bignat.of_string: empty"); ("__", "Bignat.of_string: no digits");
      ("1234567890x", "Bignat.of_string: not a digit") ]

let test_mul_karatsuba () =
  (* force the Karatsuba path with ~40-limb operands *)
  let a = Bignat.pow (Bignat.of_int 1234567891) 40 in
  let b = Bignat.pow (Bignat.of_int 987654321) 41 in
  (* (a*b) / b = a and (a*b) mod b = 0 *)
  let p = Bignat.mul a b in
  let q, r = Bignat.divmod p b in
  Alcotest.(check nat) "div undoes mul" a q;
  Alcotest.(check bool) "no remainder" true (Bignat.is_zero r);
  (* commutativity *)
  Alcotest.(check nat) "commutative" p (Bignat.mul b a)

let test_divmod_knuth () =
  (* exercise the add-back path region with structured operands *)
  let base31 = Bignat.shift_left Bignat.one 31 in
  let a = Bignat.sub (Bignat.pow base31 7) Bignat.one in
  let b = Bignat.sub (Bignat.pow base31 3) Bignat.one in
  let q, r = Bignat.divmod a b in
  Alcotest.(check nat) "recompose" a (Bignat.add (Bignat.mul q b) r);
  Alcotest.(check bool) "r < b" true (Bignat.compare r b < 0)

let test_shifts () =
  let v = Bignat.of_string "123456789123456789123456789" in
  Alcotest.(check nat) "shift roundtrip" v (Bignat.shift_right (Bignat.shift_left v 77) 77);
  Alcotest.(check nat) "shift_left = mul 2^k"
    (Bignat.mul v (Bignat.pow Bignat.two 33))
    (Bignat.shift_left v 33);
  Alcotest.(check int) "num_bits 2^100" 101 (Bignat.num_bits (Bignat.pow Bignat.two 100));
  Alcotest.(check bool) "testbit" true (Bignat.testbit (Bignat.pow Bignat.two 100) 100);
  Alcotest.(check bool) "testbit off" false (Bignat.testbit (Bignat.pow Bignat.two 100) 99)

let test_sqrt_log2 () =
  let v = Bignat.of_string "99999999999999999999999999999999" in
  let s = Bignat.sqrt v in
  Alcotest.(check bool) "s^2 <= v" true (Bignat.compare (Bignat.mul s s) v <= 0);
  let s1 = Bignat.succ s in
  Alcotest.(check bool) "(s+1)^2 > v" true (Bignat.compare (Bignat.mul s1 s1) v > 0);
  Alcotest.(check (float 1e-9)) "log2 of 2^500" 500.0 (Bignat.log2 (Bignat.pow Bignat.two 500))

let qcheck_int_pair = QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_bound 1_000_000_000))

let prop_add_matches_native =
  QCheck2.Test.make ~name:"bignat add matches native" ~count:500 qcheck_int_pair (fun (a, b) ->
      Bignat.to_int_opt (Bignat.add (Bignat.of_int a) (Bignat.of_int b)) = Some (a + b))

let prop_mul_matches_native =
  QCheck2.Test.make ~name:"bignat mul matches native" ~count:500
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (a, b) -> Bignat.to_int_opt (Bignat.mul (Bignat.of_int a) (Bignat.of_int b)) = Some (a * b))

let prop_divmod_matches_native =
  QCheck2.Test.make ~name:"bignat divmod matches native" ~count:500
    QCheck2.Gen.(pair (int_bound 1_000_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let q, r = Bignat.divmod (Bignat.of_int a) (Bignat.of_int b) in
      Bignat.to_int_opt q = Some (a / b) && Bignat.to_int_opt r = Some (a mod b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"bignat decimal roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let v = Bignat.of_string s in
      (* canonical form drops leading zeros *)
      Bignat.equal v (Bignat.of_string (Bignat.to_string v)))

let prop_divmod_recompose =
  QCheck2.Test.make ~name:"bignat a = q*b + r with big operands" ~count:100
    QCheck2.Gen.(pair (pair nat nat) (pair nat nat))
    (fun ((a1, a2), (b1, b2)) ->
      let a = Bignat.add (Bignat.mul (Bignat.of_int (a1 + 1)) (Bignat.pow Bignat.two 90)) (Bignat.of_int a2) in
      let b = Bignat.add (Bignat.mul (Bignat.of_int (b1 + 1)) (Bignat.pow Bignat.two 40)) (Bignat.of_int (b2 + 1)) in
      let q, r = Bignat.divmod a b in
      Bignat.equal a (Bignat.add (Bignat.mul q b) r) && Bignat.compare r b < 0)

let prop_gcd =
  QCheck2.Test.make ~name:"gcd divides both and matches native" ~count:300
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let rec g a b = if b = 0 then a else g b (a mod b) in
      Bignat.to_int_opt (Bignat.gcd (Bignat.of_int a) (Bignat.of_int b)) = Some (g a b))

(* -------------------- Bigint -------------------- *)

let bigint = Alcotest.testable (fun fmt n -> Bigint.pp fmt n) Bigint.equal

let test_bigint_signs () =
  let a = Bigint.of_int (-17) and b = Bigint.of_int 5 in
  let q, r = Bigint.divmod a b in
  (* Euclidean: -17 = -4 * 5 + 3 *)
  Alcotest.(check bigint) "euclidean quotient" (Bigint.of_int (-4)) q;
  Alcotest.(check bigint) "euclidean remainder" (Bigint.of_int 3) r;
  Alcotest.(check bigint) "neg pow odd" (Bigint.of_int (-8)) (Bigint.pow (Bigint.of_int (-2)) 3);
  Alcotest.(check bigint) "neg pow even" (Bigint.of_int 16) (Bigint.pow (Bigint.of_int (-2)) 4);
  Alcotest.(check string) "to_string" "-17" (Bigint.to_string a);
  Alcotest.(check bigint) "of_string neg" a (Bigint.of_string "-17")

(* min_int has no positive counterpart: its magnitude is built without
   negating it *)
let test_bigint_min_int () =
  let m = Bigint.of_int min_int in
  Alcotest.(check string) "to_string" (string_of_int min_int) (Bigint.to_string m);
  Alcotest.(check bigint) "of_string round trip" m (Bigint.of_string (Bigint.to_string m));
  Alcotest.(check bigint) "-2^62" (Bigint.neg (Bigint.of_nat (Bignat.shift_left Bignat.one 62))) m;
  Alcotest.(check (option int)) "to_int_opt" (Some min_int) (Bigint.to_int_opt m);
  Alcotest.(check (option int)) "2^62 overflows" None (Bigint.to_int_opt (Bigint.neg m));
  Alcotest.(check bigint) "min_int + 1" (Bigint.add m Bigint.one) (Bigint.of_int (min_int + 1));
  Alcotest.(check string) "of_ints" (Bigint.to_string m) (Bigq.to_string (Bigq.of_ints min_int 1))

let prop_bigint_ring =
  QCheck2.Test.make ~name:"bigint ring laws vs native" ~count:500
    QCheck2.Gen.(triple (int_range (-10000) 10000) (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b, c) ->
      let ( + ), ( * ) = (Bigint.add, Bigint.mul) in
      let of_i = Bigint.of_int in
      Bigint.to_int_opt ((of_i a + of_i b) * of_i c) = Some (Stdlib.( * ) (Stdlib.( + ) a b) c))

let prop_bigint_divmod =
  QCheck2.Test.make ~name:"bigint euclidean divmod" ~count:500
    QCheck2.Gen.(pair (int_range (-100000) 100000) (int_range (-500) 500))
    (fun (a, b) ->
      QCheck2.assume (b <> 0);
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      let qv = Option.get (Bigint.to_int_opt q) and rv = Option.get (Bigint.to_int_opt r) in
      a = (qv * b) + rv && rv >= 0 && rv < abs b)

(* -------------------- Bigq -------------------- *)

let bigq = Alcotest.testable (fun fmt q -> Bigq.pp fmt q) Bigq.equal

let test_bigq_basics () =
  Alcotest.(check bigq) "1/3 + 1/6 = 1/2" (Bigq.of_ints 1 2) (Bigq.add (Bigq.of_ints 1 3) (Bigq.of_ints 1 6));
  Alcotest.(check bigq) "normalization" (Bigq.of_ints 2 3) (Bigq.of_ints 14 21);
  Alcotest.(check bigq) "negative denominator" (Bigq.of_ints (-2) 3) (Bigq.of_ints 2 (-3));
  Alcotest.(check bigq) "string roundtrip" (Bigq.of_ints (-5) 7) (Bigq.of_string "-5/7");
  Alcotest.(check (float 1e-9)) "log2 1/1024" (-10.0) (Bigq.log2 (Bigq.of_ints 1 1024));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Bigq.of_ints 1 0))

let prop_bigq_field =
  QCheck2.Test.make ~name:"bigq field laws" ~count:300
    QCheck2.Gen.(
      triple
        (pair (int_range (-50) 50) (int_range 1 50))
        (pair (int_range (-50) 50) (int_range 1 50))
        (pair (int_range (-50) 50) (int_range 1 50)))
    (fun ((a, b), (c, d), (e, f)) ->
      let x = Bigq.of_ints a b and y = Bigq.of_ints c d and z = Bigq.of_ints e f in
      Bigq.equal (Bigq.mul x (Bigq.add y z)) (Bigq.add (Bigq.mul x y) (Bigq.mul x z))
      && Bigq.equal (Bigq.sub (Bigq.add x y) y) x
      && (Bigq.is_zero x || Bigq.equal (Bigq.mul x (Bigq.inv x)) Bigq.one))

let prop_bigq_pow =
  QCheck2.Test.make ~name:"bigq pow matches repeated mul" ~count:100
    QCheck2.Gen.(pair (pair (int_range (-9) 9) (int_range 1 9)) (int_range 0 8))
    (fun ((a, b), e) ->
      QCheck2.assume (a <> 0);
      let x = Bigq.of_ints a b in
      let rec naive acc k = if k = 0 then acc else naive (Bigq.mul acc x) (k - 1) in
      Bigq.equal (Bigq.pow x e) (naive Bigq.one e)
      && Bigq.equal (Bigq.pow x (-e)) (Bigq.inv (naive Bigq.one e)))

(* -------------------- Fixed -------------------- *)

let test_fixed_exp () =
  (* exp_ceil at q=24 vs float, across the [0,1] range *)
  for num = 0 to 16 do
    let c = Fixed.exp_ceil ~q:24 ~num:(Bignat.of_int num) ~den:(Bignat.of_int 16) in
    let expect = Float.ceil ((2.0 ** 24.0) *. Float.exp (float_of_int num /. 16.0)) in
    Alcotest.(check (float 1.5))
      (Printf.sprintf "exp_ceil %d/16" num)
      expect (Bignat.to_float c)
  done;
  (* exact at 0 *)
  Alcotest.(check nat) "e^0 = 2^q exactly"
    (Bignat.pow Bignat.two 20)
    (Fixed.exp_ceil ~q:20 ~num:Bignat.zero ~den:Bignat.one)

let test_fixed_bounds () =
  let lo, hi = Fixed.exp_bounds ~q:128 ~num:Bignat.one ~den:(Bignat.of_int 3) in
  Alcotest.(check bool) "lo <= hi" true (Bignat.compare lo hi <= 0);
  Alcotest.(check bool) "hi - lo <= 2" true (Bignat.compare (Bignat.sub hi lo) Bignat.two <= 0);
  (* sandwich a float estimate *)
  let est = (2.0 ** 128.0) *. Float.exp (1.0 /. 3.0) in
  Alcotest.(check bool) "brackets e^(1/3)" true
    (Bignat.to_float lo <= est && est <= Bignat.to_float hi +. 4.0)

let test_fixed_monotone () =
  (* exp_ceil is monotone in the argument *)
  let prev = ref Bignat.zero in
  for num = 0 to 32 do
    let c = Fixed.exp_ceil ~q:64 ~num:(Bignat.of_int num) ~den:(Bignat.of_int 32) in
    Alcotest.(check bool) "monotone" true (Bignat.compare c !prev >= 0);
    prev := c
  done

let test_g_q () =
  (* g_q(K/2) with K=8: ceil(2^q e^{1/4}) *)
  let v = Fixed.g_q ~q:30 ~x:(Bignat.of_int 4) ~k:(Bignat.of_int 8) in
  let expect = Float.ceil ((2.0 ** 30.0) *. Float.exp 0.25) in
  Alcotest.(check (float 1.5)) "g_q" expect (Bignat.to_float v);
  Alcotest.check_raises "x > 2K rejected" (Invalid_argument "Fixed.g_q: x must be <= 2K")
    (fun () -> ignore (Fixed.g_q ~q:10 ~x:(Bignat.of_int 17) ~k:(Bignat.of_int 8)))

let prop_mul_assoc_big =
  QCheck2.Test.make ~name:"bignat mul associative on multi-limb operands" ~count:100
    QCheck2.Gen.(triple (int_range 1 1000000) (int_range 1 1000000) (int_range 1 1000000))
    (fun (a, b, c) ->
      (* lift into the 60-120 bit range to span limb boundaries *)
      let big x = Bignat.add (Bignat.mul (Bignat.of_int x) (Bignat.pow Bignat.two 45)) (Bignat.of_int x) in
      let x = big a and y = big b and z = big c in
      Bignat.equal (Bignat.mul (Bignat.mul x y) z) (Bignat.mul x (Bignat.mul y z)))

let prop_sub_opt =
  QCheck2.Test.make ~name:"sub_opt agrees with comparison" ~count:300
    QCheck2.Gen.(pair (int_bound 1000000000) (int_bound 1000000000))
    (fun (a, b) ->
      let x = Bignat.of_int a and y = Bignat.of_int b in
      match Bignat.sub_opt x y with
      | Some d -> a >= b && Bignat.to_int_opt d = Some (a - b)
      | None -> a < b)

let prop_shift_consistency =
  QCheck2.Test.make ~name:"shifts by split amounts compose" ~count:200
    QCheck2.Gen.(triple (int_range 1 1000000000) (int_range 0 80) (int_range 0 80))
    (fun (v, s1, s2) ->
      let x = Bignat.of_int v in
      Bignat.equal
        (Bignat.shift_left (Bignat.shift_left x s1) s2)
        (Bignat.shift_left x (s1 + s2))
      && Bignat.equal (Bignat.shift_right (Bignat.shift_left x s1) s1) x)

let prop_pow_homomorphism =
  QCheck2.Test.make ~name:"pow is a homomorphism: b^(e1+e2) = b^e1 * b^e2" ~count:100
    QCheck2.Gen.(triple (int_range 2 50) (int_range 0 20) (int_range 0 20))
    (fun (b, e1, e2) ->
      let bb = Bignat.of_int b in
      Bignat.equal (Bignat.pow bb (e1 + e2)) (Bignat.mul (Bignat.pow bb e1) (Bignat.pow bb e2)))

let prop_num_bits =
  QCheck2.Test.make ~name:"num_bits matches the 2^k sandwich" ~count:200
    QCheck2.Gen.(int_range 1 max_int)
    (fun v ->
      let x = Bignat.of_int v in
      let k = Bignat.num_bits x in
      Bignat.compare x (Bignat.pow Bignat.two k) < 0
      && Bignat.compare x (Bignat.pow Bignat.two (k - 1)) >= 0)

(* ---- Bigq against a plain reference on multi-limb operands ---- *)

(* Euclid on Bignat.rem only: the reference the native-int gcd
   finish must agree with *)
let rec euclid a b = if Bignat.is_zero b then a else euclid b (Bignat.rem a b)

(* magnitudes: zero, small, single-limb, 30- and 200-digit *)
let gen_mag =
  QCheck2.Gen.(
    frequency
      [
        (1, return "0");
        (2, map string_of_int (int_range 1 9));
        (3, map string_of_int (int_range 1 ((1 lsl 31) - 1)));
        (3, string_size ~gen:numeral (return 30));
        (1, string_size ~gen:numeral (return 200));
      ]
    |> map Bignat.of_string)

let gen_den =
  QCheck2.Gen.(
    frequency [ (2, return Bignat.one); (5, gen_mag) ]
    |> map (fun d -> if Bignat.is_zero d then Bignat.one else d))

(* reference normalization: explicit Euclid, explicit division *)
let ref_normalize n d =
  if Bigint.is_zero n then (Bigint.zero, Bignat.one)
  else begin
    let mag = Option.get (Bigint.to_nat_opt (Bigint.abs n)) in
    let g = euclid mag d in
    let m = Bigint.of_nat (Bignat.div mag g) in
    ((if Bigint.sign n < 0 then Bigint.neg m else m), Bignat.div d g)
  end

let gen_q =
  QCheck2.Gen.(
    map
      (fun ((neg, m), d) ->
        let n = Bigint.of_nat m in
        let n, d = ref_normalize (if neg then Bigint.neg n else n) d in
        Bigq.make n (Bigint.of_nat d))
      (pair (pair bool gen_mag) gen_den))

let print_q = Bigq.to_string

(* the invariant every result must satisfy: den > 0, gcd(|num|, den) = 1,
   zero is 0/1 *)
let normalized q =
  let n = Bigq.num q and d = Bigq.den q in
  (not (Bignat.is_zero d))
  &&
  if Bigint.is_zero n then Bignat.equal d Bignat.one
  else Bignat.equal (euclid (Option.get (Bigint.to_nat_opt (Bigint.abs n))) d) Bignat.one

let matches q (n, d) = normalized q && Bigint.equal (Bigq.num q) n && Bignat.equal (Bigq.den q) d
let nd q = (Bigq.num q, Bigint.of_nat (Bigq.den q))

let ref_add a b =
  let an, ad = nd a and bn, bd = nd b in
  ref_normalize (Bigint.add (Bigint.mul an bd) (Bigint.mul bn ad))
    (Option.get (Bigint.to_nat_opt (Bigint.mul ad bd)))

let ref_mul a b =
  let an, ad = nd a and bn, bd = nd b in
  ref_normalize (Bigint.mul an bn) (Option.get (Bigint.to_nat_opt (Bigint.mul ad bd)))

let ref_div a b =
  let an, ad = nd a and bn, bd = nd b in
  let n = Bigint.mul an bd and d = Bigint.mul ad bn in
  let n = if Bigint.sign d < 0 then Bigint.neg n else n in
  ref_normalize n (Option.get (Bigint.to_nat_opt (Bigint.abs d)))

let ref_compare a b =
  let an, ad = nd a and bn, bd = nd b in
  Bigint.compare (Bigint.mul an bd) (Bigint.mul bn ad)

let prop_bigq_vs_reference =
  QCheck2.Test.make ~name:"bigq add/sub/mul/div/compare = cross-multiply + normalize" ~count:500
    ~print:(fun (a, b) -> print_q a ^ " , " ^ print_q b)
    QCheck2.Gen.(pair gen_q gen_q)
    (fun (a, b) ->
      matches (Bigq.add a b) (ref_add a b)
      && matches (Bigq.sub a b) (ref_add a (Bigq.neg b))
      && matches (Bigq.mul a b) (ref_mul a b)
      && (Bigq.is_zero b || matches (Bigq.div a b) (ref_div a b))
      && Int.compare (Bigq.compare a b) 0 = Int.compare (ref_compare a b) 0
      && Bigq.compare a a = 0)

let prop_of_ints_vs_make =
  QCheck2.Test.make ~name:"bigq of_ints (native reduction) = make on Bigints" ~count:500
    ~print:(fun (a, b) -> Printf.sprintf "%d, %d" a b)
    QCheck2.Gen.(
      let edge = oneofl [ 0; 1; -1; max_int; min_int; min_int + 1; 1 lsl 31; -(1 lsl 31) ] in
      let any = frequency [ (1, edge); (3, int_range (-1000) 1000); (3, int) ] in
      pair any any)
    (fun (a, b) ->
      (* the same value (min_int is -2^62 on both paths), or the same
         division by zero *)
      let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      match
        (outcome (fun () -> Bigq.make (Bigint.of_int a) (Bigint.of_int b)), outcome (fun () -> Bigq.of_ints a b))
      with
      | Ok q, Ok r ->
          normalized r && Bigint.equal (Bigq.num r) (Bigq.num q) && Bignat.equal (Bigq.den r) (Bigq.den q)
      | Error x, Error y -> b = 0 && x = y
      | _ -> false)

let prop_gcd_vs_euclid =
  QCheck2.Test.make ~name:"gcd = plain Euclid on multi-limb operands" ~count:500
    QCheck2.Gen.(pair gen_mag gen_mag)
    (fun (a, b) -> Bignat.equal (Bignat.gcd a b) (euclid a b))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_matches_native;
      prop_mul_matches_native;
      prop_divmod_matches_native;
      prop_string_roundtrip;
      prop_of_ints_vs_make;
      prop_divmod_recompose;
      prop_gcd;
      prop_mul_assoc_big;
      prop_sub_opt;
      prop_shift_consistency;
      prop_pow_homomorphism;
      prop_num_bits;
      prop_bigint_ring;
      prop_bigint_divmod;
      prop_bigq_field;
      prop_bigq_pow;
      prop_bigq_vs_reference;
      prop_gcd_vs_euclid;
    ]

let () =
  Alcotest.run "bignum"
    [
      ( "bignat",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "native-int edges" `Quick test_native_edges;
          Alcotest.test_case "karatsuba mul" `Quick test_mul_karatsuba;
          Alcotest.test_case "knuth divmod" `Quick test_divmod_knuth;
          Alcotest.test_case "shifts and bits" `Quick test_shifts;
          Alcotest.test_case "sqrt and log2" `Quick test_sqrt_log2;
        ] );
      ( "bigint",
        [
          Alcotest.test_case "signs and euclidean division" `Quick test_bigint_signs;
          Alcotest.test_case "min_int" `Quick test_bigint_min_int;
        ] );
      ("bigq", [ Alcotest.test_case "basics" `Quick test_bigq_basics ]);
      ( "fixed",
        [
          Alcotest.test_case "exp_ceil vs float" `Quick test_fixed_exp;
          Alcotest.test_case "exp_bounds tight" `Quick test_fixed_bounds;
          Alcotest.test_case "exp_ceil monotone" `Quick test_fixed_monotone;
          Alcotest.test_case "g_q" `Quick test_g_q;
        ] );
      ("properties", qsuite);
    ]
