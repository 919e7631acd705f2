(* Tests for the log-domain reals. *)

let lr = Alcotest.testable (fun fmt v -> Logreal.pp fmt v) Logreal.equal
let flt = Alcotest.(float 1e-9)

let test_basics () =
  Alcotest.(check lr) "one" Logreal.one (Logreal.of_float 1.0);
  Alcotest.(check flt) "of_int 8" 3.0 (Logreal.to_log2 (Logreal.of_int 8));
  Alcotest.(check bool) "zero is zero" true (Logreal.is_zero Logreal.zero);
  Alcotest.(check flt) "to_float roundtrip" 42.0 (Logreal.to_float (Logreal.of_float 42.0));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Logreal.of_float: negative or nan")
    (fun () -> ignore (Logreal.of_float (-1.0)))

let test_arith () =
  let a = Logreal.of_float 12.0 and b = Logreal.of_float 5.0 in
  Alcotest.(check flt) "mul" 60.0 (Logreal.to_float (Logreal.mul a b));
  Alcotest.(check flt) "add" 17.0 (Logreal.to_float (Logreal.add a b));
  Alcotest.(check flt) "sub" 7.0 (Logreal.to_float (Logreal.sub a b));
  Alcotest.(check flt) "div" 2.4 (Logreal.to_float (Logreal.div a b));
  Alcotest.(check flt) "pow" 144.0 (Logreal.to_float (Logreal.pow a 2.0));
  Alcotest.(check flt) "pow_int" (1.0 /. 12.0) (Logreal.to_float (Logreal.pow_int a (-1)));
  Alcotest.(check lr) "add zero" a (Logreal.add a Logreal.zero);
  Alcotest.(check lr) "mul zero annihilates" Logreal.zero (Logreal.mul a Logreal.zero);
  Alcotest.(check lr) "sub self" Logreal.zero (Logreal.sub a a)

let test_huge () =
  (* values far beyond float range *)
  let huge = Logreal.of_log2 1.0e6 in
  let huge2 = Logreal.mul huge huge in
  Alcotest.(check flt) "mul exact in log domain" 2.0e6 (Logreal.to_log2 huge2);
  (* adding a small value to a huge one is absorbed *)
  Alcotest.(check flt) "add absorbs" 2.0e6 (Logreal.to_log2 (Logreal.add huge2 (Logreal.of_int 5)));
  Alcotest.(check string) "printing" "2^1000000.000" (Logreal.to_string huge);
  Alcotest.(check bool) "compare" true (Logreal.compare huge2 huge > 0)

let test_sum_prod () =
  let xs = List.map Logreal.of_float [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check flt) "sum" 10.0 (Logreal.to_float (Logreal.sum xs));
  Alcotest.(check flt) "prod" 24.0 (Logreal.to_float (Logreal.prod xs));
  Alcotest.(check lr) "empty sum" Logreal.zero (Logreal.sum []);
  Alcotest.(check lr) "empty prod" Logreal.one (Logreal.prod [])

let test_conversions () =
  let n = Bignum.Bignat.pow Bignum.Bignat.two 200 in
  Alcotest.(check flt) "of_bignat 2^200" 200.0 (Logreal.to_log2 (Logreal.of_bignat n));
  let q = Bignum.Bigq.of_ints 3 4 in
  Alcotest.(check (float 1e-9)) "of_bigq 3/4"
    (Float.log (0.75) /. Float.log 2.0)
    (Logreal.to_log2 (Logreal.of_bigq q));
  Alcotest.(check lr) "of_bignat zero" Logreal.zero (Logreal.of_bignat Bignum.Bignat.zero)

let prop_add_commutative_precise =
  QCheck2.Test.make ~name:"logreal add matches float add" ~count:500
    QCheck2.Gen.(pair (float_bound_exclusive 1e6) (float_bound_exclusive 1e6))
    (fun (a, b) ->
      QCheck2.assume (a > 0.0 && b > 0.0);
      let s = Logreal.to_float (Logreal.add (Logreal.of_float a) (Logreal.of_float b)) in
      Float.abs (s -. (a +. b)) /. (a +. b) < 1e-9)

let prop_mul_assoc =
  QCheck2.Test.make ~name:"logreal mul associative in log domain" ~count:500
    QCheck2.Gen.(triple (float_bound_exclusive 1e8) (float_bound_exclusive 1e8) (float_bound_exclusive 1e8))
    (fun (a, b, c) ->
      QCheck2.assume (a > 0.0 && b > 0.0 && c > 0.0);
      let x = Logreal.of_float a and y = Logreal.of_float b and z = Logreal.of_float c in
      Logreal.approx_equal ~tol:1e-9
        (Logreal.mul (Logreal.mul x y) z)
        (Logreal.mul x (Logreal.mul y z)))

let prop_sub_add_inverse =
  QCheck2.Test.make ~name:"sub undoes add" ~count:300
    QCheck2.Gen.(pair (float_range 1.0 1e6) (float_range 1.0 1e6))
    (fun (a, b) ->
      let x = Logreal.of_float a and y = Logreal.of_float b in
      Logreal.approx_equal ~tol:1e-6 x (Logreal.sub (Logreal.add x y) y))

let prop_pow_laws =
  QCheck2.Test.make ~name:"pow laws in log domain" ~count:300
    QCheck2.Gen.(triple (float_range 0.1 1e5) (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
    (fun (v, e1, e2) ->
      let x = Logreal.of_float v in
      Logreal.approx_equal ~tol:1e-6 (Logreal.pow x (e1 +. e2))
        (Logreal.mul (Logreal.pow x e1) (Logreal.pow x e2))
      && Logreal.approx_equal ~tol:1e-6 (Logreal.pow (Logreal.pow x e1) e2)
           (Logreal.pow x (e1 *. e2)))

let prop_compare_total_order =
  QCheck2.Test.make ~name:"compare is a total order consistent with floats" ~count:300
    QCheck2.Gen.(pair (float_range 0.0 1e6) (float_range 0.0 1e6))
    (fun (a, b) ->
      let x = Logreal.of_float a and y = Logreal.of_float b in
      compare a b = Logreal.compare x y
      && Logreal.equal (Logreal.min x y) (if a <= b then x else y)
      && Logreal.equal (Logreal.max x y) (if a >= b then x else y))

let prop_div_mul_inverse =
  QCheck2.Test.make ~name:"div undoes mul" ~count:300
    QCheck2.Gen.(pair (float_range 0.001 1e6) (float_range 0.001 1e6))
    (fun (a, b) ->
      let x = Logreal.of_float a and y = Logreal.of_float b in
      Logreal.approx_equal ~tol:1e-9 x (Logreal.div (Logreal.mul x y) y)
      && Logreal.approx_equal ~tol:1e-9 (Logreal.inv (Logreal.inv x)) x)

(* log2 operands mixing ordinary, subnormal, huge, signed-zero and
   infinite values, so the gaps range from 0 to beyond 2^1000 *)
let operand =
  let special =
    [ Float.neg_infinity; Float.infinity; 0.0; -0.0; Float.min_float; 4.9406564584124654e-324;
      -4.9406564584124654e-324; Float.max_float; -.Float.max_float; 1e300; -1e300; 53.0; -53.0 ]
  in
  QCheck2.Gen.(
    frequency
      [
        (3, oneofl special);
        (3, float_range (-1100.0) 1100.0);
        (2, map (fun e -> ldexp 1.0 e) (int_range (-1074) (-1022)));
        (2, map2 (fun x e -> ldexp x e) (float_range (-1.0) 1.0) (int_range (-1074) 1023));
      ])

(* The exact kernels prune a candidate from the window when its larger
   operand already passes the cut; that is sound only if the rounded sum
   never falls below its larger operand. *)
let prop_add_log2_dominates =
  QCheck2.Test.make ~name:"add_log2 a b >= max a b (the prune's obligation)" ~count:2000
    QCheck2.Gen.(pair operand operand)
    (fun (a, b) -> Logreal.add_log2 a b >= Float.max a b && Logreal.add_log2 b a >= Float.max a b)

(* [add] before [Float.log 2.0] was hoisted out of it, verbatim *)
let old_add (a : float) (b : float) : float =
  if a = neg_infinity then b
  else if b = neg_infinity then a
  else if a = Float.infinity || b = Float.infinity then Float.infinity
  else begin
    let hi = Float.max a b and lo = Float.min a b in
    hi +. (Float.log1p (Float.pow 2.0 (lo -. hi)) /. Float.log 2.0)
  end

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let prop_add_unchanged =
  QCheck2.Test.make ~name:"add with a hoisted ln 2 = the old add, bit for bit" ~count:2000
    QCheck2.Gen.(pair operand operand)
    (fun (a, b) ->
      let l2 = Logreal.to_log2 in
      same_bits (l2 (Logreal.add (Logreal.of_log2 a) (Logreal.of_log2 b))) (old_add a b)
      && same_bits (Logreal.add_log2 a b) (old_add a b))

(* The exact kernels' window: [add_log2_lower] / [add_log2_upper] must
   bracket the computed [add_log2]. Gaps sit on the table's cell edges
   (multiples of 1/32) and one ulp either side, up to and past the tail
   at 64, or anywhere in a cell; the larger operand's magnitude ranges
   from 0 to 1e300, both signs. *)
let prop_add_bounds =
  let gap =
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun c side ->
                let g = float_of_int c /. 32.0 in
                match side with 0 -> Float.pred g | 1 -> g | _ -> Float.succ g)
              (int_range 0 2200) (int_bound 2) );
          (2, float_range 0.0 70.0);
          (1, float_range 60.0 68.0);
          (1, oneofl [ 0.0; 64.0; 1e3; 1e6; Float.infinity ]);
        ])
  in
  let hi =
    QCheck2.Gen.(
      map2 (fun m neg -> if neg then -.m else m) (oneofl [ 0.0; 1.0; 0x1p22; 1e12; 1e300 ]) bool)
  in
  let brackets a b =
    let k = Logreal.add_log2 a b in
    Logreal.add_log2_lower a b <= k && k <= Logreal.add_log2_upper a b
  in
  QCheck2.Test.make ~name:"add_log2_lower <= add_log2 <= add_log2_upper" ~count:5000
    ~print:(fun ((h, g), (a, b)) -> Printf.sprintf "hi %h gap %h | %h %h" h g a b)
    QCheck2.Gen.(pair (pair hi gap) (pair operand operand))
    (fun ((h, g), (a, b)) -> brackets h (h -. g) && brackets (h -. g) h && brackets a b)

let () =
  Alcotest.run "logreal"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "huge values" `Quick test_huge;
          Alcotest.test_case "sum/prod" `Quick test_sum_prod;
          Alcotest.test_case "conversions" `Quick test_conversions;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_commutative_precise;
            prop_mul_assoc;
            prop_sub_add_inverse;
            prop_pow_laws;
            prop_compare_total_order;
            prop_div_mul_inverse;
            prop_add_log2_dominates;
            prop_add_unchanged;
            prop_add_bounds;
          ] );
    ]
