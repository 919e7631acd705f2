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

(* The exact kernels skip a candidate's [add_log2] when the larger
   operand already reaches the runner-up key; that is sound only if the
   rounded sum never falls below its larger operand. Operands mix
   ordinary, subnormal, huge, signed-zero and infinite log2 values, so
   the gaps range from 0 to beyond 2^1000. *)
let prop_add_log2_dominates =
  let special =
    [ Float.neg_infinity; Float.infinity; 0.0; -0.0; Float.min_float; 4.9406564584124654e-324;
      -4.9406564584124654e-324; Float.max_float; -.Float.max_float; 1e300; -1e300; 53.0; -53.0 ]
  in
  let operand =
    QCheck2.Gen.(
      frequency
        [
          (3, oneofl special);
          (3, float_range (-1100.0) 1100.0);
          (2, map (fun e -> ldexp 1.0 e) (int_range (-1074) (-1022)));
          (2, map2 (fun x e -> ldexp x e) (float_range (-1.0) 1.0) (int_range (-1074) 1023));
        ])
  in
  QCheck2.Test.make ~name:"add_log2 a b >= max a b (the prune's obligation)" ~count:2000
    QCheck2.Gen.(pair operand operand)
    (fun (a, b) -> Logreal.add_log2 a b >= Float.max a b && Logreal.add_log2 b a >= Float.max a b)

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
          ] );
    ]
