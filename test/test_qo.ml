(* Tests for the QO_N cost model and the optimizer portfolio, over both
   cost domains. *)

module NR = Qo.Instances.Nl_rat
module OR_ = Qo.Instances.Opt_rat
module NL = Qo.Instances.Nl_log
module OL = Qo.Instances.Opt_log
module IKR = Qo.Instances.Ik_rat
module IKL = Qo.Instances.Ik_log
module RC = Qo.Rat_cost

let rc = Alcotest.testable (fun fmt v -> RC.pp fmt v) RC.equal

(* tiny substring helper (no astring dependency) *)
module Astring_like = struct
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
    nn = 0 || go 0
end

(* Random valid rational instance generator. *)
let gen_instance =
  QCheck2.Gen.(
    let* n = int_range 2 7 in
    let* seed = int_range 0 10_000 in
    let* p = float_range 0.2 0.9 in
    let st = Random.State.make [| seed; 77 |] in
    let g = Graphlib.Gen.gnp ~seed ~n ~p in
    let sizes = Array.init n (fun _ -> RC.of_int (1 + Random.State.int st 50)) in
    let sel = Array.make_matrix n n RC.one in
    let w = Array.make_matrix n n RC.zero in
    List.iter
      (fun (i, j) ->
        let s = RC.of_ints 1 (1 + Random.State.int st 20) in
        sel.(i).(j) <- s;
        sel.(j).(i) <- s)
      (Graphlib.Ugraph.edges g);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          if Graphlib.Ugraph.has_edge g i j then
            w.(i).(j) <-
              RC.min sizes.(i)
                (RC.max (RC.mul sizes.(i) sel.(i).(j)) (RC.of_int (1 + Random.State.int st 10)))
          else w.(i).(j) <- sizes.(i)
      done
    done;
    return (NR.make ~graph:g ~sel ~sizes ~w))

(* A tree-query instance. *)
let gen_tree_instance =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* seed = int_range 0 10_000 in
    let st = Random.State.make [| seed; 99 |] in
    let g = Graphlib.Gen.random_tree ~seed ~n in
    let sizes = Array.init n (fun _ -> RC.of_int (2 + Random.State.int st 40)) in
    let sel = Array.make_matrix n n RC.one in
    let w = Array.make_matrix n n RC.zero in
    List.iter
      (fun (i, j) ->
        let s = RC.of_ints 1 (1 + Random.State.int st 15) in
        sel.(i).(j) <- s;
        sel.(j).(i) <- s)
      (Graphlib.Ugraph.edges g);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          if Graphlib.Ugraph.has_edge g i j then
            w.(i).(j) <-
              RC.min sizes.(i)
                (RC.max (RC.mul sizes.(i) sel.(i).(j)) (RC.of_int (1 + Random.State.int st 8)))
          else w.(i).(j) <- sizes.(i)
      done
    done;
    return (NR.make ~graph:g ~sel ~sizes ~w))

(* -------------------- hand-computed example -------------------- *)

(* Two relations R0 (100 tuples), R1 (20 tuples), selectivity 1/10,
   w_01 = 15, w_10 = 2.
   Z = (0,1): H_1 = N({0}) * w_{1,0} = 100 * 2 = 200.
   Z = (1,0): H_1 = 20 * 15 = 300. *)
let test_hand_example () =
  let g = Graphlib.Ugraph.of_edges 2 [ (0, 1) ] in
  let sel = [| [| RC.one; RC.of_ints 1 10 |]; [| RC.of_ints 1 10; RC.one |] |] in
  let sizes = [| RC.of_int 100; RC.of_int 20 |] in
  let w = [| [| RC.zero; RC.of_int 15 |]; [| RC.of_int 2; RC.zero |] |] in
  let inst = NR.make ~graph:g ~sel ~sizes ~w in
  Alcotest.(check rc) "cost (0,1)" (RC.of_int 200) (NR.cost inst [| 0; 1 |]);
  Alcotest.(check rc) "cost (1,0)" (RC.of_int 300) (NR.cost inst [| 1; 0 |]);
  (* N after the join: 100 * 20 / 10 = 200 *)
  Alcotest.(check rc) "intermediate size" (RC.of_int 200)
    (NR.intermediate_sizes inst [| 0; 1 |]).(0);
  let p = OR_.dp inst in
  Alcotest.(check rc) "optimal cost" (RC.of_int 200) p.OR_.cost

(* Three relations in a path 0-1-2: check a cartesian product is
   detected and off-edge access costs full size. *)
let test_cartesian_detection () =
  let g = Graphlib.Ugraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let mk_sel v = v in
  let s = RC.of_ints 1 2 in
  let sel =
    [| [| RC.one; s; RC.one |]; [| s; RC.one; s |]; [| RC.one; s; RC.one |] |] |> mk_sel
  in
  let sizes = [| RC.of_int 10; RC.of_int 10; RC.of_int 10 |] in
  let w =
    Array.init 3 (fun i ->
        Array.init 3 (fun j ->
            if i <> j && Graphlib.Ugraph.has_edge g i j then RC.of_int 5 else sizes.(i)))
  in
  let inst = NR.make ~graph:g ~sel ~sizes ~w in
  Alcotest.(check bool) "0,2,1 has cartesian" true (NR.has_cartesian inst [| 0; 2; 1 |]);
  Alcotest.(check bool) "0,1,2 no cartesian" false (NR.has_cartesian inst [| 0; 1; 2 |]);
  (* cost with cartesian: H_1 = 10 * w_{2,0} = 10 * t_2 = 100;
     then H_2 = N({0,2}) * min(w_{1,0}, w_{1,2}) = 100 * 5 = 500 *)
  Alcotest.(check rc) "cartesian cost" (RC.of_int 600) (NR.cost inst [| 0; 2; 1 |]);
  Alcotest.(check int) "back edges" 0 (NR.back_edges inst [| 0; 2; 1 |] 2);
  Alcotest.(check int) "back edges of 1" 2 (NR.back_edges inst [| 0; 2; 1 |] 3)

let test_validation_errors () =
  let g = Graphlib.Ugraph.of_edges 2 [ (0, 1) ] in
  let sizes = [| RC.of_int 10; RC.of_int 10 |] in
  let s = RC.of_ints 1 2 in
  let sel = [| [| RC.one; s |]; [| s; RC.one |] |] in
  (* w below t*s *)
  let w_low = [| [| RC.zero; RC.of_int 10 |]; [| RC.of_int 4; RC.zero |] |] in
  Alcotest.check_raises "w below t*s" (Invalid_argument "Nl.make: w.(1).(0) below t_i * s_ij")
    (fun () -> ignore (NR.make ~graph:g ~sel ~sizes ~w:w_low));
  (* w above t *)
  let w_high = [| [| RC.zero; RC.of_int 11 |]; [| RC.of_int 5; RC.zero |] |] in
  Alcotest.check_raises "w above t" (Invalid_argument "Nl.make: w.(0).(1) above t_i") (fun () ->
      ignore (NR.make ~graph:g ~sel ~sizes ~w:w_high));
  (* asymmetric selectivity *)
  let sel_bad = [| [| RC.one; s |]; [| RC.of_ints 1 3; RC.one |] |] in
  let w_ok = [| [| RC.zero; RC.of_int 5 |]; [| RC.of_int 5; RC.zero |] |] in
  Alcotest.check_raises "asymmetric sel" (Invalid_argument "Nl.make: selectivity not symmetric")
    (fun () -> ignore (NR.make ~graph:g ~sel:sel_bad ~sizes ~w:w_ok))

(* -------------------- properties -------------------- *)

let prop_dp_equals_exhaustive =
  QCheck2.Test.make ~name:"subset DP = exhaustive enumeration" ~count:60 gen_instance (fun inst ->
      RC.equal (OR_.dp inst).OR_.cost (OR_.exhaustive inst).OR_.cost)

let prop_heuristics_upper_bound =
  QCheck2.Test.make ~name:"greedy/II/SA are upper bounds on the optimum" ~count:40 gen_instance
    (fun inst ->
      let opt = (OR_.dp inst).OR_.cost in
      RC.compare (OR_.greedy ~mode:OR_.Min_cost inst).OR_.cost opt >= 0
      && RC.compare (OR_.greedy ~mode:OR_.Min_size inst).OR_.cost opt >= 0
      && RC.compare (OR_.iterative_improvement ~restarts:2 ~max_steps:200 inst).OR_.cost opt >= 0
      && RC.compare (OR_.simulated_annealing ~steps:500 inst).OR_.cost opt >= 0
      && RC.compare (OR_.genetic ~population:20 ~generations:30 inst).OR_.cost opt >= 0)

let prop_dp_no_cartesian_dominates =
  QCheck2.Test.make ~name:"no-cartesian optimum >= unrestricted optimum" ~count:60 gen_instance
    (fun inst ->
      let a = (OR_.dp inst).OR_.cost and b = (OR_.dp_no_cartesian inst).OR_.cost in
      RC.compare b a >= 0)

let prop_dp_plan_cost_consistent =
  QCheck2.Test.make ~name:"returned plan evaluates to returned cost" ~count:60 gen_instance
    (fun inst ->
      let p = OR_.dp inst in
      RC.equal (NR.cost inst p.OR_.seq) p.OR_.cost)

let prop_size_set_invariance =
  QCheck2.Test.make ~name:"N(X) depends only on the set (permutation invariant)" ~count:60
    gen_instance (fun inst ->
      let n = NR.n inst in
      QCheck2.assume (n >= 3);
      let z1 = Array.init n (fun i -> i) in
      let z2 = Array.init n (fun i -> if i = 0 then 1 else if i = 1 then 0 else i) in
      let s1 = NR.intermediate_sizes inst z1 and s2 = NR.intermediate_sizes inst z2 in
      (* after position 2 the prefixes coincide as sets *)
      let ok = ref true in
      for i = 1 to n - 2 do
        if not (RC.equal s1.(i) s2.(i)) then ok := false
      done;
      !ok)

let prop_log_matches_rational =
  QCheck2.Test.make ~name:"log-domain cost = rational cost (to 1e-6 bits)" ~count:60 gen_instance
    (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      let pr = OR_.dp inst and pl = OL.dp li in
      Float.abs (RC.to_log2 pr.OR_.cost -. Logreal.to_log2 pl.OL.cost) < 1e-6)

let prop_ik_tree_optimal =
  QCheck2.Test.make ~name:"IK = no-cartesian DP on tree queries" ~count:80 gen_tree_instance
    (fun inst ->
      let cik, seq = IKR.solve inst in
      let pd = OR_.dp_no_cartesian inst in
      RC.equal cik pd.OR_.cost && RC.equal (NR.cost inst seq) cik)

(* Same boundary in the float domain: the optimum matches up to log2
   tolerance (IK and the DP add costs in different orders). *)
let prop_ik_tree_optimal_log =
  QCheck2.Test.make ~name:"IK = no-cartesian DP on tree queries (log domain)" ~count:80
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* seed = int_range 0 10_000 in
      return (Qo.Gen_inst.L.tree ~seed ~n ()))
    (fun inst ->
      let close a b =
        let la = Qo.Log_cost.to_log2 a and lb = Qo.Log_cost.to_log2 b in
        la = lb || Float.abs (la -. lb) <= 1e-6
      in
      let cik, seq = IKL.solve inst in
      let pd = OL.dp_no_cartesian inst in
      close cik pd.OL.cost && close (NL.cost inst seq) cik)

let prop_profile_sums =
  QCheck2.Test.make ~name:"cost = sum of join costs" ~count:60 gen_instance (fun inst ->
      let n = NR.n inst in
      let z = Array.init n (fun i -> i) in
      let h = NR.join_costs inst z in
      RC.equal (Array.fold_left RC.add RC.zero h) (NR.cost inst z))

let prop_uniform_instance =
  QCheck2.Test.make ~name:"uniform instance validates and is symmetric" ~count:40
    QCheck2.Gen.(pair (int_range 2 10) (int_range 0 1000))
    (fun (n, seed) ->
      let g = Graphlib.Gen.gnp ~seed ~n ~p:0.5 in
      let inst =
        NL.uniform ~graph:g ~size:(Qo.Log_cost.of_int 64)
          ~edge_sel:(Qo.Log_cost.of_log2 (-3.0))
          ~edge_w:(Qo.Log_cost.of_int 8)
      in
      NL.n inst = n)

(* -------------------- Gen_inst / Explain -------------------- *)

let prop_gen_inst_valid =
  QCheck2.Test.make ~name:"library generators produce valid instances" ~count:60
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 5000))
    (fun (n, seed) ->
      (* Nl.make validates the access-path constraints; reaching here
         without Invalid_argument is the property *)
      let a = Qo.Gen_inst.R.random ~seed ~n ~p:0.5 () in
      let b = Qo.Gen_inst.R.tree ~seed ~n () in
      let c = Qo.Gen_inst.R.chain ~seed ~n () in
      let d = Qo.Gen_inst.L.random ~seed ~n ~p:0.4 () in
      let e = Qo.Gen_inst.L.tree_plus ~seed ~n ~extra:2 () in
      NR.n a = n && NR.n b = n && NR.n c = n && NL.n d = n && NL.n e = n)

let prop_gen_inst_deterministic =
  QCheck2.Test.make ~name:"generators are deterministic in the seed" ~count:30
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 5000))
    (fun (n, seed) ->
      let a = Qo.Gen_inst.R.random ~seed ~n ~p:0.5 () in
      let b = Qo.Gen_inst.R.random ~seed ~n ~p:0.5 () in
      let za = (OR_.dp a).OR_.cost and zb = (OR_.dp b).OR_.cost in
      Qo.Rat_cost.equal za zb)

(* The shape table must build exactly what each name built when every
   caller carried its own dispatch: the generator, its arguments
   (random = G(n, 0.5), star = n - 1 satellites, grid = grid_dims n,
   treeplus = 2 chords) and so its per-domain salts. The digest pins
   those instances themselves, so a changed salt or draw order fails
   here, not only in the fuzz case stream. *)
let test_shape_table () =
  let open Qo.Gen_inst in
  let all = Buffer.create 4096 in
  let direct name ~seed ~n =
    let dump r l = (Qo.Io.dump_rat r, Qo.Io.dump_log l) in
    let rows, cols = grid_dims n in
    match name with
    | "random" -> dump (R.random ~seed ~n ~p:0.5 ()) (L.random ~seed ~n ~p:0.5 ())
    | "tree" -> dump (R.tree ~seed ~n ()) (L.tree ~seed ~n ())
    | "chain" -> dump (R.chain ~seed ~n ()) (L.chain ~seed ~n ())
    | "star" -> dump (R.star ~seed ~satellites:(n - 1) ()) (L.star ~seed ~satellites:(n - 1) ())
    | "cycle" -> dump (R.cycle ~seed ~n ()) (L.cycle ~seed ~n ())
    | "grid" -> dump (R.grid ~seed ~rows ~cols ()) (L.grid ~seed ~rows ~cols ())
    | "clique" -> dump (R.clique ~seed ~n ()) (L.clique ~seed ~n ())
    | "treeplus" -> dump (R.tree_plus ~seed ~n ~extra:2 ()) (L.tree_plus ~seed ~n ~extra:2 ())
    | other -> Alcotest.failf "unexpected shape name %S" other
  in
  Alcotest.(check (list string))
    "table order"
    [ "random"; "tree"; "chain"; "star"; "cycle"; "grid"; "clique"; "treeplus" ]
    (List.map fst shapes);
  List.iter
    (fun (name, shape) ->
      Alcotest.(check string) "shape_name round-trips" name (shape_name shape);
      Alcotest.(check bool) "name finds the shape" true (List.assoc name shapes = shape);
      List.iter
        (fun (seed, n) ->
          let n = max n (min_n shape) in
          let rat, log = direct name ~seed ~n in
          Buffer.add_string all rat;
          Buffer.add_string all log;
          let what = Printf.sprintf "%s seed=%d n=%d" name seed n in
          Alcotest.(check string) (what ^ " rat") rat (Qo.Io.dump_rat (R.of_shape ~seed ~n shape));
          Alcotest.(check string) (what ^ " log") log (Qo.Io.dump_log (L.of_shape ~seed ~n shape)))
        [ (1, 1); (3, 3); (7, 7); (42, 12) ])
    shapes;
  Alcotest.(check string)
    "instances digest" "93e5319a3cbcc14e177fc06f07e08815"
    (Digest.to_hex (Digest.string (Buffer.contents all)));
  Alcotest.(check (list int))
    "min_n" [ 1; 1; 1; 1; 3; 1; 1; 1 ]
    (List.map (fun (_, s) -> min_n s) shapes)

let test_explain_render () =
  let inst = Qo.Gen_inst.R.chain ~seed:3 ~n:4 () in
  let p = OR_.dp inst in
  let text = Qo.Explain.Rat.render inst p.OR_.seq in
  Alcotest.(check bool) "mentions every relation" true
    (List.for_all (fun r -> Astring_like.contains text r) [ "R0"; "R1"; "R2"; "R3" ]);
  Alcotest.(check bool) "has total cost line" true (Astring_like.contains text "total cost");
  let s = Qo.Explain.Rat.summary inst p.OR_.seq in
  Alcotest.(check bool) "summary has cost" true (Astring_like.contains s "cost=")

(* -------------------- parallel DP ≡ sequential DP -------------------- *)

(* The subset DP with a pool must be bit-identical to the sequential
   path: same cost, same sequence, in both cost domains. Below
   [dp_parallel_min_n] (19) a pool runs the sequential loop, so the
   properties (n up to 14) pin that dispatch; the cases at n = 19 take
   the layer-parallel path with its multi-chunk layers and settle pass. *)

let gen_big_instance =
  QCheck2.Gen.(
    let* n = int_range 8 14 in
    let* seed = int_range 0 10_000 in
    return (Qo.Gen_inst.R.random ~seed ~n ~p:0.5 ()))

let with_test_pool f = Pool.with_pool ~jobs:4 f

let prop_dp_parallel_equiv_rat =
  QCheck2.Test.make ~name:"parallel dp ≡ sequential dp (rational)" ~count:40 gen_instance
    (fun inst ->
      with_test_pool (fun pool ->
          let s = OR_.dp inst and p = OR_.dp ~pool inst in
          RC.equal s.OR_.cost p.OR_.cost && s.OR_.seq = p.OR_.seq))

let prop_dp_parallel_equiv_rat_big =
  QCheck2.Test.make ~name:"parallel dp ≡ sequential dp (rational, n up to 14)" ~count:8
    gen_big_instance (fun inst ->
      with_test_pool (fun pool ->
          let s = OR_.dp inst and p = OR_.dp ~pool inst in
          RC.equal s.OR_.cost p.OR_.cost && s.OR_.seq = p.OR_.seq))

let prop_dp_nc_parallel_equiv_rat =
  QCheck2.Test.make ~name:"parallel dp_no_cartesian ≡ sequential (rational)" ~count:40
    gen_instance (fun inst ->
      with_test_pool (fun pool ->
          let s = OR_.dp_no_cartesian inst and p = OR_.dp_no_cartesian ~pool inst in
          RC.equal s.OR_.cost p.OR_.cost && s.OR_.seq = p.OR_.seq))

let prop_dp_parallel_equiv_log =
  QCheck2.Test.make ~name:"parallel dp ≡ sequential dp (log domain, n up to 14)" ~count:12
    gen_big_instance (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      with_test_pool (fun pool ->
          let s = OL.dp li and p = OL.dp ~pool li in
          Logreal.compare s.OL.cost p.OL.cost = 0 && s.OL.seq = p.OL.seq))

let test_dp_parallel_at_threshold () =
  let n = OR_.dp_parallel_min_n in
  let li = Qo.Gen_inst.L.clique ~seed:1 ~n () and ri = Qo.Gen_inst.R.random ~seed:1 ~n ~p:0.5 () in
  Pool.with_pool ~jobs:2 (fun pool ->
      let log name (s : OL.plan) (p : OL.plan) =
        Alcotest.(check int64) (name ^ " cost bits")
          (Int64.bits_of_float (Logreal.to_log2 s.OL.cost))
          (Int64.bits_of_float (Logreal.to_log2 p.OL.cost));
        Alcotest.(check (array int)) (name ^ " sequence") s.OL.seq p.OL.seq
      in
      let rat name (s : OR_.plan) (p : OR_.plan) =
        Alcotest.(check bool) (name ^ " cost") true (RC.equal s.OR_.cost p.OR_.cost);
        Alcotest.(check (array int)) (name ^ " sequence") s.OR_.seq p.OR_.seq
      in
      log "log clique dp" (OL.dp li) (OL.dp ~pool li);
      rat "rat random dp" (OR_.dp ri) (OR_.dp ~pool ri);
      rat "rat random dp_no_cartesian" (OR_.dp_no_cartesian ri) (OR_.dp_no_cartesian ~pool ri))

let prop_dp_nc_parallel_equiv_log =
  QCheck2.Test.make ~name:"parallel dp_no_cartesian ≡ sequential (log domain)" ~count:30
    gen_tree_instance (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      with_test_pool (fun pool ->
          let s = OL.dp_no_cartesian li and p = OL.dp_no_cartesian ~pool li in
          Logreal.compare s.OL.cost p.OL.cost = 0 && s.OL.seq = p.OL.seq))

(* ------------- connected-subgraph DP ≡ lattice DP ------------- *)

(* Ccp.dp_connected promises bit-identity with Opt.dp_no_cartesian —
   cost AND sequence, in both cost domains — on every instance, sparse
   or dense, connected or not. n up to 14 exercises multi-layer tables
   well past the toy range. *)

module CCPR = Qo.Instances.Ccp_rat
module CCPL = Qo.Instances.Ccp_log

let gen_connected_sparse =
  QCheck2.Gen.(
    let* n = int_range 2 14 in
    let* seed = int_range 0 10_000 in
    let* extra = int_range 0 3 in
    let m = Stdlib.min (n * (n - 1) / 2) (n - 1 + extra) in
    let g = Graphlib.Gen.random_connected ~seed ~n ~m in
    return (Qo.Gen_inst.R.over_graph ~seed ~graph:g ()))

let prop_ccp_lattice_rat =
  QCheck2.Test.make ~name:"ccp ≡ dp_no_cartesian bit-identical (rational, sparse n≤14)"
    ~count:60 gen_connected_sparse (fun inst ->
      let a = OR_.dp_no_cartesian inst and b = CCPR.dp_connected inst in
      RC.equal a.OR_.cost b.OR_.cost && a.OR_.seq = b.OR_.seq)

let prop_ccp_lattice_log =
  QCheck2.Test.make ~name:"ccp ≡ dp_no_cartesian bit-identical (log domain, sparse n≤14)"
    ~count:60 gen_connected_sparse (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      let a = OL.dp_no_cartesian li and b = CCPL.dp_connected li in
      Logreal.compare a.OL.cost b.OL.cost = 0 && a.OL.seq = b.OL.seq)

let prop_ccp_lattice_gnp =
  QCheck2.Test.make ~name:"ccp ≡ dp_no_cartesian on G(n,p), disconnected included"
    ~count:60 gen_instance (fun inst ->
      let a = OR_.dp_no_cartesian inst and b = CCPR.dp_connected inst in
      (RC.is_finite a.OR_.cost = RC.is_finite b.OR_.cost)
      && ((not (RC.is_finite a.OR_.cost)) || RC.equal a.OR_.cost b.OR_.cost)
      && a.OR_.seq = b.OR_.seq)

let prop_ccp_parallel_equiv =
  QCheck2.Test.make ~name:"parallel ccp ≡ sequential ccp (both domains)" ~count:30
    gen_connected_sparse (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      with_test_pool (fun pool ->
          let sr = CCPR.dp_connected inst and pr = CCPR.dp_connected ~pool inst in
          let sl = CCPL.dp_connected li and pl = CCPL.dp_connected ~pool li in
          RC.equal sr.OR_.cost pr.OR_.cost
          && sr.OR_.seq = pr.OR_.seq
          && Logreal.compare sl.OL.cost pl.OL.cost = 0
          && sl.OL.seq = pl.OL.seq))

let test_ccp_infeasible () =
  (* two components: no cartesian-product-free sequence exists; both
     DPs must agree, and Explain must render the infeasibility instead
     of crashing on seq.(0) *)
  let g = Graphlib.Ugraph.of_edges 4 [ (0, 1); (2, 3) ] in
  let inst = Qo.Gen_inst.R.over_graph ~seed:3 ~graph:g () in
  let a = OR_.dp_no_cartesian inst and b = CCPR.dp_connected inst in
  Alcotest.(check bool) "lattice infeasible" false (RC.is_finite a.OR_.cost);
  Alcotest.(check bool) "ccp infeasible" false (RC.is_finite b.OR_.cost);
  Alcotest.(check int) "lattice seq empty" 0 (Array.length a.OR_.seq);
  Alcotest.(check int) "ccp seq empty" 0 (Array.length b.OR_.seq);
  let rendered = Qo.Explain.Rat.render inst b.OR_.seq in
  Alcotest.(check bool) "render reports infeasibility" true
    (Astring_like.contains rendered "infeasible: no cartesian-product-free join sequence");
  Alcotest.(check bool) "summary reports infeasibility" true
    (Astring_like.contains (Qo.Explain.Rat.summary inst b.OR_.seq) "infeasible")

(* ------------- multi-word subsets + subset convolution ------------- *)

module CVR = Qo.Instances.Conv_rat
module CVL = Qo.Instances.Conv_log

(* The multi-word (Bitset) dp must be bit-identical to the single-word
   dp at every n both admit — including disconnected G(n,p). *)
let prop_ccp_words_equiv =
  QCheck2.Test.make ~name:"multi-word ccp ≡ single-word ccp (both domains)" ~count:40
    gen_connected_sparse (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      let a = CCPR.dp_connected inst and b = CCPR.dp_connected_words inst in
      let al = CCPL.dp_connected li and bl = CCPL.dp_connected_words li in
      RC.equal a.OR_.cost b.OR_.cost
      && a.OR_.seq = b.OR_.seq
      && Logreal.compare al.OL.cost bl.OL.cost = 0
      && al.OL.seq = bl.OL.seq)

let prop_ccp_words_gnp =
  QCheck2.Test.make ~name:"multi-word ccp ≡ single-word ccp on G(n,p), disconnected included"
    ~count:40 gen_instance (fun inst ->
      let a = CCPR.dp_connected inst and b = CCPR.dp_connected_words inst in
      (RC.is_finite a.OR_.cost = RC.is_finite b.OR_.cost)
      && ((not (RC.is_finite a.OR_.cost)) || RC.equal a.OR_.cost b.OR_.cost)
      && a.OR_.seq = b.OR_.seq)

let prop_conv_lattice_rat =
  QCheck2.Test.make ~name:"conv ≡ dp_no_cartesian ≡ ccp bit-identical (rational)" ~count:60
    gen_connected_sparse (fun inst ->
      let a = OR_.dp_no_cartesian inst
      and b = CCPR.dp_connected inst
      and c = CVR.solve inst in
      RC.equal a.OR_.cost c.OR_.cost && a.OR_.seq = c.OR_.seq
      && RC.equal b.OR_.cost c.OR_.cost && b.OR_.seq = c.OR_.seq)

let prop_conv_lattice_log =
  QCheck2.Test.make ~name:"conv ≡ dp_no_cartesian ≡ ccp bit-identical (log domain)" ~count:60
    gen_connected_sparse (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      let a = OL.dp_no_cartesian li and c = CVL.solve li in
      Logreal.compare a.OL.cost c.OL.cost = 0 && a.OL.seq = c.OL.seq)

let prop_conv_gnp =
  QCheck2.Test.make ~name:"conv ≡ dp_no_cartesian on G(n,p), disconnected included" ~count:60
    gen_instance (fun inst ->
      let a = OR_.dp_no_cartesian inst and c = CVR.solve inst in
      (RC.is_finite a.OR_.cost = RC.is_finite c.OR_.cost)
      && ((not (RC.is_finite a.OR_.cost)) || RC.equal a.OR_.cost c.OR_.cost)
      && a.OR_.seq = c.OR_.seq)

let prop_conv_parallel_equiv =
  QCheck2.Test.make ~name:"parallel conv ≡ sequential conv (both domains)" ~count:20
    gen_big_instance (fun inst ->
      let li = Qo.Instances.log_of_rat inst in
      with_test_pool (fun pool ->
          let sr = CVR.solve inst and pr = CVR.solve ~pool inst in
          let sl = CVL.solve li and pl = CVL.solve ~pool li in
          RC.equal sr.OR_.cost pr.OR_.cost
          && sr.OR_.seq = pr.OR_.seq
          && Logreal.compare sl.OL.cost pl.OL.cost = 0
          && sl.OL.seq = pl.OL.seq))

(* The multi-word subset index must spread a chain's intervals: with a
   hash that keeps the low bits of the top word, 1275 of chain n=62's
   1953 subsets share one bucket. Past one word, conv's sparse regime
   builds the same index on longer chains and on a spider of three
   21-vertex legs joined at a hub (n = 64); every solve must also return
   a full-length sequence, the invariant a broken enumeration breaks
   first. *)
let test_ccp_words_buckets () =
  let spider_3x21 =
    Graphlib.Ugraph.of_edges 64
      (List.concat_map
         (fun l ->
           let b = 1 + (21 * l) in
           (0, b) :: List.init 20 (fun i -> (b + i, b + i + 1)))
         [ 0; 1; 2 ])
  in
  let over graph = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
  List.iter
    (fun (lbl, solve, inst) ->
      let (p : OL.plan) = solve inst in
      Alcotest.(check int) (lbl ^ ": full-length sequence") (NL.n inst) (Array.length p.OL.seq);
      match List.assoc_opt "ccp.dp.idx_max_bucket" (Obs.snapshot ()) with
      | None -> Alcotest.failf "%s: ccp.dp.idx_max_bucket not set" lbl
      | Some b -> if b > 8 then Alcotest.failf "%s: max bucket %d > 8" lbl b)
    [
      ("chain n=62", (fun i -> CCPL.dp_connected_words i), Qo.Gen_inst.L.chain ~seed:3 ~n:62 ());
      ("conv chain n=128", (fun i -> CVL.solve i), over (Graphlib.Gen.path 128));
      ("conv spider-3x21", (fun i -> CVL.solve i), over spider_3x21);
      ("conv chain n=192", (fun i -> CVL.solve i), over (Graphlib.Gen.path 192));
    ]

(* Instances straddling the old single-word cap (n = 61) and the
   current one: one word holds n <= 63, its top bit the int's sign bit at
   n = 63, and n = 64 is the first two-word n. Every solver that admits
   the size must produce the identical plan, and on chains (trees) the
   IK ordering cross-checks the optimum cost exactly. *)
let test_cap_straddle () =
  List.iter
    (fun n ->
      let inst = Qo.Gen_inst.R.chain ~seed:11 ~n () in
      let b = CCPR.dp_connected inst in
      let w = CCPR.dp_connected_words inst in
      let c = CVR.solve inst in
      let lbl s = Printf.sprintf "chain n=%d: %s" n s in
      Alcotest.(check rc) (lbl "ccp = conv cost") b.OR_.cost c.OR_.cost;
      Alcotest.(check bool) (lbl "ccp = conv seq") true (b.OR_.seq = c.OR_.seq);
      Alcotest.(check rc) (lbl "word = multi-word cost") b.OR_.cost w.OR_.cost;
      Alcotest.(check bool) (lbl "word = multi-word seq") true (b.OR_.seq = w.OR_.seq);
      let cik, _ = IKR.solve inst in
      Alcotest.(check rc) (lbl "IK cross-check") cik b.OR_.cost;
      Alcotest.(check rc) (lbl "plan evaluates to cost") b.OR_.cost (NR.cost inst b.OR_.seq);
      Alcotest.(check int) (lbl "csg count") (n * (n + 1) / 2) (CCPR.csg_count inst))
    [ 60; 61; 62; 63; 64; 100 ]

(* The lifted ceiling end to end: a chain at n = 128 (well past the old
   61 cap) solved exactly by both the multi-word connected DP and the
   sparse-regime convolution, cross-checked against IK. *)
let test_chain_128 () =
  let n = 128 in
  let inst = Qo.Gen_inst.R.chain ~seed:5 ~n () in
  let b = CCPR.dp_connected inst in
  let c = CVR.solve inst in
  Alcotest.(check int) "full-length sequence" n (Array.length b.OR_.seq);
  Alcotest.(check rc) "ccp = conv cost" b.OR_.cost c.OR_.cost;
  Alcotest.(check bool) "ccp = conv seq" true (b.OR_.seq = c.OR_.seq);
  let cik, _ = IKR.solve inst in
  Alcotest.(check rc) "IK cross-check at n=128" cik b.OR_.cost;
  Alcotest.(check int) "csg count at n=128" (n * (n + 1) / 2) (CCPR.csg_count inst)

(* ccp against an interval DP that shares no code with it
   ([Reference.Chain_dp]), bit for bit in both domains: across the
   one-word / multi-word boundary (63 / 64) up to max_ccp_n = 256, on the
   benchmark's exact chain instances, and with vertex 255 (the value of
   the one-byte parent markers ccp once used) joining last. *)
module ChainR = Reference.Chain_dp (Qo.Rat_cost)
module ChainL = Reference.Chain_dp (Qo.Log_cost)

let bits c = Int64.bits_of_float (Logreal.to_log2 c)

let check_chain_log lbl li =
  let b = CCPL.dp_connected li and rc, rs = ChainL.solve li in
  Alcotest.(check int64) (lbl ^ ": log cost bits") (bits rc) (bits b.OL.cost);
  Alcotest.(check (array int)) (lbl ^ ": log seq") rs b.OL.seq

let check_chain lbl inst =
  let b = CCPR.dp_connected inst and rcost, rs = ChainR.solve inst in
  Alcotest.(check rc) (lbl ^ ": rat cost") rcost b.OR_.cost;
  Alcotest.(check (array int)) (lbl ^ ": rat seq") rs b.OR_.seq;
  check_chain_log lbl (Qo.Instances.log_of_rat inst)

let test_chain_reference () =
  List.iter
    (fun n ->
      check_chain (Printf.sprintf "chain n=%d" n) (Qo.Gen_inst.R.chain ~seed:7 ~n ());
      check_chain_log (Printf.sprintf "log chain n=%d" n) (Qo.Gen_inst.L.chain ~seed:7 ~n ()))
    [ 61; 62; 63; 64; 100; 128; 256 ];
  (* the benchmark's solve_large chains, seeds 1-3 *)
  List.iter
    (fun (n, s) ->
      check_chain_log (Printf.sprintf "bench chain n=%d seed=%d" n s) (Qo.Gen_inst.L.chain ~seed:(s + n) ~n ()))
    [ (61, 1); (61, 2); (61, 3); (62, 1); (62, 2); (62, 3) ];
  (* a relation 2^400 times larger joins last: its row of access costs
     scales with it, so the instance stays valid *)
  let inst = Qo.Gen_inst.R.chain ~seed:7 ~n:256 () in
  let f = RC.of_bigq (Bignum.Bigq.of_bigint (Bignum.Bigint.pow (Bignum.Bigint.of_int 2) 400)) in
  let sizes = Array.copy inst.NR.sizes and w = Array.map Array.copy inst.NR.w in
  sizes.(255) <- RC.mul sizes.(255) f;
  w.(255) <- Array.map (RC.mul f) w.(255);
  let inst = NR.make ~graph:inst.NR.graph ~sel:inst.NR.sel ~sizes ~w in
  Alcotest.(check int) "vertex 255 joins last" 255 (CCPR.dp_connected inst).OR_.seq.(255);
  check_chain "chain n=256, 255 last" inst

(* dense graphs, where nearly every subset is connected: ccp's hashed
   connected-subset table against conv's lattice sweep, bit for bit *)
let test_ccp_conv_dense () =
  List.iter
    (fun (lbl, graph) ->
      let inst = Qo.Gen_inst.L.over_graph ~seed:11 ~graph () in
      let a = CCPL.dp_connected inst and c = CVL.solve inst in
      Alcotest.(check int64) (lbl ^ ": cost bits") (bits c.OL.cost) (bits a.OL.cost);
      Alcotest.(check (array int)) (lbl ^ ": seq") c.OL.seq a.OL.seq)
    [
      ("clique n=14", Graphlib.Ugraph.complete 14);
      ("clique n=16", Graphlib.Ugraph.complete 16);
      ("clique n=18", Graphlib.Ugraph.complete 18);
      ("gnp n=16 p=0.8", Graphlib.Gen.gnp ~seed:7 ~n:16 ~p:0.8);
    ]

(* tables filled layer-parallel at jobs 2, in both domains, on chains
   and on a three-legged spider (a tree whose connected subsets stay
   polynomial; its legs interleave, so every word of a set carries
   members): one word with the sign bit in use (n = 63), the first two
   words (n = 64), and beyond *)
let spider n =
  Graphlib.Ugraph.of_edges n (List.init (n - 1) (fun i -> ((if i < 3 then 0 else i - 2), i + 1)))

let test_ccp_parallel_multiword () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (lbl, graph) ->
          let inst = Qo.Gen_inst.R.over_graph ~seed:5 ~graph () in
          let li = Qo.Instances.log_of_rat inst in
          List.iter
            (fun (name, solve_r, solve_l) ->
              let sr = solve_r ?pool:None inst and pr = solve_r ?pool:(Some pool) inst in
              let sl = solve_l ?pool:None li and pl = solve_l ?pool:(Some pool) li in
              Alcotest.(check rc) (lbl ^ " " ^ name ^ ": rat cost") sr.OR_.cost pr.OR_.cost;
              Alcotest.(check (array int)) (lbl ^ " " ^ name ^ ": rat seq") sr.OR_.seq pr.OR_.seq;
              Alcotest.(check int64) (lbl ^ " " ^ name ^ ": log cost bits") (bits sl.OL.cost) (bits pl.OL.cost);
              Alcotest.(check (array int)) (lbl ^ " " ^ name ^ ": log seq") sl.OL.seq pl.OL.seq)
            [
              ("dp_connected", CCPR.dp_connected, CCPL.dp_connected);
              ("dp_connected_words", CCPR.dp_connected_words, CCPL.dp_connected_words);
            ])
        [
          ("chain n=62", Graphlib.Gen.path 62);
          ("chain n=63", Graphlib.Gen.path 63);
          ("chain n=64", Graphlib.Gen.path 64);
          ("chain n=80", Graphlib.Gen.path 80);
          ("spider n=62", spider 62);
          ("spider n=63", spider 63);
          ("spider n=80", spider 80);
        ])

(* a disconnected multi-word graph has no cartesian-free plan *)
let test_ccp_infeasible_multiword () =
  let g = Graphlib.Ugraph.of_edges 70 (List.init 68 (fun i -> if i < 34 then (i, i + 1) else (i + 1, i + 2))) in
  Alcotest.(check int) "two components" 68 (Graphlib.Ugraph.edge_count g);
  let inst = Qo.Gen_inst.R.over_graph ~seed:3 ~graph:g () in
  let li = Qo.Instances.log_of_rat inst in
  List.iter
    (fun (name, (r : OR_.plan), (l : OL.plan)) ->
      Alcotest.(check bool) (name ^ ": rat infinite") false (RC.is_finite r.OR_.cost);
      Alcotest.(check (array int)) (name ^ ": rat seq empty") [||] r.OR_.seq;
      Alcotest.(check bool) (name ^ ": log infinite") true (l.OL.cost = Logreal.infinity);
      Alcotest.(check (array int)) (name ^ ": log seq empty") [||] l.OL.seq)
    [
      ("dp_connected", CCPR.dp_connected inst, CCPL.dp_connected li);
      ("dp_connected_words", CCPR.dp_connected_words inst, CCPL.dp_connected_words li);
    ]

(* the counters: a chain of n relations has n(n+1)/2 connected subsets
   and n(n-1) transitions (each interval of two or more has its two
   ends), and the index is probed about once per transition, not once
   per member of every subset *)
let test_ccp_counters () =
  let count snap name = Option.value ~default:0 (List.assoc_opt name snap) in
  List.iter
    (fun n ->
      let before = Obs.snapshot () in
      ignore (CCPL.dp_connected (Qo.Gen_inst.L.chain ~seed:1 ~n ()));
      let d = Obs.diff before (Obs.snapshot ()) in
      let subsets = count d "ccp.dp.subsets_enumerated" and trans = count d "ccp.dp.transitions" in
      let probes = count d "ccp.dp.index_probes" in
      let lbl = Printf.sprintf "chain n=%d" n in
      Alcotest.(check int) (lbl ^ ": subsets") (n * (n + 1) / 2) subsets;
      Alcotest.(check int) (lbl ^ ": transitions") (n * (n - 1)) trans;
      if not (probes > 0 && probes < trans + (2 * subsets)) then
        Alcotest.failf "%s: %d probes, %d transitions, %d subsets" lbl probes trans subsets)
    [ 2; 20; 61; 62; 100 ]

(* csg_count_bounded: [None] means exactly "over budget" or "over the
   n cap" — a negative limit is a caller bug and raises, instead of
   masquerading as budget exhaustion (the old conflation). *)
let test_csg_count_bounded () =
  let chain n = Qo.Gen_inst.R.over_graph ~seed:1 ~graph:(Graphlib.Gen.path n) () in
  let inst = chain 20 in
  (* exact boundary: 210 connected subsets on a 20-chain *)
  Alcotest.(check (option int)) "at the boundary" (Some 210)
    (CCPR.csg_count_bounded ~limit:210 inst);
  Alcotest.(check (option int)) "one below" None (CCPR.csg_count_bounded ~limit:209 inst);
  Alcotest.(check (option int)) "zero limit" None (CCPR.csg_count_bounded ~limit:0 inst);
  Alcotest.(check (option int)) "generous limit" (Some 210)
    (CCPR.csg_count_bounded ~limit:max_int inst);
  Alcotest.check_raises "negative limit raises"
    (Invalid_argument "Ccp.csg_count_bounded: negative limit -1") (fun () ->
      ignore (CCPR.csg_count_bounded ~limit:(-1) inst));
  Alcotest.check_raises "negative limit raises even above the cap"
    (Invalid_argument "Ccp.csg_count_bounded: negative limit -7") (fun () ->
      ignore (CCPR.csg_count_bounded ~limit:(-7) (chain 300)));
  (* above max_ccp_n: still None (dp_connected would refuse) *)
  Alcotest.(check (option int)) "above the n cap" None
    (CCPR.csg_count_bounded ~limit:max_int (chain 300));
  (* multi-word path (n > 61) honors the same contract *)
  let c100 = chain 100 in
  Alcotest.(check (option int)) "multi-word at the boundary" (Some 5050)
    (CCPR.csg_count_bounded ~limit:5050 c100);
  Alcotest.(check (option int)) "multi-word over budget" None
    (CCPR.csg_count_bounded ~limit:5049 c100);
  Alcotest.(check int) "multi-word csg_count" 5050 (CCPR.csg_count c100)

let test_csg_count () =
  let count g = CCPR.csg_count (Qo.Gen_inst.R.over_graph ~seed:1 ~graph:g ()) in
  (* chain: one connected set per (start, length) pair *)
  Alcotest.(check int) "path 20" (20 * 21 / 2) (count (Graphlib.Gen.path 20));
  (* star: any set containing the center, or a singleton leaf *)
  Alcotest.(check int) "star 5" ((1 lsl 5) + 5) (count (Graphlib.Gen.star 5));
  (* complete graph: every nonempty subset is connected *)
  Alcotest.(check int) "K4" 15 (count (Graphlib.Ugraph.complete 4));
  (* cycle: full set + n arcs of each length 1..n-1 *)
  Alcotest.(check int) "cycle 6" (1 + (6 * 5)) (count (Graphlib.Gen.cycle 6))

(* -------------------- Io round trips -------------------- *)

let prop_io_rat_roundtrip =
  QCheck2.Test.make ~name:"rational instance file round-trip preserves optimum" ~count:40
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 5000))
    (fun (n, seed) ->
      let inst = Qo.Gen_inst.R.random ~seed ~n ~p:0.5 () in
      let inst' = Qo.Io.parse_rat (Qo.Io.dump_rat inst) in
      Qo.Rat_cost.equal (OR_.dp inst).OR_.cost (OR_.dp inst').OR_.cost
      && Graphlib.Ugraph.equal inst.NR.graph inst'.NR.graph)

let prop_io_log_roundtrip =
  QCheck2.Test.make ~name:"log instance file round-trip preserves costs" ~count:40
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 5000))
    (fun (n, seed) ->
      let inst = Qo.Gen_inst.L.random ~seed ~n ~p:0.5 () in
      let inst' = Qo.Io.parse_log (Qo.Io.dump_log inst) in
      let z = Array.init n (fun i -> i) in
      Logreal.approx_equal ~tol:1e-9 (NL.cost inst z) (NL.cost inst' z))

(* save/load through an actual file: the loaded instance must re-dump
   to the identical byte string (scalar formatting is canonical in both
   domains: exact rationals, 2^%.17g exponents). *)
let with_temp_file f =
  let path = Filename.temp_file "qopt_test" ".qon" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let prop_io_rat_file_roundtrip =
  QCheck2.Test.make ~name:"save_rat/load_rat file round-trip is byte-exact" ~count:25
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 5000))
    (fun (n, seed) ->
      let inst = Qo.Gen_inst.R.random ~seed ~n ~p:0.5 () in
      with_temp_file (fun path ->
          Qo.Io.save_rat path inst;
          Qo.Io.dump_rat (Qo.Io.load_rat path) = Qo.Io.dump_rat inst))

let prop_io_log_file_roundtrip =
  QCheck2.Test.make ~name:"save_log/load_log file round-trip is byte-exact" ~count:25
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 5000))
    (fun (n, seed) ->
      let inst = Qo.Gen_inst.L.random ~seed ~n ~p:0.5 () in
      with_temp_file (fun path ->
          Qo.Io.save_log path inst;
          Qo.Io.dump_log (Qo.Io.load_log path) = Qo.Io.dump_log inst))

(* Extreme scalars: huge/tiny log exponents, full-17-digit mantissas,
   big rational numerators, and w at its exact bounds (t*s and t) must
   all survive the file format losslessly. *)
let test_io_extremes () =
  let lg = Graphlib.Ugraph.of_edges 2 [ (0, 1) ] in
  (* log domain: exponents at ±1e9 and floats needing all 17 digits *)
  let t0 = Logreal.of_log2 1e9 and t1 = Logreal.of_log2 (-1e9) in
  let s = Logreal.of_float 0.1 in
  let sel = [| [| Logreal.one; s |]; [| s; Logreal.one |] |] in
  let sizes = [| t0; t1 |] in
  (* w_01 at the lower bound t*s exactly; w_10 at the upper bound t *)
  let w = [| [| t0; Logreal.mul t0 s |]; [| t1; t1 |] |] in
  let module L = Qo.Instances.Nl_log in
  let inst = L.make ~graph:lg ~sel ~sizes ~w in
  with_temp_file (fun path ->
      Qo.Io.save_log path inst;
      let inst' = Qo.Io.load_log path in
      Alcotest.(check string) "log dump byte-exact" (Qo.Io.dump_log inst)
        (Qo.Io.dump_log inst');
      (* bit-exact exponents, not just approx *)
      Alcotest.(check bool) "sizes bit-exact" true
        (Logreal.to_log2 inst'.L.sizes.(0) = 1e9 && Logreal.to_log2 inst'.L.sizes.(1) = -1e9);
      Alcotest.(check bool) "sel bit-exact" true
        (Logreal.compare inst'.L.sel.(0).(1) s = 0);
      Alcotest.(check bool) "w boundary bit-exact" true
        (Logreal.compare inst'.L.w.(0).(1) (Logreal.mul t0 s) = 0
        && Logreal.compare inst'.L.w.(1).(0) t1 = 0));
  (* rational domain: numerators far past 2^63, w on its exact bounds *)
  let big = RC.of_bigq (Bignum.Bigq.of_string "123456789012345678901234567890123456789") in
  let tiny = RC.of_bigq (Bignum.Bigq.of_string "1/987654321987654321987654321") in
  let sel_r = [| [| RC.one; tiny |]; [| tiny; RC.one |] |] in
  let sizes_r = [| big; RC.of_int 7 |] in
  let w_r = [| [| RC.zero; RC.mul big tiny |]; [| RC.of_int 7; RC.zero |] |] in
  let inst_r = NR.make ~graph:lg ~sel:sel_r ~sizes:sizes_r ~w:w_r in
  with_temp_file (fun path ->
      Qo.Io.save_rat path inst_r;
      let inst' = Qo.Io.load_rat path in
      Alcotest.(check string) "rat dump byte-exact" (Qo.Io.dump_rat inst_r)
        (Qo.Io.dump_rat inst');
      Alcotest.(check rc) "big size exact" big inst'.NR.sizes.(0);
      Alcotest.(check rc) "w at t*s bound exact" (RC.mul big tiny) inst'.NR.w.(0).(1))

let test_io_errors () =
  Alcotest.check_raises "bad line" (Invalid_argument "Qo.Io.parse: line 2: unrecognized \"junk\"")
    (fun () -> ignore (Qo.Io.parse_rat "qon 1\njunk\n"));
  Alcotest.check_raises "missing n" (Invalid_argument "Qo.Io.parse: missing or invalid n")
    (fun () -> ignore (Qo.Io.parse_rat "qon 1\n"))

(* Malformed files must fail with a Qo.Io.parse error, never an array
   bounds crash; every rejection below used to either crash [build] or
   silently corrupt the instance. *)
let test_io_malformed () =
  let base =
    "qon 1\nn 3\nsize 0 10\nsize 1 10\nsize 2 10\n\
     edge 0 1 sel 1/2 wij 5 wji 5\n"
  in
  let expect_parse_error name text =
    match Qo.Io.parse_rat text with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (name ^ ": error is a parse error (" ^ msg ^ ")")
          true
          (String.length msg >= 12 && String.sub msg 0 12 = "Qo.Io.parse:")
    | _ -> Alcotest.fail (name ^ ": malformed input accepted")
  in
  (* out-of-range / self-loop edges crashed with Index out of bounds *)
  expect_parse_error "edge endpoint out of range" (base ^ "edge 0 99 sel 1/2 wij 5 wji 5\n");
  expect_parse_error "negative endpoint" (base ^ "edge -1 2 sel 1/2 wij 5 wji 5\n");
  expect_parse_error "self-loop edge" (base ^ "edge 2 2 sel 1/2 wij 5 wji 5\n");
  expect_parse_error "duplicate edge" (base ^ "edge 1 0 sel 1/2 wij 5 wji 5\n");
  (* duplicate size lines defeated the size-count check *)
  expect_parse_error "duplicate size line" (base ^ "size 1 20\n");
  expect_parse_error "size vertex out of range" ("qon 1\nn 2\nsize 0 10\nsize 7 10\n");
  expect_parse_error "missing header" "n 2\nsize 0 10\nsize 1 10\n";
  expect_parse_error "unsupported version" "qon 2\nn 2\nsize 0 10\nsize 1 10\n";
  (* a second header used to be silently accepted, as was a header
     arriving after data lines — both now fail with the line number *)
  Alcotest.check_raises "duplicate header"
    (Invalid_argument "Qo.Io.parse: line 7: duplicate \"qon 1\" header") (fun () ->
      ignore (Qo.Io.parse_rat (base ^ "qon 1\n")));
  Alcotest.check_raises "header after data"
    (Invalid_argument "Qo.Io.parse: line 1: data line before the \"qon 1\" header") (fun () ->
      ignore (Qo.Io.parse_rat "n 3\nqon 1\nsize 0 10\nsize 1 10\nsize 2 10\n"));
  expect_parse_error "duplicate n" (base ^ "n 3\n");
  expect_parse_error "bad integer" "qon 1\nn x\n";
  expect_parse_error "bad scalar" "qon 1\nn 1\nsize 0 banana\n";
  (* the well-formed base still parses *)
  Alcotest.(check int) "well-formed base parses" 3 (Qo.Io.parse_rat base).NR.n

(* Regression: a hostile "n" line used to reach Array.make unchecked —
   "n 99999999999" was an OOM kill / Out_of_memory crash instead of a
   parse error, and "n 0"/"n -3" corrupted downstream checks. The
   declared count is now validated against Io.max_parse_n before any
   allocation. *)
let test_io_hostile_n () =
  let expect_parse_error name text =
    match Qo.Io.parse_rat text with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (name ^ ": error is a parse error (" ^ msg ^ ")")
          true
          (String.length msg >= 12 && String.sub msg 0 12 = "Qo.Io.parse:")
    | _ -> Alcotest.fail (name ^ ": hostile n accepted")
  in
  expect_parse_error "huge n" "qon 1\nn 99999999999\nsize 0 10\n";
  expect_parse_error "n just above the cap"
    (Printf.sprintf "qon 1\nn %d\n" (Qo.Io.max_parse_n + 1));
  expect_parse_error "zero n" "qon 1\nn 0\nsize 0 10\n";
  expect_parse_error "negative n" "qon 1\nn -3\n";
  (* the rejection carries the line number and the cap *)
  Alcotest.check_raises "range message"
    (Invalid_argument
       (Printf.sprintf "Qo.Io.parse: line 2: n 99999999999 out of range [1,%d]"
          Qo.Io.max_parse_n))
    (fun () -> ignore (Qo.Io.parse_rat "qon 1\nn 99999999999\n"))

(* Regression: [scalar_of] used to catch [with _], so a pathological
   literal that blew past the parser with Out_of_memory/Stack_overflow
   would be misreported as "invalid scalar" (or worse, swallowed). It
   now catches only Failure/Invalid_argument; a long-but-valid literal
   parses exactly and a long-but-junk one is a line-numbered error. *)
let test_io_long_scalar () =
  let digits = String.make 4000 '9' in
  let text = "qon 1\nn 1\nsize 0 " ^ digits ^ "/7\n" in
  let inst = Qo.Io.parse_rat text in
  Alcotest.(check string) "4000-digit rational round-trips byte-exact"
    (Qo.Io.dump_rat inst)
    (Qo.Io.dump_rat (Qo.Io.parse_rat (Qo.Io.dump_rat inst)));
  match Qo.Io.parse_rat ("qon 1\nn 1\nsize 0 " ^ digits ^ "x\n") with
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        ("long junk literal is a line-3 parse error (" ^ String.sub msg 0 30 ^ "...)")
        true
        (String.length msg >= 27 && String.sub msg 0 27 = "Qo.Io.parse: line 3: invali")
  | _ -> Alcotest.fail "long junk literal accepted"

(* Regression: the log-domain scalar reader accepted non-finite input —
   "2^nan" became a NaN exponent that silently poisoned every cost
   comparison downstream (NaN compares false with everything), and
   "inf"/"2^inf" built instances no optimizer could rank. All
   non-finite scalars are now line-numbered parse errors in the log
   domain; the rational domain keeps its documented "inf". *)
let test_io_nonfinite_log () =
  let line3 payload = "qon 1\nn 2\nsize 0 " ^ payload ^ "\nsize 1 2^4\n" in
  let expect_rejected payload =
    Alcotest.check_raises ("log rejects " ^ payload)
      (Invalid_argument (Printf.sprintf "Qo.Io.parse: line 3: invalid scalar %S" payload))
      (fun () -> ignore (Qo.Io.parse_log (line3 payload)))
  in
  expect_rejected "nan";
  expect_rejected "2^nan";
  expect_rejected "inf";
  expect_rejected "2^inf";
  expect_rejected "-inf";
  (* finite log scalars still parse and round-trip *)
  let ok =
    "qon 1\nn 2\nsize 0 2^3\nsize 1 2^4\nedge 0 1 sel 2^-1 wij 2^2 wji 2^3\n"
  in
  let inst = Qo.Io.parse_log ok in
  Alcotest.(check string) "finite log instance round-trips"
    (Qo.Io.dump_log inst)
    (Qo.Io.dump_log (Qo.Io.parse_log (Qo.Io.dump_log inst)));
  (* the rational domain's documented "inf" is untouched *)
  let rat = Qo.Io.parse_rat "qon 1\nn 1\nsize 0 inf\n" in
  Alcotest.(check bool) "rat inf still accepted" false
    (RC.is_finite rat.NR.sizes.(0))

(* ---------------- iterative improvement: move neighborhood ---------------- *)

(* [apply_move] semantics: remove position i, reinsert at j, in both
   directions; applying the inverse restores the array. *)
let test_apply_move () =
  let check_arr name expected actual =
    Alcotest.(check (array int)) name expected actual
  in
  let a = [| 0; 1; 2; 3; 4 |] in
  OR_.apply_move a 1 3;
  check_arr "forward move" [| 0; 2; 3; 1; 4 |] a;
  OR_.apply_move a 3 1;
  check_arr "inverse restores" [| 0; 1; 2; 3; 4 |] a;
  OR_.apply_move a 4 0;
  check_arr "backward move" [| 4; 0; 1; 2; 3 |] a;
  OR_.apply_move a 0 4;
  check_arr "inverse restores again" [| 0; 1; 2; 3; 4 |] a;
  OR_.apply_move a 2 2;
  check_arr "no-op move" [| 0; 1; 2; 3; 4 |] a

(* Same seed, same plan — the move/swap mix draws from the seeded state
   only, so II stays reproducible. *)
let prop_ii_deterministic =
  QCheck2.Test.make ~name:"iterative_improvement is seed-deterministic" ~count:30
    gen_instance (fun inst ->
      let p1 = OR_.iterative_improvement ~seed:42 inst in
      let p2 = OR_.iterative_improvement ~seed:42 inst in
      RC.equal p1.OR_.cost p2.OR_.cost && p1.OR_.seq = p2.OR_.seq)

(* II explores moves and swaps but must always return a valid
   permutation whose cost is consistent and bounded below by the DP
   optimum. *)
let prop_ii_valid_and_bounded =
  QCheck2.Test.make ~name:"iterative_improvement: valid permutation, cost >= dp" ~count:30
    gen_instance (fun inst ->
      let p = OR_.iterative_improvement ~seed:7 inst in
      let n = NR.n inst in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p.OR_.seq;
      Array.length p.OR_.seq = n
      && Array.for_all Fun.id seen
      && RC.equal p.OR_.cost (NR.cost inst p.OR_.seq)
      && RC.compare (OR_.dp inst).OR_.cost p.OR_.cost <= 0)

(* ------------- certified key filter ≡ all-exact lattice ------------- *)

(* The lattice DP with every candidate priced in the exact domain:
   lowest-bit-first sizes, ascending candidate scan, first strict
   improvement. The reference the key-filtered kernels must match bit
   for bit, in both domains. *)
module Exact_ref (C : Qo.Cost.S) = struct
  module I = Qo.Nl.Make (C)

  let dp ~no_cartesian (inst : I.t) =
    let n = I.n inst and has = Graphlib.Ugraph.has_edge inst.I.graph in
    let full = (1 lsl n) - 1 in
    let bits s = List.filter (fun v -> s land (1 lsl v) <> 0) (List.init n Fun.id) in
    let sizes = Array.make (full + 1) C.one in
    let dp = Array.make (full + 1) C.infinity and parent = Array.make (full + 1) (-1) in
    for s = 1 to full do
      let v = List.hd (bits s) in
      let rest = s lxor (1 lsl v) in
      sizes.(s) <-
        List.fold_left
          (fun acc u -> if has v u then C.mul acc inst.I.sel.(v).(u) else acc)
          (C.mul sizes.(rest) inst.I.sizes.(v))
          (bits rest);
      if rest = 0 then begin
        dp.(s) <- C.zero;
        parent.(s) <- v
      end
      else
        List.iter
          (fun j ->
            let rest = s lxor (1 lsl j) in
            if ((not no_cartesian) || List.exists (has j) (bits rest)) && C.is_finite dp.(rest)
            then begin
              let w =
                List.fold_left
                  (fun b k -> if C.compare inst.I.w.(j).(k) b < 0 then inst.I.w.(j).(k) else b)
                  C.infinity (bits rest)
              in
              let cand = C.add dp.(rest) (C.mul sizes.(rest) w) in
              if C.compare cand dp.(s) < 0 then begin
                dp.(s) <- cand;
                parent.(s) <- j
              end
            end)
          (bits s)
    done;
    if not (C.is_finite dp.(full)) then (C.infinity, [||])
    else begin
      let seq = Array.make n (-1) and s = ref full in
      for pos = n - 1 downto 0 do
        seq.(pos) <- parent.(!s);
        s := !s lxor (1 lsl parent.(!s))
      done;
      (dp.(full), seq)
    end
end

module Ref_rat = Exact_ref (Qo.Rat_cost)
module Ref_log = Exact_ref (Qo.Log_cost)

(* log-domain dp, dp_no_cartesian, conv and ccp against the reference,
   cost (bit for bit) AND sequence *)
let log_agrees li =
  let l_all = Ref_log.dp ~no_cartesian:false li and l_cf = Ref_log.dp ~no_cartesian:true li in
  let log (p : OL.plan) (c, s) =
    Int64.equal
      (Int64.bits_of_float (Logreal.to_log2 p.OL.cost))
      (Int64.bits_of_float (Logreal.to_log2 c))
    && p.OL.seq = s
  in
  log (OL.dp li) l_all
  && log (OL.dp_no_cartesian li) l_cf
  && log (CVL.solve li) l_cf
  && log (CCPL.dp_connected li) l_cf

(* the same in the rational domain, then (via [log_of_rat]) in the log
   domain *)
let filter_agrees inst =
  let r_all = Ref_rat.dp ~no_cartesian:false inst and r_cf = Ref_rat.dp ~no_cartesian:true inst in
  let rat (p : OR_.plan) (c, s) = RC.equal p.OR_.cost c && p.OR_.seq = s in
  rat (OR_.dp inst) r_all
  && rat (OR_.dp_no_cartesian inst) r_cf
  && rat (CVR.solve inst) r_cf
  && rat (CCPR.dp_connected inst) r_cf
  && log_agrees (Qo.Instances.log_of_rat inst)

let gen_shape_instance =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let* seed = int_range 0 10_000 in
    let* shape = int_bound 5 in
    let module G = Qo.Gen_inst.R in
    return
      (match shape with
      | 0 -> G.random ~seed ~n ~p:0.5 ()
      | 1 -> G.chain ~seed ~n ()
      | 2 -> G.star ~seed ~satellites:(n - 1) ()
      | 3 -> G.clique ~seed ~n ()
      | 4 -> G.tree_plus ~seed ~n ~extra:2 ()
      | _ -> G.random ~seed ~n ~p:0.7 ~max_size:3 ~max_inv_sel:2 ()))

(* f_N-style uniform instances: every size, selectivity and access cost
   equal, so nearly every subset's candidates tie exactly *)
let gen_tie_instance =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let* seed = int_range 0 10_000 in
    let* p = float_range 0.3 1.0 in
    let* t = int_range 2 64 in
    let* inv_s = int_range 1 8 in
    let* w = int_range 1 64 in
    let size = RC.of_int t and edge_sel = RC.of_ints 1 inv_s in
    let edge_w = RC.min size (RC.max (RC.mul size edge_sel) (RC.of_int w)) in
    return (NR.uniform ~graph:(Graphlib.Gen.gnp ~seed ~n ~p) ~size ~edge_sel ~edge_w))

(* a positive rational with up to [digits]-digit numerator and
   denominator *)
let big_rat st digits =
  let num () =
    Bignum.Bigint.of_string
      (String.init (1 + Random.State.int st digits) (fun i ->
           Char.chr (Char.code '0' + if i = 0 then 1 + Random.State.int st 9 else Random.State.int st 10)))
  in
  Bignum.Bigq.make (num ()) (num ())

(* corpus-style extreme scalars: 30-digit sizes, selectivities and
   access costs anywhere in [t s, t] *)
let extreme_instance ~seed ~n =
  let st = Random.State.make [| seed; 30 |] in
  let g = Graphlib.Gen.gnp ~seed ~n ~p:0.6 in
  let q x = RC.of_bigq x in
  let sizes = Array.init n (fun _ -> q (big_rat st 30)) in
  let sel = Array.make_matrix n n RC.one and w = Array.make_matrix n n RC.zero in
  List.iter
    (fun (i, j) ->
      let a = big_rat st 30 and b = big_rat st 30 in
      let s = q (Bignum.Bigq.div (Bignum.Bigq.min a b) (Bignum.Bigq.max a b)) in
      sel.(i).(j) <- s;
      sel.(j).(i) <- s)
    (Graphlib.Ugraph.edges g);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        if Graphlib.Ugraph.has_edge g i j then begin
          let lo = RC.mul sizes.(i) sel.(i).(j) and a = big_rat st 30 and b = big_rat st 30 in
          let frac = q (Bignum.Bigq.div (Bignum.Bigq.min a b) (Bignum.Bigq.max a b)) in
          w.(i).(j) <- RC.add lo (RC.mul frac (RC.sub sizes.(i) lo))
        end
        else w.(i).(j) <- sizes.(i)
    done
  done;
  NR.make ~graph:g ~sel ~sizes ~w

let gen_extreme_instance =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* seed = int_range 0 10_000 in
    return (extreme_instance ~seed ~n))

let prop_filter_shapes =
  QCheck2.Test.make ~name:"filtered dp/dp_nc/conv/ccp ≡ all-exact reference (shapes, n ≤ 10)"
    ~count:60 gen_shape_instance filter_agrees

let prop_filter_ties =
  QCheck2.Test.make ~name:"filtered kernels ≡ all-exact reference (uniform f_N-style ties)"
    ~count:60 gen_tie_instance filter_agrees

let prop_filter_extreme =
  QCheck2.Test.make ~name:"filtered kernels ≡ all-exact reference (30-digit rationals)"
    ~count:30 gen_extreme_instance filter_agrees

(* log-native instances: float-drawn cliques, whose candidates can come
   within 1e-16 of each other in log2 (seen at n = 16), and the paper's
   f_N over planted cliques, whose exact ties share one pair of summand
   keys *)
let prop_filter_log_clique =
  QCheck2.Test.make ~name:"filtered log kernels ≡ all-exact reference (log cliques, n ≤ 11)" ~count:25
    QCheck2.Gen.(pair (int_range 2 11) (int_range 0 10_000))
    (fun (n, seed) -> log_agrees (Qo.Gen_inst.L.clique ~seed ~n ()))

let prop_filter_fn =
  QCheck2.Test.make ~name:"filtered log kernels ≡ all-exact reference (f_N on planted cliques)" ~count:25
    QCheck2.Gen.(
      let* n = int_range 3 11 in
      let* k = int_range 2 n in
      let* seed = int_range 0 10_000 in
      let* p = float_range 0.2 0.9 in
      let* log2_a = oneofl [ 2.0; 4.0; 8.0 ] in
      return (n, k, seed, p, log2_a))
    (fun (n, k, seed, p, log2_a) ->
      let graph = Graphlib.Gen.planted_clique ~seed ~n ~k ~p in
      let c = float_of_int k /. float_of_int n in
      log_agrees (Reductions.Fn.reduce ~graph ~c ~d:(c /. 2.0) ~log2_a).Reductions.Fn.instance)

(* log2 of a positive rational from its top 60 bits: exact exponent,
   mantissa in [1, 2), so only two roundings of the final sum *)
let ref_log2 q =
  let nat_log2 x =
    let b = Bignum.Bignat.num_bits x in
    let shift = Stdlib.max 0 (b - 60) in
    let top = Bignum.Bignat.to_int_exn (Bignum.Bignat.shift_right x shift) in
    let e = Bignum.Bignat.num_bits (Bignum.Bignat.of_int top) - 1 in
    float_of_int (shift + e) +. Float.log2 (Float.ldexp (float_of_int top) (-e))
  in
  let num = Option.get (Bignum.Bigint.to_nat_opt (Bignum.Bigq.num q)) in
  nat_log2 num -. nat_log2 (Bignum.Bigq.den q)

(* the exact binary value of a float, as a rational *)
let bigq_of_float f =
  let m, e = Float.frexp f in
  let mant = Bignum.Bigq.of_int (Int64.to_int (Int64.of_float (Float.ldexp m 53))) in
  let two_pow k = Bignum.Bigq.pow (Bignum.Bigq.of_int 2) k in
  Bignum.Bigq.mul mant (two_pow (e - 53))

let key_within_slack q =
  let x = RC.of_bigq q in
  Float.abs (RC.to_log2 x -. ref_log2 q) <= RC.key_slack x

let test_key_slack_band_edges () =
  (* the edges of the %.17g bands: extremes of the float range, the
     first integers floats cannot hold, and the neighbours of 1 *)
  let floats =
    [ Float.max_float; Float.min_float; 4.9406564584124654e-324; 9007199254740992.;
      9007199254740994.; 0.1; 0.30000000000000004; Float.pred 1.0; Float.succ 1.0; 1e300; 1e-300 ]
  in
  List.iter
    (fun f ->
      let q = bigq_of_float f in
      Alcotest.(check bool) (Printf.sprintf "%.17g key within slack" f) true (key_within_slack q);
      let inv = Bignum.Bigq.inv q in
      Alcotest.(check bool) (Printf.sprintf "1/%.17g key within slack" f) true (key_within_slack inv))
    floats;
  Alcotest.(check (float 0.0)) "log domain: no slack" 0.0 (Qo.Log_cost.key_slack (Qo.Log_cost.of_int 3))

let prop_key_slack_extreme =
  QCheck2.Test.make ~name:"|to_log2 - log2| <= key_slack on 30-digit rationals" ~count:300
    QCheck2.Gen.int (fun seed -> key_within_slack (big_rat (Random.State.make [| seed |]) 30))

(* The lattice's sorted access-cost rows against the ascending scan
   they replace: keys drawn from a small pool (so rows carry ties, and
   [neg_infinity] / [infinity] keys), every row, random masks and the
   empty mask. *)
module LK = Qo.Lattice.Make (Qo.Log_cost)

let prop_min_w_key_sorted =
  QCheck2.Test.make ~name:"sorted-row min_w key = ascending scan (ties, ±inf, empty mask)"
    ~count:300
    QCheck2.Gen.(
      int_range 1 10 >>= fun n ->
      let pool = [ Float.neg_infinity; Float.infinity; 0.0; 1.0; 2.5; -3.0 ] in
      pair (return n)
        (pair
           (array_size (return (n * n)) (oneofl pool))
           (list_size (return 24) (int_bound ((1 lsl n) - 1)))))
    (fun (n, (ws, masks)) ->
      let w = Array.init n (fun j -> Array.init n (fun u -> Logreal.of_log2 ws.((j * n) + u))) in
      let inst =
        { NL.n; graph = Graphlib.Ugraph.create n; sel = Array.make_matrix n n Logreal.one;
          sizes = Array.make n Logreal.one; w }
      in
      let t = LK.lattice inst in
      let scan j s =
        let best = ref Float.infinity in
        for u = 0 to n - 1 do
          if s land (1 lsl u) <> 0 && ws.((j * n) + u) < !best then best := ws.((j * n) + u)
        done;
        !best
      in
      List.for_all
        (fun s ->
          List.for_all
            (fun j ->
              (if s = 0 then Float.infinity else Float.Array.get t.LK.wsorted (LK.min_w_pos t j s))
              = scan j s)
            (List.init n Fun.id))
        (0 :: masks))

(* [fill]'s window on hand-set keys: the candidates of the full subset
   get summands whose keys crowd within a few table cells (larger
   operands 1/256 apart, gaps 1/64 apart), so their bounds overlap and
   the exact pass decides. The bound is seeded from the winner of the
   full set minus its lowest member, set to any member (every one a
   candidate here), to the pending mark or to "none". The winner, its
   key and the near-tie mark must be those of a plain scan summing every
   candidate. *)
let prop_window_vs_scan =
  QCheck2.Test.make ~name:"window fill ≡ plain exact scan on crowded keys" ~count:1000
    QCheck2.Gen.(
      quad (int_range 2 8) (oneofl [ 0.0; 1e-3; 0.02 ])
        (array_size (return 8) (triple (int_bound 6) (int_bound 96) bool))
        (int_bound 9))
    (fun (n, slack, picks, seed) ->
      let inst =
        { NL.n; graph = Graphlib.Ugraph.create n; sel = Array.make_matrix n n Logreal.one;
          sizes = Array.make n Logreal.one; w = Array.make_matrix n n Logreal.one }
      in
      let t = { (LK.lattice inst) with LK.slack } in
      let full = (1 lsl n) - 1 in
      LK.set_parent t (full lxor 1) (match seed with 8 -> LK.pending | 9 -> 0xffff | j -> j mod n);
      let summands j =
        let a, g, flip = picks.(j) in
        let hi = float_of_int a /. 256.0 in
        let lo = hi -. (float_of_int g /. 64.0) in
        if flip then (lo, hi) else (hi, lo)
      in
      let best = ref Float.infinity and second = ref Float.infinity and arg = ref (-1) in
      for j = 0 to n - 1 do
        let d, h = summands j in
        (* the w keys are 0, so h is N(S \ {j})'s key *)
        Float.Array.set t.LK.dkey (full lxor (1 lsl j)) d;
        Float.Array.set t.LK.nkey (full lxor (1 lsl j)) h;
        let k = Logreal.add_log2 d h in
        if k < !best then begin
          second := !best;
          best := k;
          arg := j
        end
        else if k < !second then second := k
      done;
      let sc = Domain.DLS.get Qo.Lattice.scratch in
      ignore (LK.fill t sc ~cartesian:true ~defer:true full ~pred:[||] ~pos:[||] 0 (-1));
      Qo.Lattice.flush sc;
      let tie = slack > 0.0 && !second <= !best +. slack in
      Int64.equal (Int64.bits_of_float (Float.Array.get t.LK.dkey full)) (Int64.bits_of_float !best)
      && LK.winner t full = if tie then LK.pending else !arg)

(* at the layer-parallel threshold: on a uniform rat chain every
   interval's two cartesian-free candidates tie exactly, so every subset
   of the optimal plan is a near-tie resolved in the sequential settle
   pass after a parallel layer; the plan must not move *)
let test_filter_parallel_threshold () =
  let n = OR_.dp_parallel_min_n in
  let inst =
    NR.uniform ~graph:(Graphlib.Gen.path n) ~size:(RC.of_int 64) ~edge_sel:(RC.of_ints 1 4)
      ~edge_w:(RC.of_int 16)
  in
  let ties () = Option.value ~default:0 (List.assoc_opt "opt.dp.near_ties" (Obs.snapshot ())) in
  let before = ties () in
  let s = OR_.dp_no_cartesian inst in
  let p = Pool.with_pool ~jobs:2 (fun pool -> OR_.dp_no_cartesian ~pool inst) in
  Alcotest.(check bool) "near-ties were resolved" true (ties () > before);
  Alcotest.(check rc) "cost" s.OR_.cost p.OR_.cost;
  Alcotest.(check (array int)) "sequence" s.OR_.seq p.OR_.seq

(* every subset with a candidate sums at least once with libm (its
   winner's key), and the window keeps the rest to a few: on a log
   clique n = 12 the count lies between the 4083 subsets of two or more
   members and half the 24 564 transitions. The seeded bound admits at
   most 1.5 window members per such subset (5091; 10 915 unseeded). *)
let test_exact_adds_counted () =
  let count name = Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ())) in
  let adds0 = count "opt.dp.exact_adds" and trans0 = count "opt.dp.transitions" in
  let members0 = count "opt.dp.window_members" in
  ignore (OL.dp (Qo.Gen_inst.L.clique ~seed:1 ~n:12 ()));
  let adds = count "opt.dp.exact_adds" - adds0 and trans = count "opt.dp.transitions" - trans0 in
  let members = count "opt.dp.window_members" - members0 in
  Alcotest.(check int) "transitions" ((12 * 2048) - 12) trans;
  Alcotest.(check bool) (Printf.sprintf "%d adds >= 4083 subsets" adds) true (adds >= 4083);
  Alcotest.(check bool) (Printf.sprintf "%d adds < %d / 2" adds trans) true (2 * adds < trans);
  Alcotest.(check bool) (Printf.sprintf "%d window members in [4083, 6124]" members) true (members >= 4083 && members <= 6124)

(* the filtered kernels against the all-exact reference at the sizes
   the benchmark solves: a log clique n = 16 and the planted-clique
   f_N n = 15, whose equal sizes make exact ties everywhere *)
let test_filter_bench_instances () =
  let fn =
    let graph = Graphlib.Gen.planted_clique ~seed:1 ~n:15 ~k:10 ~p:0.9 in
    (Reductions.Fn.reduce ~graph ~c:(10. /. 15.) ~d:0.2 ~log2_a:8.0).Reductions.Fn.instance
  in
  Alcotest.(check bool) "log clique n=16" true (log_agrees (Qo.Gen_inst.L.clique ~seed:1 ~n:16 ()));
  Alcotest.(check bool) "f_N n=15" true (log_agrees fn)

(* ------------- one-pass parser ≡ reference parser ------------- *)

(* A dump rewritten the ways a hand-written or hostile file differs
   from canonical text. Spellings that keep the instance: scalars with
   leading zeros, '+' or '_', unreduced fractions; vertex ids with
   leading zeros or in hex; edges written "j i" with wij and wji
   swapped; doubled spaces, CRs and tabs at the line ends, blank and
   comment lines, the data lines in any order (the n line after the
   size lines included). Half the texts then get one hostile edit: a
   zero denominator or another bad scalar, a bad vertex id, a tab
   inside a line, a dropped or repeated line, or truncation. *)
let mutate st text =
  let pick k = Random.State.int st k in
  let digit_start s = s <> "" && s.[0] >= '0' && s.[0] <= '9' in
  let digits s = digit_start s && String.for_all (fun c -> c >= '0' && c <= '9') s in
  let scaled s k = Bignum.Bigint.(to_string (mul_int (of_string s) k)) in
  let scalar s =
    let log = String.length s > 2 && String.sub s 0 2 = "2^" in
    let x = if log then String.sub s 2 (String.length s - 2) else s in
    match pick 10 with
    | 0 when log && String.contains x '.' && not (String.contains x 'e') -> s ^ "0"
    | 1 when log && x.[0] <> '-' -> "2^+" ^ x
    | 0 when digit_start s -> "0" ^ s
    | 1 when digit_start s -> "+" ^ s
    | 2 when digit_start s && String.length s > 1 ->
        String.sub s 0 1 ^ "_" ^ String.sub s 1 (String.length s - 1)
    | 3 | 4 -> (
        let k = 2 + pick 5 in
        match String.index_opt s '/' with
        | Some i
          when digits (String.sub s 0 i) && digits (String.sub s (i + 1) (String.length s - i - 1))
          ->
            scaled (String.sub s 0 i) k ^ "/" ^ scaled (String.sub s (i + 1) (String.length s - i - 1)) k
        | None when digits s -> scaled s k ^ "/" ^ string_of_int k
        | _ -> s)
    | 5 when digits s -> s ^ "/1"
    | _ -> s
  in
  let vertex v =
    match (pick 6, int_of_string_opt v) with
    | 0, _ -> "0" ^ v
    | 1, _ -> "+" ^ v
    | 2, Some i -> Printf.sprintf "0x%x" i
    | _ -> v
  in
  let spell l =
    let l =
      match String.split_on_char ' ' l with
      | [ "size"; v; x ] -> String.concat " " [ "size"; vertex v; scalar x ]
      | [ "edge"; i; j; "sel"; x; "wij"; a; "wji"; b ] ->
          let i, j, a, b = if pick 3 = 0 then (j, i, b, a) else (i, j, a, b) in
          String.concat " " [ "edge"; vertex i; vertex j; "sel"; scalar x; "wij"; scalar a; "wji"; scalar b ]
      | [ "n"; v ] -> "n " ^ vertex v
      | _ -> l
    in
    match pick 8 with
    | 0 -> String.concat "  " (String.split_on_char ' ' l)
    | 1 -> l ^ "\r"
    | 2 -> "\t " ^ l ^ " \t"
    | 3 -> l ^ "\n\n# a comment"
    | _ -> l
  in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  let lines = List.hd lines :: List.map spell (List.tl lines) in
  let lines =
    if pick 2 = 0 then lines
    else begin
      (* every data line in a random order, the header kept first *)
      let a = Array.of_list (List.tl lines) in
      for i = Array.length a - 1 downto 1 do
        let j = pick (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      List.hd lines :: Array.to_list a
    end
  in
  let hostile_token l =
    let toks = Array.of_list (String.split_on_char ' ' l) in
    let k = pick (Array.length toks) in
    toks.(k) <-
      [| "1/0"; "0"; "-3"; "banana"; "2^nan"; "inf"; "99"; "-1"; "0/0"; "x1" |].(pick 10);
    String.concat " " (Array.to_list toks)
  in
  let lines =
    let nl = List.length lines in
    let at = pick nl in
    match pick 12 with
    | 0 | 1 | 2 -> List.mapi (fun i l -> if i = at then hostile_token l else l) lines
    | 3 -> List.mapi (fun i l -> if i = at then String.concat "\t" (String.split_on_char ' ' l) else l) lines
    | 4 -> List.filteri (fun i _ -> i <> at) lines
    | 5 -> lines @ [ List.nth lines at ]
    | _ -> lines
  in
  let text = String.concat "\n" lines ^ "\n" in
  if pick 12 = 0 then String.sub text 0 (pick (String.length text)) else text

let outcome f text = try Ok (f text) with Invalid_argument m -> Error m

(* Same message, or the same instance with canonical text equal to its
   dump, which itself equals the reference dump. *)
let parses_like ~reference ~parse ~dump ~ref_dump ~equal text =
  match (outcome reference text, outcome parse text) with
  | Error a, Error b -> a = b
  | Ok r, Ok (i, canonical) -> equal r i && canonical = dump i && dump i = ref_dump i
  | _ -> false

let same_instance ~n ~graph ~sizes ~sel ~w ~eq a b =
  let all2 f x y = Array.for_all2 f x y in
  n a = n b
  && Graphlib.Ugraph.edges (graph a) = Graphlib.Ugraph.edges (graph b)
  && all2 eq (sizes a) (sizes b)
  && all2 (all2 eq) (sel a) (sel b)
  && all2 (all2 eq) (w a) (w b)

let same_rat =
  same_instance ~n:NR.n ~graph:(fun i -> i.NR.graph) ~sizes:(fun i -> i.NR.sizes)
    ~sel:(fun i -> i.NR.sel) ~w:(fun i -> i.NR.w) ~eq:RC.equal

let same_log =
  same_instance ~n:NL.n ~graph:(fun i -> i.NL.graph) ~sizes:(fun i -> i.NL.sizes)
    ~sel:(fun i -> i.NL.sel) ~w:(fun i -> i.NL.w)
    ~eq:(fun a b -> Float.equal (Logreal.to_log2 a) (Logreal.to_log2 b))

let gen_parse_case =
  QCheck2.Gen.(
    let* inst = oneof [ gen_shape_instance; gen_extreme_instance ] in
    let* log = bool in
    let* seed = int_bound 1_000_000 in
    let text =
      if log then Qo.Io.dump_log (Qo.Instances.log_of_rat inst) else Qo.Io.dump_rat inst
    in
    let st = Random.State.make [| seed |] in
    return (log, if seed mod 5 = 0 then text else mutate st text))

let prop_parse_differential =
  QCheck2.Test.make ~name:"one-pass parse ≡ reference parse on mutated dumps (both domains)"
    ~count:1500
    ~print:(fun (log, text) -> Printf.sprintf "%s\n%S" (if log then "log" else "rat") text)
    gen_parse_case
    (fun (log, text) ->
      if log then
        parses_like ~reference:Reference.Io.parse_log ~parse:Qo.Io.parse_log_canonical
          ~dump:Qo.Io.dump_log ~ref_dump:Reference.Io.dump_log ~equal:same_log text
      else
        parses_like ~reference:Reference.Io.parse_rat ~parse:Qo.Io.parse_rat_canonical
          ~dump:Qo.Io.dump_rat ~ref_dump:Reference.Io.dump_rat ~equal:same_rat text)

(* The mutations above must reach both outcomes and the interesting
   accepted forms, or the differential property proves little. *)
let test_parse_differential_reach () =
  let st = Random.State.make [| 11 |] in
  let ok = ref 0 and err = ref 0 and rewritten = ref 0 in
  for seed = 0 to 399 do
    let inst = Qo.Gen_inst.R.random ~seed ~n:(2 + (seed mod 7)) ~p:0.6 () in
    let text = Qo.Io.dump_rat inst in
    let m = mutate st text in
    match Qo.Io.parse_rat_canonical m with
    | _, canonical ->
        incr ok;
        if m <> canonical then incr rewritten
    | exception Invalid_argument _ -> incr err
  done;
  Alcotest.(check bool)
    (Printf.sprintf "accepted %d (%d rewritten), rejected %d" !ok !rewritten !err)
    true
    (!ok > 40 && !rewritten > 20 && !err > 40)

let test_parse_zero_denominator () =
  Alcotest.check_raises "1/0 is a line-numbered scalar error"
    (Invalid_argument "Qo.Io.parse: line 3: invalid scalar \"1/0\"") (fun () ->
      ignore (Qo.Io.parse_rat "qon 1\nn 1\nsize 0 1/0\n"));
  Alcotest.check_raises "in an edge too"
    (Invalid_argument "Qo.Io.parse: line 5: invalid scalar \"7/0\"") (fun () ->
      ignore
        (Qo.Io.parse_rat "qon 1\nn 2\nsize 0 7\nsize 1 7\nedge 0 1 sel 1/2 wij 7/0 wji 7\n"))

(* Text that is already canonical comes back byte for byte; other
   spellings of the same instance come back as its dump. *)
let test_parse_canonical_text () =
  let canonical = "qon 1\nn 2\nsize 0 12\nsize 1 7\nedge 0 1 sel 2/3 wij 12 wji 7\n" in
  let inst, text = Qo.Io.parse_rat_canonical canonical in
  Alcotest.(check string) "copy-through" canonical text;
  Alcotest.(check string) "equals the dump" (Qo.Io.dump_rat inst) text;
  let spelled =
    "# a comment\nqon 1\nsize 1 +7\r\nsize 0 012\nedge 1 0 sel 4/6 wij  7 wji 1_2\nn 0x2\n"
  in
  Alcotest.(check string) "normalized" canonical (snd (Qo.Io.parse_rat_canonical spelled))

(* ------------- greedy and SA ≡ their all-exact loops ------------- *)

module GR = Reference.Greedy (Qo.Rat_cost)
module GL = Reference.Greedy (Qo.Log_cost)
module SR = Reference.Annealing (Qo.Rat_cost)
module SL = Reference.Annealing (Qo.Log_cost)

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()))

(* The keyed greedy against the reference, both modes, [starts] in
   {1, 2, n}. The reference fails with an index error when every
   candidate of a step has an infinite join; the keyed greedy then takes
   the lowest-numbered candidate, so there it must return a permutation
   priced at its [Nl.cost]. *)
let greedy_agrees ~equal ~cost ~run ~reference n =
  List.for_all
    (fun starts ->
      List.for_all
        (fun mode ->
          let c, s = run mode starts in
          match reference mode starts with
          | rc, rs -> equal c rc && s = rs
          | exception Invalid_argument _ ->
              List.sort compare (Array.to_list s) = List.init n Fun.id && equal c (cost s))
        [ `Cost; `Size ])
    (List.sort_uniq compare [ 1; 2; n ])

let greedy_agrees_rat inst =
  greedy_agrees ~equal:RC.equal ~cost:(NR.cost inst) (NR.n inst)
    ~run:(fun mode starts ->
      let mode = match mode with `Cost -> OR_.Min_cost | `Size -> OR_.Min_size in
      let p = OR_.greedy ~mode ~starts inst in
      (p.OR_.cost, p.OR_.seq))
    ~reference:(fun mode starts ->
      GR.greedy ~mode:(match mode with `Cost -> GR.Min_cost | `Size -> GR.Min_size) ~starts inst)

let greedy_agrees_log inst =
  greedy_agrees ~equal:Qo.Log_cost.equal ~cost:(NL.cost inst) (NL.n inst)
    ~run:(fun mode starts ->
      let mode = match mode with `Cost -> OL.Min_cost | `Size -> OL.Min_size in
      let p = OL.greedy ~mode ~starts inst in
      (p.OL.cost, p.OL.seq))
    ~reference:(fun mode starts ->
      GL.greedy ~mode:(match mode with `Cost -> GL.Min_cost | `Size -> GL.Min_size) ~starts inst)

(* SA against the reference as (seed, steps, t0, alpha): seeds x
   steps on the default temperatures, the default 20 000-step schedule
   at n <= 7 unless [short], and cold starts, where the random stream
   still steers the descent when a draw decides almost nothing, so a
   draw skipped or added shows in the plan *)
let sa_schedules ?(short = false) n =
  List.concat_map (fun seed -> List.map (fun steps -> (seed, steps, 50.0, 0.999)) [ 0; 1; 500 ]) [ 0; 1; 9 ]
  @ List.map (fun seed -> (seed, 300, 0.05, 1.0)) [ 2; 5; 8 ]
  @ if n <= 7 && not short then [ (3, 20_000, 50.0, 0.999) ] else []

let sa_agrees_rat ?short inst =
  List.for_all
    (fun (seed, steps, t0, alpha) ->
      let p = OR_.simulated_annealing ~seed ~steps ~t0 ~alpha inst
      and c, s = SR.simulated_annealing ~seed ~steps ~t0 ~alpha inst in
      RC.equal p.OR_.cost c && p.OR_.seq = s)
    (sa_schedules ?short (NR.n inst))

let sa_agrees_log inst =
  List.for_all
    (fun (seed, steps, t0, alpha) ->
      let p = OL.simulated_annealing ~seed ~steps ~t0 ~alpha inst
      and c, s = SL.simulated_annealing ~seed ~steps ~t0 ~alpha inst in
      Int64.equal (Int64.bits_of_float (Logreal.to_log2 p.OL.cost)) (Int64.bits_of_float (Logreal.to_log2 c))
      && p.OL.seq = s)
    (sa_schedules (NL.n inst))

let prop_greedy_reference =
  QCheck2.Test.make ~name:"greedy ≡ reference loop (both modes, both domains)" ~count:80
    gen_shape_instance (fun inst ->
      greedy_agrees_rat inst && greedy_agrees_log (Qo.Instances.log_of_rat inst))

let prop_sa_reference =
  QCheck2.Test.make ~name:"simulated annealing ≡ reference (seeds x steps, both domains)" ~count:25
    gen_shape_instance (fun inst ->
      sa_agrees_rat inst && sa_agrees_log (Qo.Instances.log_of_rat inst))

let prop_heuristics_extreme =
  QCheck2.Test.make ~name:"greedy and SA ≡ reference (30-digit rationals, up to 500 steps)" ~count:4
    gen_extreme_instance (fun inst -> greedy_agrees_rat inst && sa_agrees_rat ~short:true inst)

(* Tie-heavy instances: scalars from two or three values, stars with
   identical satellites, relations of infinite size (every access cost
   into them infinite) in the rat domain; the paper's f_N in the log
   domain. *)
let tie_heavy_rat ~seed ~n ~kind =
  let st = Random.State.make [| seed; 41 |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let g =
    if kind = 1 then Graphlib.Ugraph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))
    else Graphlib.Gen.gnp ~seed ~n ~p:0.6
  in
  let sizes =
    Array.init n (fun i ->
        match kind with
        | 1 -> if i = 0 then RC.of_int 12 else RC.of_int 6
        | 2 when Random.State.int st 3 = 0 -> RC.infinity
        | _ -> RC.of_int (pick [ 4; 8; 12 ]))
  in
  let sel = Array.make_matrix n n RC.one and w = Array.make_matrix n n RC.one in
  List.iter
    (fun (i, j) ->
      let s = if kind = 1 then RC.of_ints 1 2 else RC.of_ints 1 (pick [ 2; 4 ]) in
      sel.(i).(j) <- s;
      sel.(j).(i) <- s)
    (Graphlib.Ugraph.edges g);
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        w.(i).(j) <-
          (if Graphlib.Ugraph.has_edge g i j then
             RC.min sizes.(i) (RC.max (RC.mul sizes.(i) sel.(i).(j)) (RC.of_int (pick [ 2; 3 ])))
           else sizes.(i))
    done
  done;
  NR.make ~graph:g ~sel ~sizes ~w

let prop_heuristics_ties =
  QCheck2.Test.make ~name:"greedy and SA ≡ reference on tie-heavy instances (both domains)" ~count:40
    QCheck2.Gen.(triple (int_range 2 8) (int_range 0 10_000) (int_bound 2))
    (fun (n, seed, kind) ->
      let inst = tie_heavy_rat ~seed ~n ~kind in
      greedy_agrees_rat inst && sa_agrees_rat inst && greedy_agrees_log (Qo.Instances.log_of_rat inst))

let prop_heuristics_fn =
  QCheck2.Test.make ~name:"greedy and SA ≡ reference (log f_N on planted cliques)" ~count:15
    QCheck2.Gen.(triple (int_range 3 9) (int_range 0 10_000) (float_range 0.2 0.9))
    (fun (n, seed, p) ->
      let k = 2 + (seed mod (n - 1)) in
      let graph = Graphlib.Gen.planted_clique ~seed ~n ~k ~p in
      let c = float_of_int k /. float_of_int n in
      let inst = (Reductions.Fn.reduce ~graph ~c ~d:(c /. 2.0) ~log2_a:4.0).Reductions.Fn.instance in
      greedy_agrees_log inst && sa_agrees_log inst)

(* The tie-heavy instances reach exact pricing: keys within the slack
   are settled in [Bigq], so the counter moves. *)
let test_heuristics_exact_reached () =
  let before = counter "opt.heur.exact_prices" and steps0 = counter "opt.heur.steps" in
  for seed = 0 to 19 do
    let inst = tie_heavy_rat ~seed ~n:6 ~kind:(seed mod 3) in
    ignore (OR_.greedy inst);
    ignore (OR_.simulated_annealing ~seed ~steps:500 inst)
  done;
  let priced = counter "opt.heur.exact_prices" - before and steps = counter "opt.heur.steps" - steps0 in
  Alcotest.(check bool) (Printf.sprintf "%d exact prices over %d decisions" priced steps) true (priced > 0)

(* Two candidates whose keys are between E and 2 E apart: a near tie
   by the slack, so greedy must price them exactly (a slack of E would
   decide it on keys). Relations 1 and 2 join relation 0 with no
   predicate, so their joins cost t_0 t_1 and t_0 t_2. With no edges,
   E is the sizes' key slack plus the widest access cost's, a size's. *)
let test_heuristics_slack_band () =
  let inst_of q =
    let sizes = [| RC.of_int 3; RC.of_int (1 lsl 20); RC.of_ints ((1 lsl 20) * (q + 1)) q |] in
    NR.make ~graph:(Graphlib.Ugraph.create 3) ~sel:(Array.make_matrix 3 3 RC.one) ~sizes
      ~w:(Array.init 3 (fun i -> Array.make 3 sizes.(i)))
  in
  let in_band q =
    let sizes = (inst_of q).NR.sizes in
    let slack = Array.map RC.key_slack sizes in
    let e = Array.fold_left ( +. ) 0.0 slack +. Array.fold_left Float.max 0.0 slack in
    let gap = RC.to_log2 sizes.(2) -. RC.to_log2 sizes.(1) in
    gap > 1.1 *. e && gap < 1.9 *. e
  in
  let q = List.find in_band (List.init 40 (fun k -> (1 lsl (k + 10)) + 1)) in
  let inst = inst_of q in
  let before = counter "opt.heur.exact_prices" in
  let p = OR_.greedy ~starts:1 inst and c, s = GR.greedy ~starts:1 inst in
  Alcotest.(check bool) "same plan as the reference" true (RC.equal p.OR_.cost c && p.OR_.seq = s);
  Alcotest.(check bool) "priced exactly" true (counter "opt.heur.exact_prices" > before)

let test_heuristics_invalid_args () =
  let inst = tie_heavy_rat ~seed:1 ~n:4 ~kind:0 in
  Alcotest.check_raises "iterative_improvement ~restarts:0"
    (Invalid_argument "Opt.iterative_improvement: restarts must be positive") (fun () ->
      ignore (OR_.iterative_improvement ~restarts:0 inst));
  Alcotest.check_raises "genetic ~population:0"
    (Invalid_argument "Opt.genetic: population must be positive") (fun () ->
      ignore (OR_.genetic ~population:0 inst))

let () =
  Alcotest.run "qo"
    [
      ( "cost model",
        [
          Alcotest.test_case "hand example" `Quick test_hand_example;
          Alcotest.test_case "cartesian products" `Quick test_cartesian_detection;
          Alcotest.test_case "validation" `Quick test_validation_errors;
        ] );
      ( "optimizers",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dp_equals_exhaustive;
            prop_heuristics_upper_bound;
            prop_dp_no_cartesian_dominates;
            prop_dp_plan_cost_consistent;
            prop_greedy_reference;
          ] );
      ( "heuristics ≡ reference",
        [
          Alcotest.test_case "tie-heavy instances reach exact pricing" `Quick
            test_heuristics_exact_reached;
          Alcotest.test_case "keys within the slack are priced exactly" `Quick
            test_heuristics_slack_band;
          Alcotest.test_case "named errors for empty restarts / population" `Quick
            test_heuristics_invalid_args;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_sa_reference;
              prop_heuristics_extreme;
              prop_heuristics_ties;
              prop_heuristics_fn;
            ] );
      ( "iterative improvement",
        [ Alcotest.test_case "apply_move semantics" `Quick test_apply_move ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_ii_deterministic; prop_ii_valid_and_bounded ] );
      ( "model properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_size_set_invariance; prop_log_matches_rational; prop_profile_sums; prop_uniform_instance ] );
      ( "ik",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ik_tree_optimal; prop_ik_tree_optimal_log ] );
      ( "parallel dp",
        [ Alcotest.test_case "jobs 2 ≡ sequential at n = 19 (layer-parallel)" `Slow test_dp_parallel_at_threshold ]
        @ List.map QCheck_alcotest.to_alcotest
          [
            prop_dp_parallel_equiv_rat;
            prop_dp_parallel_equiv_rat_big;
            prop_dp_nc_parallel_equiv_rat;
            prop_dp_parallel_equiv_log;
            prop_dp_nc_parallel_equiv_log;
          ] );
      ( "gen_inst + explain",
        [
          Alcotest.test_case "explain rendering" `Quick test_explain_render;
          Alcotest.test_case "shape table = per-name generators" `Quick test_shape_table;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_gen_inst_valid; prop_gen_inst_deterministic ] );
      ( "connected dp",
        [
          Alcotest.test_case "disconnected graph is infeasible" `Quick test_ccp_infeasible;
          Alcotest.test_case "csg counts on known families" `Quick test_csg_count;
          Alcotest.test_case "csg_count_bounded contract" `Quick test_csg_count_bounded;
          Alcotest.test_case "multi-word index spreads chains and a spider" `Quick
            test_ccp_words_buckets;
          Alcotest.test_case "chains ≡ independent interval DP to n=256" `Quick test_chain_reference;
          Alcotest.test_case "multi-word parallel ≡ sequential at jobs 2" `Quick
            test_ccp_parallel_multiword;
          Alcotest.test_case "disconnected multi-word graph is infeasible" `Quick
            test_ccp_infeasible_multiword;
          Alcotest.test_case "chain counters: transitions, probes" `Quick test_ccp_counters;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_ccp_lattice_rat;
              prop_ccp_lattice_log;
              prop_ccp_lattice_gnp;
              prop_ccp_parallel_equiv;
              prop_ccp_words_equiv;
              prop_ccp_words_gnp;
            ] );
      ( "subset convolution",
        [
          Alcotest.test_case "plans straddling the old n=61 cap" `Quick test_cap_straddle;
          Alcotest.test_case "chain n=128 past the lifted ceiling" `Slow test_chain_128;
          Alcotest.test_case "ccp ≡ conv on cliques and dense G(n,p)" `Quick test_ccp_conv_dense;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_conv_lattice_rat;
              prop_conv_lattice_log;
              prop_conv_gnp;
              prop_conv_parallel_equiv;
            ] );
      ( "certified filter",
        [
          Alcotest.test_case "key slack at %.17g band edges" `Quick test_key_slack_band_edges;
          Alcotest.test_case "rat dp_no_cartesian at the parallel threshold" `Quick
            test_filter_parallel_threshold;
          Alcotest.test_case "exact_adds counts the window's libm sums" `Quick test_exact_adds_counted;
          Alcotest.test_case "filtered ≡ all-exact on the benchmark's clique and f_N" `Quick
            test_filter_bench_instances;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_filter_shapes;
              prop_filter_ties;
              prop_filter_extreme;
              prop_filter_log_clique;
              prop_filter_fn;
              prop_key_slack_extreme;
              prop_min_w_key_sorted;
              prop_window_vs_scan;
            ] );
      ( "io",
        [
          Alcotest.test_case "parse errors" `Quick test_io_errors;
          Alcotest.test_case "malformed inputs" `Quick test_io_malformed;
          Alcotest.test_case "extreme scalars round-trip" `Quick test_io_extremes;
          Alcotest.test_case "hostile n lines" `Quick test_io_hostile_n;
          Alcotest.test_case "pathologically long scalar" `Quick test_io_long_scalar;
          Alcotest.test_case "non-finite log scalars" `Quick test_io_nonfinite_log;
          Alcotest.test_case "zero denominator" `Quick test_parse_zero_denominator;
          Alcotest.test_case "canonical text" `Quick test_parse_canonical_text;
          Alcotest.test_case "mutations reach both outcomes" `Quick test_parse_differential_reach;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_parse_differential;
              prop_io_rat_roundtrip;
              prop_io_log_roundtrip;
              prop_io_rat_file_roundtrip;
              prop_io_log_file_roundtrip;
            ] );
    ]
