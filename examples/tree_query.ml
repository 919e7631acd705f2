(* The tractability boundary (Section 6.3 of the paper): tree queries
   are optimizable in polynomial time by the Ibaraki-Kameda rank
   algorithm, while adding m^tau extra edges already makes
   polylog-factor approximation NP-hard.

     dune exec examples/tree_query.exe *)

module NL = Qo.Instances.Nl_rat
module Opt = Qo.Instances.Opt_rat
module IK = Qo.Instances.Ik_rat
module C = Qo.Rat_cost

let build_tree_instance ~seed ~n =
  let st = Random.State.make [| seed; n |] in
  let g = Graphlib.Gen.random_tree ~seed ~n in
  let sizes = Array.init n (fun _ -> C.of_int (10 + Random.State.int st 990)) in
  let sel = Array.make_matrix n n C.one in
  List.iter
    (fun (i, j) ->
      let s = C.of_ints 1 (2 + Random.State.int st 50) in
      sel.(i).(j) <- s;
      sel.(j).(i) <- s)
    (Graphlib.Ugraph.edges g);
  let w =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i <> j && Graphlib.Ugraph.has_edge g i j then
              C.min sizes.(i)
                (C.max (C.mul sizes.(i) sel.(i).(j)) (C.of_int (1 + Random.State.int st 20)))
            else sizes.(i)))
  in
  NL.make ~graph:g ~sel ~sizes ~w

let () =
  print_endline "Tree queries: IK rank ordering vs exact subset DP\n";
  Printf.printf "%6s %6s %18s %18s %8s %10s\n" "seed" "n" "IK cost" "DP cost" "equal?" "IK time";
  List.iter
    (fun (seed, n) ->
      let inst = build_tree_instance ~seed ~n in
      let t0 = Unix.gettimeofday () in
      let cik, _ = IK.solve inst in
      let ik_time = Unix.gettimeofday () -. t0 in
      let cdp = (Opt.dp_no_cartesian inst).Opt.cost in
      Printf.printf "%6d %6d %18s %18s %8b %9.4fs\n" seed n
        (Format.asprintf "%a" C.pp cik)
        (Format.asprintf "%a" C.pp cdp)
        (C.equal cik cdp) ik_time)
    [ (1, 6); (2, 8); (3, 10); (4, 12); (5, 14) ];

  (* Beyond the DP's reach the rank algorithm keeps scaling: *)
  print_endline "\nIK alone at sizes where 2^n DP is impossible:";
  List.iter
    (fun n ->
      let inst = build_tree_instance ~seed:9 ~n in
      let t0 = Unix.gettimeofday () in
      let cik, seq = IK.solve inst in
      Printf.printf "  n=%4d: cost has %5d bits, sequence starts [%s...], %.3fs\n" n
        (int_of_float (C.to_log2 cik))
        (String.concat ";" (List.map string_of_int (Array.to_list (Array.sub seq 0 (min 6 n)))))
        (Unix.gettimeofday () -. t0))
    [ 50; 100; 200 ];
  print_endline
    "\nSection 6.3: these tree queries sit exactly at the boundary - with only\n\
     m + Theta(m^tau) edges (any tau > 0) the sparse reductions of Section 6\n\
     already make polylog-approximation NP-hard (see experiments E5/E6)."
