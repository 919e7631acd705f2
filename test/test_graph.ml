(* Tests for the graph substrate: bitsets, graphs, cliques, covers,
   generators and prescribed-edge-count construction. *)

open Graphlib

(* -------------------- Bitset -------------------- *)

let test_bitset_basics () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 62" false (Bitset.mem s 62);
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check (option int)) "choose" (Some 0) (Bitset.choose s);
  Alcotest.(check int) "full cardinal" 77 (Bitset.cardinal (Bitset.full 77));
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose (Bitset.create 10));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index 100 out of [0,100)") (fun () -> Bitset.add s 100)

let prop_bitset_ops =
  QCheck2.Test.make ~name:"bitset set ops match naive sets" ~count:300
    QCheck2.Gen.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let module IS = Set.Make (Int) in
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let sa = IS.of_list xs and sb = IS.of_list ys in
      let eq bs s = Bitset.elements bs = IS.elements s in
      eq (Bitset.inter a b) (IS.inter sa sb)
      && eq (Bitset.union a b) (IS.union sa sb)
      && eq (Bitset.diff a b) (IS.diff sa sb)
      && Bitset.inter_cardinal a b = IS.cardinal (IS.inter sa sb)
      && Bitset.subset a (Bitset.union a b)
      && Bitset.cardinal a = IS.cardinal sa)

(* Word-boundary audit: [word_bits = Sys.int_size = 63], so every
   operation is exercised against a naive [bool array] reference model
   exactly at the word seams — n ∈ {0, 62, 63, 64, 126} — where
   off-by-ones in [full]/[prefix]/[decr_and]/[cardinal] would hide. *)

module Ref_model = struct
  (* a set is [(n, bits)] with index i set iff the bit is in the set *)
  let of_list n xs =
    let a = Array.make (max 1 n) false in
    List.iter (fun i -> if i >= 0 && i < n then a.(i) <- true) xs;
    (n, a)

  let elements (n, a) = List.filter (fun i -> a.(i)) (List.init n (fun i -> i))
  let cardinal m = List.length (elements m)

  let map2 f (n, a) (_, b) = (n, Array.init (Array.length a) (fun i -> f a.(i) b.(i)))
  let inter = map2 ( && )
  let union = map2 ( || )
  let diff = map2 (fun x y -> x && not y)
  let subset (n, a) (_, b) = List.for_all (fun i -> (not a.(i)) || b.(i)) (List.init n (fun i -> i))

  (* little-endian binary decrement; the set must be nonempty *)
  let decr (_, a) =
    let i = ref 0 in
    while not a.(!i) do
      a.(!i) <- true;
      incr i
    done;
    a.(!i) <- false
end

let boundary_ns = [ 0; 62; 63; 64; 126 ]

let gen_boundary_sets =
  QCheck2.Gen.(
    let* n = oneofl boundary_ns in
    let* xs = list_size (int_bound 40) (int_bound (max 0 (n - 1))) in
    let* ys = list_size (int_bound 40) (int_bound (max 0 (n - 1))) in
    return (n, (if n = 0 then [] else xs), if n = 0 then [] else ys))

let prop_bitset_boundary_ops =
  QCheck2.Test.make ~name:"bitset ops at word boundaries match bool-array reference"
    ~count:400 gen_boundary_sets (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let ra = Ref_model.of_list n xs and rb = Ref_model.of_list n ys in
      let eq bs m = Bitset.elements bs = Ref_model.elements m in
      eq a ra && eq b rb
      && Bitset.cardinal a = Ref_model.cardinal ra
      && Bitset.is_empty a = (Ref_model.cardinal ra = 0)
      && eq (Bitset.inter a b) (Ref_model.inter ra rb)
      && eq (Bitset.union a b) (Ref_model.union ra rb)
      && eq (Bitset.diff a b) (Ref_model.diff ra rb)
      && Bitset.inter_cardinal a b = Ref_model.cardinal (Ref_model.inter ra rb)
      && Bitset.subset a b = Ref_model.subset ra rb
      && Bitset.equal a b = (Ref_model.elements ra = Ref_model.elements rb)
      && List.for_all (fun i -> Bitset.mem a i = List.mem i (Ref_model.elements ra))
           (List.init n (fun i -> i))
      && Bitset.choose a
         = (match Ref_model.elements ra with [] -> None | x :: _ -> Some x)
      && Bitset.lowest a = (match Ref_model.elements ra with [] -> -1 | x :: _ -> x)
      && Bitset.fold (fun i acc -> i :: acc) a [] = List.rev (Ref_model.elements ra)
      &&
      (* allocation-free variants agree with their pure counterparts *)
      let d = Bitset.create n in
      Bitset.inter_into ~dst:d a b;
      let i_ok = eq d (Ref_model.inter ra rb) in
      Bitset.union_into ~dst:d a b;
      let u_ok = eq d (Ref_model.union ra rb) in
      Bitset.diff_into ~dst:d a b;
      let df_ok = eq d (Ref_model.diff ra rb) in
      Bitset.assign ~dst:d a;
      i_ok && u_ok && df_ok && Bitset.equal d a
      && (Bitset.equal a b = (Bitset.compare a b = 0))
      && ((not (Bitset.equal a b)) || Bitset.hash a = Bitset.hash b))

(* [full]/[prefix]/[add]/[remove]/[mem] pinned exactly at the seams. *)
let test_bitset_boundary_full () =
  List.iter
    (fun n ->
      let f = Bitset.full n in
      Alcotest.(check int) (Printf.sprintf "full %d cardinal" n) n (Bitset.cardinal f);
      Alcotest.(check (list int))
        (Printf.sprintf "full %d elements" n)
        (List.init n (fun i -> i))
        (Bitset.elements f);
      Alcotest.(check bool)
        (Printf.sprintf "full %d has no phantom bit" n)
        false (Bitset.mem f n);
      for k = 0 to min n 4 do
        Alcotest.(check int)
          (Printf.sprintf "prefix %d %d cardinal" n k)
          k
          (Bitset.cardinal (Bitset.prefix n k))
      done;
      Alcotest.(check int)
        (Printf.sprintf "prefix %d %d = full" n n)
        n
        (Bitset.cardinal (Bitset.prefix n n));
      if n > 0 then begin
        (* add/remove at the extreme indices round-trip *)
        let s = Bitset.create n in
        List.iter
          (fun i ->
            Bitset.add s i;
            Alcotest.(check bool) (Printf.sprintf "n=%d mem %d" n i) true (Bitset.mem s i);
            Bitset.remove s i;
            Alcotest.(check bool) (Printf.sprintf "n=%d removed %d" n i) false (Bitset.mem s i))
          [ 0; n - 1 ];
        Alcotest.check_raises
          (Printf.sprintf "n=%d add out of range" n)
          (Invalid_argument (Printf.sprintf "Bitset: index %d out of [0,%d)" n n))
          (fun () -> Bitset.add s n)
      end)
    boundary_ns

(* [bit_index] (the de Bruijn table behind [lowest]/[iter]/[choose]
   and the exact lattice kernels) against the shift loop, at every bit
   of a word. *)
let test_bit_index () =
  let shift_loop b =
    let rec go i v = if v land 1 = 1 then i else go (i + 1) (v lsr 1) in
    go 0 b
  in
  for k = 0 to Sys.int_size - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bit %d" k)
      (shift_loop (1 lsl k))
      (Bitset.bit_index (1 lsl k))
  done

(* [popcount] (the SWAR count behind [cardinal] and the lattice's
   cardinality layers) against a bit loop, on every prefix and suffix
   of a word, so the sign bit and the 32-bit split are covered. *)
let test_popcount () =
  let loop x =
    let c = ref 0 in
    for k = 0 to Sys.int_size - 1 do
      c := !c + ((x lsr k) land 1)
    done;
    !c
  in
  for k = 0 to Sys.int_size do
    let prefix = if k = Sys.int_size then -1 else (1 lsl k) - 1 in
    List.iter
      (fun x -> Alcotest.(check int) (Printf.sprintf "%x" x) (loop x) (Bitset.popcount x))
      [ prefix; lnot prefix; prefix lxor 0x5555555555555555 ]
  done

(* Every interval [i, j] of a path on n vertices, inserted into a table
   sized like [Ccp]'s subset index (2 x count): the word hash must
   spread them. A fold that keeps the low bits of the top word puts
   every interval above bit ~12 into one bucket (1275 of 1953 at
   n = 62, 1501 of 5050 at n = 100). *)
let test_hash_intervals () =
  let module H = Hashtbl.Make (Bitset) in
  List.iter
    (fun n ->
      let count = n * (n + 1) / 2 in
      let tbl = H.create (2 * count) in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          H.add tbl (Bitset.of_list n (List.init (j - i + 1) (fun k -> i + k))) ()
        done
      done;
      let st = H.stats tbl in
      Alcotest.(check int) (Printf.sprintf "n=%d entries" n) count st.Hashtbl.num_bindings;
      if st.Hashtbl.max_bucket_length > 8 then
        Alcotest.failf "n=%d: max bucket %d > 8 over %d buckets" n st.Hashtbl.max_bucket_length
          st.Hashtbl.num_buckets)
    [ 62; 100; 128 ]

(* The multi-word subset walk: starting from sub = cand and stepping
   [decr_and sub cand], the walk must visit every nonempty subset of
   cand exactly once, in the same descending order as the classic
   single-word [(sub - 1) land cand] — checked against the reference
   decrement at capacities that straddle word seams. *)
let prop_bitset_decr_and =
  QCheck2.Test.make ~name:"decr_and walks subsets like the single-word idiom" ~count:200
    QCheck2.Gen.(
      let* n = oneofl [ 62; 63; 64; 126 ] in
      let* xs = list_size (int_range 1 6) (int_bound (n - 1)) in
      return (n, xs))
    (fun (n, xs) ->
      let cand = Bitset.of_list n xs in
      let k = Bitset.cardinal cand in
      if k = 0 then true
      else begin
        let sub = Bitset.copy cand in
        let _, rsub = Ref_model.of_list n xs in
        let rcand = Array.copy rsub in
        let seen = ref 0 and ok = ref true in
        let continue = ref true in
        while !continue do
          incr seen;
          if Bitset.elements sub
             <> Ref_model.elements (n, rsub)
          then ok := false;
          (* reference step: decrement, then mask back into cand *)
          Ref_model.decr (n, rsub);
          Array.iteri (fun i v -> rsub.(i) <- v && rcand.(i)) (Array.copy rsub);
          Bitset.decr_and sub cand;
          if Bitset.is_empty sub then continue := false
        done;
        !ok && !seen = (1 lsl k) - 1
      end)

let test_ugraph_basics () =
  let g = Ugraph.create 5 in
  Ugraph.add_edge g 0 1;
  Ugraph.add_edge g 1 2;
  Ugraph.add_edge g 1 2;
  (* idempotent *)
  Alcotest.(check int) "edge count" 2 (Ugraph.edge_count g);
  Alcotest.(check bool) "has_edge symmetric" true (Ugraph.has_edge g 2 1);
  Alcotest.(check int) "degree" 2 (Ugraph.degree g 1);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (1, 2) ] (Ugraph.edges g);
  Ugraph.remove_edge g 1 2;
  Alcotest.(check int) "after remove" 1 (Ugraph.edge_count g);
  Alcotest.check_raises "self loop" (Invalid_argument "Ugraph.add_edge: self-loop") (fun () ->
      Ugraph.add_edge g 3 3)

let test_complement () =
  let g = Gen.cycle 5 in
  let gc = Ugraph.complement g in
  Alcotest.(check int) "complement edges" 5 (Ugraph.edge_count gc);
  Alcotest.(check bool) "complement involution" true (Ugraph.equal g (Ugraph.complement gc));
  Alcotest.(check int) "complete edges" 10 (Ugraph.edge_count (Ugraph.complete 5))

let test_components () =
  let g = Ugraph.of_edges 6 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check int) "3 components" 3 (List.length (Ugraph.components g));
  Alcotest.(check bool) "not connected" false (Ugraph.is_connected g);
  Ugraph.add_edge g 2 4;
  Ugraph.add_edge g 0 3;
  Alcotest.(check bool) "now connected" true (Ugraph.is_connected g)

let test_induced_union_universal () =
  let g = Gen.cycle 6 in
  let sub = Ugraph.induced g [ 0; 1; 2 ] in
  Alcotest.(check int) "induced path edges" 2 (Ugraph.edge_count sub);
  let u = Ugraph.disjoint_union (Gen.path 3) (Gen.path 2) in
  Alcotest.(check int) "disjoint union" 3 (Ugraph.edge_count u);
  Alcotest.(check int) "union vertices" 5 (Ugraph.vertex_count u);
  let h = Ugraph.add_universal (Gen.path 3) 2 in
  Alcotest.(check int) "universal adds edges" (2 + 3 + 3 + 1) (Ugraph.edge_count h);
  Alcotest.(check int) "universal degree" 4 (Ugraph.degree h 3)

(* -------------------- Clique -------------------- *)

(* brute-force max clique for cross-checking *)
let brute_clique g =
  let n = Ugraph.vertex_count g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let vs = List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init n (fun i -> i)) in
    if Ugraph.is_clique g vs && List.length vs > !best then best := List.length vs
  done;
  !best

let prop_clique_exact =
  QCheck2.Test.make ~name:"max_clique matches brute force" ~count:60
    QCheck2.Gen.(pair (int_range 2 9) (int_range 0 100))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.5 in
      Clique.clique_number g = brute_clique g)

let prop_clique_is_clique =
  QCheck2.Test.make ~name:"max_clique returns a maximal clique" ~count:60
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 100))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.6 in
      let c = Clique.max_clique g in
      Ugraph.is_clique g c && Clique.is_maximal g c)

let prop_greedy_clique_valid =
  QCheck2.Test.make ~name:"greedy clique is a clique" ~count:60
    QCheck2.Gen.(pair (int_range 2 15) (int_range 0 100))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.5 in
      let c = Clique.greedy_clique g in
      Ugraph.is_clique g c && List.length c <= Clique.clique_number g)

(* Regression for the colour-cap pruning in colour_order: the bounded
   solver must stay exact on certified with_clique_number families
   (where the cap actually bites — the incumbent grows to omega), both
   with and without a target. *)
let test_bounded_clique_families () =
  List.iter
    (fun (n, omega) ->
      let g = Gen.with_clique_number ~n ~omega in
      let lbl s = Printf.sprintf "n=%d omega=%d: %s" n omega s in
      Alcotest.(check int) (lbl "max_clique size") omega (List.length (Clique.max_clique g));
      Alcotest.(check int) (lbl "clique_number") omega (Clique.clique_number g);
      Alcotest.(check bool) (lbl "has_clique omega") true (Clique.has_clique g omega);
      Alcotest.(check bool) (lbl "no omega+1 clique") false (Clique.has_clique g (omega + 1)))
    [ (6, 2); (9, 3); (12, 8); (15, 10); (18, 12); (20, 5); (21, 21) ]

let test_has_clique () =
  let g = Gen.planted_clique ~seed:5 ~n:25 ~k:7 ~p:0.2 in
  Alcotest.(check bool) "has 7" true (Clique.has_clique g 7);
  Alcotest.(check bool) "cycle no triangle" false (Clique.has_clique (Gen.cycle 8) 3);
  Alcotest.(check bool) "trivial" true (Clique.has_clique (Gen.cycle 8) 0)

let test_maximal_cliques () =
  (* triangle + pendant: maximal cliques {0,1,2} and {2,3} *)
  let g = Ugraph.of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let mc = Clique.maximal_cliques g in
  Alcotest.(check int) "count" 2 (List.length mc);
  Alcotest.(check bool) "contains triangle" true (List.mem [ 0; 1; 2 ] mc);
  Alcotest.(check bool) "contains edge" true (List.mem [ 2; 3 ] mc);
  (* limit *)
  Alcotest.(check int) "limited" 1 (List.length (Clique.maximal_cliques ~limit:1 g))

let prop_bron_kerbosch_count =
  QCheck2.Test.make ~name:"BK enumerates exactly the maximal cliques" ~count:40
    QCheck2.Gen.(pair (int_range 2 8) (int_range 0 50))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.5 in
      let bk = Clique.maximal_cliques g in
      (* brute force *)
      let all = ref [] in
      for mask = 1 to (1 lsl n) - 1 do
        let vs = List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init n (fun i -> i)) in
        if Ugraph.is_clique g vs && Clique.is_maximal g vs then all := vs :: !all
      done;
      List.sort compare bk = List.sort compare !all)

(* -------------------- Vertex cover -------------------- *)

let prop_vc_exact =
  QCheck2.Test.make ~name:"min vertex cover exact and valid" ~count:40
    QCheck2.Gen.(pair (int_range 2 9) (int_range 0 50))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.4 in
      let vc = Vertex_cover.min_vertex_cover g in
      (* brute force minimum size *)
      let best = ref n in
      for mask = 0 to (1 lsl n) - 1 do
        let vs = List.filter (fun v -> (mask lsr v) land 1 = 1) (List.init n (fun i -> i)) in
        if Vertex_cover.is_vertex_cover g vs then best := min !best (List.length vs)
      done;
      Vertex_cover.is_vertex_cover g vc && List.length vc = !best)

let prop_vc_two_approx =
  QCheck2.Test.make ~name:"2-approx within factor 2" ~count:40
    QCheck2.Gen.(pair (int_range 2 9) (int_range 0 50))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.4 in
      let approx = Vertex_cover.two_approx g in
      let exact = Vertex_cover.vertex_cover_number g in
      Vertex_cover.is_vertex_cover g approx && List.length approx <= 2 * exact)

let prop_greedy_cover_valid =
  QCheck2.Test.make ~name:"greedy cover valid" ~count:40
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 50))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.4 in
      Vertex_cover.is_vertex_cover g (Vertex_cover.greedy g))

(* -------------------- Generators -------------------- *)

let test_co_cluster () =
  let g = Gen.co_cluster ~sizes:[ 4; 3; 2; 1 ] in
  Alcotest.(check int) "vertices" 10 (Ugraph.vertex_count g);
  Alcotest.(check int) "omega = clusters" 4 (Clique.clique_number g);
  Alcotest.(check int) "min degree" (10 - 4) (Ugraph.min_degree g);
  Alcotest.check_raises "positive sizes" (Invalid_argument "Gen.co_cluster: nonpositive size")
    (fun () -> ignore (Gen.co_cluster ~sizes:[ 2; 0 ]))

let prop_with_clique_number =
  QCheck2.Test.make ~name:"with_clique_number exact" ~count:40
    QCheck2.Gen.(int_range 1 14)
    (fun omega ->
      let n = omega + (omega / 2) + 3 in
      let omega = min omega n in
      let g = Gen.with_clique_number ~n ~omega in
      Clique.clique_number g = omega)

let prop_random_tree =
  QCheck2.Test.make ~name:"random tree is a spanning tree" ~count:60
    QCheck2.Gen.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, seed) ->
      let t = Gen.random_tree ~seed ~n in
      Ugraph.vertex_count t = n && Ugraph.edge_count t = n - 1 && Ugraph.is_connected t)

let test_gnp_extremes () =
  Alcotest.(check int) "p=0" 0 (Ugraph.edge_count (Gen.gnp ~seed:1 ~n:10 ~p:0.0));
  Alcotest.(check int) "p=1" 45 (Ugraph.edge_count (Gen.gnp ~seed:1 ~n:10 ~p:1.0));
  Alcotest.(check int) "star" 6 (Ugraph.edge_count (Gen.star 6))

let prop_grid =
  QCheck2.Test.make ~name:"grid has mesh edge count and is connected" ~count:60
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 8))
    (fun (rows, cols) ->
      let g = Gen.grid ~rows ~cols in
      Ugraph.vertex_count g = rows * cols
      && Ugraph.edge_count g = (rows * (cols - 1)) + (cols * (rows - 1))
      && Ugraph.is_connected g)

let prop_connected_with_edges =
  QCheck2.Test.make ~name:"connected_with_edges exact and connected" ~count:80
    QCheck2.Gen.(pair (int_range 2 30) (int_range 0 1000))
    (fun (n, extra) ->
      let max_m = n * (n - 1) / 2 in
      let m = (n - 1) + (extra mod (max_m - n + 2)) in
      let g = Connect.connected_with_edges ~n ~m in
      Ugraph.edge_count g = m && Ugraph.is_connected g)

let prop_random_connected =
  QCheck2.Test.make ~name:"random_connected exact and connected" ~count:40
    QCheck2.Gen.(pair (int_range 2 20) (int_range 0 500))
    (fun (n, seed) ->
      let max_m = n * (n - 1) / 2 in
      let m = (n - 1) + (seed mod (max_m - n + 2)) in
      let g = Gen.random_connected ~seed ~n ~m in
      Ugraph.edge_count g = m && Ugraph.is_connected g)

(* -------------------- Color / degeneracy / Lemma 7 -------------------- *)

let prop_coloring_proper =
  QCheck2.Test.make ~name:"greedy coloring is proper" ~count:80
    QCheck2.Gen.(pair (int_range 1 25) (int_range 0 500))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.4 in
      Color.is_proper g (Color.greedy_coloring g))

let prop_sandwich =
  QCheck2.Test.make ~name:"omega <= chi_upper <= degeneracy + 1" ~count:60
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 500))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.5 in
      let omega = Clique.clique_number g in
      let chi = Color.chromatic_upper g in
      let d, _ = Color.degeneracy g in
      omega <= chi && chi <= d + 1)

let prop_degeneracy_order =
  QCheck2.Test.make ~name:"elimination order has <= d later neighbours" ~count:60
    QCheck2.Gen.(pair (int_range 1 20) (int_range 0 500))
    (fun (n, seed) ->
      let g = Gen.gnp ~seed ~n ~p:0.4 in
      let d, order = Color.degeneracy g in
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.for_all
        (fun v ->
          let later = Bitset.fold (fun u acc -> if pos.(u) > pos.(v) then acc + 1 else acc)
            (Ugraph.neighbors g v) 0 in
          later <= d)
        order)

let prop_lemma7 =
  QCheck2.Test.make ~name:"Lemma 7 edge bound holds on random graphs" ~count:60
    QCheck2.Gen.(pair (int_range 1 10) (int_range 0 500))
    (fun (n, seed) -> Color.lemma7_holds (Gen.gnp ~seed ~n ~p:0.6))

let test_color_cases () =
  (* complete graph: chi = n, degeneracy = n-1 *)
  let k5 = Ugraph.complete 5 in
  Alcotest.(check int) "K5 colors" 5 (Color.chromatic_upper k5);
  Alcotest.(check int) "K5 degeneracy" 4 (fst (Color.degeneracy k5));
  (* even cycle: 2 colors; odd: 3 with greedy on degeneracy order *)
  Alcotest.(check int) "C6 colors" 2 (Color.chromatic_upper (Gen.cycle 6));
  Alcotest.(check int) "C6 degeneracy" 2 (fst (Color.degeneracy (Gen.cycle 6)));
  Alcotest.(check int) "tree degeneracy" 1 (fst (Color.degeneracy (Gen.random_tree ~seed:3 ~n:20)));
  (* lemma 7 is tight on a clique plus isolated-ish structure *)
  Alcotest.(check int) "lemma7 bound K5" 10 (Color.lemma7_bound ~n:5 ~omega:5)

let () =
  Alcotest.run "graph"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "word boundaries: full/prefix/add/remove" `Quick
            test_bitset_boundary_full;
          Alcotest.test_case "bit_index = shift loop on every bit" `Quick test_bit_index;
          Alcotest.test_case "popcount = bit loop, sign bit included" `Quick test_popcount;
          Alcotest.test_case "hash spreads path intervals" `Quick test_hash_intervals;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_bitset_ops; prop_bitset_boundary_ops; prop_bitset_decr_and ] );
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_ugraph_basics;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "induced/union/universal" `Quick test_induced_union_universal;
        ] );
      ( "clique",
        [
          Alcotest.test_case "has_clique" `Quick test_has_clique;
          Alcotest.test_case "maximal cliques" `Quick test_maximal_cliques;
          Alcotest.test_case "bounded on certified families" `Quick
            test_bounded_clique_families;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_clique_exact;
              prop_clique_is_clique;
              prop_greedy_clique_valid;
              prop_bron_kerbosch_count;
            ] );
      ( "vertex_cover",
        List.map QCheck_alcotest.to_alcotest
          [ prop_vc_exact; prop_vc_two_approx; prop_greedy_cover_valid ] );
      ( "coloring",
        [ Alcotest.test_case "cases" `Quick test_color_cases ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_coloring_proper; prop_sandwich; prop_degeneracy_order; prop_lemma7 ] );
      ( "generators",
        [
          Alcotest.test_case "co_cluster" `Quick test_co_cluster;
          Alcotest.test_case "gnp extremes" `Quick test_gnp_extremes;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_with_clique_number;
              prop_random_tree;
              prop_grid;
              prop_connected_with_edges;
              prop_random_connected;
            ] );
    ]
