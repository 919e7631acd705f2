open Reductions
module NL = Qo.Instances.Nl_log
module OL = Qo.Instances.Opt_log
module NR = Qo.Instances.Nl_rat
module OR_ = Qo.Instances.Opt_rat
module IK = Qo.Instances.Ik_log
module CL = Qo.Instances.Ccp_log

type check = { label : string; ok : bool; detail : string }

let check label ok detail = { label; ok; detail }

(* Experiments whose inner loop is a (layer-parallel) subset DP accept
   [?jobs]; the plans are bit-identical at every job count, so only the
   wall-clock changes. *)
let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~jobs (fun pool -> f (Some pool)) else f None

(* Experiment output is routed through a domain-local sink so that a
   parallel run (run_all ~jobs) can buffer each experiment's tables and
   print them in experiment order once everything has finished —
   parallel output is byte-identical to sequential output. Outside a
   captured run the sink is unset and tables go straight to stdout. *)
let sink_key : Buffer.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let emit s =
  match !(Domain.DLS.get sink_key) with
  | Some buf -> Buffer.add_string buf s
  | None -> print_string s

let maybe_print quiet tbl = if not quiet then emit (Tables.render tbl)
let l2 = Logreal.to_log2

(* ------------------------------------------------------------------ *)
(* E1: QO_N gap (Lemmas 6 & 8, Theorem 9) *)

(* A certified CLIQUE promise pair at size n: co-cluster graphs with
   clique numbers exactly omega_yes / omega_no. *)
let promise_pair ~n ~omega_yes ~omega_no =
  let g_yes = Graphlib.Gen.with_clique_number ~n ~omega:omega_yes in
  let g_no = Graphlib.Gen.with_clique_number ~n ~omega:omega_no in
  let c = float_of_int omega_yes /. float_of_int n in
  let d = float_of_int (omega_yes - omega_no) /. float_of_int n in
  (g_yes, g_no, c, d)

(* The planted clique of a co-cluster graph: vertex 0 of each cluster =
   first vertices in order... clusters are contiguous ranges; one vertex
   per cluster forms a maximum clique. We recover it greedily (greedy
   is exact on co-cluster graphs when scanning in order). *)
let co_cluster_clique g omega =
  let cl = Graphlib.Clique.max_clique g in
  assert (List.length cl = omega);
  cl

let e1_qon_gap ?(quiet = false) ?(jobs = 1) () =
  with_jobs jobs @@ fun pool ->
  let log2_a = 8.0 in
  let tbl =
    Tables.create ~title:"E1: QO_N YES/NO gap (Lemmas 6+8, Thm 9); log2 costs"
      ~header:
        [ "n"; "w_yes"; "w_no"; "witness"; "opt_yes"; "K_cd"; "opt_no"; "no_lb"; "gap_bits" ]
  in
  let checks = ref [] in
  List.iter
    (fun n ->
      let omega_yes = (3 * n) + 3 in
      let omega_yes = omega_yes / 4 in
      let omega_no = 3 * n / 5 in
      let g_yes, g_no, c, d = promise_pair ~n ~omega_yes ~omega_no in
      let ry = Fn.reduce ~graph:g_yes ~c ~d ~log2_a in
      let rn = Fn.reduce ~graph:g_no ~c ~d ~log2_a in
      let clique = co_cluster_clique g_yes omega_yes in
      let witness = NL.cost ry.Fn.instance (Fn.clique_first_seq ry clique) in
      let opt_yes = (OL.dp ?pool ry.Fn.instance).OL.cost in
      let opt_no = (OL.dp ?pool rn.Fn.instance).OL.cost in
      Tables.add_row tbl
        [
          string_of_int n;
          string_of_int omega_yes;
          string_of_int omega_no;
          Tables.cell_log2 witness;
          Tables.cell_log2 opt_yes;
          Tables.cell_log2 ry.Fn.k_cd;
          Tables.cell_log2 opt_no;
          Tables.cell_log2 rn.Fn.no_lower_bound;
          Tables.cell_f (l2 opt_no -. l2 opt_yes);
        ];
      let lbl s = Printf.sprintf "E1[n=%d] %s" n s in
      checks :=
        !checks
        @ [
            check (lbl "witness achieves optimum within slack")
              (l2 witness -. l2 opt_yes < log2_a)
              (Printf.sprintf "witness 2^%.1f vs opt 2^%.1f" (l2 witness) (l2 opt_yes));
            check (lbl "YES optimum <= K_cd (Lemma 6)")
              (Logreal.compare opt_yes ry.Fn.k_cd <= 0)
              (Printf.sprintf "2^%.1f <= 2^%.1f" (l2 opt_yes) (l2 ry.Fn.k_cd));
            check (lbl "NO optimum >= Lemma-8 bound")
              (Logreal.compare opt_no rn.Fn.no_lower_bound >= 0)
              (Printf.sprintf "2^%.1f >= 2^%.1f" (l2 opt_no) (l2 rn.Fn.no_lower_bound));
            check (lbl "gap grows with n * log a")
              (l2 opt_no -. l2 opt_yes >= log2_a)
              (Printf.sprintf "%.1f bits" (l2 opt_no -. l2 opt_yes));
          ])
    [ 12; 15; 18; 21 ];
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E2: the H_i profile (Lemma 5) *)

let e2_profile ?(quiet = false) () =
  let log2_a = 8.0 in
  let n = 20 in
  let omega = 15 in
  let g, _, c, d = promise_pair ~n ~omega_yes:omega ~omega_no:(omega - 3) in
  let r = Fn.reduce ~graph:g ~c ~d ~log2_a in
  let clique = co_cluster_clique g omega in
  let seq = Fn.clique_first_seq r clique in
  let h = NL.join_costs r.Fn.instance seq in
  let tbl =
    Tables.create ~title:"E2: H_i profile along the clique-first sequence (Lemma 5)"
      ~header:[ "i"; "log2 H_i"; "B_i"; "D_i" ]
  in
  let d_arr = NL.prefix_edge_counts r.Fn.instance seq in
  Array.iteri
    (fun i hi ->
      Tables.add_row tbl
        [
          string_of_int (i + 1);
          Tables.cell_f (l2 hi);
          string_of_int (NL.back_edges r.Fn.instance seq (i + 2));
          string_of_int d_arr.(i + 1);
        ])
    h;
  maybe_print quiet tbl;
  (* peak position and decay checks *)
  let p_real = (c -. (d /. 2.0)) *. float_of_int n in
  let peak_i = ref 0 in
  Array.iteri (fun i hi -> if Logreal.compare hi h.(!peak_i) > 0 then peak_i := i) h;
  let peak_pos = !peak_i + 1 in
  let rise_ok = ref true in
  for i = 0 to !peak_i - 1 do
    if Logreal.compare h.(i) h.(i + 1) > 0 then rise_ok := false
  done;
  (* Lemma 5: beyond the clique prefix, H_{i+1} <= H_i / 2 *)
  let decay_ok = ref true in
  for i = omega - 1 to Array.length h - 2 do
    if l2 h.(i + 1) > l2 h.(i) -. 1.0 +. 1e-9 then decay_ok := false
  done;
  [
    check "E2 peak at floor/ceil of (c-d/2)n"
      (abs (peak_pos - int_of_float p_real) <= 1)
      (Printf.sprintf "peak at i=%d, (c-d/2)n=%.1f" peak_pos p_real);
    check "E2 profile non-decreasing up to the peak" !rise_ok "";
    check "E2 halving decay beyond the clique (Lemma 5)" !decay_ok "";
  ]

(* ------------------------------------------------------------------ *)
(* E3: QO_H gap (Lemmas 11-14, Theorem 15) *)

let e3_qoh_gap ?(quiet = false) () =
  let log2_a = 8.0 in
  let tbl =
    Tables.create ~title:"E3: QO_H YES/NO gap (Lemmas 12+14, Thm 15); log2 costs"
      ~header:[ "n"; "w_yes"; "w_no"; "witness"; "opt_yes"; "L"; "opt_no"; "G"; "method" ]
  in
  let checks = ref [] in
  List.iter
    (fun n ->
      (* a promise drop of at least 2 keeps G/L = a^{n eps/3 - 1} a real
         gap (a drop of 1 makes the exponent exactly 0) *)
      let omega_yes = 2 * n / 3 and omega_no = (2 * n / 3) - Stdlib.max 2 (n / 6) in
      let g_yes, g_no, _, _ = promise_pair ~n ~omega_yes ~omega_no in
      let ry = Fh.reduce ~graph:g_yes ~log2_a () in
      let rn = Fh.reduce ~graph:g_no ~log2_a () in
      let clique = co_cluster_clique g_yes omega_yes in
      let witness = Fh.lemma12_cost ry ~clique in
      let eps = float_of_int (omega_yes - omega_no) *. 3.0 /. float_of_int n in
      let gb = Fh.g_bound rn ~eps in
      let exact = n <= 6 in
      let opt_yes, opt_no =
        if exact then
          ( (Qo.Hash.exhaustive ry.Fh.instance).Qo.Hash.cost,
            (Qo.Hash.exhaustive rn.Fh.instance).Qo.Hash.cost )
        else
          ( (Qo.Hash.simulated_annealing ~seed:n ry.Fh.instance).Qo.Hash.cost,
            (Qo.Hash.simulated_annealing ~seed:n rn.Fh.instance).Qo.Hash.cost )
      in
      Tables.add_row tbl
        [
          string_of_int n;
          string_of_int omega_yes;
          string_of_int omega_no;
          Tables.cell_log2 witness;
          Tables.cell_log2 opt_yes;
          Tables.cell_log2 ry.Fh.l_bound;
          Tables.cell_log2 opt_no;
          Tables.cell_log2 gb;
          (if exact then "exhaustive" else "annealing");
        ];
      let lbl s = Printf.sprintf "E3[n=%d] %s" n s in
      checks :=
        !checks
        @ [
            check (lbl "witness within O(1) powers of L (Lemma 12)")
              (l2 witness -. l2 ry.Fh.l_bound < 3.0 *. log2_a)
              (Printf.sprintf "witness 2^%.1f vs L 2^%.1f" (l2 witness) (l2 ry.Fh.l_bound));
            check (lbl "NO cost >= G within O(1) (Lemma 14)")
              (l2 opt_no >= l2 gb -. (3.0 *. log2_a))
              (Printf.sprintf "2^%.1f vs G 2^%.1f" (l2 opt_no) (l2 gb));
            check (lbl "YES strictly cheaper than NO")
              (Logreal.compare opt_yes opt_no < 0)
              (Printf.sprintf "2^%.1f < 2^%.1f" (l2 opt_yes) (l2 opt_no));
          ])
    [ 6; 9; 12 ];
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E4: Lemma 10 memory allocation *)

let e4_memory ?(quiet = false) () =
  let log2_a = 8.0 in
  let n = 12 in
  let g = Graphlib.Gen.with_clique_number ~n ~omega:(2 * n / 3) in
  let r = Fh.reduce ~graph:g ~log2_a () in
  let inst = r.Fh.instance in
  let clique = co_cluster_clique g (2 * n / 3) in
  let seq, _ = Fh.lemma12_plan r ~clique in
  let ns = Qo.Hash.prefix_sizes inst seq in
  let _hjmin_t = Logreal.pow r.Fh.t_size inst.Qo.Hash.nu in
  let tbl =
    Tables.create ~title:"E4: optimal pipeline memory allocation (Lemma 10)"
      ~header:[ "joins"; "feasible"; "n_starved"; "starved_joins"; "pipeline_cost" ]
  in
  let checks = ref [] in
  let run_case ~i ~k expect_min =
    let len = k - i + 1 in
    match Qo.Hash.allocate inst ~ns seq ~i ~k with
    | None ->
        Tables.add_row tbl [ string_of_int len; "no"; "-"; "-"; "-" ];
        checks := !checks @ [ check (Printf.sprintf "E4 %d joins feasible" len) false "" ]
    | Some allocs ->
        (* "starved" = hash table does not fit fully in memory. The
           exact optimal allocation hands the leftover budget to one
           starved join (m = 2 hjmin rather than hjmin) - the Theta-level
           behaviour of Lemma 10 is the starved count, not the exact
           minimum. *)
        let is_starved a = l2 a.Qo.Hash.memory_given < l2 a.Qo.Hash.inner -. 1e-6 in
        let mins = List.filter is_starved allocs in
        let cost = Qo.Hash.pipeline_cost inst ~ns seq ~i ~k in
        Tables.add_row tbl
          [
            string_of_int len;
            "yes";
            string_of_int (List.length mins);
            String.concat "," (List.map (fun a -> string_of_int a.Qo.Hash.join) mins);
            Tables.cell_log2 cost;
          ];
        let lbl = Printf.sprintf "E4 pipeline of %d joins: %d starved allocations" len expect_min in
        checks := !checks @ [ check lbl (List.length mins = expect_min)
            (Printf.sprintf "got %d" (List.length mins)) ];
        (* Lemma 10: starved joins are those with the smallest outers *)
        if expect_min > 0 then begin
          let sorted =
            List.sort
              (fun a b ->
                Logreal.compare ns.(a.Qo.Hash.join - 1) ns.(b.Qo.Hash.join - 1))
              allocs
          in
          let smallest = List.filteri (fun idx _ -> idx < expect_min) sorted in
          let ok =
            List.for_all (fun a -> List.exists (fun b -> b.Qo.Hash.join = a.Qo.Hash.join) mins) smallest
          in
          checks :=
            !checks
            @ [ check (Printf.sprintf "E4 %d joins: starved = smallest outers" len) ok "" ]
        end
  in
  (* pipelines over joins 2..k of the clique-first sequence (inner
     sizes all t): n/3 - 1, n/3 and n/3 + 1 joins *)
  run_case ~i:2 ~k:(2 + (n / 3) - 2) 0;
  run_case ~i:2 ~k:(2 + (n / 3) - 1) 1;
  run_case ~i:2 ~k:(2 + (n / 3)) 2;
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E5 / E6: sparse reductions (Theorems 16, 17) *)

let e5_sparse_qon ?(quiet = false) ?(jobs = 1) () =
  with_jobs jobs @@ fun pool ->
  let tbl =
    Tables.create ~title:"E5: sparse QO_N gap at prescribed edge count (Thm 16)"
      ~header:
        [ "n"; "k"; "m"; "e(m)"; "witness_yes"; "K_cd"; "no_lb"; "greedy_no"; "dp_ccp"; "certified" ]
  in
  let checks = ref [] in
  List.iter
    (fun (n, k, tau) ->
      let omega_yes = 3 * n / 4 and omega_no = n / 2 in
      let g_yes, g_no, c, d = promise_pair ~n ~omega_yes ~omega_no in
      (* e(m) = m + ceil(m^tau) + base requirement, kept inside budget *)
      let lo, _ = Fne.edge_budget ~graph:g_yes ~k in
      let e m = Stdlib.max lo (m + int_of_float (Float.pow (float_of_int m) tau)) in
      let ry = Fne.reduce ~graph:g_yes ~c ~d ~k ~e () in
      let rn = Fne.reduce ~graph:g_no ~c ~d ~k ~e () in
      let clique = co_cluster_clique g_yes omega_yes in
      let witness = NL.cost ry.Fne.instance (Fne.witness_seq ry ~clique) in
      let greedy_no = (OL.greedy ~starts:3 rn.Fne.instance).OL.cost in
      let certified = Logreal.compare witness rn.Fne.no_lower_bound < 0 in
      (* The reduction instances are connected by construction, so the
         connected-subgraph DP gives the exact CF optimum where the
         vertex count fits a bitmask; the lattice DP confirms it
         bit-for-bit on the smallest case. *)
      let ccp =
        if ry.Fne.m <= 18 then
          Some (CL.dp_connected ?pool ry.Fne.instance, CL.dp_connected ?pool rn.Fne.instance)
        else None
      in
      Tables.add_row tbl
        [
          string_of_int n;
          string_of_int k;
          string_of_int ry.Fne.m;
          string_of_int ry.Fne.edges;
          Tables.cell_log2 witness;
          Tables.cell_log2 ry.Fne.k_cd;
          Tables.cell_log2 rn.Fne.no_lower_bound;
          Tables.cell_log2 greedy_no;
          (match ccp with Some (py, _) -> Tables.cell_log2 py.OL.cost | None -> "n/a");
          (if n >= 8 then Tables.cell_bool certified else "small-n");
        ];
      let lbl s = Printf.sprintf "E5[n=%d,k=%d] %s" n k s in
      checks :=
        !checks
        @ [
            check (lbl "edge count exactly e(m)")
              (ry.Fne.edges = e ry.Fne.m
              && Graphlib.Ugraph.edge_count ry.Fne.instance.NL.graph = e ry.Fne.m)
              "";
            (* the certified separation is asymptotic; at the bitmask-
               sized warm-up case (n = 4) only the Lemma-6 side binds *)
            (if n >= 8 then
               check (lbl "YES witness beats NO lower bound") certified
                 (Printf.sprintf "2^%.1f < 2^%.1f" (l2 witness) (l2 rn.Fne.no_lower_bound))
             else
               check (lbl "witness within K_cd (small-n regime)")
                 (Logreal.compare witness ry.Fne.k_cd <= 0)
                 (Printf.sprintf "2^%.1f <= 2^%.1f" (l2 witness) (l2 ry.Fne.k_cd)));
            check (lbl "greedy on NO cannot beat the bound")
              (Logreal.compare greedy_no rn.Fne.no_lower_bound >= 0)
              "";
          ]
        @
        match ccp with
        | None -> []
        | Some (py, pn) ->
            let lat_y = OL.dp_no_cartesian ?pool ry.Fne.instance in
            let lat_n = OL.dp_no_cartesian ?pool rn.Fne.instance in
            [
              check (lbl "connected DP bit-identical to lattice DP")
                (Logreal.compare py.OL.cost lat_y.OL.cost = 0
                && py.OL.seq = lat_y.OL.seq
                && Logreal.compare pn.OL.cost lat_n.OL.cost = 0
                && pn.OL.seq = lat_n.OL.seq)
                (Printf.sprintf "ccp 2^%.1f vs lattice 2^%.1f" (l2 py.OL.cost)
                   (l2 lat_y.OL.cost));
              check (lbl "YES exact CF optimum <= witness")
                (Logreal.compare py.OL.cost witness <= 0)
                (Printf.sprintf "2^%.1f <= 2^%.1f" (l2 py.OL.cost) (l2 witness));
              check (lbl "NO exact CF optimum >= Lemma-8 bound")
                (Logreal.compare pn.OL.cost rn.Fne.no_lower_bound >= 0)
                (Printf.sprintf "2^%.1f >= 2^%.1f" (l2 pn.OL.cost)
                   (l2 rn.Fne.no_lower_bound));
            ])
    [ (4, 2, 1.0); (16, 2, 1.0); (8, 3, 0.7); (10, 3, 0.7) ];
  maybe_print quiet tbl;
  !checks

let e6_sparse_qoh ?(quiet = false) () =
  let tbl =
    Tables.create ~title:"E6: sparse QO_H gap at prescribed edge count (Thm 17)"
      ~header:[ "n"; "k"; "m"; "e(m)"; "witness_yes"; "L"; "G_no"; "greedy_no"; "certified" ]
  in
  let checks = ref [] in
  List.iter
    (fun (n, k, tau) ->
      (* a promise drop of at least 2 keeps G/L = a^{n eps/3 - 1} a real
         gap (a drop of 1 makes the exponent exactly 0) *)
      let omega_yes = 2 * n / 3 and omega_no = (2 * n / 3) - Stdlib.max 2 (n / 6) in
      let g_yes, g_no, _, _ = promise_pair ~n ~omega_yes ~omega_no in
      let lo, _ = Fhe.edge_budget ~graph:g_yes ~k in
      let e m = Stdlib.max lo (m + int_of_float (Float.pow (float_of_int m) tau)) in
      let ry = Fhe.reduce ~graph:g_yes ~k ~e () in
      let rn = Fhe.reduce ~graph:g_no ~k ~e () in
      let clique = co_cluster_clique g_yes omega_yes in
      let wseq, wdec = Fhe.witness_plan ry ~clique in
      let witness = Qo.Hash.cost_of_decomposition ry.Fhe.instance wseq wdec in
      let eps = float_of_int (omega_yes - omega_no) *. 3.0 /. float_of_int n in
      let gb = Fh.g_bound rn.Fhe.fh ~eps in
      (* greedy (not random-start annealing): the hub-first structure is
         forced, and random sequences are almost never feasible *)
      let greedy_no = (Qo.Hash.greedy rn.Fhe.instance).Qo.Hash.cost in
      let log2_a = rn.Fhe.fh.Fh.log2_a in
      (* the Theorem-17 gap G/L is one power of a (for promise drop 2):
         certify with a quarter-power margin *)
      let certified = l2 witness < l2 gb -. (0.25 *. log2_a) in
      Tables.add_row tbl
        [
          string_of_int n;
          string_of_int k;
          string_of_int ry.Fhe.m;
          string_of_int ry.Fhe.edges;
          Tables.cell_log2 witness;
          Tables.cell_log2 ry.Fhe.fh.Fh.l_bound;
          Tables.cell_log2 gb;
          Tables.cell_log2 greedy_no;
          Tables.cell_bool certified;
        ];
      let lbl s = Printf.sprintf "E6[n=%d,k=%d] %s" n k s in
      checks :=
        !checks
        @ [
            check (lbl "edge count exactly e(m)")
              (ry.Fhe.edges = e ry.Fhe.m
              && Graphlib.Ugraph.edge_count ry.Fhe.instance.Qo.Hash.graph = e ry.Fhe.m)
              "";
            check (lbl "witness within O(1) powers of L")
              (l2 witness -. l2 ry.Fhe.fh.Fh.l_bound < 3.0 *. log2_a)
              (Printf.sprintf "2^%.1f vs 2^%.1f" (l2 witness) (l2 ry.Fhe.fh.Fh.l_bound));
            check (lbl "YES witness far below NO G-bound") certified
              (Printf.sprintf "2^%.1f << 2^%.1f" (l2 witness) (l2 gb));
            check (lbl "greedy on NO stays above the YES witness")
              (Logreal.compare greedy_no witness > 0)
              "";
          ])
    [ (6, 2, 1.0); (9, 2, 0.8) ];
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E7: end-to-end Theorem 9 chain *)

let e7_chain ?(quiet = false) ?(max_blocks = 20) () =
  let tbl =
    Tables.create ~title:"E7: 3SAT -> VC -> CLIQUE -> QO_N end-to-end (Thm 9)"
      ~header:[ "blocks"; "n"; "sat?"; "witness_yes"; "K_cd"; "no_lb(unsat)"; "certified" ]
  in
  let checks = ref [] in
  List.iter
    (fun b ->
      if b <= max_blocks then begin
        (* size-matched promise pair: same (v, m) shape on both sides *)
        let sat_f = Sat.Gen.planted_blocks ~seed:b ~blocks:b in
        let unsat_f = Sat.Gen.all_sign_blocks ~blocks:b in
        let cs = Chain.theorem9 sat_f in
        let cu = Chain.theorem9 unsat_f in
        let wit = Option.get cs.Chain.witness_cost in
        let no_lb = cu.Chain.fn.Fn.no_lower_bound in
        let certified = Logreal.compare wit no_lb < 0 in
        Tables.add_row tbl
          [
            string_of_int b;
            string_of_int cs.Chain.lemma3.Lemma3.n;
            Printf.sprintf "%b/%b" cs.Chain.satisfiable cu.Chain.satisfiable;
            Tables.cell_log2 wit;
            Tables.cell_log2 cs.Chain.fn.Fn.k_cd;
            Tables.cell_log2 no_lb;
            (if certified then "yes" else "not yet (small n)");
          ];
        let lbl s = Printf.sprintf "E7[b=%d] %s" b s in
        checks :=
          !checks
          @ [
              check (lbl "DPLL decides the promise")
                (cs.Chain.satisfiable && not cu.Chain.satisfiable)
                "";
              (* the certified separation needs d n / 2 to clear the
                 degree defect: blocks >= ~8 *)
              (if b >= 10 then
                 check (lbl "certified YES < NO separation") certified
                   (Printf.sprintf "2^%.1f < 2^%.1f" (l2 wit) (l2 no_lb))
               else
                 check (lbl "witness within K (small-n regime)")
                   (l2 wit < l2 cs.Chain.fn.Fn.k_cd +. (60.0 *. 8.0))
                   "asymptotic bound not yet binding");
            ]
      end)
    [ 1; 4; 10; 20 ];
  maybe_print quiet tbl;
  (* lemma-level exactness on one small pair *)
  let f = Sat.Gen.planted ~seed:5 ~nvars:4 ~nclauses:6 in
  let l3 = Lemma3.reduce f in
  let omega = Graphlib.Clique.clique_number l3.Lemma3.graph in
  let u = Sat.Gen.all_sign_blocks ~blocks:1 in
  let l3u = Lemma3.reduce u in
  let omega_u = Graphlib.Clique.clique_number l3u.Lemma3.graph in
  !checks
  @ [
      check "E7 Lemma3 clique = 5v+4m exactly on a sat formula"
        (omega = l3.Lemma3.yes_clique)
        (Printf.sprintf "omega=%d target=%d" omega l3.Lemma3.yes_clique);
      check "E7 Lemma3 clique <= bound on the 7/8-unsat block"
        (omega_u <= l3u.Lemma3.no_clique_bound 1)
        (Printf.sprintf "omega=%d bound=%d" omega_u (l3u.Lemma3.no_clique_bound 1));
    ]

(* ------------------------------------------------------------------ *)
(* E8: the Appendix chain *)

let e8_appendix ?(quiet = false) () =
  let tbl =
    Tables.create ~title:"E8: PARTITION -> SPPCS -> SQO-CP (Appendix A+B)"
      ~header:[ "numbers"; "partition"; "sppcs"; "sqocp"; "consistent" ]
  in
  let checks = ref [] in
  let cases =
    [
      [ 1; 1 ];
      [ 3; 1; 2 ];
      [ 1; 2; 3 ];
      [ 2; 3; 5 ];
      [ 1; 1; 1; 1 ];
      [ 5; 4; 3; 2 ];
      [ 7; 3; 5; 1 ];
      [ 2; 2; 3; 3; 4 ];
    ]
  in
  List.iter
    (fun bs ->
      let ch = Chain.appendix bs in
      let consistent =
        ch.Chain.partitionable = ch.Chain.sppcs_yes && ch.Chain.sppcs_yes = ch.Chain.sqocp_yes
      in
      Tables.add_row tbl
        [
          "[" ^ String.concat ";" (List.map string_of_int bs) ^ "]";
          string_of_bool ch.Chain.partitionable;
          string_of_bool ch.Chain.sppcs_yes;
          string_of_bool ch.Chain.sqocp_yes;
          Tables.cell_bool consistent;
        ];
      checks :=
        !checks
        @ [
            check
              (Printf.sprintf "E8 chain consistent on [%s]"
                 (String.concat ";" (List.map string_of_int bs)))
              consistent
              (Printf.sprintf "partition=%b sppcs=%b sqocp=%b" ch.Chain.partitionable
                 ch.Chain.sppcs_yes ch.Chain.sqocp_yes);
          ];
      Sppcs_to_sqocp.check_invariants ch.Chain.sqocp)
    cases;
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E9: competitive ratios of polynomial-time optimizers *)

(* The heuristic columns: every solver-registry entry with no
   optimality claim and a log-domain solver, in registry order, so a
   newly registered heuristic lands in this table with no harness edit;
   then the E9-only baselines min-size greedy, II and GA, seeded by n. *)
let e9_columns : (string * (int -> NL.t -> OL.plan)) list =
  List.filter_map
    (fun (e : Solver.entry) ->
      match (e.Solver.exact, Solver.Log.solve e) with
      | None, Some solve -> Some (e.Solver.name, fun _ inst -> solve inst)
      | _ -> None)
    Solver.all
  @ [
      ("greedy_sz", fun _ inst -> OL.greedy ~mode:OL.Min_size inst);
      ("II", fun n inst -> OL.iterative_improvement ~seed:n inst);
      ("GA", fun n inst -> OL.genetic ~seed:n ~generations:60 inst);
    ]

let e9_competitive ?(quiet = false) ?(jobs = 1) () =
  with_jobs jobs @@ fun pool ->
  let log2_a = 8.0 in
  let tbl =
    Tables.create
      ~title:"E9: polynomial-time optimizers vs exact optimum (ratio in bits, log2(alg/opt))"
      ~header:([ "n"; "family" ] @ List.map fst e9_columns @ [ "opt(log2)" ])
  in
  let checks = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (fam, omega) ->
          let g = Graphlib.Gen.with_clique_number ~n ~omega in
          let c = float_of_int omega /. float_of_int n in
          let r = Fn.reduce ~graph:g ~c ~d:(c /. 2.0) ~log2_a in
          let inst = r.Fn.instance in
          let opt = (OL.dp ?pool inst).OL.cost in
          let ratios =
            List.map
              (fun (name, solve) -> (name, l2 (solve n inst).OL.cost -. l2 opt))
              e9_columns
          in
          Tables.add_row tbl
            ([ string_of_int n; fam ]
            @ List.map (fun (_, b) -> Tables.cell_f b) ratios
            @ [ Tables.cell_f (l2 opt) ]);
          checks :=
            !checks
            @ [
                check
                  (Printf.sprintf "E9[n=%d,%s] heuristics are upper bounds" n fam)
                  (List.for_all (fun (_, b) -> b >= -1e-6) ratios)
                  (String.concat " "
                     (List.map (fun (name, b) -> Printf.sprintf "%s=%.2f" name b) ratios));
              ])
        [ ("dense", (3 * n) / 4); ("sparse", n / 3) ])
    [ 12; 16; 20 ];
  maybe_print quiet tbl;
  (* IK on trees: polynomial and exact *)
  let ik_ok = ref true in
  for seed = 1 to 10 do
    let n = 5 + (seed mod 6) in
    let g = Graphlib.Gen.random_tree ~seed ~n in
    let sel = Array.make_matrix n n Logreal.one in
    let sizes = Array.init n (fun i -> Logreal.of_int (10 + (17 * i mod 90))) in
    let st = Random.State.make [| seed; 3 |] in
    List.iter
      (fun (i, j) ->
        let s = Logreal.of_float (1.0 /. float_of_int (1 + Random.State.int st 20)) in
        sel.(i).(j) <- s;
        sel.(j).(i) <- s)
      (Graphlib.Ugraph.edges g);
    let w =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i <> j && Graphlib.Ugraph.has_edge g i j then
                Logreal.max (Logreal.mul sizes.(i) sel.(i).(j))
                  (Logreal.min sizes.(i) (Logreal.of_int (1 + ((i + j) mod 7))))
              else sizes.(i)))
    in
    let inst = NL.make ~graph:g ~sel ~sizes ~w in
    let cik, _ = IK.solve inst in
    let cdp = (OL.dp_no_cartesian inst).OL.cost in
    if not (Logreal.approx_equal ~tol:1e-6 cik cdp) then ik_ok := false
  done;
  !checks
  @ [ check "E9 IK rank algorithm exact on 10 random tree queries" !ik_ok "" ]

(* ------------------------------------------------------------------ *)
(* E10: cross-validation *)

let e10_crossval ?(quiet = false) () =
  let checks = ref [] in
  let st = Random.State.make [| 2025 |] in
  (* log-domain vs exact rationals on random instances *)
  let max_diff = ref 0.0 in
  for trial = 1 to 25 do
    let n = 2 + Random.State.int st 5 in
    let g = Graphlib.Gen.gnp ~seed:(trial * 31) ~n ~p:0.6 in
    let sizes = Array.init n (fun _ -> Qo.Rat_cost.of_int (1 + Random.State.int st 60)) in
    let sel = Array.make_matrix n n Qo.Rat_cost.one in
    let w = Array.make_matrix n n Qo.Rat_cost.zero in
    List.iter
      (fun (i, j) ->
        let s = Qo.Rat_cost.of_ints 1 (1 + Random.State.int st 25) in
        sel.(i).(j) <- s;
        sel.(j).(i) <- s)
      (Graphlib.Ugraph.edges g);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          if Graphlib.Ugraph.has_edge g i j then
            w.(i).(j) <-
              Qo.Rat_cost.min sizes.(i)
                (Qo.Rat_cost.max
                   (Qo.Rat_cost.mul sizes.(i) sel.(i).(j))
                   (Qo.Rat_cost.of_int (1 + Random.State.int st 12)))
          else w.(i).(j) <- sizes.(i)
      done
    done;
    let ri = NR.make ~graph:g ~sel ~sizes ~w in
    let li = Qo.Instances.log_of_rat ri in
    let co = (OR_.dp ri).OR_.cost and cl = (OL.dp li).OL.cost in
    let diff = Float.abs (Qo.Rat_cost.to_log2 co -. l2 cl) in
    if diff > !max_diff then max_diff := diff;
    (* exhaustive agrees with dp *)
    let ce = (OR_.exhaustive ri).OR_.cost in
    if not (Qo.Rat_cost.equal ce co) then
      checks := !checks @ [ check (Printf.sprintf "E10 trial %d exhaustive=dp" trial) false "" ]
  done;
  checks :=
    !checks
    @ [
        check "E10 log-domain optimum == exact rational optimum (25 random instances)"
          (!max_diff < 1e-6)
          (Printf.sprintf "max |log2 diff| = %g" !max_diff);
      ];
  (* reduction post-conditions *)
  let g = Graphlib.Gen.with_clique_number ~n:15 ~omega:10 in
  let r = Fn.reduce ~graph:g ~c:(10.0 /. 15.0) ~d:0.2 ~log2_a:8.0 in
  let inst = r.Fn.instance in
  let w_ok = ref true in
  let n = NL.n inst in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let lo = Logreal.mul inst.NL.sizes.(i) inst.NL.sel.(i).(j) in
        if Logreal.compare inst.NL.w.(i).(j) lo < 0 then w_ok := false;
        if Logreal.compare inst.NL.w.(i).(j) inst.NL.sizes.(i) > 0 then w_ok := false
      end
    done
  done;
  let fh = Fh.reduce ~graph:(Graphlib.Gen.with_clique_number ~n:12 ~omega:8) ~log2_a:8.0 () in
  let hub_infeasible =
    Logreal.compare (Logreal.pow fh.Fh.t0 fh.Fh.instance.Qo.Hash.nu) fh.Fh.memory > 0
  in
  (* fixed-point exponential vs float on small arguments *)
  let fx_ok = ref true in
  for num = 0 to 8 do
    let c =
      Bignum.Fixed.exp_ceil ~q:30 ~num:(Bignum.Bignat.of_int num) ~den:(Bignum.Bignat.of_int 8)
    in
    let expect = Float.ceil ((2.0 ** 30.0) *. Float.exp (float_of_int num /. 8.0)) in
    if Float.abs (Bignum.Bignat.to_float c -. expect) > 1.0 then fx_ok := false
  done;
  let tbl =
    Tables.create ~title:"E10: cross-validation summary"
      ~header:[ "validation"; "result" ]
  in
  Tables.add_row tbl
    [ "log-domain vs exact rational optimum (25 instances), max |log2 diff|";
      Printf.sprintf "%g" !max_diff ];
  Tables.add_row tbl [ "f_N access-path constraints t_j s <= w <= t_j"; Tables.cell_bool !w_ok ];
  Tables.add_row tbl [ "f_H hub hash table exceeds memory"; Tables.cell_bool hub_infeasible ];
  Tables.add_row tbl [ "fixed-point exp matches float ceiling at q=30"; Tables.cell_bool !fx_ok ];
  maybe_print quiet tbl;
  !checks
  @ [
      check "E10 f_N access-path constraints t_j s <= w <= t_j" !w_ok "";
      check "E10 f_H hub hash table cannot fit memory (forces v0 first)" hub_infeasible "";
      check "E10 fixed-point exp matches float ceiling at q=30" !fx_ok "";
    ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E11: the a(n) dial - the gap is linear in log a (Theorem 9's knob) *)

let e11_alpha_sweep ?(quiet = false) ?(jobs = 1) () =
  with_jobs jobs @@ fun pool ->
  let n = 16 in
  let omega_yes = 12 and omega_no = 8 in
  let g_yes, g_no, c, d = promise_pair ~n ~omega_yes ~omega_no in
  let tbl =
    Tables.create
      ~title:"E11: gap scaling in log a (a = 4^{n^{1/delta}} makes it 2^{log^{1-d} K})"
      ~header:[ "log2(a)"; "opt_yes"; "opt_no"; "gap_bits"; "gap/log2(a)" ]
  in
  let slopes = ref [] in
  List.iter
    (fun log2_a ->
      let ry = Fn.reduce ~graph:g_yes ~c ~d ~log2_a in
      let rn = Fn.reduce ~graph:g_no ~c ~d ~log2_a in
      let oy = (OL.dp ?pool ry.Fn.instance).OL.cost in
      let on_ = (OL.dp ?pool rn.Fn.instance).OL.cost in
      let gap = l2 on_ -. l2 oy in
      slopes := (log2_a, gap) :: !slopes;
      Tables.add_row tbl
        [
          Tables.cell_f log2_a;
          Tables.cell_log2 oy;
          Tables.cell_log2 on_;
          Tables.cell_f gap;
          Tables.cell_f (gap /. log2_a);
        ])
    [ 2.0; 4.0; 8.0; 16.0; 32.0 ];
  maybe_print quiet tbl;
  (* the normalized gap (powers of a) must be constant across the sweep *)
  let ratios = List.map (fun (la, gap) -> gap /. la) !slopes in
  let mn = List.fold_left Float.min Float.infinity ratios in
  let mx = List.fold_left Float.max Float.neg_infinity ratios in
  [
    check "E11 gap exponent (in powers of a) constant across the a-sweep"
      (mx -. mn < 0.05)
      (Printf.sprintf "powers of a in [%.3f, %.3f]" mn mx);
    check "E11 gap positive at every a" (mn > 0.0) "";
  ]

(* ------------------------------------------------------------------ *)
(* E12: memory sweep for QO_H *)

let e12_memory_sweep ?(quiet = false) () =
  let n = 6 in
  let g = Graphlib.Gen.with_clique_number ~n ~omega:4 in
  let base = Fh.reduce ~graph:g ~log2_a:8.0 () in
  let tbl =
    Tables.create ~title:"E12: QO_H optimal cost vs memory budget (n=6, exhaustive)"
      ~header:[ "M / M_fh"; "memory"; "optimal cost"; "fragments" ]
  in
  let inst0 = base.Fh.instance in
  let costs = ref [] in
  List.iter
    (fun factor ->
      let memory = Logreal.mul base.Fh.memory (Logreal.of_float factor) in
      let inst = { inst0 with Qo.Hash.memory } in
      let p = Qo.Hash.exhaustive inst in
      costs := (factor, p.Qo.Hash.cost) :: !costs;
      Tables.add_row tbl
        [
          Tables.cell_f factor;
          Tables.cell_log2 memory;
          Tables.cell_log2 p.Qo.Hash.cost;
          string_of_int (List.length p.Qo.Hash.decomposition);
        ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ];
  maybe_print quiet tbl;
  (* monotone: more memory never hurts *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !costs in
  let monotone = ref true in
  let rec chk = function
    | (_, c1) :: ((_, c2) :: _ as rest) ->
        if Logreal.compare c2 c1 > 0 then monotone := false;
        chk rest
    | _ -> ()
  in
  chk sorted;
  (* starving the whole system: below hjmin(t) nothing can run *)
  let tiny = { inst0 with Qo.Hash.memory = Logreal.of_log2 (Logreal.to_log2 (Qo.Hash.hjmin inst0 base.Fh.t_size) -. 1.0) } in
  let p_tiny = Qo.Hash.exhaustive tiny in
  [
    check "E12 cost non-increasing in memory" !monotone "";
    check "E12 below hjmin(t) every plan is infeasible"
      (not (Logreal.compare p_tiny.Qo.Hash.cost Logreal.infinity < 0))
      "";
  ]

(* ------------------------------------------------------------------ *)
(* E13: the hjmin exponent nu *)

let e13_nu_sweep ?(quiet = false) () =
  let n = 9 in
  let g = Graphlib.Gen.with_clique_number ~n ~omega:6 in
  let tbl =
    Tables.create ~title:"E13: f_H under different hjmin exponents nu (hjmin = b^nu)"
      ~header:[ "nu"; "t0"; "M"; "hub forced?"; "witness"; "L" ]
  in
  let checks = ref [] in
  List.iter
    (fun nu ->
      let r = Fh.reduce ~nu ~graph:g ~log2_a:8.0 () in
      let forced =
        Logreal.compare (Logreal.pow r.Fh.t0 nu) r.Fh.memory > 0
      in
      let clique = co_cluster_clique g 6 in
      let wit = Fh.lemma12_cost r ~clique in
      Tables.add_row tbl
        [
          Tables.cell_f nu;
          Tables.cell_log2 r.Fh.t0;
          Tables.cell_log2 r.Fh.memory;
          Tables.cell_bool forced;
          Tables.cell_log2 wit;
          Tables.cell_log2 r.Fh.l_bound;
        ];
      checks :=
        !checks
        @ [
            check (Printf.sprintf "E13[nu=%.1f] hub hash table exceeds memory" nu) forced "";
            check
              (Printf.sprintf "E13[nu=%.1f] witness within O(1) powers of L" nu)
              (l2 wit -. l2 r.Fh.l_bound < 3.0 *. 8.0)
              (Printf.sprintf "2^%.1f vs 2^%.1f" (l2 wit) (l2 r.Fh.l_bound));
          ])
    [ 0.3; 0.5; 0.7 ];
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E14: the tractability frontier (Section 6.3) *)

let e14_tree_frontier ?(quiet = false) ?(jobs = 1) () =
  with_jobs jobs @@ fun pool ->
  let n = 14 in
  let tbl =
    Tables.create
      ~title:"E14: trees are easy, chords close the door (Sec 6.3); log2 costs"
      ~header:
        [ "extra edges"; "edges"; "opt"; "opt(no-cart)"; "IK(tree)"; "greedy"; "SA"; "IK exact?" ]
  in
  let checks = ref [] in
  List.iter
    (fun extra ->
      let inst = Qo.Gen_inst.L.tree_plus ~seed:5 ~n ~extra () in
      (* both optima: cross products CAN win on these instances (the
         Cluet-Moerkotte phenomenon the paper cites as [2]) *)
      let opt = (OL.dp ?pool inst).OL.cost in
      (* the connected-subgraph DP is the natural optimizer on these
         near-tree graphs; the lattice DP double-checks it bit-for-bit *)
      let ccp_plan = CL.dp_connected ?pool inst in
      let lat_plan = OL.dp_no_cartesian ?pool inst in
      let ccp_identical =
        Logreal.compare ccp_plan.OL.cost lat_plan.OL.cost = 0
        && ccp_plan.OL.seq = lat_plan.OL.seq
      in
      let opt_nc = ccp_plan.OL.cost in
      let greedy = (OL.greedy inst).OL.cost in
      let sa = (OL.simulated_annealing ~seed:extra inst).OL.cost in
      let ik_cost, ik_exact =
        if extra = 0 then begin
          let c, _ = IK.solve inst in
          (Some c, Logreal.approx_equal ~tol:1e-6 c opt_nc)
        end
        else (None, false)
      in
      Tables.add_row tbl
        [
          string_of_int extra;
          string_of_int (Graphlib.Ugraph.edge_count inst.NL.graph);
          Tables.cell_f (l2 opt);
          Tables.cell_f (l2 opt_nc);
          (match ik_cost with Some c -> Tables.cell_f (l2 c) | None -> "n/a");
          Tables.cell_f (l2 greedy);
          Tables.cell_f (l2 sa);
          (if extra = 0 then string_of_bool ik_exact else "-");
        ];
      checks :=
        !checks
        @ [
            check
              (Printf.sprintf "E14[+%d chords] connected DP bit-identical to lattice DP" extra)
              ccp_identical
              (Printf.sprintf "ccp 2^%.1f vs lattice 2^%.1f" (l2 ccp_plan.OL.cost)
                 (l2 lat_plan.OL.cost));
          ];
      if extra = 0 then
        checks :=
          !checks
          @ [ check "E14 IK exact on the pure tree" ik_exact "" ]
      else
        checks :=
          !checks
          @ [
              check
                (Printf.sprintf "E14[+%d chords] heuristics stay above the optimum" extra)
                (l2 greedy >= l2 opt -. 1e-6 && l2 sa >= l2 opt -. 1e-6)
                "";
            ])
    [ 0; 1; 2; 4; 8 ];
  maybe_print quiet tbl;
  !checks

(* ------------------------------------------------------------------ *)
(* E15: the printed Appendix A.5 constants vs the reconstruction *)

let e15_printed_vs_reconstructed ?(quiet = false) () =
  let tbl =
    Tables.create
      ~title:
        "E15: Appendix A.5 as printed (OCR) vs the reconstruction, against exact PARTITION"
      ~header:[ "numbers"; "PARTITION"; "reconstruction"; "printed-constants" ]
  in
  let cases =
    [
      [ 1; 1 ];
      [ 3; 1; 2 ];
      [ 1; 2; 3 ];
      [ 2; 3; 5 ];
      [ 1; 1; 1; 1 ];
      [ 5; 4; 3; 2 ];
      [ 7; 3; 5; 1 ];
      [ 2; 2; 3; 3; 4 ];
      [ 1; 3; 4; 6 ];
      [ 6; 2; 5; 3 ];
    ]
  in
  let recon_ok = ref 0 and printed_ok = ref 0 in
  List.iter
    (fun bs ->
      let part = Sqo.Partition.decide bs in
      let recon =
        Sqo.Sppcs.decide (Partition_to_sppcs.reduce bs).Partition_to_sppcs.sppcs
      in
      let printed =
        Sqo.Sppcs.decide (Partition_to_sppcs.paper_text bs).Partition_to_sppcs.sppcs
      in
      if recon = part then incr recon_ok;
      if printed = part then incr printed_ok;
      Tables.add_row tbl
        [
          "[" ^ String.concat ";" (List.map string_of_int bs) ^ "]";
          string_of_bool part;
          (if recon = part then "agrees" else "DISAGREES");
          (if printed = part then "agrees" else "disagrees");
        ])
    cases;
  maybe_print quiet tbl;
  let total = List.length cases in
  [
    check "E15 reconstruction agrees with PARTITION on every instance" (!recon_ok = total)
      (Printf.sprintf "%d/%d" !recon_ok total);
    check "E15 printed constants demonstrably broken (motivating the reconstruction)"
      (!printed_ok < total)
      (Printf.sprintf "printed agrees only %d/%d" !printed_ok total);
  ]

type run = {
  name : string;
  checks : check list;
  output : string;
  seconds : float;
  counters : (string * int) list;
}

let registry : (string * (quiet:bool -> jobs:int -> check list)) array =
  [|
    ("E1", fun ~quiet ~jobs -> e1_qon_gap ~quiet ~jobs ());
    ("E2", fun ~quiet ~jobs:_ -> e2_profile ~quiet ());
    ("E3", fun ~quiet ~jobs:_ -> e3_qoh_gap ~quiet ());
    ("E4", fun ~quiet ~jobs:_ -> e4_memory ~quiet ());
    ("E5", fun ~quiet ~jobs -> e5_sparse_qon ~quiet ~jobs ());
    ("E6", fun ~quiet ~jobs:_ -> e6_sparse_qoh ~quiet ());
    ("E7", fun ~quiet ~jobs:_ -> e7_chain ~quiet ());
    ("E8", fun ~quiet ~jobs:_ -> e8_appendix ~quiet ());
    ("E9", fun ~quiet ~jobs -> e9_competitive ~quiet ~jobs ());
    ("E10", fun ~quiet ~jobs:_ -> e10_crossval ~quiet ());
    ("E11", fun ~quiet ~jobs -> e11_alpha_sweep ~quiet ~jobs ());
    ("E12", fun ~quiet ~jobs:_ -> e12_memory_sweep ~quiet ());
    ("E13", fun ~quiet ~jobs:_ -> e13_nu_sweep ~quiet ());
    ("E14", fun ~quiet ~jobs -> e14_tree_frontier ~quiet ~jobs ());
    ("E15", fun ~quiet ~jobs:_ -> e15_printed_vs_reconstructed ~quiet ());
  |]

(* Every experiment is independent (own tables, own Random.State seeds),
   so they can run concurrently; each one's output is captured in a
   buffer and the buffers are flushed in E1..E15 order at the end, so
   the printed report does not depend on [jobs]. *)
let run_all ?(quiet = false) ?(jobs = 1) () =
  let run_one (name, f) =
    let slot = Domain.DLS.get sink_key in
    let saved = !slot in
    let buf = Buffer.create 256 in
    slot := Some buf;
    (* registry experiments run wholly on the calling domain (each gets
       ~jobs:1 here), so the domain-local snapshot attributes counters to
       this experiment exactly, even when experiments run concurrently *)
    let before = Obs.snapshot_local () in
    let checks, seconds =
      Fun.protect
        ~finally:(fun () -> (Domain.DLS.get sink_key) := saved)
        (fun () -> Obs.span ("experiment." ^ name) (fun () -> Obs.time (fun () -> f ~quiet ~jobs:1)))
    in
    let counters = Obs.diff before (Obs.snapshot_local ()) in
    { name; checks; output = Buffer.contents buf; seconds; counters }
  in
  let runs =
    if jobs <= 1 then Array.map run_one registry
    else Pool.with_pool ~jobs (fun pool -> Pool.parallel_map pool run_one registry)
  in
  let runs = Array.to_list runs in
  List.iter (fun r -> print_string r.output) runs;
  runs

let all ?quiet ?jobs () =
  List.map (fun r -> (r.name, r.checks)) (run_all ?quiet ?jobs ())

let failures results =
  List.concat_map
    (fun (name, checks) ->
      List.filter_map (fun c -> if c.ok then None else Some (name, c)) checks)
    results

(* Schema-versioned JSON run report ([qopt experiment ... --report]).
   Key order is fixed so reports diff cleanly across runs. *)
let report_json ~jobs runs =
  let open Obs.Json in
  let check_json c =
    Obj [ ("label", Str c.label); ("ok", Bool c.ok); ("detail", Str c.detail) ]
  in
  let run_json r =
    Obj
      [
        ("name", Str r.name);
        ("seconds", Float r.seconds);
        ("checks", Arr (List.map check_json r.checks));
        ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) r.counters));
      ]
  in
  let total = List.fold_left (fun acc r -> acc + List.length r.checks) 0 runs in
  let failed =
    List.fold_left
      (fun acc r -> acc + List.length (List.filter (fun c -> not c.ok) r.checks))
      0 runs
  in
  let global =
    List.filter_map
      (fun (k, v) -> if v <> 0 then Some (k, Int v) else None)
      (Obs.snapshot ())
  in
  Obj
    [
      ("schema_version", Int 1);
      ("kind", Str "qopt-experiment-report");
      ("jobs", Int jobs);
      ("experiments", Arr (List.map run_json runs));
      ("totals", Obj [ ("checks", Int total); ("failures", Int failed) ]);
      ("counters", Obj global);
    ]
