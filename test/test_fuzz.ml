(* lib/fuzz unit tests: oracle outcomes on known-good instances, the
   minimizing shrinker against deliberately broken checks, corpus I/O
   round trips, campaign determinism (sequential vs pooled), and the
   schema-versioned report. *)

module R = Qo.Gen_inst.R
module L = Qo.Gen_inst.L
module C = Qo.Rat_cost
module OR = Qo.Opt.Make (C)
module NR = Qo.Instances.Nl_rat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let outcome_str = function
  | Fuzz.Pass -> "pass"
  | Fuzz.Skip m -> "skip: " ^ m
  | Fuzz.Fail m -> "FAIL: " ^ m

(* -------------------------------------------------------------- oracles *)

(* Every shipped oracle must Pass or Skip — never Fail — on instances
   drawn from the shipped generators, including the adversarial ones. *)
let test_oracles_clean () =
  let cases =
    [
      ("chain5", Fuzz.Rat (R.chain ~seed:11 ~n:5 ()));
      ("tree7", Fuzz.Rat (R.tree ~seed:12 ~n:7 ()));
      ("cycle6", Fuzz.Rat (R.cycle ~seed:13 ~n:6 ()));
      ("clique5", Fuzz.Rat (R.clique ~seed:14 ~n:5 ()));
      ("log-grid", Fuzz.Log (L.grid ~seed:15 ~rows:2 ~cols:3 ()));
      ("log-star", Fuzz.Log (L.star ~seed:16 ~satellites:4 ()));
      ( "disconnected",
        Fuzz.Rat
          (R.over_graph ~seed:17
             ~graph:
               (Graphlib.Ugraph.disjoint_union (Graphlib.Gen.path 2)
                  (Graphlib.Gen.path 3))
             ()) );
      ("singleton", Fuzz.Rat (R.over_graph ~seed:18 ~graph:(Graphlib.Ugraph.create 1) ()));
    ]
  in
  List.iter
    (fun (label, case) ->
      List.iter
        (fun (name, outcome) ->
          match outcome with
          | Fuzz.Fail _ ->
              Alcotest.failf "%s / %s: %s" label name (outcome_str outcome)
          | Fuzz.Pass | Fuzz.Skip _ -> ())
        (Fuzz.replay case))
    cases

(* The registry's order and names are part of the report schema. *)
let test_registry () =
  check_int "registry size" 20 (List.length Fuzz.oracles);
  check "registry size floor" true (List.length Fuzz.oracles >= 15);
  check_str "trace-replay-det keeps its slot" "trace-replay-det"
    (List.nth Fuzz.oracles 18).Fuzz.name;
  check_str "front-map-blind closes the registry" "front-map-blind"
    (List.nth Fuzz.oracles 19).Fuzz.name;
  check_str "first oracle" "ccp-vs-dp" (List.hd Fuzz.oracles).Fuzz.name;
  let names = List.map (fun o -> o.Fuzz.name) Fuzz.oracles in
  check "ik-tree registered" true (List.mem "ik-tree" names);
  check "rat-vs-log registered" true (List.mem "rat-vs-log" names);
  check "ccp-words registered" true (List.mem "ccp-words" names);
  check "served-control registered" true (List.mem "served-control" names);
  check "heuristic-bound registered" true (List.mem "heuristic-bound" names);
  (* every solver-registry entry but the dp reference is generated *)
  List.iter
    (fun name -> check (name ^ " registered") true (List.mem name names))
    [ "ccp-vs-dp"; "conv-vs-dp"; "greedy-bound"; "sa-bound"; "simpli-bound"; "milp-vs-dp" ];
  check "the former names are not registry rows" false
    (List.mem "dp-vs-ccp" names || List.mem "conv-vs-ccp" names)

(* ------------------------------------------------- registry oracles *)

module OL = Qo.Instances.Opt_log

let entry name =
  match Solver.find name with Some e -> e | None -> Alcotest.failf "no entry %s" name

let generated e =
  match Fuzz.registry_oracle e with
  | Some o -> o
  | None -> Alcotest.failf "no oracle generated for %s" e.Solver.name

(* A rat instance (and its log image) on which greedy's plan is not
   dp's, found by a deterministic scan. *)
let greedy_suboptimal =
  lazy
    (let rec scan seed =
       if seed > 200 then Alcotest.fail "no instance where greedy differs from dp"
       else
         let ri = R.random ~seed ~n:6 ~p:0.6 () in
         let li = Qo.Instances.log_of_rat ri in
         if (OR.greedy ri).OR.seq <> (OR.dp ri).OR.seq
            && (OL.greedy li).OL.seq <> (OL.dp li).OL.seq
         then (ri, li)
         else scan (seed + 1)
     in
     scan 1)

let expect_fail label = function
  | Fuzz.Fail _ -> ()
  | o -> Alcotest.failf "%s: expected a failure, got %s" label (outcome_str o)

(* An entry that claims exactness but returns greedy's plan is caught
   in both domains. *)
let test_registry_oracle_fake_exact () =
  let ri, li = Lazy.force greedy_suboptimal in
  let fake =
    {
      (entry "dp") with
      Solver.name = "fake-exact";
      aliases = [];
      solve_rat = (fun ?pool i -> ignore pool; OR.greedy i);
      solve_log = Some (fun ?pool i -> ignore pool; OL.greedy i);
    }
  in
  let o = generated fake in
  check_str "exact entries get a -vs-dp oracle" "fake-exact-vs-dp" o.Fuzz.name;
  expect_fail "rat" (Fuzz.check_case o (Fuzz.Rat ri));
  expect_fail "log" (Fuzz.check_case o (Fuzz.Log li))

(* A heuristic that reports a cost its sequence does not realize is
   caught in both domains. *)
let test_registry_oracle_misreported_cost () =
  let ri, li = Lazy.force greedy_suboptimal in
  let fake =
    {
      (entry "simpli") with
      Solver.name = "fake-heuristic";
      solve_rat =
        (fun ?pool i ->
          ignore pool;
          let p = OR.greedy i in
          { p with OR.cost = C.mul p.OR.cost (C.of_int 2) });
      solve_log =
        Some
          (fun ?pool i ->
            ignore pool;
            let p = OL.greedy i in
            { p with OL.cost = Qo.Log_cost.mul p.OL.cost (Qo.Log_cost.of_int 2) });
    }
  in
  let o = generated fake in
  check_str "heuristics get a -bound oracle" "fake-heuristic-bound" o.Fuzz.name;
  expect_fail "rat" (Fuzz.check_case o (Fuzz.Rat ri));
  expect_fail "log" (Fuzz.check_case o (Fuzz.Log li))

(* The rational-only MILP entry skips log cases; dp, the reference,
   gets no generated oracle, and ccp, conv, greedy and sa get one each. *)
let test_registry_oracle_domains () =
  let _, li = Lazy.force greedy_suboptimal in
  check_str "milp on log" "skip: rational-domain oracle"
    (outcome_str (Fuzz.check_case (generated (entry "milp")) (Fuzz.Log li)));
  check "dp gets no oracle" true (Option.is_none (Fuzz.registry_oracle (entry "dp")));
  List.iter
    (fun (name, oracle) -> check_str name oracle (generated (entry name)).Fuzz.name)
    [ ("ccp", "ccp-vs-dp"); ("conv", "conv-vs-dp"); ("greedy", "greedy-bound"); ("sa", "sa-bound") ]

(* [?only] restricts the oracle set without disturbing the seeded case
   stream, and rejects unknown names. *)
let test_campaign_only () =
  let r = Fuzz.run_campaign ~only:[ "conv-vs-dp" ] ~seed:5 ~runs:10 () in
  check_int "one oracle" 1 (List.length r.Fuzz.per_oracle);
  check_str "the conv oracle" "conv-vs-dp" (fst (List.hd r.Fuzz.per_oracle));
  check_int "checks = runs" 10 r.Fuzz.checks;
  check_int "no failures" 0 r.Fuzz.fails;
  (* the former names resolve to the generated rows; an alias given
     with its target counts once *)
  let a = Fuzz.run_campaign ~only:[ "dp-vs-ccp"; "conv-vs-ccp"; "conv-vs-dp" ] ~seed:5 ~runs:10 () in
  check "aliases resolve" true
    (List.map fst a.Fuzz.per_oracle = [ "ccp-vs-dp"; "conv-vs-dp" ]);
  check_int "alias and target count once" 20 a.Fuzz.checks;
  Alcotest.check_raises "unknown oracle rejected"
    (Invalid_argument "Fuzz.run_campaign: unknown oracle \"no-such\"") (fun () ->
      ignore (Fuzz.run_campaign ~only:[ "no-such" ] ~seed:5 ~runs:1 ()))

(* ------------------------------------------------------------- shrinker *)

(* A check that fails whenever the instance still has a predicate:
   the shrinker must walk any connected instance down to the minimal
   witness — two relations joined by one edge (structural moves strip
   everything else; dropping further disconnects and the check passes). *)
let test_shrink_to_edge () =
  let fails_with_edge =
    Fuzz.oracle ~name:"test-edge" (fun case ->
        match case with
        | Fuzz.Rat i ->
            if List.length (Graphlib.Ugraph.edges i.NR.graph) > 0 then
              Fuzz.Fail "has an edge"
            else Fuzz.Pass
        | Fuzz.Log _ -> Fuzz.Pass)
  in
  let case = Fuzz.Rat (R.clique ~seed:21 ~n:7 ()) in
  let shrunk, steps = Fuzz.shrink fails_with_edge case in
  check_int "minimal witness has n=2" 2 (Fuzz.case_n shrunk);
  check "shrink made progress" true (steps > 0);
  (match Fuzz.check_case fails_with_edge shrunk with
  | Fuzz.Fail _ -> ()
  | o -> Alcotest.failf "shrunk case no longer fails: %s" (outcome_str o));
  match shrunk with
  | Fuzz.Rat i ->
      check_int "one edge left" 1 (List.length (Graphlib.Ugraph.edges i.NR.graph))
  | Fuzz.Log _ -> Alcotest.fail "domain changed under shrinking"

(* The acceptance scenario in miniature: a buggy local-search solver
   that understates its plan cost on any instance with >= 4 relations.
   The differential check against the exact DP catches it, and the
   shrinker must minimize the reproducer to the bug threshold. *)
let test_shrink_buggy_heuristic () =
  let buggy_ii inst =
    let p = OR.iterative_improvement ~seed:1 ~restarts:2 ~max_steps:100 inst in
    if NR.n inst >= 4 then { p with OR.cost = C.div p.OR.cost (C.of_int 2) }
    else p
  in
  let oracle =
    Fuzz.oracle ~name:"test-buggy-ii" (fun case ->
        match case with
        | Fuzz.Log _ -> Fuzz.Skip "rat only"
        | Fuzz.Rat i ->
            let p = buggy_ii i in
            let claimed = p.OR.cost and actual = NR.cost i p.OR.seq in
            if C.equal claimed actual then Fuzz.Pass
            else Fuzz.Fail "heuristic misreports its own plan cost")
  in
  let case = Fuzz.Rat (R.grid ~seed:22 ~rows:3 ~cols:3 ()) in
  (match Fuzz.check_case oracle case with
  | Fuzz.Fail _ -> ()
  | o -> Alcotest.failf "bug not detected on 3x3 grid: %s" (outcome_str o));
  let shrunk, _steps = Fuzz.shrink oracle case in
  check "reproducer minimized to the threshold" true (Fuzz.case_n shrunk <= 4);
  match Fuzz.check_case oracle shrunk with
  | Fuzz.Fail _ -> ()
  | o -> Alcotest.failf "reproducer no longer fails: %s" (outcome_str o)

(* Shrinking must preserve the property the oracle depends on: a check
   that only fails on CF-infeasible (disconnected) instances must end
   at two isolated relations, never a connected graph. *)
let test_shrink_preserves_infeasibility () =
  let fails_when_disconnected =
    Fuzz.oracle ~name:"test-disconnected" (fun case ->
        match case with
        | Fuzz.Log _ -> Fuzz.Skip "rat only"
        | Fuzz.Rat i ->
            let p = OR.dp_no_cartesian i in
            if C.equal p.OR.cost C.infinity then Fuzz.Fail "CF-infeasible"
            else Fuzz.Pass)
  in
  let g =
    Graphlib.Ugraph.disjoint_union
      (Graphlib.Gen.random_tree ~seed:31 ~n:4)
      (Graphlib.Gen.random_tree ~seed:32 ~n:3)
  in
  let case = Fuzz.Rat (R.over_graph ~seed:33 ~graph:g ()) in
  let shrunk, _ = Fuzz.shrink fails_when_disconnected case in
  check_int "minimal disconnected witness" 2 (Fuzz.case_n shrunk);
  match Fuzz.check_case fails_when_disconnected shrunk with
  | Fuzz.Fail _ -> ()
  | o -> Alcotest.failf "shrunk case became feasible: %s" (outcome_str o)

(* ----------------------------------------------------------- corpus I/O *)

let test_roundtrip_rat () =
  let case = Fuzz.Rat (R.grid ~seed:41 ~rows:2 ~cols:3 ()) in
  let s = Fuzz.dump_case ~comments:[ "a comment"; "another" ] case in
  let case' = Fuzz.parse_case s in
  check_str "domain survives" "rat" (Fuzz.case_domain case');
  check_str "re-dump is byte-identical" (Fuzz.dump_case case) (Fuzz.dump_case case')

let test_roundtrip_log () =
  let case = Fuzz.Log (L.tree ~seed:42 ~n:6 ()) in
  let s = Fuzz.dump_case case in
  let directive = "# fuzz-domain: log\n" in
  check "domain directive leads the dump" true
    (String.length s >= String.length directive
    && String.sub s 0 (String.length directive) = directive);
  let case' = Fuzz.parse_case s in
  check_str "domain survives" "log" (Fuzz.case_domain case');
  check_str "re-dump is byte-identical" (Fuzz.dump_case case) (Fuzz.dump_case case')

(* ------------------------------------------------------------ campaigns *)

let strip_seconds (r : Fuzz.result) = { r with Fuzz.seconds = 0.; failures = [] }

let test_campaign_deterministic () =
  let corpus = Array.of_list (List.map snd (Fuzz.load_corpus "does-not-exist")) in
  let a = Fuzz.run_campaign ~corpus ~seed:5 ~runs:30 () in
  let b = Fuzz.run_campaign ~corpus ~seed:5 ~runs:30 () in
  let c =
    Pool.with_pool ~jobs:4 (fun pool -> Fuzz.run_campaign ~pool ~corpus ~seed:5 ~runs:30 ())
  in
  check_int "no failures (a)" 0 a.Fuzz.fails;
  check_int "runs counted" 30 a.Fuzz.runs;
  check "sequential reruns agree" true (strip_seconds a = strip_seconds b);
  check "pooled run agrees with sequential" true (strip_seconds a = strip_seconds c);
  check_int "checks = runs * oracles" (30 * List.length Fuzz.oracles) a.Fuzz.checks;
  check "every bucket non-negative" true (List.for_all (fun (_, k) -> k >= 0) a.Fuzz.mix)

let test_report_schema () =
  let r = Fuzz.run_campaign ~seed:6 ~runs:5 () in
  let json = Fuzz.report_json ~jobs:1 ~seed:6 ~corpus:("fuzz/corpus", 0) r in
  let member k = Obs.Json.member k json in
  (match member "schema_version" with
  | Some (Obs.Json.Int 1) -> ()
  | _ -> Alcotest.fail "schema_version <> 1");
  (match member "kind" with
  | Some (Obs.Json.Str "qopt-fuzz-report") -> ()
  | _ -> Alcotest.fail "kind <> qopt-fuzz-report");
  (match member "totals" with
  | Some totals -> (
      match Obs.Json.member "runs" totals with
      | Some (Obs.Json.Int 5) -> ()
      | _ -> Alcotest.fail "totals.runs <> 5")
  | None -> Alcotest.fail "no totals");
  (match Option.bind (member "corpus") (Obs.Json.member "cases") with
  | Some (Obs.Json.Int 0) -> ()
  | _ -> Alcotest.fail "corpus.cases <> 0");
  check "member misses cleanly" true (member "no-such-key" = None);
  check "serializes" true (String.length (Obs.Json.to_string json) > 0)

let () =
  Alcotest.run "fuzz"
    [
      ( "oracles",
        [
          Alcotest.test_case "clean on shipped generators" `Quick test_oracles_clean;
          Alcotest.test_case "registry names and order" `Quick test_registry;
          Alcotest.test_case "generated: fake exact entry" `Quick
            test_registry_oracle_fake_exact;
          Alcotest.test_case "generated: misreported cost" `Quick
            test_registry_oracle_misreported_cost;
          Alcotest.test_case "generated: domains" `Quick test_registry_oracle_domains;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes to a single edge" `Quick test_shrink_to_edge;
          Alcotest.test_case "buggy heuristic reproducer" `Quick test_shrink_buggy_heuristic;
          Alcotest.test_case "preserves infeasibility" `Quick test_shrink_preserves_infeasibility;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "rat round trip" `Quick test_roundtrip_rat;
          Alcotest.test_case "log round trip" `Quick test_roundtrip_log;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic, jobs-invariant" `Quick test_campaign_deterministic;
          Alcotest.test_case "oracle filter" `Quick test_campaign_only;
          Alcotest.test_case "report schema" `Quick test_report_schema;
        ] );
    ]
