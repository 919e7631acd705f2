(* The experiment suite doubles as an integration test: every check in
   E1..E10 must pass. Runs the full harness quietly (~1-2 minutes). *)

(* Regression for the --jobs plumbing: a single experiment run with
   jobs > 1 must produce exactly the checks of the sequential run (the
   parallel DP layers are bit-identical, so label/ok/detail all agree).
   Before the fix, single-experiment runs dropped the jobs argument on
   the floor and silently ran sequentially. *)
let jobs_regression () =
  let strip c =
    (c.Harness.Experiments.label, c.Harness.Experiments.ok, c.Harness.Experiments.detail)
  in
  let seq = List.map strip (Harness.Experiments.e14_tree_frontier ~quiet:true ()) in
  let par = List.map strip (Harness.Experiments.e14_tree_frontier ~quiet:true ~jobs:2 ()) in
  Alcotest.(check bool) "e14 with --jobs 2 matches sequential run" true (seq = par)

(* E9's heuristic columns follow the solver registry: every entry with
   no optimality claim and a log-domain solver is priced in every
   (n, family) upper-bound check, and the checks pass at any job count. *)
let e9_follows_registry () =
  let heuristics =
    List.filter_map
      (fun (e : Solver.entry) ->
        if e.Solver.exact = None && Solver.Log.solve e <> None then Some e.Solver.name else None)
      Solver.all
  in
  Alcotest.(check bool) "the registry has heuristics" true (heuristics <> []);
  List.iter
    (fun jobs ->
      let checks = Harness.Experiments.e9_competitive ~quiet:true ~jobs () in
      let bounds =
        List.filter
          (fun c ->
            String.ends_with ~suffix:"heuristics are upper bounds" c.Harness.Experiments.label)
          checks
      in
      Alcotest.(check int) (Printf.sprintf "jobs %d: one bound check per (n, family)" jobs) 6
        (List.length bounds);
      List.iter
        (fun c ->
          let cols = String.split_on_char ' ' c.Harness.Experiments.detail in
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs %d: %s: column %s" jobs c.Harness.Experiments.label name)
                true
                (List.exists (String.starts_with ~prefix:(name ^ "=")) cols))
            heuristics)
        bounds;
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs %d: %s | %s" jobs c.Harness.Experiments.label
               c.Harness.Experiments.detail)
            true c.Harness.Experiments.ok)
        checks)
    [ 1; 2 ]

let () =
  let results = Harness.Experiments.all ~quiet:true () in
  let total = List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 results in
  let fails = Harness.Experiments.failures results in
  let jobs_cases =
    [
      ("jobs plumbing", [ Alcotest.test_case "e14 ~jobs:2 ≡ sequential" `Slow jobs_regression ]);
      ("registry", [ Alcotest.test_case "E9 prices every registry heuristic" `Slow e9_follows_registry ]);
    ]
  in
  let cases =
    List.map
      (fun (name, checks) ->
        ( name,
          List.map
            (fun c ->
              Alcotest.test_case c.Harness.Experiments.label `Slow (fun () ->
                  Alcotest.(check bool)
                    (c.Harness.Experiments.label ^ " | " ^ c.Harness.Experiments.detail)
                    true c.Harness.Experiments.ok))
            checks ))
      results
  in
  Printf.printf "experiment checks: %d total, %d failing\n%!" total (List.length fails);
  Alcotest.run "experiments" (cases @ jobs_cases)
