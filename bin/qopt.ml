(* qopt — command-line driver for the reproduction.

   Subcommands:
     experiment   run one of E1..E15 (or "all") and report check results
     explain      generate a query, optimize, print EXPLAIN-style plans
     solve        decide a DIMACS CNF with the DPLL solver
     optimize     build an f_N co-cluster instance and compare optimizers
     serve        long-running request/response optimization service
     fuzz         differential/metamorphic fuzzing campaign or replay
     chain        run the Theorem-9 chain on generated formulas
     appendix     run PARTITION -> SPPCS -> SQO-CP on a number list *)

open Cmdliner

(* --jobs N / QOPT_JOBS: worker-domain count for the parallel paths
   (0 = auto-detect via Domain.recommended_domain_count). *)
let jobs_term =
  let doc =
    "Worker domains for the parallel paths (experiment suite, subset DP). 0 auto-detects \
     the host's recommended domain count. Defaults to 1 (sequential); results are \
     bit-identical at every setting."
  in
  let env = Cmd.Env.info "QOPT_JOBS" ~doc:"Default for $(b,--jobs)." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~env ~docv:"N" ~doc)

let resolve_jobs jobs = if jobs <= 0 then Pool.recommended_jobs () else jobs

(* Hand [f] a pool only when it would actually be used — [with_pool] at
   jobs = 1 still spawns a domain. *)
let with_jobs jobs f =
  if jobs > 1 then Pool.with_pool ~jobs (fun pool -> f (Some pool)) else f None

(* --algo: the featured solver, straight from the registry. The enum
   maps every canonical name and alias to the canonical name (safe to
   compare and print, unlike entry records full of closures); [algo_of]
   resolves it back to the registry entry after parsing. *)
let algo_conv =
  Arg.enum (List.map (fun (s, e) -> (s, e.Solver.name)) Solver.cli_choices)

let algo_of name =
  match Solver.find name with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "unregistered algo %S" name)

let algo_term =
  let doc =
    "Featured solver (from the solver registry): "
    ^ String.concat "; "
        (List.filter_map
           (fun (e : Solver.entry) ->
             if e.Solver.in_cli then
               Some (Printf.sprintf "$(b,%s) — %s" e.Solver.name e.Solver.doc)
             else None)
           Solver.all)
    ^ "."
  in
  Arg.(value & opt algo_conv "dp" & info [ "algo" ] ~docv:"ALGO" ~doc)

(* The optimize portfolio, written once over the cost domain: the
   featured solver's preamble, then either its solve or a one-line skip
   when the instance exceeds the entry's interactive cap or cost domain,
   then the four heuristics. Plan lines go through Serve.render_plan —
   serve responses must be byte-identical to this output. *)
let skip_line label reason = Printf.printf "%-22s skipped: %s\n" label reason

module Portfolio (D : Solver.DOMAIN) = struct
  let show label (p : D.O.plan) =
    print_endline (Serve.render_plan ~label ~log2_cost:(D.to_log2 p.D.O.cost) ~seq:p.D.O.seq)

  let run (e : Solver.entry) ~jobs inst =
    (match D.preamble e with Some f -> print_string (f inst) | None -> ());
    (match (D.solve e, e.Solver.interactive_cap) with
    | None, _ -> skip_line e.Solver.label "rational domain only"
    | Some _, Some cap when D.I.n inst > cap ->
        skip_line e.Solver.label (Printf.sprintf "n > %d (try --algo %s)" cap (Solver.hint e))
    | Some solve, _ -> with_jobs jobs (fun pool -> show e.Solver.label (solve ?pool inst)));
    show "greedy (min cost)" (D.O.greedy ~mode:D.O.Min_cost inst);
    show "greedy (min size)" (D.O.greedy ~mode:D.O.Min_size inst);
    show "iterative improve" (D.O.iterative_improvement inst);
    show "simulated anneal" (D.O.simulated_annealing inst)
end

module Portfolio_rat = Portfolio (Solver.Rat)
module Portfolio_log = Portfolio (Solver.Log)

(* ---------------- observability flags ---------------- *)

(* Counters always count; these flags only control reporting, so the
   default (flag-free) output of every subcommand stays byte-identical. *)
let stats_conv = Arg.enum [ ("text", `Text); ("json", `Json) ]

let stats_term =
  let doc =
    "Print the observability report (counters and spans) after the run. $(docv) is \
     $(b,text) (default when the flag is given bare) or $(b,json)."
  in
  Arg.(value & opt (some stats_conv) None ~vopt:(Some `Text) & info [ "stats" ] ~docv:"FORMAT" ~doc)

let trace_term =
  let doc =
    "Write the run's spans as Chrome trace-event JSON to $(docv) (open in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let setup_obs stats trace = if stats <> None || trace <> None then Obs.set_enabled true

let finish_obs stats trace =
  (match trace with Some path -> Obs.write_trace path | None -> ());
  match stats with
  | Some `Text -> print_string (Obs.render_stats ())
  | Some `Json -> print_endline (Obs.Json.to_string (Obs.stats_json ()))
  | None -> ()

let exit_of_fails fails =
  if fails = [] then 0
  else begin
    List.iter
      (fun (e, c) ->
        Printf.eprintf "FAIL %s: %s (%s)\n" e c.Harness.Experiments.label
          c.Harness.Experiments.detail)
      fails;
    1
  end

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let id =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id: e1..e15 or 'all'.")
  in
  let report_term =
    let doc = "Write a schema-versioned JSON run report (checks, timings, counters) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let run id jobs stats trace report =
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    let open Harness.Experiments in
    (* single-experiment runs thread the resolved job count into the
       experiments with a parallel DP inner loop (the others are
       sequential by nature) — "qopt experiment e9 --jobs 8" must not
       silently run on one domain *)
    let single (name, f) =
      let before = Obs.snapshot () in
      let checks, seconds =
        Obs.span ("experiment." ^ name) (fun () -> Obs.time (fun () -> f ~quiet:false ~jobs))
      in
      [ { name; checks; output = ""; seconds; counters = Obs.diff before (Obs.snapshot ()) } ]
    in
    let runs =
      match String.lowercase_ascii id with
      | "all" -> run_all ~jobs ()
      | id -> (
          match Array.find_opt (fun (name, _) -> String.lowercase_ascii name = id) registry with
          | Some entry -> single entry
          | None ->
              Printf.eprintf "unknown experiment %S\n" id;
              exit 2)
    in
    let results = List.map (fun r -> (r.name, r.checks)) runs in
    let total = List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 results in
    let fails = failures results in
    Printf.printf "\n%d checks, %d failures\n" total (List.length fails);
    (match report with
    | Some path -> Obs.Json.write_file path (report_json ~jobs runs)
    | None -> ());
    (match stats with
    | Some `Text ->
        Printf.printf "\n== per-experiment metrics (jobs=%d) ==\n" jobs;
        List.iter
          (fun r ->
            Printf.printf "  %-4s %8.2fs  %3d checks\n" r.name r.seconds
              (List.length r.checks);
            List.iter
              (fun (k, v) -> Printf.printf "         %-40s %12d\n" k v)
              r.counters)
          runs
    | Some `Json | None -> ());
    finish_obs stats trace;
    exit_of_fails fails
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run reproduction experiments (tables + checks)")
    Term.(const run $ id $ jobs_term $ stats_term $ trace_term $ report_term)

(* ---------------- solve ---------------- *)

let solve_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DIMACS CNF file.")
  in
  let run file stats trace =
    setup_obs stats trace;
    let f = Sat.Dimacs.load_file file in
    let code =
      match Obs.span "solve.dpll" (fun () -> Sat.Dpll.solve_with_stats f) with
      | Sat.Dpll.Sat a, decisions ->
          Printf.printf "s SATISFIABLE (%d decisions)\nv " decisions;
          for v = 1 to Sat.Cnf.nvars f do
            Printf.printf "%d " (if a.(v) then v else -v)
          done;
          print_endline "0";
          0
      | Sat.Dpll.Unsat, decisions ->
          Printf.printf "s UNSATISFIABLE (%d decisions)\n" decisions;
          0
    in
    finish_obs stats trace;
    code
  in
  Cmd.v (Cmd.info "solve" ~doc:"Decide a DIMACS CNF with the built-in DPLL solver")
    Term.(const run $ file $ stats_term $ trace_term)

(* ---------------- shapes by name ---------------- *)

let shape_doc =
  String.concat ", " (List.map (fun (name, _) -> "$(b," ^ name ^ ")") Qo.Gen_inst.shapes)

(* --shape for gen and explain *)
let shape_term =
  Arg.(value & opt (enum Qo.Gen_inst.shapes) Qo.Gen_inst.Random
       & info [ "shape" ] ~docv:"SHAPE" ~doc:("Query graph shape, one of " ^ shape_doc ^ "."))

(* A shape is defined from [Gen_inst.min_n] relations up; below that,
   fail before building anything. *)
let check_shape_n shape n =
  let m = Qo.Gen_inst.min_n shape in
  if n < m then begin
    Printf.eprintf "qopt: --shape %s needs -n >= %d (got %d)\n" (Qo.Gen_inst.shape_name shape) m n;
    exit 2
  end

(* ---------------- optimize ---------------- *)

let optimize_cmd =
  let n = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Query-graph vertices.") in
  let omega = Arg.(value & opt int 12 & info [ "omega" ] ~doc:"Planted clique number.") in
  let log2a = Arg.(value & opt float 8.0 & info [ "log2a" ] ~doc:"log2 of the parameter a.") in
  let shape =
    let family =
      Arg.enum (("cocluster", None) :: List.map (fun (name, s) -> (name, Some s)) Qo.Gen_inst.shapes)
    in
    let doc =
      "Instance family: $(b,cocluster) (the hard f_N co-cluster instance; the default) or a \
       random log-domain instance over a query graph of one of the shapes " ^ shape_doc ^ "."
    in
    Arg.(value & opt family None & info [ "shape" ] ~docv:"SHAPE" ~doc)
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed (non-cocluster shapes).")
  in
  let file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file"; "f" ]
          ~docv:"FILE"
          ~doc:"Optimize the QO_N instance in $(docv) instead of generating one.")
  in
  let domain =
    let doc = "Cost domain for $(b,--file): $(b,rat) (exact rationals) or $(b,log)." in
    Arg.(value & opt (Arg.enum [ ("rat", `Rat); ("log", `Log) ]) `Rat
         & info [ "domain" ] ~docv:"DOMAIN" ~doc)
  in
  let portfolio_file path domain algo jobs =
    let load loader =
      try loader path
      with Invalid_argument msg | Sys_error msg ->
        Printf.eprintf "qopt: %s\n" msg;
        exit 2
    in
    let e = algo_of algo in
    match domain with
    | `Rat -> Portfolio_rat.run e ~jobs (load Qo.Io.load_rat)
    | `Log -> Portfolio_log.run e ~jobs (load Qo.Io.load_log)
  in
  let run n omega log2a shape seed file domain algo jobs stats trace =
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    match file with
    | Some path ->
        portfolio_file path domain algo jobs;
        finish_obs stats trace;
        0
    | None ->
    let inst =
      match shape with
      | None ->
          if omega < 1 || omega > n then begin
            Printf.eprintf "omega must be in [1, n]\n";
            exit 2
          end;
          let g = Graphlib.Gen.with_clique_number ~n ~omega in
          let c = float_of_int omega /. float_of_int n in
          let r = Reductions.Fn.reduce ~graph:g ~c ~d:(c /. 2.0) ~log2_a:log2a in
          Printf.printf "f_N instance: n=%d omega=%d log2(t)=%.1f K_cd=2^%.1f\n" n omega
            (Logreal.to_log2 r.Reductions.Fn.t_size)
            (Logreal.to_log2 r.Reductions.Fn.k_cd);
          r.Reductions.Fn.instance
      | Some s ->
          check_shape_n s n;
          let inst = Qo.Gen_inst.L.of_shape ~seed ~n s in
          let name =
            match s with
            | Qo.Gen_inst.Grid ->
                let rows, cols = Qo.Gen_inst.grid_dims n in
                Printf.sprintf "grid %dx%d" rows cols
            | s -> Qo.Gen_inst.shape_name s
          in
          Printf.printf "%s instance: n=%d edges=%d\n" name n
            (Graphlib.Ugraph.edge_count inst.Qo.Instances.Nl_log.graph);
          inst
    in
    Portfolio_log.run (algo_of algo) ~jobs inst;
    finish_obs stats trace;
    0
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Build an f_N instance and compare the optimizer portfolio")
    Term.(const run $ n $ omega $ log2a $ shape $ seed $ file $ domain $ algo_term
          $ jobs_term $ stats_term $ trace_term)

(* ---------------- serve ---------------- *)

(* --cache-size / --queue-size / --batch-size, shared by serve and
   replay, defaulting to Serve.default_config. *)
let serve_config_term =
  let d = Serve.default_config in
  let cache_size =
    Arg.(
      value
      & opt int d.Serve.cache_capacity
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Plan-cache capacity in entries before LRU eviction; 0 disables caching.")
  in
  let queue_size =
    Arg.(
      value
      & opt int d.Serve.queue_capacity
      & info [ "queue-size" ] ~docv:"N"
          ~doc:
            "Bounded request-queue depth (in batches) under --jobs > 1; a full queue \
             blocks the reader, which is the admission backpressure.")
  in
  let batch_size =
    Arg.(
      value
      & opt int d.Serve.batch_size
      & info [ "batch-size" ] ~docv:"N"
          ~doc:
            "Requests handed to a worker at a time. The default (1) keeps strict \
             request/response interleaving for interactive clients; bulk streams can \
             raise it to amortise hand-off costs. Response bytes are unaffected.")
  in
  let config cache_size queue_size batch_size =
    {
      d with
      Serve.cache_capacity = cache_size;
      queue_capacity = max 1 queue_size;
      batch_size = max 1 batch_size;
    }
  in
  Term.(const config $ cache_size $ queue_size $ batch_size)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (connections served sequentially, \
             one shared plan cache) instead of serving stdin/stdout.")
  in
  let report_term =
    let doc =
      "Write a schema-versioned JSON serving report (request totals, cache-hit rate, \
       latency percentiles, counters, spans) to $(docv) on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let metrics_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-file" ] ~docv:"PATH"
          ~doc:
            "Write periodic heartbeat snapshots (kind qopt-serve-heartbeat: totals, \
             latency quantiles, per-stage histograms) to $(docv) while serving. Each \
             write is atomic (temp file + rename), so scrapers never read a torn \
             snapshot; one initial and one final snapshot bracket the run.")
  in
  let metrics_interval =
    Arg.(
      value
      & opt float 1.0
      & info [ "metrics-interval" ] ~docv:"S"
          ~doc:"Seconds between heartbeat snapshots (with --metrics-file; default 1.0).")
  in
  let run socket config jobs stats trace report metrics_file metrics_interval =
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    (* graceful shutdown: stop reading, drain every accepted request
       through the workers, then fall out of the loop with
       interrupted=true and still write the report *)
    let stop _ = raise Serve.Shutdown in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    (* a client hanging up mid-response must surface as Sys_error
       (connection over), not kill the process *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* the serve loop and the heartbeat domain share one caller-owned
       stats record; its counts and histogram cells are safe to read
       live (benign races, exact after the loop returns) *)
    let shared_st = Serve.fresh_stats () in
    let hb_stop = Atomic.make false in
    let heartbeat =
      match metrics_file with
      | None -> None
      | Some path ->
          let interval = Float.max 0.05 metrics_interval in
          Some
            (Domain.spawn (fun () ->
                 let write () =
                   try Serve.write_heartbeat ~jobs ~path shared_st
                   with Sys_error _ -> ()
                 in
                 write ();
                 (* sleep in short slices so shutdown is prompt *)
                 let rec wait left =
                   if not (Atomic.get hb_stop) then
                     if left <= 0. then begin
                       write ();
                       wait interval
                     end
                     else begin
                       let dt = Float.min left 0.1 in
                       Unix.sleepf dt;
                       wait (left -. dt)
                     end
                 in
                 wait interval))
    in
    let st =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set hb_stop true;
          match heartbeat with
          | Some d ->
              Domain.join d;
              (* final snapshot, after the loop: exact totals *)
              (match metrics_file with
              | Some path -> (
                  try Serve.write_heartbeat ~jobs ~path shared_st with Sys_error _ -> ())
              | None -> ())
          | None -> ())
        (fun () ->
          with_jobs jobs (fun pool ->
              match socket with
              | Some path -> Serve.serve_socket ?pool ~config ~stats:shared_st path
              | None -> Serve.serve_channels ?pool ~config ~stats:shared_st stdin stdout))
    in
    Printf.eprintf "%s\n" (Serve.summary st);
    (match report with
    | Some path -> Obs.Json.write_file path (Serve.report_json ~jobs st)
    | None -> ());
    finish_obs stats trace;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve optimization requests (qon instances, line-delimited protocol) over \
          stdin/stdout or a Unix socket, with a sharded plan cache and admission \
          control. With --jobs N > 1 requests are pipelined across N-1 worker domains \
          behind a bounded queue; responses stay byte-identical to --jobs 1. In-band \
          #stats/#health/#hist control requests and --metrics-file heartbeats expose \
          live latency histograms.")
    Term.(const run $ socket $ serve_config_term $ jobs_term $ stats_term $ trace_term
          $ report_term $ metrics_file $ metrics_interval)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Reproducer / corpus files to replay through every oracle (campaign mode when \
             none are given).")
  in
  let runs =
    Arg.(value & opt int 500 & info [ "runs" ] ~docv:"N" ~doc:"Campaign instances to draw.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory feeding the mutation generator. Defaults to fuzz/corpus, \
             skipped when that does not exist; a directory given here must exist. The \
             summary and the report name the directory and its case count.")
  in
  let out =
    Arg.(
      value
      & opt string "fuzz/reproducers"
      & info [ "out" ] ~docv:"DIR" ~doc:"Directory minimized reproducers are written to.")
  in
  let report_term =
    let doc =
      "Write a schema-versioned JSON campaign report (totals, per-oracle rows, generator \
       mix, failures, counters, spans) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let oracle_term =
    let doc =
      "Restrict the campaign to the named oracle (repeatable). The case stream is \
       unchanged — same seeds, same instances — only the checks run per case shrink. \
       Unknown names are an error."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let replay_files files =
    let failed = ref 0 in
    List.iter
      (fun path ->
        let case =
          try Fuzz.load_case path
          with Invalid_argument msg | Sys_error msg ->
            Printf.eprintf "qopt: %s\n" msg;
            exit 2
        in
        let outs = Fuzz.replay case in
        let fails =
          List.filter_map (function name, Fuzz.Fail m -> Some (name, m) | _ -> None) outs
        in
        let count p = List.length (List.filter p outs) in
        if fails = [] then
          Printf.printf "ok   %s (%d pass, %d skip)\n" path
            (count (function _, Fuzz.Pass -> true | _ -> false))
            (count (function _, Fuzz.Skip _ -> true | _ -> false))
        else begin
          incr failed;
          Printf.printf "FAIL %s\n" path;
          List.iter (fun (name, m) -> Printf.printf "  %s: %s\n" name m) fails
        end)
      files;
    if !failed > 0 then 1 else 0
  in
  let campaign runs seed corpus out jobs report oracle_names =
    (* the same seed draws a different case stream without the corpus,
       so a named corpus that is not there is an error *)
    let corpus_dir =
      match corpus with
      | None -> "fuzz/corpus"
      | Some dir when Sys.file_exists dir && Sys.is_directory dir -> dir
      | Some dir ->
          Printf.eprintf "qopt: corpus directory %S does not exist\n" dir;
          exit 2
    in
    let corpus_cases = Array.of_list (List.map snd (Fuzz.load_corpus corpus_dir)) in
    let corpus_info = (corpus_dir, Array.length corpus_cases) in
    let only = match oracle_names with [] -> None | names -> Some names in
    let result =
      try
        with_jobs jobs (fun pool ->
            Fuzz.run_campaign ?pool ~corpus:corpus_cases ?only ~seed ~runs ())
      with Invalid_argument msg ->
        Printf.eprintf "qopt: %s\n" msg;
        exit 2
    in
    (* stdout is deterministic per (seed, runs); timing goes to stderr *)
    Printf.printf "fuzz: %d runs, %d oracle checks: %d pass, %d skip, %d fail\n"
      result.Fuzz.runs result.Fuzz.checks result.Fuzz.passes result.Fuzz.skips
      result.Fuzz.fails;
    List.iter
      (fun (name, (p, s, f)) ->
        Printf.printf "  %-20s pass=%-5d skip=%-5d fail=%d\n" name p s f)
      result.Fuzz.per_oracle;
    List.iter (fun (k, v) -> Printf.printf "  mix %-8s %d\n" k v) result.Fuzz.mix;
    Printf.printf "  corpus %s: %d case(s)\n" corpus_dir (Array.length corpus_cases);
    List.iter
      (fun f ->
        let path = Fuzz.save_reproducer ~dir:out f in
        Printf.printf "FAIL %s on run %d (%s): %s\n" f.Fuzz.oracle f.Fuzz.run
          f.Fuzz.descriptor f.Fuzz.message;
        Printf.printf "  reproducer n=%d (shrunk from n=%d in %d steps): %s\n"
          f.Fuzz.n_shrunk f.Fuzz.n_original f.Fuzz.shrink_steps path;
        Printf.printf "  replay: qopt fuzz %s\n" path)
      result.Fuzz.failures;
    Printf.eprintf "fuzz: %d runs in %.2fs\n" result.Fuzz.runs result.Fuzz.seconds;
    (match report with
    | Some path ->
        Obs.Json.write_file path (Fuzz.report_json ~jobs ~seed ~corpus:corpus_info result)
    | None -> ());
    if result.Fuzz.fails > 0 then 1 else 0
  in
  let run files runs seed corpus out jobs stats trace report oracle_names =
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    let code =
      if files <> [] then replay_files files
      else campaign runs seed corpus out jobs report oracle_names
    in
    finish_obs stats trace;
    code
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the optimizer portfolio: differential and metamorphic oracles over \
          generated/adversarial/mutated instances, with a minimizing shrinker and qon \
          reproducers")
    Term.(const run $ files $ runs $ seed $ corpus $ out $ jobs_term $ stats_term
          $ trace_term $ report_term $ oracle_term)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of relations.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let file =
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc:"Load a QO_N instance file instead of generating.")
  in
  let run n seed shape file algo jobs stats trace =
    let module NR = Qo.Instances.Nl_rat in
    let module Opt = Qo.Instances.Opt_rat in
    let module CCP = Qo.Instances.Ccp_rat in
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    let inst =
      match file with
      | Some path -> (
          try Qo.Io.load_rat path
          with Invalid_argument msg | Sys_error msg ->
            Printf.eprintf "qopt: %s\n" msg;
            exit 2)
      | None ->
          check_shape_n shape n;
          Qo.Gen_inst.R.of_shape ~seed ~n shape
    in
    (* explain is rational-domain (exact arithmetic in the rendered
       tables), so every registry entry is available here — including
       rat-only ones. On a disconnected query graph a cartesian-free
       solver renders the infeasibility block (and still exits 0). *)
    let e = algo_of algo in
    let best = with_jobs jobs (fun pool -> e.Solver.solve_rat ?pool inst) in
    let headline = if e.Solver.exact <> None then "Optimal plan" else "Heuristic plan" in
    Printf.printf "%s (%s):\n\n%s\n" headline e.Solver.explain_label
      (Qo.Explain.Rat.render inst best.Opt.seq);
    let g = Opt.greedy inst in
    Printf.printf "Greedy plan for comparison:\n\n%s"
      (Qo.Explain.Rat.render inst g.Opt.seq);
    finish_obs stats trace;
    0
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Generate (or load) a query, optimize it, and explain the plans")
    Term.(const run $ n $ seed $ shape_term $ file $ algo_term $ jobs_term $ stats_term
          $ trace_term)

(* ---------------- gen ---------------- *)

let gen_cmd =
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of relations.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.") in
  let out = Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Output file (stdout otherwise).") in
  let trace_mode =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Generate a serve workload trace instead of a single instance: a seeded \
             stream of $(b,--requests) line-delimited requests mixing Zipf-skewed \
             repetition over a base-instance pool, template families with drifting \
             scalars, arrival bursts, and a hostile tail — replayable with $(b,qopt \
             replay). Trace bytes depend only on the seed and shape parameters, never \
             on $(b,--jobs).")
  in
  let requests =
    Arg.(
      value
      & opt int Trace.default_params.Trace.requests
      & info [ "requests" ] ~docv:"N" ~doc:"Requests in the trace (with --trace).")
  in
  let skew =
    Arg.(
      value
      & opt float Trace.default_params.Trace.skew
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Zipf exponent over the base-instance pool (with --trace): 0 is uniform, \
             larger is hotter-headed traffic.")
  in
  let pool_size =
    Arg.(
      value
      & opt int Trace.default_params.Trace.pool_size
      & info [ "pool" ] ~docv:"N"
          ~doc:
            "Distinct base instances (with --trace). The default exceeds serve's \
             default cache capacity, so replays run under cache pressure.")
  in
  let templates =
    Arg.(
      value
      & opt int Trace.default_params.Trace.templates
      & info [ "templates" ] ~docv:"N"
          ~doc:
            "Template families (with --trace): same query shape, scalars drifting \
             every $(b,--drift) requests — canonical-hash near-misses. 0 disables.")
  in
  let drift =
    Arg.(
      value
      & opt int Trace.default_params.Trace.drift_every
      & info [ "drift" ] ~docv:"N" ~doc:"Requests between template drifts (with --trace).")
  in
  let burst =
    Arg.(
      value
      & opt int Trace.default_params.Trace.burst
      & info [ "burst" ] ~docv:"N"
          ~doc:"Max arrival-burst length (with --trace): 1 disables bursts.")
  in
  let hostile =
    Arg.(
      value
      & opt int Trace.default_params.Trace.hostile_pct
      & info [ "hostile" ] ~docv:"PCT"
          ~doc:
            "Hostile-tail percentage (with --trace): junk lines, payload parse errors, \
             admission-cap violations, rat-only algos on domain=log, budget-starved \
             paper-hard f_N instances, and disconnected graphs under cartesian-free \
             solvers.")
  in
  let run n seed shape out trace_mode requests skew pool_size templates drift burst
      hostile jobs =
    (* --jobs is accepted (and ignored) to make the invariance
       contract executable: the same command at any jobs writes the
       same bytes, which CI diffs *)
    ignore (resolve_jobs jobs);
    if trace_mode then begin
      let params =
        {
          Trace.requests;
          seed;
          skew;
          pool_size;
          templates;
          drift_every = drift;
          burst;
          hostile_pct = hostile;
        }
      in
      match out with
      | None ->
          Trace.emit params print_string;
          0
      | Some path ->
          Trace.write ~path params;
          Printf.printf "wrote %s (%d requests, seed %d, skew %g, pool %d)\n" path
            requests seed skew pool_size;
          0
    end
    else begin
      check_shape_n shape n;
      let inst = Qo.Gen_inst.R.of_shape ~seed ~n shape in
      (* provenance comment: the parser ignores # lines, so generated
         files replay/load unchanged while recording how to re-make
         them *)
      let header =
        Printf.sprintf "# seed=%d shape=%s n=%d\n" seed (Qo.Gen_inst.shape_name shape) n
      in
      let text = header ^ Qo.Io.dump_rat inst in
      (match out with
      | None -> print_string text
      | Some path ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
          Printf.printf "wrote %s (%d relations, %d predicates)\n" path n
            (Graphlib.Ugraph.edge_count inst.Qo.Instances.Nl_rat.graph));
      0
    end
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a QO_N instance file or (with --trace) a serve workload trace")
    Term.(const run $ n $ seed $ shape_term $ out $ trace_mode $ requests $ skew $ pool_size
          $ templates $ drift $ burst $ hostile $ jobs_term)

(* ---------------- replay ---------------- *)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file produced by $(b,qopt gen --trace).")
  in
  let probe_every =
    Arg.(
      value
      & opt int 500
      & info [ "probe-every" ] ~docv:"N"
          ~doc:
            "Interleave an in-band control probe (alternating #stats and #hist solve) \
             before every $(docv)-th request, plus one final #stats. 0 disables probes. \
             Control responses never perturb normal response bytes.")
  in
  let report_term =
    let doc =
      "Write the schema-versioned qopt-trace-report JSON (totals with coalescing and \
       cache occupancy, hit rate, throughput, per-stage p50/p95/p99, hostile-tail \
       errors-by-code, trace provenance) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let check_identity =
    Arg.(
      value & flag
      & info [ "check-identity" ]
          ~doc:
            "Also replay at the complementary jobs setting (1 when $(b,--jobs) > 1, \
             else 2) and verify the non-control response bytes and integer totals are \
             identical; exit 1 on divergence. The verdict lands in the report's \
             identity_jobs_invariant field.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ]
          ~doc:"Suppress the response transcript on stdout (summary and report remain).")
  in
  let run file config probe_every report check_id quiet jobs stats trace =
    let jobs = resolve_jobs jobs in
    setup_obs stats trace;
    let trace_text = In_channel.with_open_bin file In_channel.input_all in
    let out, st, seconds =
      if jobs > 1 then
        Pool.with_pool ~jobs (fun pool -> Trace.replay ~pool ~config ~probe_every trace_text)
      else Trace.replay ~config ~probe_every trace_text
    in
    let identity =
      if not check_id then None
      else begin
        let other = if jobs > 1 then 1 else 2 in
        let same, diagnosis =
          Trace.check_identity ~config ~probe_every ~replayed:(jobs, out, st)
            ~jobs:(max jobs other) trace_text
        in
        if same then Printf.eprintf "qopt replay: jobs=%d and jobs=%d byte-identical\n" jobs other
        else Printf.eprintf "qopt replay: DIVERGENCE: %s\n" diagnosis;
        Some same
      end
    in
    if not quiet then print_string out;
    Printf.eprintf "%s\n" (Trace.summary ~jobs ~seconds st);
    (match report with
    | Some path ->
        Obs.Json.write_file path
          (Trace.report_json ~jobs ~trace:trace_text ~out ~seconds ?identity st)
    | None -> ());
    finish_obs stats trace;
    if identity = Some false then 1 else 0
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a generated workload trace through the serve pipeline at a given \
          --jobs, interleaving in-band control probes, and emit a qopt-trace-report \
          (hit rate, coalescing, throughput, per-stage latency percentiles, \
          hostile-tail error accounting). Non-control responses are byte-identical at \
          every --jobs (--check-identity verifies).")
    Term.(const run $ file $ serve_config_term $ probe_every $ report_term $ check_identity
          $ quiet $ jobs_term $ stats_term $ trace_term)

(* ---------------- chain ---------------- *)

let chain_cmd =
  let blocks = Arg.(value & opt int 4 & info [ "blocks" ] ~doc:"All-sign blocks (size scale).") in
  let run blocks =
    let sat_f = Sat.Gen.planted_blocks ~seed:blocks ~blocks in
    let unsat_f = Sat.Gen.all_sign_blocks ~blocks in
    let show name (ch : Reductions.Chain.qon_chain) =
      Printf.printf "%s: v=%d m=%d sat=%b -> n=%d K_cd=2^%.1f no_lb=2^%.1f witness=%s\n" name
        (Sat.Cnf.nvars ch.Reductions.Chain.formula)
        (Sat.Cnf.nclauses ch.Reductions.Chain.formula)
        ch.Reductions.Chain.satisfiable ch.Reductions.Chain.lemma3.Reductions.Lemma3.n
        (Logreal.to_log2 ch.Reductions.Chain.fn.Reductions.Fn.k_cd)
        (Logreal.to_log2 ch.Reductions.Chain.fn.Reductions.Fn.no_lower_bound)
        (match ch.Reductions.Chain.witness_cost with
        | Some c -> Printf.sprintf "2^%.1f" (Logreal.to_log2 c)
        | None -> "-")
    in
    show "satisfiable " (Reductions.Chain.theorem9 sat_f);
    show "unsatisfiable" (Reductions.Chain.theorem9 unsat_f);
    0
  in
  Cmd.v (Cmd.info "chain" ~doc:"Run the Theorem-9 reduction chain on generated formulas")
    Term.(const run $ blocks)

(* ---------------- appendix ---------------- *)

let appendix_cmd =
  let numbers =
    Arg.(
      value
      & opt (list int) [ 3; 1; 2; 2 ]
      & info [ "numbers" ] ~doc:"Comma-separated PARTITION instance.")
  in
  let run numbers =
    let ch = Reductions.Chain.appendix numbers in
    Printf.printf "numbers      = [%s]\n" (String.concat ";" (List.map string_of_int numbers));
    Printf.printf "PARTITION    = %b\n" ch.Reductions.Chain.partitionable;
    Printf.printf "SPPCS        = %b (q=%d)\n" ch.Reductions.Chain.sppcs_yes
      ch.Reductions.Chain.sppcs.Reductions.Partition_to_sppcs.q;
    Printf.printf "SQO-CP       = %b (threshold ~2^%.1f)\n" ch.Reductions.Chain.sqocp_yes
      (Bignum.Bignat.log2 ch.Reductions.Chain.sqocp.Reductions.Sppcs_to_sqocp.threshold);
    if
      ch.Reductions.Chain.partitionable = ch.Reductions.Chain.sppcs_yes
      && ch.Reductions.Chain.sppcs_yes = ch.Reductions.Chain.sqocp_yes
    then begin
      print_endline "chain consistent";
      0
    end
    else begin
      print_endline "CHAIN INCONSISTENT";
      1
    end
  in
  Cmd.v
    (Cmd.info "appendix" ~doc:"Run PARTITION -> SPPCS -> SQO-CP on a number list")
    Term.(const run $ numbers)

let () =
  let doc = "Executable reproduction of 'On the Complexity of Approximate Query Optimization'" in
  let info = Cmd.info "qopt" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info [ experiment_cmd; solve_cmd; optimize_cmd; serve_cmd; replay_cmd; fuzz_cmd; explain_cmd; gen_cmd; chain_cmd; appendix_cmd ]))
