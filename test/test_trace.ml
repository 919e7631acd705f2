(* Tests for the workload-trace subsystem: Zipf alias sampling,
   deterministic generation, provenance, probe injection, replay
   accounting, jobs-invariance, hostile-tail error coverage, the
   hit-rate-vs-skew signal, and the replay report schema. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---------------- Zipf sampler ---------------- *)

let draws ~seed ~s ~n k =
  let z = Trace.Zipf.create ~s ~n in
  let st = Random.State.make [| seed |] in
  List.init k (fun _ -> Trace.Zipf.sample z st)

let test_zipf_range_and_determinism () =
  let d1 = draws ~seed:42 ~s:1.1 ~n:16 1000 in
  let d2 = draws ~seed:42 ~s:1.1 ~n:16 1000 in
  Alcotest.(check (list int)) "same seed, same draws" d1 d2;
  List.iter (fun k -> Alcotest.(check bool) "in range" true (k >= 0 && k < 16)) d1;
  let d3 = draws ~seed:43 ~s:1.1 ~n:16 1000 in
  Alcotest.(check bool) "different seed, different draws" true (d1 <> d3)

let test_zipf_uniform () =
  let z = Trace.Zipf.create ~s:0.0 ~n:8 in
  for k = 0 to 7 do
    Alcotest.(check (float 1e-12)) "s=0 is uniform" 0.125 (Trace.Zipf.pmf z k)
  done

let test_zipf_pmf_sums_to_one () =
  let z = Trace.Zipf.create ~s:1.3 ~n:64 in
  let total = ref 0.0 in
  for k = 0 to 63 do
    total := !total +. Trace.Zipf.pmf z k
  done;
  Alcotest.(check (float 1e-9)) "pmf normalized" 1.0 !total

(* Empirical frequencies over 10^5 draws match the exact pmf within
   3 sigma-ish absolute tolerance: the alias table really encodes the
   distribution it claims (the classic alias-method bug — swapped
   column/alias probabilities — fails this loudly). *)
let test_zipf_empirical () =
  let n = 32 and k = 100_000 in
  let z = Trace.Zipf.create ~s:1.1 ~n in
  let st = Random.State.make [| 7 |] in
  let counts = Array.make n 0 in
  for _ = 1 to k do
    let r = Trace.Zipf.sample z st in
    counts.(r) <- counts.(r) + 1
  done;
  for r = 0 to n - 1 do
    let emp = float_of_int counts.(r) /. float_of_int k in
    let exact = Trace.Zipf.pmf z r in
    if Float.abs (emp -. exact) > 0.01 then
      Alcotest.failf "rank %d: empirical %.4f vs pmf %.4f" r emp exact
  done

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Trace.Zipf.create ~s:1.0 ~n:0))

(* ---------------- generation ---------------- *)

let small =
  {
    Trace.requests = 200;
    seed = 11;
    skew = 0.9;
    pool_size = 48;
    templates = 2;
    drift_every = 40;
    burst = 3;
    hostile_pct = 10;
  }

let test_generate_deterministic () =
  let t1 = Trace.generate small and t2 = Trace.generate small in
  Alcotest.(check bool) "same params, same bytes" true (t1 = t2);
  let t3 = Trace.generate { small with Trace.seed = 12 } in
  Alcotest.(check bool) "different seed, different bytes" true (t1 <> t3)

let test_generate_streaming_agrees () =
  let b = Buffer.create 4096 in
  Trace.emit small (Buffer.add_string b);
  Alcotest.(check bool)
    "emit and generate produce the same bytes" true
    (Buffer.contents b = Trace.generate small)

let test_provenance_roundtrip () =
  let kv = Trace.parse_provenance (Trace.generate small) in
  let get k = try List.assoc k kv with Not_found -> Alcotest.failf "missing key %s" k in
  Alcotest.(check string) "seed" "11" (get "seed");
  Alcotest.(check string) "requests" "200" (get "requests");
  Alcotest.(check string) "skew" "0.900" (get "skew");
  Alcotest.(check string) "pool" "48" (get "pool");
  Alcotest.(check (list (pair string string)))
    "no header, no pairs" [] (Trace.parse_provenance "request algo=dp\n")

let test_request_count () =
  let t = Trace.generate small in
  let headers =
    List.filter
      (fun l -> String.length l >= 8 && String.sub l 0 8 = "request ")
      (String.split_on_char '\n' t)
  in
  (* junk hostile lines are request-shaped too ("noise ..."), so the
     request-header count is <= requests, and the replay accounting
     below checks the exact total *)
  Alcotest.(check bool)
    "request headers emitted" true
    (List.length headers > 0 && List.length headers <= small.Trace.requests)

(* ---------------- replay ---------------- *)

let test_replay_accounting () =
  let t = Trace.generate small in
  let _out, st, seconds = Trace.replay ~probe_every:50 t in
  Alcotest.(check int) "every line accounted" small.Trace.requests st.Serve.totals.requests;
  Alcotest.(check int) "ok + errors + rejected = requests" small.Trace.requests
    (st.Serve.totals.ok + st.Serve.totals.errors + st.Serve.totals.rejected);
  Alcotest.(check bool) "cache hits occur under skew" true (st.Serve.totals.cache_hits > 0);
  Alcotest.(check bool) "hostile tail produces errors" true (st.Serve.totals.errors > 0);
  Alcotest.(check bool) "wall clock measured" true (seconds > 0.0)

let test_probes_do_not_perturb () =
  let t = Trace.generate small in
  let out_probed, st1, _ = Trace.replay ~probe_every:25 t in
  let out_plain, st2, _ = Trace.replay ~probe_every:0 t in
  let body_probed, controls = Serve.split_control out_probed in
  let body_plain, no_controls = Serve.split_control out_plain in
  Alcotest.(check bool) "probes answered" true (List.length controls > 0);
  Alcotest.(check int) "no probes, no controls" 0 (List.length no_controls);
  Alcotest.(check bool) "probes never perturb responses" true (body_probed = body_plain);
  Alcotest.(check bool)
    "probes never perturb stats" true
    (Trace.stats_key st1 = Trace.stats_key st2)

let test_jobs_invariance () =
  let t = Trace.generate small in
  let ok, diag = Trace.check_identity ~probe_every:50 ~jobs:2 t in
  if not ok then Alcotest.failf "jobs=1 vs jobs=2 diverged: %s" diag

let test_hostile_codes () =
  let p =
    {
      Trace.requests = 64;
      seed = 5;
      skew = 0.5;
      pool_size = 8;
      templates = 0;
      drift_every = 40;
      burst = 1;
      hostile_pct = 100;
    }
  in
  let out, st, _ = Trace.replay ~probe_every:0 (Trace.generate p) in
  Alcotest.(check bool) "junk lines rejected" true (contains out "code=bad-request");
  Alcotest.(check bool) "payload parse errors" true (contains out "code=parse");
  Alcotest.(check bool) "admission-cap violations" true (contains out "code=too-large");
  Alcotest.(check bool) "hostile majority errors" true (st.Serve.totals.errors > 32)

(* The headline signal: with a fixed pool larger than the cache,
   hotter skew concentrates traffic on fewer instances and the hit
   rate must rise strictly from skew to skew. *)
let test_hit_rate_rises_with_skew () =
  let config = { Serve.default_config with Serve.cache_capacity = 32 } in
  let rate skew =
    let p =
      {
        Trace.requests = 1500;
        seed = 9;
        skew;
        pool_size = 64;
        templates = 0;
        drift_every = 100;
        burst = 1;
        hostile_pct = 0;
      }
    in
    let _out, st, _ = Trace.replay ~config ~probe_every:0 (Trace.generate p) in
    float_of_int st.Serve.totals.cache_hits
    /. float_of_int (st.Serve.totals.cache_hits + st.Serve.totals.cache_misses)
  in
  let cold = rate 0.2 and warm = rate 0.8 and hot = rate 1.4 in
  if not (warm > cold && hot > warm) then
    Alcotest.failf "hit rate did not rise with skew: %.4f (s=0.2), %.4f (s=0.8), %.4f (s=1.4)"
      cold warm hot

(* ---------------- report ---------------- *)

let test_report_schema () =
  let t = Trace.generate small in
  let out, st, seconds = Trace.replay ~probe_every:50 t in
  let s =
    Obs.Json.to_string
      (Trace.report_json ~jobs:1 ~trace:t ~out ~seconds ~identity:true st)
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %s" needle) true
        (contains s needle))
    [
      "qopt-trace-report";
      "schema_version";
      "cache_hit_rate";
      "coalesced";
      "cache_entries";
      "errors_by_code";
      "requests_per_s";
      "stage_ms";
      "identity_jobs_invariant";
      "\"trace\"";
    ];
  let masked =
    Obs.Json.to_string (Trace.report_json_masked ~jobs:1 ~trace:t ~out ~seconds st)
  in
  Alcotest.(check bool) "masking nulls wall-clock fields" true (contains masked "null");
  Alcotest.(check bool)
    "masked fields cover serve timing plus replay throughput" true
    (List.mem "requests_per_s" Trace.report_masked_fields
    && List.length Trace.report_masked_fields > List.length Serve.timing_fields)

let () =
  Alcotest.run "trace"
    [
      ( "zipf",
        [
          Alcotest.test_case "range+determinism" `Quick test_zipf_range_and_determinism;
          Alcotest.test_case "uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "pmf normalized" `Quick test_zipf_pmf_sums_to_one;
          Alcotest.test_case "empirical frequencies" `Quick test_zipf_empirical;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "streaming agrees" `Quick test_generate_streaming_agrees;
          Alcotest.test_case "provenance roundtrip" `Quick test_provenance_roundtrip;
          Alcotest.test_case "request count" `Quick test_request_count;
        ] );
      ( "replay",
        [
          Alcotest.test_case "accounting" `Quick test_replay_accounting;
          Alcotest.test_case "probes do not perturb" `Quick test_probes_do_not_perturb;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "hostile codes" `Quick test_hostile_codes;
          Alcotest.test_case "hit rate rises with skew" `Quick
            test_hit_rate_rises_with_skew;
        ] );
      ( "report",
        [ Alcotest.test_case "schema" `Quick test_report_schema ] );
    ]
