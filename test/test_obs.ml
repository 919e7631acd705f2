(* Unit tests for the observability layer: counter sharding across pool
   domains, snapshot/diff algebra, span trees, the JSON printer/parser
   pair, the Chrome trace exporter, and the end-to-end contract the CLI
   relies on (the connected-subgraph DP's enumeration counter). *)

let reset () = Obs.reset ()

(* ---------------- counters and gauges ---------------- *)

let test_counter_basics () =
  reset ();
  let c = Obs.counter "t.basic" in
  Obs.incr c;
  Obs.add c 41;
  Alcotest.(check (option int)) "summed" (Some 42) (List.assoc_opt "t.basic" (Obs.snapshot ()));
  Alcotest.(check (option int))
    "local view agrees on one domain" (Some 42)
    (List.assoc_opt "t.basic" (Obs.snapshot_local ()))

let test_counter_idempotent () =
  reset ();
  (* functor bodies re-apply: both handles must hit the same cell *)
  let a = Obs.counter "t.idem" and b = Obs.counter "t.idem" in
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check (option int)) "one counter" (Some 2) (List.assoc_opt "t.idem" (Obs.snapshot ()))

let test_counter_sharded () =
  reset ();
  let c = Obs.counter "t.sharded" in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.parallel_for pool ~lo:1 ~hi:1000 (fun _ -> Obs.incr c));
  Alcotest.(check (option int))
    "increments from every worker domain are summed" (Some 1000)
    (List.assoc_opt "t.sharded" (Obs.snapshot ()))

let test_gauge_and_diff () =
  reset ();
  let g = Obs.gauge "t.gauge" in
  Obs.set g 7;
  Obs.set g 11;
  Alcotest.(check (option int)) "last value wins" (Some 11)
    (List.assoc_opt "t.gauge" (Obs.snapshot ()));
  let c = Obs.counter "t.diffed" in
  Obs.add c 5;
  let before = Obs.snapshot () in
  Obs.add c 3;
  let d = Obs.diff before (Obs.snapshot ()) in
  Alcotest.(check (option int)) "delta only" (Some 3) (List.assoc_opt "t.diffed" d);
  Alcotest.(check (option int)) "unchanged names dropped" None (List.assoc_opt "t.gauge" d);
  Alcotest.(check bool) "snapshot is name-sorted" true
    (let names = List.map fst (Obs.snapshot ()) in
     names = List.sort compare names)

(* ---------------- spans ---------------- *)

let test_span_tree () =
  reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let v =
    Obs.span "outer" (fun () ->
        Obs.span "first" (fun () -> ()) ;
        Obs.span "second" (fun () -> 17))
  in
  Alcotest.(check int) "span returns f ()" 17 v;
  match Obs.spans () with
  | [ root ] ->
      Alcotest.(check string) "root name" "outer" root.Obs.name;
      Alcotest.(check (list string)) "children chronological" [ "first"; "second" ]
        (List.map (fun n -> n.Obs.name) root.Obs.children);
      Alcotest.(check bool) "durations non-negative" true
        (root.Obs.dur_s >= 0.0
        && List.for_all (fun n -> n.Obs.dur_s <= root.Obs.dur_s +. 1e-9) root.Obs.children)
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let test_span_disabled_noop () =
  reset ();
  Alcotest.(check int) "disabled span is f ()" 3 (Obs.span "ghost" (fun () -> 3));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.spans ()))

let test_span_exception () =
  reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.spans () with
  | [ root ] -> Alcotest.(check string) "span closed on raise" "boom" root.Obs.name
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let test_time () =
  let v, s = Obs.time (fun () -> 5) in
  Alcotest.(check int) "value" 5 v;
  Alcotest.(check bool) "non-negative seconds" true (s >= 0.0)

(* ---------------- JSON ---------------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("int", Int (-42));
        ("float", Float 1.5);
        ("nan_is_null", Float Float.nan);
        ("str", Str "a\"b\\c\n\t\x01é");
        ("arr", Arr [ Null; Bool true; Bool false; Int 0 ]);
        ("nested", Obj [ ("k", Str "") ]);
      ]
  in
  (match of_string (to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok (Obj fields) ->
      Alcotest.(check (list string)) "key order stable"
        [ "int"; "float"; "nan_is_null"; "str"; "arr"; "nested" ]
        (List.map fst fields);
      Alcotest.(check bool) "int survives as Int" true (List.assoc "int" fields = Int (-42));
      Alcotest.(check bool) "nan became null" true (List.assoc "nan_is_null" fields = Null);
      Alcotest.(check bool) "string escapes survive" true
        (List.assoc "str" fields = Str "a\"b\\c\n\t\x01é")
  | Ok _ -> Alcotest.fail "reparse produced a non-object");
  Alcotest.(check bool) "garbage rejected" true
    (match of_string "{\"a\":}" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "trailing junk rejected" true
    (match of_string "1 2" with Error _ -> true | Ok _ -> false)

let test_stats_json () =
  reset ();
  let c = Obs.counter "t.json_stats" in
  Obs.add c 9;
  match Obs.stats_json () with
  | Obs.Json.Obj fields ->
      Alcotest.(check bool) "schema_version present" true
        (List.assoc_opt "schema_version" fields = Some (Obs.Json.Int 1));
      (match List.assoc_opt "counters" fields with
      | Some (Obs.Json.Obj cs) ->
          Alcotest.(check bool) "counter exported" true
            (List.assoc_opt "t.json_stats" cs = Some (Obs.Json.Int 9))
      | _ -> Alcotest.fail "counters object missing")
  | _ -> Alcotest.fail "stats_json is not an object"

(* ---------------- trace exporter ---------------- *)

let test_write_trace () =
  reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  Obs.span "root" (fun () -> Obs.span "leaf" (fun () -> ()));
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.write_trace path;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "trace not valid JSON: %s" e
  | Ok (Obs.Json.Obj fields) -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Obs.Json.Arr events) ->
          let phase e =
            match e with
            | Obs.Json.Obj fs -> (
                match List.assoc_opt "ph" fs with Some (Obs.Json.Str p) -> p | _ -> "?")
            | _ -> "?"
          in
          let count p = List.length (List.filter (fun e -> phase e = p) events) in
          Alcotest.(check int) "balanced begin/end" (count "B") (count "E");
          Alcotest.(check int) "two spans" 2 (count "B");
          Alcotest.(check bool) "process metadata present" true (count "M" >= 1)
      | _ -> Alcotest.fail "traceEvents missing")
  | Ok _ -> Alcotest.fail "trace is not an object"

(* ---------------- histograms ---------------- *)

let test_hist_bucketing () =
  let module H = Obs.Histogram in
  (* unit buckets below 2^sub_bits *)
  for v = 0 to (1 lsl H.sub_bits) - 1 do
    Alcotest.(check int) (Printf.sprintf "unit bucket for %d" v) v (H.bucket_of v);
    Alcotest.(check bool) "unit bounds" true (H.bucket_bounds v = (v, v))
  done;
  Alcotest.(check int) "negatives clamp to bucket 0" 0 (H.bucket_of (-5));
  Alcotest.(check int) "max_int lands in the top bucket" (H.bucket_count - 1)
    (H.bucket_of max_int);
  Alcotest.(check bool) "top bucket hi is max_int" true
    (snd (H.bucket_bounds (H.bucket_count - 1)) = max_int);
  (* every bucket contains its value, indices are monotone in v, and
     relative width stays within the log-linear design bound *)
  let sweep = ref [] in
  let v = ref 1 in
  while !v > 0 && !v < max_int / 3 do
    sweep := !v :: (!v + 1) :: ((!v * 3) - 1) :: !sweep;
    v := !v * 2
  done;
  sweep := [ 0; max_int - 1; max_int ] @ List.sort compare !sweep;
  let prev_idx = ref (-1) and prev_v = ref (-1) in
  List.iter
    (fun v ->
      let idx = Obs.Histogram.bucket_of v in
      Alcotest.(check bool)
        (Printf.sprintf "index in range for %d" v)
        true
        (idx >= 0 && idx < H.bucket_count);
      let lo, hi = H.bucket_bounds idx in
      Alcotest.(check bool) (Printf.sprintf "lo <= %d <= hi" v) true (lo <= v && v <= hi);
      if v >= !prev_v then
        Alcotest.(check bool) (Printf.sprintf "monotone at %d" v) true (idx >= !prev_idx);
      if v >= 1 lsl H.sub_bits then
        Alcotest.(check bool)
          (Printf.sprintf "relative width <= 6.25%% at %d" v)
          true
          (float_of_int (H.width_at v) <= (0.0625 *. float_of_int v) +. 1.0);
      prev_idx := idx;
      prev_v := v)
    !sweep;
  Alcotest.check_raises "bucket_bounds out of range"
    (Invalid_argument (Printf.sprintf "Obs.Histogram.bucket_bounds: %d" H.bucket_count))
    (fun () -> ignore (H.bucket_bounds H.bucket_count))

let test_hist_quantile_edges () =
  let module H = Obs.Histogram in
  Alcotest.(check int) "empty snapshot quantile is 0" 0 (H.quantile H.empty 50.);
  let h = H.create () in
  H.record h 12345;
  let s = H.snap h in
  Alcotest.(check int) "single sample count" 1 s.H.count;
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "single sample exact at q=%g" q)
        12345 (H.quantile s q))
    [ 0.; 50.; 100. ];
  let h2 = H.create () in
  List.iter (H.record h2) [ 10; 20; 30; 40; 50 ];
  let s2 = H.snap h2 in
  Alcotest.(check int) "q<0 clamps to min" 10 (H.quantile s2 (-3.));
  Alcotest.(check int) "q>100 clamps to max" 50 (H.quantile s2 200.);
  Alcotest.(check int) "q=0 is the minimum" 10 (H.quantile s2 0.);
  Alcotest.(check int) "q=100 is the maximum" 50 (H.quantile s2 100.);
  (* values at the extreme top of the range: the top bucket's nominal
     width is huge, but the representative is clamped to the recorded
     extrema so quantiles stay exact here *)
  let h3 = H.create () in
  H.record h3 max_int;
  H.record h3 (max_int - 1);
  let s3 = H.snap h3 in
  Alcotest.(check int) "beyond-top-bucket max recoverable" max_int (H.quantile s3 100.);
  Alcotest.(check int) "negative record clamps to 0" 0
    (let h4 = H.create () in
     H.record h4 (-42);
     H.quantile (H.snap h4) 50.)

(* Property: against a deterministic LCG sample stream, every histogram
   quantile lands within one bucket width of the exact sorted-array
   nearest-rank percentile — the contract that let serve swap its
   sorted latency store for the histogram. *)
let test_hist_vs_exact_property () =
  let module H = Obs.Histogram in
  let n = 2000 in
  let state = ref 42 in
  let next () =
    (* Lehmer-style LCG, deterministic across runs and platforms *)
    state := (!state * 48271) mod 0x7FFFFFFF;
    !state
  in
  let samples = Array.init n (fun i -> next () mod (1 lsl (7 + (i mod 24)))) in
  let h = H.create () in
  Array.iter (H.record h) samples;
  let s = H.snap h in
  (* the fixed O(buckets) footprint every latency series costs *)
  Alcotest.(check int) "bucket count" 944 H.bucket_count;
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  List.iter
    (fun q ->
      let exact =
        sorted.(int_of_float (Float.round (q /. 100. *. float_of_int (n - 1))))
      in
      let approx = H.quantile s q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within one bucket width (exact %d, hist %d)" q exact approx)
        true
        (abs (approx - exact) <= H.width_at exact))
    [ 0.; 1.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.9; 100. ]

let test_hist_merge_deterministic () =
  let module H = Obs.Histogram in
  let n = 10_000 in
  let sample i = (i * 7919) mod 1_000_003 in
  (* same sample set recorded on 1 vs 2 domains: snapshots (count, sum,
     extrema and every bucket) must be identical — merge is commutative
     integer addition, there is no float accumulation order to leak *)
  let record_with ~jobs =
    let h = H.create () in
    if jobs <= 1 then
      for i = 0 to n - 1 do
        H.record h (sample i)
      done
    else
      Pool.with_pool ~jobs (fun pool ->
          Pool.parallel_for pool ~lo:0 ~hi:(n - 1) (fun i -> H.record h (sample i)));
    H.snap h
  in
  let s1 = record_with ~jobs:1 and s2 = record_with ~jobs:2 in
  Alcotest.(check int) "counts agree" s1.H.count s2.H.count;
  Alcotest.(check int) "sums agree" s1.H.sum s2.H.sum;
  Alcotest.(check int) "min agrees" s1.H.min_value s2.H.min_value;
  Alcotest.(check int) "max agrees" s1.H.max_value s2.H.max_value;
  Alcotest.(check bool) "bucket arrays identical" true (s1.H.buckets = s2.H.buckets);
  (* merge of two disjoint halves equals one recording of the union *)
  let ha = H.create () and hb = H.create () in
  for i = 0 to (n / 2) - 1 do
    H.record ha (sample i)
  done;
  for i = n / 2 to n - 1 do
    H.record hb (sample i)
  done;
  let m = H.merge (H.snap ha) (H.snap hb) in
  Alcotest.(check int) "merged count" s1.H.count m.H.count;
  Alcotest.(check int) "merged sum" s1.H.sum m.H.sum;
  Alcotest.(check bool) "merged buckets" true (s1.H.buckets = m.H.buckets);
  Alcotest.(check bool) "merge commutes" true
    (H.merge (H.snap hb) (H.snap ha) = m)

let test_hist_json () =
  let module H = Obs.Histogram in
  let h = H.create () in
  List.iter (H.record h) [ 5; 100; 100_000 ];
  match H.to_json (H.snap h) with
  | Obs.Json.Obj fields -> (
      Alcotest.(check bool) "count field" true
        (List.assoc_opt "count" fields = Some (Obs.Json.Int 3));
      match List.assoc_opt "buckets" fields with
      | Some (Obs.Json.Arr bs) ->
          Alcotest.(check int) "only non-zero buckets listed" 3 (List.length bs)
      | _ -> Alcotest.fail "buckets array missing")
  | _ -> Alcotest.fail "to_json is not an object"

(* ---------------- cross-kind name collisions ---------------- *)

(* The kind registry persists across Obs.reset by design (handles stay
   live in module initialisers), so these use names nothing else
   claims. *)

let test_name_collisions () =
  reset ();
  let _c = Obs.counter "t.collide.counter" in
  Alcotest.check_raises "counter name refused as gauge"
    (Invalid_argument "Obs.gauge: \"t.collide.counter\" is already registered as a counter")
    (fun () -> ignore (Obs.gauge "t.collide.counter"));
  Alcotest.check_raises "counter name refused as histogram"
    (Invalid_argument
       "Obs.histogram: \"t.collide.counter\" is already registered as a counter")
    (fun () -> ignore (Obs.histogram "t.collide.counter"));
  let _g = Obs.gauge "t.collide.gauge" in
  Alcotest.check_raises "gauge name refused as counter"
    (Invalid_argument "Obs.counter: \"t.collide.gauge\" is already registered as a gauge")
    (fun () -> ignore (Obs.counter "t.collide.gauge"));
  let _h = Obs.histogram "t.collide.hist" in
  Alcotest.check_raises "histogram name refused as counter"
    (Invalid_argument
       "Obs.counter: \"t.collide.hist\" is already registered as a histogram")
    (fun () -> ignore (Obs.counter "t.collide.hist"));
  Alcotest.check_raises "histogram name refused as gauge"
    (Invalid_argument "Obs.gauge: \"t.collide.hist\" is already registered as a histogram")
    (fun () -> ignore (Obs.gauge "t.collide.hist"));
  (* same-kind re-registration stays idempotent, not an error *)
  Alcotest.(check bool) "counter re-registration fine" true
    (ignore (Obs.counter "t.collide.counter");
     true);
  Alcotest.(check bool) "histogram re-registration fine" true
    (ignore (Obs.histogram "t.collide.hist");
     true)

let test_registered_histograms () =
  reset ();
  let h = Obs.histogram "t.reg.hist" in
  Obs.Histogram.record h 77;
  (match List.assoc_opt "t.reg.hist" (Obs.histograms ()) with
  | Some s ->
      Alcotest.(check int) "registered snapshot sees the sample" 1 s.Obs.Histogram.count
  | None -> Alcotest.fail "registered histogram missing from Obs.histograms");
  reset ();
  match List.assoc_opt "t.reg.hist" (Obs.histograms ()) with
  | Some s -> Alcotest.(check int) "reset clears samples" 0 s.Obs.Histogram.count
  | None -> Alcotest.fail "registered histogram should survive reset (empty)"

(* ---------------- end-to-end: the ccp enumeration counter ---------------- *)

(* The acceptance contract: on a 20-vertex chain the connected-subgraph
   DP enumerates exactly the n(n+1)/2 = 210 connected subsets, and the
   counter agrees with the enumerator's own count. *)
let test_ccp_counter () =
  reset ();
  let module CCP = Qo.Instances.Ccp_log in
  let inst = Qo.Gen_inst.L.chain ~seed:1 ~n:20 () in
  let before = Obs.snapshot () in
  let plan = CCP.dp_connected inst in
  let d = Obs.diff before (Obs.snapshot ()) in
  Alcotest.(check int) "plan covers all relations" 20
    (Array.length plan.Qo.Instances.Opt_log.seq);
  Alcotest.(check (option int)) "210 connected subsets counted" (Some 210)
    (List.assoc_opt "ccp.dp.subsets_enumerated" d);
  Alcotest.(check int) "counter = csg_count" (CCP.csg_count inst)
    (match List.assoc_opt "ccp.dp.subsets_enumerated" d with Some v -> v | None -> 0)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "idempotent registration" `Quick test_counter_idempotent;
          Alcotest.test_case "sharded across domains" `Quick test_counter_sharded;
          Alcotest.test_case "gauge + diff" `Quick test_gauge_and_diff;
        ] );
      ( "spans",
        [
          Alcotest.test_case "tree structure" `Quick test_span_tree;
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "closed on exception" `Quick test_span_exception;
          Alcotest.test_case "time" `Quick test_time;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "stats_json" `Quick test_stats_json;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "log-linear bucketing" `Quick test_hist_bucketing;
          Alcotest.test_case "quantile edge cases" `Quick test_hist_quantile_edges;
          Alcotest.test_case "quantiles vs exact percentiles" `Quick
            test_hist_vs_exact_property;
          Alcotest.test_case "merge deterministic across domains" `Quick
            test_hist_merge_deterministic;
          Alcotest.test_case "json exposition" `Quick test_hist_json;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "cross-kind collisions are errors" `Quick test_name_collisions;
          Alcotest.test_case "registered histograms in snapshots" `Quick
            test_registered_histograms;
        ] );
      ( "exporters", [ Alcotest.test_case "chrome trace" `Quick test_write_trace ] );
      ( "integration", [ Alcotest.test_case "ccp chain-20 counter" `Quick test_ccp_counter ] );
    ]
