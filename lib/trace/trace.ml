(* Seeded workload-trace generation + replay. See trace.mli.

   Determinism contract: generation consumes exactly the same number
   of Random.State draws per emitted request whatever the skew — the
   Zipf sampler always draws (column, coin) — so two traces differing
   only in [skew] choose the same request classes, burst lengths and
   algos at every step, isolating the skew effect the hit-rate-vs-skew
   test measures. Nothing here touches Pool or
   global mutable state, so trace bytes are invariant under --jobs. *)

(* ---------------- Zipfian alias sampler ---------------- *)

module Zipf = struct
  type t = { n : int; prob : float array; alias : int array; pmf : float array }

  (* Walker/Vose alias method: O(n) build, O(1) sample. Columns with
     scaled probability < 1 are topped up by donors > 1; every column
     ends up holding its own mass plus one alias. *)
  let create ~s ~n =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if (not (Float.is_finite s)) || s < 0. then
      invalid_arg "Zipf.create: skew must be finite and non-negative";
    let pmf = Array.init n (fun k -> Float.pow (float_of_int (k + 1)) (-.s)) in
    let total = Array.fold_left ( +. ) 0. pmf in
    Array.iteri (fun k p -> pmf.(k) <- p /. total) pmf;
    let prob = Array.make n 1. and alias = Array.init n (fun k -> k) in
    let scaled = Array.map (fun p -> p *. float_of_int n) pmf in
    let small = Queue.create () and large = Queue.create () in
    Array.iteri (fun k p -> Queue.push k (if p < 1. then small else large)) scaled;
    while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
      let s_i = Queue.pop small and l_i = Queue.pop large in
      prob.(s_i) <- scaled.(s_i);
      alias.(s_i) <- l_i;
      scaled.(l_i) <- scaled.(l_i) -. (1. -. scaled.(s_i));
      Queue.push l_i (if scaled.(l_i) < 1. then small else large)
    done;
    (* leftovers are 1 up to rounding *)
    Queue.iter (fun k -> prob.(k) <- 1.) small;
    Queue.iter (fun k -> prob.(k) <- 1.) large;
    { n; prob; alias; pmf }

  let size t = t.n

  let pmf t k =
    if k < 0 || k >= t.n then invalid_arg "Zipf.pmf: rank out of range";
    t.pmf.(k)

  let sample t st =
    let k = Random.State.int st t.n in
    if Random.State.float st 1. < t.prob.(k) then k else t.alias.(k)
end

(* ---------------- parameters + provenance ---------------- *)

type params = {
  requests : int;
  seed : int;
  skew : float;
  pool_size : int;
  templates : int;
  drift_every : int;
  burst : int;
  hostile_pct : int;
}

let default_params =
  {
    requests = 100_000;
    seed = 1;
    skew = 0.9;
    (* deliberately larger than serve's default cache capacity (256):
       replay runs under cache pressure by default, so the
       hit-rate-vs-skew curve measures how skew concentrates the
       resident set — the phenomenon this generator exists to model *)
    pool_size = 512;
    templates = 8;
    drift_every = 500;
    burst = 4;
    hostile_pct = 5;
  }

let validate p =
  if p.requests < 1 then invalid_arg "trace: requests must be >= 1";
  if p.pool_size < 1 then invalid_arg "trace: pool_size must be >= 1";
  if (not (Float.is_finite p.skew)) || p.skew < 0. then
    invalid_arg "trace: skew must be finite and non-negative";
  if p.templates < 0 then invalid_arg "trace: templates must be >= 0";
  if p.drift_every < 1 then invalid_arg "trace: drift_every must be >= 1";
  if p.burst < 1 then invalid_arg "trace: burst must be >= 1";
  if p.hostile_pct < 0 || p.hostile_pct > 100 then
    invalid_arg "trace: hostile_pct must be in 0..100"

let provenance_line p =
  Printf.sprintf
    "# qopt-trace v1 seed=%d requests=%d skew=%.3f pool=%d templates=%d drift=%d \
     burst=%d hostile=%d\n"
    p.seed p.requests p.skew p.pool_size p.templates p.drift_every p.burst p.hostile_pct

let parse_provenance text =
  let first_line =
    match String.index_opt text '\n' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  let prefix = "# qopt-trace " in
  let plen = String.length prefix in
  if String.length first_line < plen || String.sub first_line 0 plen <> prefix then []
  else
    String.split_on_char ' ' first_line
    |> List.filter_map (fun tok ->
           match String.index_opt tok '=' with
           | Some i when i > 0 ->
               Some
                 (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
           | _ -> None)

(* ---------------- base-instance pools ---------------- *)

(* Shapes cycle through five generator families; n cycles 6..9 — small
   enough that every registry entrant (including milp, cap 9) admits
   every benign instance. *)
let pool_shapes = Qo.Gen_inst.[| Tree; Chain; Star; Cycle; Random |]
let pool_shape i = pool_shapes.(i mod Array.length pool_shapes)
let rat_payload ~seed ~shape ~n = Qo.Io.dump_rat (Qo.Gen_inst.R.of_shape ~seed ~n shape)
let log_payload ~seed ~shape ~n = Qo.Io.dump_log (Qo.Gen_inst.L.of_shape ~seed ~n shape)

(* ---------------- algo mix ---------------- *)

(* Every algo comes from the registry. Entries with weight >= fast
   (the seed portfolio, and unknown future entrants by default) join
   the benign mix; weight-1 entries — sa's fixed 20 000-step anneal
   (about 9 ms on a 6-relation showcase instance, release build on a
   Xeon host), milp's exact Bigq simplex (about 22 ms) — are
   "showcase" entrants: they
   still appear throughout the trace, but on dedicated small fixed
   instances at a low rate, so the cache-miss cost of a
   million-request replay stays dominated by the fast portfolio (the
   shape production traffic has too). *)
let algo_weight name =
  match name with
  | "dp" -> 30
  | "ccp" -> 20
  | "greedy" -> 15
  | "conv" -> 10
  | "simpli" -> 8
  | "sa" -> 1
  | "milp" -> 1
  | _ -> 3

let weighted entries = List.map (fun e -> (e, algo_weight e.Solver.name)) entries
let fast_entries entries = List.filter (fun e -> algo_weight e.Solver.name >= 3) entries

let showcase_entries () =
  match List.filter (fun e -> algo_weight e.Solver.name < 3) Solver.all with
  | [] -> Solver.all (* degenerate registry: everything is cheap *)
  | l -> l

let pick_weighted st choices =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 choices in
  let r = Random.State.int st (max 1 total) in
  let rec go acc = function
    | [] -> fst (List.hd choices)
    | (e, w) :: rest -> if r < acc + w then e else go (acc + w) rest
  in
  go 0 choices

type pooled = { pl_payload : string; pl_n : int; pl_algo : Solver.entry }

(* The algo is assigned per base instance, not per request: a
   production client ships a fixed algo with its query template, so a
   hot instance's cache key set stays small and the working set is
   O(pool), not O(pool x registry). *)
let sticky_algo st choices n =
  pick_weighted st
    (weighted (List.filter (fun e -> min e.Solver.cap e.Solver.diff_cap >= n) choices))

let build_rat_pool p =
  let st = Random.State.make [| p.seed; 0xbead |] in
  let fast = fast_entries Solver.all in
  Array.init p.pool_size (fun i ->
      let n = 6 + (i mod 4) in
      {
        pl_payload = rat_payload ~seed:((p.seed * 1_000_003) + i) ~shape:(pool_shape i) ~n;
        pl_n = n;
        pl_algo = sticky_algo st fast n;
      })

let build_log_pool p =
  let st = Random.State.make [| p.seed; 0x10f |] in
  let fast = fast_entries (List.filter (fun e -> Solver.Log.solve e <> None) Solver.all) in
  let size = min 8 p.pool_size in
  Array.init size (fun i ->
      let n = 6 + (i mod 4) in
      {
        pl_payload = log_payload ~seed:((p.seed * 2_000_003) + i) ~shape:(pool_shape i) ~n;
        pl_n = n;
        pl_algo = sticky_algo st fast n;
      })

(* Showcase instances: one small fixed instance per expensive entrant,
   so every registry algo appears in every trace while contributing
   O(1) cache misses. *)
let build_showcase p =
  List.mapi
    (fun i (e : Solver.entry) ->
      let n = max 4 (min 6 (min e.Solver.cap e.Solver.diff_cap)) in
      {
        pl_payload = rat_payload ~seed:((p.seed * 3_000_017) + i) ~shape:(pool_shape i) ~n;
        pl_n = n;
        pl_algo = e;
      })
    (showcase_entries ())
  |> Array.of_list

(* ---------------- hostile tail ---------------- *)

(* A 24-relation chain: past the dp admission cap, so dp requests for
   it are rejected with code=too-large (same instance the serve tests
   use for the admission path). *)
let big_chain_payload =
  lazy
    (let n = 24 in
     let b = Buffer.create 1024 in
     Buffer.add_string b "qon 1\n";
     Buffer.add_string b (Printf.sprintf "n %d\n" n);
     for i = 0 to n - 1 do
       Buffer.add_string b (Printf.sprintf "size %d 4\n" i)
     done;
     for i = 0 to n - 2 do
       Buffer.add_string b (Printf.sprintf "edge %d %d sel 1/2 wij 2 wji 2\n" i (i + 1))
     done;
     Buffer.contents b)

(* A paper-hard f_N instance (CLIQUE -> QO_N, Section 4): the reduction
   over a 10-vertex graph of clique number 7. Served under budget_ms=0
   it exercises the budget-fallback path on exactly the family whose
   approximation hardness motivates that path. *)
let fn_payload =
  lazy
    (let graph = Graphlib.Gen.with_clique_number ~n:10 ~omega:7 in
     let fn = Reductions.Fn.reduce ~graph ~c:0.7 ~d:0.2 ~log2_a:4.0 in
     Qo.Io.dump_log fn.Reductions.Fn.instance)

(* Two disjoint edges: connected-subgraph (cartesian-free) solvers
   cannot join across the gap. *)
let disconnected_payload =
  lazy
    (let graph = Graphlib.Ugraph.create 4 in
     Graphlib.Ugraph.add_edge graph 0 1;
     Graphlib.Ugraph.add_edge graph 2 3;
     Qo.Io.dump_rat (Qo.Gen_inst.R.over_graph ~seed:97 ~graph ()))

let rat_only_entry =
  lazy (List.find_opt (fun e -> Solver.Log.solve e = None) Solver.all)

(* ---------------- generation ---------------- *)

let render_request ~id ~algo ?domain ?budget_ms payload =
  let b = Buffer.create (String.length payload + 64) in
  Buffer.add_string b (Printf.sprintf "request id=%s algo=%s" id algo);
  (match domain with None -> () | Some d -> Buffer.add_string b (" domain=" ^ d));
  (match budget_ms with
  | None -> ()
  | Some ms -> Buffer.add_string b (Printf.sprintf " budget_ms=%g" ms));
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.add_string b "end\n";
  Buffer.contents b

(* Insert a comment line after the "qon 1" version line: different
   bytes, same canonical dump — a cache hit that proves hashing is
   canonical, not textual. *)
let decorate payload tag =
  match String.index_opt payload '\n' with
  | None -> payload
  | Some i ->
      String.concat ""
        [ String.sub payload 0 (i + 1);
          Printf.sprintf "# variant %d\n" tag;
          String.sub payload (i + 1) (String.length payload - i - 1) ]

let c_gen_requests = Obs.counter "trace.gen.requests"
let c_gen_hostile = Obs.counter "trace.gen.hostile"
let c_replays = Obs.counter "trace.replays"

let emit p sink =
  validate p;
  let st = Random.State.make [| p.seed; 0x7ace |] in
  let zipf = Zipf.create ~s:p.skew ~n:p.pool_size in
  let rat_pool = build_rat_pool p in
  let log_pool = build_log_pool p in
  let showcase = build_showcase p in
  (* template family f: one shape and one sticky algo, scalars
     re-drawn every drift window (the canonical-hash near-miss) *)
  let tmpl_memo : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let tmpl_algo_memo : (int, Solver.entry) Hashtbl.t = Hashtbl.create 16 in
  let template_payload ~family ~tick =
    match Hashtbl.find_opt tmpl_memo (family, tick) with
    | Some s -> s
    | None ->
        let n = 6 + (family mod 3) in
        let seed = (p.seed * 9_176_867) + (family * 131_071) + tick in
        let s = rat_payload ~seed ~shape:(pool_shape family) ~n in
        Hashtbl.replace tmpl_memo (family, tick) s;
        s
  in
  let template_algo family =
    match Hashtbl.find_opt tmpl_algo_memo family with
    | Some e -> e
    | None ->
        let frng = Random.State.make [| p.seed; family; 0xfa41 |] in
        let e = sticky_algo frng (fast_entries Solver.all) (6 + (family mod 3)) in
        Hashtbl.replace tmpl_algo_memo family e;
        e
  in
  sink (provenance_line p);
  let seq = ref 0 in
  let fresh_id () =
    let id = Printf.sprintf "t%d" !seq in
    incr seq;
    id
  in
  let emit_pool burst_len =
    let rank = Zipf.sample zipf st in
    let use_log = Array.length log_pool > 0 && Random.State.int st 8 = 0 in
    let entry, domain =
      if use_log then (log_pool.(rank mod Array.length log_pool), Some "log")
      else (rat_pool.(rank), None)
    in
    for _ = 1 to burst_len do
      sink
        (render_request ~id:(fresh_id ()) ~algo:entry.pl_algo.Solver.name ?domain
           entry.pl_payload)
    done
  in
  let emit_template burst_len =
    let family = Random.State.int st (max 1 p.templates) in
    let tick = !seq / p.drift_every in
    let payload = template_payload ~family ~tick in
    let payload = if Random.State.bool st then decorate payload tick else payload in
    let algo = template_algo family in
    for _ = 1 to burst_len do
      sink (render_request ~id:(fresh_id ()) ~algo:algo.Solver.name payload)
    done
  in
  let showcase_next = ref 0 in
  let emit_showcase burst_len =
    let e = showcase.(!showcase_next mod Array.length showcase) in
    incr showcase_next;
    for _ = 1 to burst_len do
      sink (render_request ~id:(fresh_id ()) ~algo:e.pl_algo.Solver.name e.pl_payload)
    done
  in
  let emit_hostile burst_len =
    (* uneven kind mass: the budget-starved f_N class (kind 4) is the
       only hostile whose every cache miss runs the greedy+SA fallback
       (about 25 ms on its 10-relation log instance, release build on a
       Xeon host), so it gets 1/16 of the tail; the O(us) protocol/
       parse/admission kinds carry the rest *)
    let kind =
      match Random.State.int st 16 with
      | 0 | 1 | 2 | 3 -> 0
      | 4 | 5 | 6 | 7 -> 1
      | 8 | 9 | 10 -> 2
      | 11 | 12 -> 3
      | 13 | 14 -> 5
      | _ -> 4
    in
    let kind =
      (* no rat-only entrant registered: downgrade to a parse error *)
      if kind = 3 && Lazy.force rat_only_entry = None then 1 else kind
    in
    for _ = 1 to burst_len do
      match kind with
      | 0 ->
          (* unrecognized bare line: code=bad-request, no payload *)
          let id = fresh_id () in
          sink (Printf.sprintf "noise %s\n" id)
      | 1 ->
          sink
            (render_request ~id:(fresh_id ()) ~algo:"dp" "this is not qon\n")
      | 2 ->
          sink
            (render_request ~id:(fresh_id ()) ~algo:"dp" (Lazy.force big_chain_payload))
      | 3 ->
          let e = Option.get (Lazy.force rat_only_entry) in
          sink
            (render_request ~id:(fresh_id ()) ~algo:e.Solver.name ~domain:"log"
               (log_payload ~seed:(p.seed + 41) ~shape:Qo.Gen_inst.Tree ~n:6))
      | 4 ->
          sink
            (render_request ~id:(fresh_id ()) ~algo:"dp" ~domain:"log" ~budget_ms:0.
               (Lazy.force fn_payload))
      | _ ->
          sink
            (render_request ~id:(fresh_id ()) ~algo:"ccp"
               (Lazy.force disconnected_payload))
    done
  in
  while !seq < p.requests do
    let burst_len =
      let b = if p.burst > 1 then 1 + Random.State.int st p.burst else 1 in
      min b (p.requests - !seq)
    in
    let cls = Random.State.int st 100 in
    let tmpl_hi = p.hostile_pct + if p.templates > 0 then 25 else 0 in
    if cls < p.hostile_pct then begin
      Obs.add c_gen_hostile burst_len;
      emit_hostile burst_len
    end
    else if cls < tmpl_hi then emit_template burst_len
    else if cls < tmpl_hi + 2 && Array.length showcase > 0 then emit_showcase burst_len
    else emit_pool burst_len
  done;
  Obs.add c_gen_requests !seq

let generate p =
  let b = Buffer.create (p.requests * 128) in
  emit p (Buffer.add_string b);
  Buffer.contents b

let write ~path p =
  Out_channel.with_open_bin path (fun oc -> emit p (Out_channel.output_string oc))

(* ---------------- replay ---------------- *)

let inject_probes ~every text =
  if every <= 0 then text
  else begin
    let b = Buffer.create (String.length text + 1024) in
    let lines = String.split_on_char '\n' text in
    (* split_on_char leaves a trailing "" for \n-terminated text *)
    let nreq = ref 0 in
    List.iteri
      (fun i line ->
        if i > 0 then Buffer.add_char b '\n';
        let is_request =
          String.length line >= 8 && String.sub line 0 8 = "request "
        in
        if is_request then begin
          if !nreq mod every = 0 && !nreq > 0 then
            Buffer.add_string b
              (if !nreq / every mod 2 = 0 then "#stats\n" else "#hist solve\n");
          incr nreq
        end;
        Buffer.add_string b line)
      lines;
    (* final probe: the totals the report's controls count covers the
       whole trace *)
    if String.length text > 0 && text.[String.length text - 1] = '\n' then
      Buffer.add_string b "#stats\n"
    else Buffer.add_string b "\n#stats\n";
    Buffer.contents b
  end

let with_nonces text =
  let b = Buffer.create (String.length text + 4096) in
  let k = ref 0 in
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_char b '\n';
      if String.trim line = "end" then begin
        incr k;
        Buffer.add_string b (Printf.sprintf "# nonce %d\n" !k)
      end;
      Buffer.add_string b line)
    (String.split_on_char '\n' text);
  Buffer.contents b

let replay ?pool ?config ?(probe_every = 0) trace =
  Obs.incr c_replays;
  let input = inject_probes ~every:probe_every trace in
  let (out, st), seconds =
    Obs.time (fun () -> Serve.serve_string ?pool ?config input)
  in
  (out, st, seconds)

let stats_key (st : Serve.stats) =
  let t = st.Serve.totals in
  (t.requests, t.ok, t.errors, t.rejected, t.cache_hits, t.cache_misses, t.evictions, t.fallbacks)

let first_divergence a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: _, [] | [], x :: _ -> Some (i, x)
    | x :: ra, y :: rb -> if x = y then go (i + 1) ra rb else Some (i, x ^ " <> " ^ y)
  in
  go 0 la lb

let check_identity ?config ?probe_every ?replayed ~jobs trace =
  let at j =
    match replayed with
    | Some (rj, out, st) when rj = j -> (out, st)
    | _ ->
        let out, st, _ =
          if j <= 1 then replay ?config ?probe_every trace
          else Pool.with_pool ~jobs:j (fun pool -> replay ~pool ?config ?probe_every trace)
        in
        (out, st)
  in
  let out1, st1 = at 1 in
  let outn, stn = at jobs in
  let body1, _ = Serve.split_control out1 in
  let bodyn, _ = Serve.split_control outn in
  if body1 <> bodyn then
    let where =
      match first_divergence body1 bodyn with
      | Some (i, what) -> Printf.sprintf " (first at line %d: %s)" i what
      | None -> ""
    in
    ( false,
      Printf.sprintf "non-control responses differ at jobs=1 vs jobs=%d%s" jobs where )
  else if stats_key st1 <> stats_key stn then
    (false, Printf.sprintf "stats totals differ at jobs=1 vs jobs=%d" jobs)
  else (true, "")

(* ---------------- report ---------------- *)

(* Facts recovered from the response transcript itself — the hostile
   tail's error accounting and the hit/approximate line counts. *)
type out_facts = {
  f_codes : (string * int) list;  (** sorted by code *)
  f_hits : int;
  f_approx : int;
}

let scan_out out =
  let codes : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let hits = ref 0 and approx = ref 0 in
  String.split_on_char '\n' out
  |> List.iter (fun line ->
         if String.length line >= 9 && String.sub line 0 9 = "response " then
           String.split_on_char ' ' line
           |> List.iter (fun tok ->
                  if String.length tok > 5 && String.sub tok 0 5 = "code=" then begin
                    let c = String.sub tok 5 (String.length tok - 5) in
                    Hashtbl.replace codes c
                      (1 + Option.value ~default:0 (Hashtbl.find_opt codes c))
                  end
                  else if tok = "cache=hit" then incr hits
                  else if tok = "approximate=true" then incr approx));
  (* the codes the hostile tail aims at are always present, zero or not *)
  List.iter
    (fun c -> if not (Hashtbl.mem codes c) then Hashtbl.replace codes c 0)
    [ "bad-request"; "parse"; "too-large"; "solver" ];
  let f_codes =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) codes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { f_codes; f_hits = !hits; f_approx = !approx }

let prov_value v =
  let open Obs.Json in
  match int_of_string_opt v with
  | Some i -> Int i
  | None -> ( match float_of_string_opt v with Some f -> Float f | None -> Str v)

let report_json ~jobs ~trace ~out ~seconds ?identity (st : Serve.stats) =
  let open Obs.Json in
  let facts = scan_out out in
  let _, controls = Serve.split_control out in
  let stage_percentiles =
    Obj
      (List.map
         (fun (name, h) ->
           let s = Obs.Histogram.snap h in
           let q x = float_of_int (Obs.Histogram.quantile s x) /. 1e6 in
           ( name,
             Obj
               [
                 ("count", Int s.Obs.Histogram.count);
                 ("p50", Float (q 50.));
                 ("p95", Float (q 95.));
                 ("p99", Float (q 99.));
               ] ))
         (Serve.latency_series st))
  in
  Obs.run_report ~kind:"qopt-trace-report"
    ~extra:
      ([
         ("jobs", Int jobs);
         ("trace", Obj (List.map (fun (k, v) -> (k, prov_value v)) (parse_provenance trace)));
         ( "totals",
           Obj
             (Serve.count_fields st
             @ [
                 ("seconds", Float seconds);
                 ( "requests_per_s",
                   Float
                     (if seconds > 0. then float_of_int st.Serve.totals.requests /. seconds
                      else 0.) );
               ]) );
         ("errors_by_code", Obj (List.map (fun (c, k) -> (c, Int k)) facts.f_codes));
         ( "responses",
           Obj
             [
               ("hit_lines", Int facts.f_hits);
               ("approximate_lines", Int facts.f_approx);
               ("controls", Int (List.length controls));
             ] );
         ("stage_ms", stage_percentiles);
       ]
      @ match identity with
        | None -> []
        | Some ok -> [ ("identity_jobs_invariant", Bool ok) ])
    ()

(* [stage_ms] quantiles are wall-clock; [requests_per_s] too. The rest
   of the timing surface is covered by Serve.timing_fields. [counters]
   and [spans] are process-global Obs state, not properties of the
   replay: under a parallel fuzz campaign other workers mutate them
   between two back-to-back report builds. *)
let report_masked_fields =
  Serve.timing_fields @ [ "requests_per_s"; "stage_ms"; "counters"; "spans" ]

let report_json_masked ~jobs ~trace ~out ~seconds ?identity st =
  Obs.Json.mask_fields report_masked_fields
    (report_json ~jobs ~trace ~out ~seconds ?identity st)

let summary ~jobs ~seconds (st : Serve.stats) =
  let t = st.Serve.totals in
  Printf.sprintf
    "qopt replay: %d request(s) at jobs=%d — %d ok, %d error(s), %d rejected; cache \
     %.1f%% hit (%d coalesced, %d resident); %d fallback(s); %.2fs (%.0f req/s)"
    t.requests jobs t.ok t.errors t.rejected (100. *. Serve.hit_rate st) t.coalesced
    st.Serve.cache_entries t.fallbacks seconds
    (if seconds > 0. then float_of_int t.requests /. seconds else 0.)
