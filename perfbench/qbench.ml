(* The repository benchmark: one workload per process, closed loop, one
   client, jobs = 1.

     qbench.exe --workload serve_hot|serve_churn|solve_large --seed N
                --seconds S --trace 0|1 [--trace-out FILE]

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. Every line
   before it is a human-readable report. When an output check or a
   self-consistency gate fails, no metric is printed and the exit code
   is 1. README.md in this directory explains the workloads, the
   metrics and the noise facts behind them. *)

module OL = Qo.Instances.Opt_log
module OR = Qo.Instances.Opt_rat

(* ---------------- clocks, samples, gates ---------------- *)

(* CLOCK_MONOTONIC in nanoseconds: serve's hit path is ~50 us, so the
   microsecond gettimeofday would quantise the medians. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Latency samples live off the OCaml heap, so the sample count (which
   depends on how fast the host is) never moves [top_heap_words]. *)
module Samples = struct
  type t = {
    a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    mutable n : int;
    mutable overflow : bool;
  }

  let create cap = { a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap; n = 0; overflow = false }

  let push s v =
    if s.n < Bigarray.Array1.dim s.a then begin
      Bigarray.Array1.unsafe_set s.a s.n v;
      s.n <- s.n + 1
    end
    else s.overflow <- true
end

(* Nearest rank over a sorted array, the formula Obs.Histogram and the
   serve reports use: rank = round (q/100 * (count-1)). *)
let rank_of ~count q = int_of_float (Float.round (q /. 100. *. float_of_int (count - 1)))

let median_of l =
  match List.sort Float.compare l with
  | [] -> nan
  | s -> List.nth s (rank_of ~count:(List.length s) 50.)

(* The aggregate of [timing_of] over a list of timings: its 2nd
   percentile (nearest rank), i.e. nearly the fastest. *)
let fastest l =
  match List.sort Float.compare l with
  | [] -> nan
  | s -> List.nth s (rank_of ~count:(List.length s) 2.)

let mean_of l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let failures : string list ref = ref []
let gate ok msg = if not ok then failures := msg :: !failures

(* A fixed CPU-bound array loop timed beside each run. Not a metric:
   it lets a reader tell host drift from a program change. *)
let ref_loop_ms () =
  let a = Array.init 4096 (fun i -> i * 7) in
  let t0 = now () in
  let s = ref 0 in
  for r = 1 to 12_000 do
    for i = 0 to Array.length a - 1 do
      s := !s + (Array.unsafe_get a i lxor r)
    done
  done;
  ignore (Sys.opaque_identity !s);
  (now () -. t0) *. 1e3

(* A short fixed piece of work: an array loop on 4 KB and a pass over
   512 KB off the OCaml heap, so it feels both the core and the cache
   contention the program does, and allocates nothing. One run brings
   its arrays back into cache after the program's work; the median of
   the next three is the probe, so the program's own cache footprint
   does not move it. *)
let probe_arr = Array.init 512 (fun i -> i * 7)

let probe_big =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 65536 in
  Bigarray.Array1.fill a 3;
  a

let probe_once () =
  let t0 = now () in
  let s = ref 0 in
  for r = 1 to 60 do
    for i = 0 to 511 do
      s := !s + (Array.unsafe_get probe_arr i lxor r)
    done
  done;
  for i = 0 to 65535 do
    s := !s + Bigarray.Array1.unsafe_get probe_big i
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

let probe_log = Samples.create (1 lsl 20)

let host_probe () =
  ignore (probe_once ());
  let a = probe_once () in
  let b = probe_once () in
  let c = probe_once () in
  let m = Float.max (Float.min a b) (Float.min (Float.max a b) c) in
  Samples.push probe_log m;
  m

(* Host-speed scaling. Each chunk of work is timed between two
   [host_probe]s, and its time is scaled by [nominal_probe_s] over their
   mean: what the chunk would have taken had the host run the probe in
   its nominal time. The probe never runs the program, so a program
   change moves the scaled time exactly as much as the raw one. *)
let nominal_probe_s = 70e-6

let scale p0 p1 = nominal_probe_s /. ((p0 +. p1) /. 2.)

(* Beside every run, so a reader can tell a slow host from a slow
   program; neither line is a metric. *)
let report_host ~ref0 ~ref1 =
  Printf.printf "  host drift reference loop: %.1f ms before, %.1f ms after (not a metric)\n" ref0 ref1;
  let n = probe_log.Samples.n in
  if n > 0 then begin
    let a = Array.init n (Bigarray.Array1.get probe_log.Samples.a) in
    Array.sort Float.compare a;
    Printf.printf "  host probe: fastest %.1f us, median %.1f us, slowest %.1f us over %d probes (nominal %.0f us)\n"
      (a.(0) *. 1e6) (a.(rank_of ~count:n 50.) *. 1e6) (a.(n - 1) *. 1e6) n (nominal_probe_s *. 1e6)
  end

(* ---------------- metric output ---------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value = { m_name; m_value; m_unit; m_note = note }

let print_result ~attempted ~failed metrics =
  List.iter (fun m -> gate (Float.is_finite m.m_value) (m.m_name ^ " is not a finite number")) metrics;
  let correct = !failures = [] && failed = 0 in
  List.iter (fun f -> Printf.printf "GATE FAILED: %s\n" f) (List.rev !failures);
  if correct then
    List.iter (fun m -> Printf.printf "  %-34s %14.6g %-6s %s\n" m.m_name m.m_value m.m_unit m.m_note) metrics;
  let metric_json m = (m.m_name, Obs.Json.Obj [ ("value", Obs.Json.Float m.m_value); ("unit", Obs.Json.Str m.m_unit) ]) in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct); ("attempted", Obs.Json.Int attempted);
            ("failed", Obs.Json.Int failed);
            ("metrics", Obs.Json.Obj (if correct then List.map metric_json metrics else [])) ]));
  if not correct then exit 1

(* ---------------- per-layer ledger ---------------- *)

(* Every layer the benchmark times from its own files. A leaf layer's
   self time is its whole duration; the replay glue between leaves is
   what [serve.overhead_us] reports. *)
type layer = { l_name : string; mutable calls : int; mutable secs : float }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 32

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { l_name = name; calls = 0; secs = 0. } in
      Hashtbl.replace layers name l;
      l

let layer_us name =
  let l = layer name in
  if l.calls = 0 then 0. else l.secs /. float_of_int l.calls *. 1e6

(* [timed l ~on f]: run [f], charging its time to [l] when [on]. Spans
   are recorded with Obs only while [Obs.enabled ()] (the sampled
   prefix of a traced run); the ledger itself uses the ns clock. *)
let timed l ~on f =
  if not on then f ()
  else begin
    let t0 = now () in
    let r = if Obs.enabled () then Obs.span l.l_name f else f () in
    l.secs <- l.secs +. (now () -. t0);
    l.calls <- l.calls + 1;
    r
  end

let counter snap name = try List.assoc name snap with Not_found -> 0

(* The solve layers a trace can reach, in a fixed order so the metric
   list never depends on the seed. *)
let solve_names =
  [ "dp.rat"; "dp.log"; "ccp.rat"; "ccp.log"; "conv.rat"; "conv.log"; "greedy.rat";
    "greedy.log"; "sa.rat"; "sa.log"; "simpli.rat"; "simpli.log"; "milp.rat";
    "fallback.rat"; "fallback.log" ]

(* Kernel unit costs, accumulated around dp / ccp solves from the
   existing opt.dp.* and ccp.dp.* counters. *)
type kernel = {
  mutable k_secs : float;
  mutable k_units : int;
  mutable k_words : float;
}

let kernels : (string, kernel) Hashtbl.t = Hashtbl.create 8

let kernel name =
  match Hashtbl.find_opt kernels name with
  | Some k -> k
  | None ->
      let k = { k_secs = 0.; k_units = 0; k_words = 0. } in
      Hashtbl.replace kernels name k;
      k

let kernel_add name ~secs ~units ~words =
  let k = kernel name in
  k.k_secs <- k.k_secs +. secs;
  k.k_units <- k.k_units + units;
  k.k_words <- k.k_words +. words

let per_unit name f =
  match Hashtbl.find_opt kernels name with
  | Some k when k.k_units > 0 -> f k /. float_of_int k.k_units
  | _ -> 0.

let kernel_metrics () =
  [
    metric "dp.ns_per_transition.rat" "ns" (per_unit "dp.rat" (fun k -> k.k_secs *. 1e9));
    metric "dp.ns_per_transition.log" "ns" (per_unit "dp.log" (fun k -> k.k_secs *. 1e9));
    metric "dp.words_per_transition.log" "words" (per_unit "dp.log" (fun k -> k.k_words));
    metric "ccp.ns_per_subset.word" "ns" (per_unit "ccp.word" (fun k -> k.k_secs *. 1e9));
    metric "ccp.ns_per_subset.multiword" "ns"
      (per_unit "ccp.multiword" (fun k -> k.k_secs *. 1e9));
    metric "ccp.words_per_subset.multiword" "words"
      (per_unit "ccp.multiword" (fun k -> k.k_words));
  ]

(* Which kernel counter a registry solve feeds, if any. *)
let kernel_of ~entry ~domain ~n =
  match entry with
  | "dp" -> Some (Printf.sprintf "dp.%s" domain, "opt.dp.transitions")
  | "ccp" ->
      Some
        ( (if n <= Qo.Instances.Ccp_log.max_ccp_word_n then "ccp.word" else "ccp.multiword"),
          "ccp.dp.subsets_enumerated" )
  | _ -> None

(* ---------------- the serve workloads ---------------- *)

(* [chunk]: requests per chunk, each timed between two host probes
   (see [scale] and [serve_timing]); it divides [warm] and [measured]. *)
type serve_shape = { params : Trace.params; warm : int; measured : int; chunk : int; tail_q : float }

let serve_shape ~seed = function
  | "serve_hot" ->
      (* working set (128 instances + 8 template families + hostile
         and showcase keys) fits the 256-entry plan cache *)
      {
        params =
          {
            Trace.requests = 0;
            seed;
            skew = 1.0;
            pool_size = 128;
            templates = 8;
            drift_every = 5000;
            burst = 4;
            hostile_pct = 5;
          };
        warm = 5000;
        measured = 40_000;
        chunk = 500;
        (* p99 sits on the step up to the ~1% of requests that solve
           or fall back, so it flips with the seed's mix; p99.5 lies
           inside that class *)
        tail_q = 99.5;
      }
  | _ ->
      (* serve_churn: near-uniform over a pool 16x the cache. No
         template families: their drift windows are hits, and with them
         the median request sat on the hit/miss boundary. No hostile
         tail (serve_hot carries it): here its budget-starved f_N
         requests are evicted between appearances, and a handful of
         0.1-0.5 s fallback re-solves would decide the throughput. *)
      {
        params =
          {
            Trace.requests = 0;
            seed;
            skew = 0.2;
            pool_size = 4096;
            templates = 0;
            drift_every = 500;
            burst = 1;
            hostile_pct = 0;
          };
        warm = 600;
        measured = 10_000;
        chunk = 100;
        tail_q = 99.;
      }

(* Serve trims each line and skips blanks and comments between
   requests; everything else starts an item (a request or a junk
   line), which gets exactly one response. *)
let starts_item line =
  let t = String.trim line in
  t <> "" && t.[0] <> '#'

type pass = {
  setup_s : float;
  gen_s : float;
  durations : float list;  (* seconds of each chunk, in order *)
  probes : float list;  (* [host_probe] before the first chunk and after each *)
  minor_words : float;
  major_collections : int;
  top_heap_words : int;
  key : int * int * int * int * int * int * int * int;
  stats : Serve.stats;
  responses : int array;  (* [response_key] of each response, in order *)
}

let contains_before s stop pat =
  let k = String.length pat in
  let rec at i j = j = k || (s.[i + j] = pat.[j] && at i (j + 1)) in
  let rec go i = i + k <= stop && (at i 0 || go (i + 1)) in
  go 0

(* What the output check compares of a response: its header line, plus
   the plan line of an ok response (error messages are not compared,
   only their codes). Hashed, so a pass keeps 8 bytes per response
   alive instead of the response. *)
let response_key r =
  let len = String.length r in
  let line_end from = match String.index_from_opt r from '\n' with Some i -> i | None -> len in
  let i1 = line_end 0 in
  let stop = if contains_before r i1 " status=ok " then line_end (min len (i1 + 1)) else i1 in
  Hashtbl.hash (String.sub r 0 stop)

(* One pass: generate the trace, serve its warm-up prefix (cache fill),
   then the measured suffix, all in one [Serve.serve_io] session read
   line by line from the in-memory trace. Latency runs from the
   next_line call that hands out an item's first line to the write of
   its response. [hook item key latency] runs after each write is
   timed (the interleaved replay of a traced run). *)
let serve_pass ?(hook = fun _ _ _ -> ()) shape samples =
  Gc.compact ();
  let probe0 = host_probe () in
  let t0 = now () in
  let trace = Trace.generate { shape.params with requests = shape.warm + shape.measured } in
  let gen_s = now () -. t0 in
  let probe = ref (host_probe ()) in
  (* set-up: generation, then the warm-up chunks, each host-scaled *)
  let setup = ref (gen_s *. scale probe0 !probe) in
  let len = String.length trace in
  let pos = ref 0 in
  let items = ref 0 in
  let open_item = ref false in
  let t_item = ref 0. in
  let t_chunk = ref 0. in
  let durations = ref [] in
  let probes = ref [] in
  let w0 = ref 0. in
  let maj0 = ref 0 in
  let responses = Array.make (shape.warm + shape.measured) 0 in
  let written = ref 0 in
  let next_line () =
    if !pos >= len then None
    else begin
      let stop = match String.index_from_opt trace !pos '\n' with Some i -> i | None -> len in
      let line = String.sub trace !pos (stop - !pos) in
      pos := stop + 1;
      if (not !open_item) && starts_item line then begin
        if !items = shape.warm then begin
          probes := [ !probe ];
          w0 := Gc.minor_words ();
          maj0 := (Gc.quick_stat ()).Gc.major_collections
        end;
        t_item := now ();
        open_item := true;
        incr items
      end;
      Some line
    end
  in
  let write r =
    let t = now () in
    let key = response_key r in
    if !open_item then begin
      hook !written key (t -. !t_item);
      if !items > shape.warm then Samples.push samples (t -. !t_item);
      (* a chunk ends; the probe after it is outside every chunk *)
      if !items mod shape.chunk = 0 then begin
        let d = t -. !t_chunk and p = host_probe () in
        if !items > shape.warm then begin
          durations := d :: !durations;
          probes := p :: !probes
        end
        else setup := !setup +. (d *. scale !probe p);
        probe := p;
        t_chunk := now ()
      end;
      open_item := false
    end
    else gate false "a response was written with no request open";
    if !written < Array.length responses then responses.(!written) <- key;
    incr written
  in
  t_chunk := now ();
  let stats = Serve.serve_io { Serve.next_line; write; flush = (fun () -> ()) } in
  let minor_words = Gc.minor_words () -. !w0 in
  let q = Gc.quick_stat () in
  gate (!written = shape.warm + shape.measured && !items = !written)
    (Printf.sprintf "pass wrote %d responses for %d items (expected %d)" !written !items
       (shape.warm + shape.measured));
  {
    setup_s = !setup;
    gen_s;
    durations = List.rev !durations;
    probes = List.rev !probes;
    minor_words;
    major_collections = q.Gc.major_collections - !maj0;
    top_heap_words = q.Gc.top_heap_words;
    key = Trace.stats_key stats;
    stats;
    responses;
  }

(* ---- the decomposed replay: serve's request path re-driven layer by
   layer through the public API, checked against the serve transcript ---- *)

type domain = Serve.domain = Rat | Log

type parsed_header = {
  h_id : string;
  h_entry : Solver.entry;
  h_domain : domain;
  h_budget : float option;
}

(* Header grammar of the serve protocol (serve.mli). Only acceptance
   and the canonical fields matter here; messages are not compared. *)
let parse_header ~default_id toks =
  match toks with
  | "request" :: kvs -> (
      let id = ref default_id and entry = ref None and dom = ref Rat and budget = ref None in
      let ok = ref true in
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | None -> ok := false
          | Some i -> (
              let k = String.sub kv 0 i and v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match k with
              | "id" -> if v = "" then ok := false else id := v
              | "algo" -> (
                  match Solver.find v with Some e -> entry := Some e | None -> ok := false)
              | "domain" -> (
                  match v with "rat" -> dom := Rat | "log" -> dom := Log | _ -> ok := false)
              | "budget_ms" -> (
                  match float_of_string_opt v with
                  | Some b when Float.is_finite b && b >= 0. -> budget := Some b
                  | _ -> ok := false)
              | _ -> ok := false))
        kvs;
      match !entry with
      | Some e when !ok -> Some { h_id = !id; h_entry = e; h_domain = !dom; h_budget = !budget }
      | _ -> None)
  | _ -> None

let scan_id ~default_id toks =
  List.fold_left
    (fun acc t ->
      if String.length t > 3 && String.sub t 0 3 = "id=" then String.sub t 3 (String.length t - 3)
      else acc)
    default_id toks

(* The instance under one domain, with the operations serve applies
   to it. *)
type engine = {
  n : int;
  canonical : unit -> string;
  csg_bounded : limit:int -> int option;
  solve : Solver.entry -> string * float * int array;
  fallback : unit -> string * float * int array;
}

(* Serve's fallback: the cheaper of greedy and simulated annealing,
   greedy on ties. *)
let rat_engine inst =
  let out (label, (p : OR.plan)) = (label, Qo.Rat_cost.to_log2 p.OR.cost, p.OR.seq) in
  {
    n = Qo.Instances.Nl_rat.n inst;
    canonical = (fun () -> "rat\n" ^ Qo.Io.dump_rat inst);
    csg_bounded = (fun ~limit -> Qo.Instances.Ccp_rat.csg_count_bounded ~limit inst);
    solve = (fun e -> out (e.Solver.label, e.Solver.solve_rat inst));
    fallback =
      (fun () ->
        let g = OR.greedy ~mode:OR.Min_cost inst in
        let s = OR.simulated_annealing inst in
        out
          (if Qo.Rat_cost.compare g.OR.cost s.OR.cost <= 0 then ("greedy (min cost)", g)
           else ("simulated anneal", s)));
  }

let log_engine inst =
  let out (label, (p : OL.plan)) = (label, Logreal.to_log2 p.OL.cost, p.OL.seq) in
  {
    n = Qo.Instances.Nl_log.n inst;
    canonical = (fun () -> "log\n" ^ Qo.Io.dump_log inst);
    csg_bounded = (fun ~limit -> Qo.Instances.Ccp_log.csg_count_bounded ~limit inst);
    solve =
      (fun e ->
        match e.Solver.solve_log with
        | Some f -> out (e.Solver.label, f inst)
        | None -> failwith "rat-only solver on a log instance");
    fallback =
      (fun () ->
        let g = OL.greedy ~mode:OL.Min_cost inst in
        let s = OL.simulated_annealing inst in
        out
          (if Qo.Log_cost.compare g.OL.cost s.OL.cost <= 0 then ("greedy (min cost)", g)
           else ("simulated anneal", s)));
  }

(* Serve's deterministic work model for budget_ms (serve.mli): lattice
   transitions n * 2^n, or a connected-subset count measured by a
   bounded enumeration whose limit is the budget itself. *)
let over_budget (h : parsed_header) eng =
  match h.h_budget with
  | None -> false
  | Some budget_ms -> (
      let cfg = Serve.default_config in
      let tns = match h.h_domain with Rat -> cfg.Serve.rat_transition_ns | Log -> cfg.Serve.log_transition_ns in
      let lattice () =
        let n = float_of_int eng.n in
        n *. Float.pow 2. n *. tns /. 1e6 > budget_ms
      in
      let csg () =
        let per_csg = tns *. float_of_int (max 1 eng.n) in
        let raw = budget_ms *. 1e6 /. per_csg in
        let limit = if Float.is_finite raw && raw < 1e9 then max 0 (int_of_float raw) else max_int - 1 in
        match eng.csg_bounded ~limit with
        | None -> true
        | Some c -> float_of_int c *. per_csg /. 1e6 > budget_ms
      in
      match h.h_entry.Solver.budget with
      | Solver.B_heuristic -> false
      | Solver.B_lattice -> lattice ()
      | Solver.B_dense_then_csg d when eng.n <= d -> lattice ()
      | Solver.B_csg | Solver.B_dense_then_csg _ -> csg ())

(* Replay state: the trace's lines, a plan cache of serve's shape, and
   the totals in [Trace.stats_key] order (requests, ok, errors,
   rejected, hits, misses, evictions, fallbacks). *)
type replay = {
  shape : serve_shape;
  lines : string array;
  mutable pos : int;
  mutable item : int;
  cache : Serve.Cache.t;
  totals : int array;
  mutable meas_hits : int;
  mutable meas_misses : int;
  mutable meas_evictions : int;
}

let replay_create shape =
  let trace = Trace.generate { shape.params with requests = shape.warm + shape.measured } in
  let cfg = Serve.default_config in
  {
    shape;
    lines = Array.of_list (String.split_on_char '\n' trace);
    pos = 0;
    item = 0;
    cache = Serve.Cache.create ~shards:cfg.Serve.cache_shards ~capacity:cfg.Serve.cache_capacity ();
    totals = Array.make 8 0;
    meas_hits = 0;
    meas_misses = 0;
    meas_evictions = 0;
  }

let ends_with s suffix =
  let n = String.length s and k = String.length suffix in
  n >= k && String.sub s (n - k) k = suffix

(* Serve's request path for the next item, re-driven layer by layer
   through the public API: framing, header, [Qo.Io] parse, budget
   model, canonical dump, MD5, [Serve.Cache.find], registry solve or
   greedy/SA fallback, [Serve.render_plan], [Serve.Cache.add]. Returns
   the [response_key] text serve must have written for it, or [None]
   past the last item. Layers are charged to the ledger for measured
   items only. *)
let replay_next r =
  let tot i = r.totals.(i) <- r.totals.(i) + 1 in
  let rec skip () =
    if r.pos >= Array.length r.lines then None
    else begin
      let line = String.trim r.lines.(r.pos) in
      r.pos <- r.pos + 1;
      if line = "" || line.[0] = '#' then skip () else Some line
    end
  in
  match skip () with
  | None -> None
  | Some line ->
      let idx = r.item in
      r.item <- idx + 1;
      let on = idx >= r.shape.warm in
      let default_id = string_of_int (idx + 1) in
      tot 0;
      let error ~id code =
        tot (if code = "too-large" then 3 else 2);
        Printf.sprintf "response id=%s status=error code=%s" id code
      in
      let toks = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      Some
        (match toks with
        | "request" :: _ -> (
            let buf = Buffer.create 256 in
            let rec payload () =
              if r.pos >= Array.length r.lines then None
              else begin
                let l = r.lines.(r.pos) in
                r.pos <- r.pos + 1;
                if String.trim l = "end" then Some (Buffer.contents buf)
                else begin
                  Buffer.add_string buf l;
                  Buffer.add_char buf '\n';
                  payload ()
                end
              end
            in
            let payload = payload () in
            match parse_header ~default_id toks with
            | None -> error ~id:(scan_id ~default_id toks) "bad-request"
            | Some h -> (
                match payload with
                | None -> error ~id:h.h_id "bad-request"
                | Some _ when h.h_domain = Log && h.h_entry.Solver.solve_log = None ->
                    error ~id:h.h_id "bad-request"
                | Some text -> (
                    match
                      timed (layer "io.parse") ~on (fun () ->
                          try
                            Ok
                              (match h.h_domain with
                              | Rat -> rat_engine (Qo.Io.parse_rat text)
                              | Log -> log_engine (Qo.Io.parse_log text))
                          with Invalid_argument _ | Failure _ -> Error ())
                    with
                    | Error () -> error ~id:h.h_id "parse"
                    | Ok eng when eng.n > h.h_entry.Solver.cap -> error ~id:h.h_id "too-large"
                    | Ok eng -> (
                        let e = h.h_entry in
                        let approximate =
                          h.h_budget <> None && timed (layer "budget") ~on (fun () -> over_budget h eng)
                        in
                        let canonical = timed (layer "io.canon") ~on eng.canonical in
                        let hex =
                          timed (layer "io.md5") ~on (fun () -> Digest.to_hex (Digest.string canonical))
                        in
                        let key =
                          Printf.sprintf "%s|%s|%s" e.Solver.name
                            (if approximate then "approx" else "exact")
                            hex
                        in
                        if approximate then tot 7;
                        let dname = match h.h_domain with Rat -> "rat" | Log -> "log" in
                        let ok ~hit ~approx body =
                          tot 1;
                          Printf.sprintf
                            "response id=%s status=ok algo=%s domain=%s cache=%s approximate=%b\n%s"
                            h.h_id e.Solver.name dname (if hit then "hit" else "miss") approx body
                        in
                        match timed (layer "cache.find") ~on (fun () -> Serve.Cache.find r.cache key) with
                        | Some (body, approx) ->
                            tot 4;
                            if on then r.meas_hits <- r.meas_hits + 1;
                            ok ~hit:true ~approx body
                        | None -> (
                            tot 5;
                            if on then r.meas_misses <- r.meas_misses + 1;
                            let sname =
                              Printf.sprintf "solve.%s.%s" (if approximate then "fallback" else e.Solver.name) dname
                            in
                            let kern =
                              if approximate || not on then None
                              else kernel_of ~entry:e.Solver.name ~domain:dname ~n:eng.n
                            in
                            let before = match kern with Some _ -> Obs.snapshot () | None -> [] in
                            let w0 = Gc.minor_words () in
                            let t0 = now () in
                            let solved =
                              timed (layer sname) ~on (fun () ->
                                  try Ok (if approximate then eng.fallback () else eng.solve e)
                                  with _ -> Error ())
                            in
                            let secs = now () -. t0 and words = Gc.minor_words () -. w0 in
                            (match kern with
                            | Some (kname, cname) ->
                                let units = counter (Obs.diff before (Obs.snapshot ())) cname in
                                kernel_add kname ~secs ~units ~words
                            | None -> ());
                            match solved with
                            | Error () -> error ~id:h.h_id "solver"
                            | Ok (label, log2_cost, seq) ->
                                let body =
                                  timed (layer "render") ~on (fun () -> Serve.render_plan ~label ~log2_cost ~seq)
                                in
                                let ev =
                                  timed (layer "cache.add") ~on (fun () ->
                                      Serve.Cache.add r.cache key ~body ~approximate)
                                in
                                r.totals.(6) <- r.totals.(6) + ev;
                                if on then r.meas_evictions <- r.meas_evictions + ev;
                                ok ~hit:false ~approx:approximate body)))))
        | _ -> error ~id:default_id "bad-request")

(* Output-check bookkeeping shared by the standalone and the
   interleaved replay. No generator class intends a solver error, so
   one is a failure even when serve agrees. *)
type check = { mutable mismatches : int; mutable meas_failed : int; mutable first_diff : string }

let check_item c r ~idx ~got want =
  let same = got = Hashtbl.hash want && not (ends_with want " code=solver") in
  if not same then begin
    c.mismatches <- c.mismatches + 1;
    if idx >= r.shape.warm then c.meas_failed <- c.meas_failed + 1;
    if c.first_diff = "" then c.first_diff <- Printf.sprintf "item %d: serve did not answer %S" (idx + 1) want
  end

(* ---------------- solve_large ---------------- *)

type plan = { cost_key : string; log2 : float; seq : int array }

let of_rat (p : OR.plan) =
  { cost_key = Format.asprintf "%a" Qo.Rat_cost.pp p.OR.cost; log2 = Qo.Rat_cost.to_log2 p.OR.cost; seq = p.OR.seq }

let of_log (p : OL.plan) =
  { cost_key = Printf.sprintf "%h" (Logreal.to_log2 p.OL.cost); log2 = Logreal.to_log2 p.OL.cost; seq = p.OL.seq }

type job = {
  j_label : string;  (* instance, for reports *)
  j_entry : string;
  j_domain : string;
  j_n : int;
  j_run : unit -> plan;
  j_ref_name : string;
  j_ref : unit -> plan;
}

let entry name =
  match Solver.find name with Some e -> e | None -> failwith ("no registry entry " ^ name)

let solve_log name i =
  match (entry name).Solver.solve_log with
  | Some f -> of_log (f i)
  | None -> failwith (name ^ " has no log domain")

let solve_rat name i = of_rat ((entry name).Solver.solve_rat i)

(* The round: five exact solves whose times are >= 2x apart, so the
   nearest-rank p50 (the 3rd kind) and p90 (the 5th) each land inside
   one kind for any number of whole rounds. *)
let solve_jobs ~seed =
  let chain n = Qo.Gen_inst.L.chain ~seed:(seed + n) ~n () in
  let fn =
    (* dense around the planted clique, so the number of connected
       subsets (the conv work) hardly moves with the seed *)
    let graph = Graphlib.Gen.planted_clique ~seed ~n:15 ~k:10 ~p:0.9 in
    (Reductions.Fn.reduce ~graph ~c:(10. /. 15.) ~d:0.2 ~log2_a:8.0).Reductions.Fn.instance
  in
  let clique_log = Qo.Gen_inst.L.clique ~seed ~n:16 () in
  let clique_rat = Qo.Gen_inst.R.clique ~seed ~n:10 () in
  let c61 = chain 61 and c62 = chain 62 in
  [
    { j_label = "chain n=61 (one-word ccp)"; j_entry = "ccp"; j_domain = "log"; j_n = 61;
      j_run = (fun () -> solve_log "ccp" c61); j_ref_name = "conv"; j_ref = (fun () -> solve_log "conv" c61) };
    { j_label = "clique n=10"; j_entry = "dp"; j_domain = "rat"; j_n = 10;
      j_run = (fun () -> solve_rat "dp" clique_rat); j_ref_name = "conv";
      j_ref = (fun () -> solve_rat "conv" clique_rat) };
    { j_label = "f_N n=15"; j_entry = "conv"; j_domain = "log"; j_n = 15;
      j_run = (fun () -> solve_log "conv" fn); j_ref_name = "dp_no_cartesian";
      j_ref = (fun () -> of_log (OL.dp_no_cartesian fn)) };
    { j_label = "clique n=16"; j_entry = "dp"; j_domain = "log"; j_n = 16;
      j_run = (fun () -> solve_log "dp" clique_log); j_ref_name = "conv";
      j_ref = (fun () -> solve_log "conv" clique_log) };
    { j_label = "chain n=62 (multi-word ccp)"; j_entry = "ccp"; j_domain = "log"; j_n = 62;
      j_run = (fun () -> solve_log "ccp" c62); j_ref_name = "conv"; j_ref = (fun () -> solve_log "conv" c62) };
  ]

(* ---------------- reports ---------------- *)

let per_layer_spec =
  [ ("host.ref_loop_ms", "ms"); ("trace.gen_ms_per_kreq", "ms"); ("serve.overhead_us", "us");
    ("serve.span_coverage_pct", "%"); ("serve.stage.prepare_p50_us", "us");
    ("serve.stage.cache_p50_us", "us"); ("serve.stage.solve_p50_us", "us");
    ("serve.stage.commit_p50_us", "us"); ("io.parse_us", "us"); ("io.canon_us", "us");
    ("io.md5_us", "us"); ("budget.calls", "count"); ("budget.us_per_call", "us");
    ("cache.hit_rate", "ratio"); ("cache.evictions", "count"); ("cache.find_us", "us");
    ("cache.add_us", "us"); ("solve.calls", "count") ]
  @ List.map (fun s -> ("solve." ^ s ^ "_ms", "ms")) solve_names
  @ [ ("dp.ns_per_transition.rat", "ns"); ("dp.ns_per_transition.log", "ns");
      ("dp.words_per_transition.log", "words"); ("ccp.ns_per_subset.word", "ns");
      ("ccp.ns_per_subset.multiword", "ns"); ("ccp.words_per_subset.multiword", "words");
      ("render.us", "us"); ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
      ("tracing_overhead_pct", "%") ]

(* The fixed per-layer list, in order; a layer a workload never reaches
   reads 0. *)
let per_layer (measured : metric list) =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.m_name = name) measured with
      | Some m -> { m with m_unit = unit }
      | None -> metric name unit 0. ~note:"(not on this workload's path)")
    per_layer_spec

(* Every workload repeats identical work: a serve pass regenerates the
   same trace into a fresh cache, a solve round runs the same five
   solves, and at jobs = 1 each operation takes the same path every time
   (the exact counts are gated identical). So each piece of work is
   timed once per repeat, host-scaled (see [scale]), and a run reports
   a robust aggregate over its repeats: the median pass on serve, the
   2nd percentile over rounds on solve_large. The host's speed wanders
   by up to ~1.8x over stretches of a fraction of a second to minutes,
   in CPU time as well as wall time, so a raw aggregate follows
   whichever state held the run. *)
type timing = {
  count : int;  (* operations timed *)
  basis : string;  (* how the samples were aggregated, for the report *)
  ops_per_s : float;
  p50 : float;
  tail : float;  (* the [tail_q] percentile *)
  tail_q : float;
  beyond : int;  (* samples beyond the tail rank *)
  max : float;
  product : float;  (* ops_per_s x mean latency: ~1 at one client *)
}

let timing_gates t =
  gate (t.product >= 0.8 && t.product <= 1.25)
    (Printf.sprintf "ops_per_s x mean latency = %g, not ~1 at one client" t.product);
  gate (t.p50 <= t.tail && t.tail <= t.max)
    (Printf.sprintf "p50 %g <= p%g %g <= max %g does not hold" t.p50 t.tail_q t.tail t.max);
  gate (t.beyond >= 10) (Printf.sprintf "p%g has only %d samples beyond it (need >= 10)" t.tail_q t.beyond)

let timing_of samples ~tail_q ~chunk ~durations =
  gate (not samples.Samples.overflow) "latency sample store overflowed";
  let count = samples.Samples.n in
  let d = Array.of_list durations in
  let chunks = Array.length d in
  gate (chunks > 0 && chunks * chunk = count)
    (Printf.sprintf "%d latency samples do not fill %d chunks of %d" count chunks chunk);
  if chunks = 0 || chunks * chunk <> count then
    { count; basis = ""; ops_per_s = nan; p50 = nan; tail = nan; tail_q; beyond = 0; max = nan; product = nan }
  else begin
    let p50s = Array.make chunks 0. and tails = Array.make chunks 0. and means = Array.make chunks 0. in
    let max = ref neg_infinity and idle = ref 0 in
    for k = 0 to chunks - 1 do
      let s = Array.init chunk (fun i -> Bigarray.Array1.get samples.Samples.a ((k * chunk) + i)) in
      Array.sort Float.compare s;
      p50s.(k) <- s.(rank_of ~count:chunk 50.);
      tails.(k) <- s.(rank_of ~count:chunk tail_q);
      max := Float.max !max s.(chunk - 1);
      let sum = Array.fold_left ( +. ) 0. s in
      means.(k) <- sum /. float_of_int chunk;
      (* one closed-loop client: a chunk's latencies fill its duration,
         save the loop's own gaps *)
      let busy = sum /. d.(k) in
      if busy < 0.8 || busy > 1. +. 1e-9 then incr idle
    done;
    let fast a = fastest (Array.to_list a) in
    let ops_per_s = float_of_int chunk /. fast d in
    let t =
      {
        count;
        basis = Printf.sprintf "host-scaled, 2nd percentile over %d rounds of %d" chunks chunk;
        ops_per_s;
        p50 = fast p50s;
        tail = fast tails;
        tail_q;
        beyond = count - 1 - rank_of ~count tail_q;
        max = !max;
        product = ops_per_s *. fast means;
      }
    in
    Printf.printf
      "  check: one client, so ops_per_s x mean latency = %.4f (in [0.8, 1.25]) and every chunk's latencies fill 0.8-1 of its duration (%d of %d do not)\n"
      t.product !idle chunks;
    gate (!idle = 0) (Printf.sprintf "%d chunks' latencies do not fill 0.8-1 of their duration" !idle);
    timing_gates t;
    t
  end

(* Serve: request i of the measured part is timed once per pass, host
   scaled, and its latency is the median of those; the percentiles are
   taken over the requests. Throughput is timed per chunk of [chunk]
   consecutive requests, again the median pass per chunk, so it
   includes the client loop between requests. *)
let serve_timing samples ~tail_q ~measured ~chunk (passes : pass list) =
  gate (not samples.Samples.overflow) "latency sample store overflowed";
  let np = List.length passes and nch = measured / chunk in
  let count = samples.Samples.n in
  let shaped =
    np > 0 && count = np * measured
    && List.for_all (fun p -> List.length p.durations = nch && List.length p.probes = nch + 1) passes
  in
  gate shaped
    (Printf.sprintf "%d latency samples and %s chunks do not make %d passes of %d requests in chunks of %d"
       count
       (String.concat "," (List.map (fun p -> string_of_int (List.length p.durations)) passes))
       np measured chunk);
  if not shaped then
    { count; basis = ""; ops_per_s = nan; p50 = nan; tail = nan; tail_q; beyond = 0; max = nan; product = nan }
  else begin
    let get i = Bigarray.Array1.get samples.Samples.a i in
    (* scaled times, pass-minor: nl.(i * np + p) is request i in pass p *)
    let nl = Array.make (measured * np) 0. and nd = Array.make (nch * np) 0. in
    let idle = ref 0 in
    List.iteri
      (fun p pass ->
        let pr = Array.of_list pass.probes in
        let sum = ref 0. and window = ref 0. in
        List.iteri
          (fun k d ->
            let f = scale pr.(k) pr.(k + 1) in
            window := !window +. d;
            nd.((k * np) + p) <- d *. f;
            for i = k * chunk to ((k + 1) * chunk) - 1 do
              let x = get ((p * measured) + i) in
              sum := !sum +. x;
              nl.((i * np) + p) <- x *. f
            done)
          pass.durations;
        (* one closed-loop client: a pass's latencies fill its measured
           window, save the loop's own gaps *)
        let busy = !sum /. !window in
        if busy < 0.8 || busy > 1. +. 1e-9 then incr idle)
      passes;
    let agg a j =
      let s = Array.sub a (j * np) np in
      Array.sort Float.compare s;
      s.(rank_of ~count:np 50.)
    in
    let lat = Array.init measured (agg nl) and d = Array.init nch (agg nd) in
    let sorted = Array.copy lat in
    Array.sort Float.compare sorted;
    let ops_per_s = float_of_int measured /. Array.fold_left ( +. ) 0. d in
    let t =
      {
        count;
        basis = Printf.sprintf "host-scaled, median of %d passes, over %d requests" np measured;
        ops_per_s;
        p50 = sorted.(rank_of ~count:measured 50.);
        tail = sorted.(rank_of ~count:measured tail_q);
        tail_q;
        beyond = measured - 1 - rank_of ~count:measured tail_q;
        max = sorted.(measured - 1);
        product = ops_per_s *. (Array.fold_left ( +. ) 0. lat /. float_of_int measured);
      }
    in
    Printf.printf
      "  check: one client, so ops_per_s x mean latency = %.4f (in [0.8, 1.25]) and every pass's latencies fill 0.8-1 of its measured window (%d of %d do not)\n"
      t.product !idle np;
    gate (!idle = 0) (Printf.sprintf "%d passes' latencies do not fill 0.8-1 of their window" !idle);
    timing_gates t;
    t
  end

let end_to_end (t : timing) ~setups ~heap_words =
  let per = t.basis in
  [
    metric "ops_per_s" "1/s" t.ops_per_s ~note:(Printf.sprintf "(%s)" per);
    metric "latency_p50_ms" "ms" (t.p50 *. 1e3) ~note:(Printf.sprintf "(p50, %s)" per);
    metric "latency_tail_ms" "ms" (t.tail *. 1e3)
      ~note:(Printf.sprintf "(p%g, %s; %d samples timed, %d beyond p%g)" t.tail_q per t.count t.beyond t.tail_q);
    metric "setup_s" "s" (median_of setups)
      ~note:(Printf.sprintf "(median of %d set-ups)" (List.length setups));
    metric "heap_peak_mb" "MB"
      (float_of_int heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.)
      ~note:(Printf.sprintf "(top_heap_words %d)" heap_words);
  ]

let all_equal name f l =
  match l with
  | [] -> ()
  | x :: rest ->
      let v = f x in
      gate (List.for_all (fun y -> f y = v) rest) (Printf.sprintf "exact count %s differs between repeats" name)

let report_counts title kvs =
  Printf.printf "  exact counts (%s): %s\n" title
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) kvs))

(* ---------------- serve runs ---------------- *)

let run_serve name ~seed ~seconds ~traced ~trace_out =
  let shape = serve_shape ~seed name in
  let ref0 = ref_loop_ms () in
  let samples = Samples.create (1 lsl 22) in
  let t_start = now () in
  (* whole passes only, at least three, and none that would end past
     [seconds] *)
  let passes = ref [] and last = ref 0. in
  while List.length !passes < 3 || now () -. t_start +. !last <= seconds do
    let t0 = now () in
    passes := serve_pass shape samples :: !passes;
    last := now () -. t0
  done;
  let passes = List.rev !passes in
  let npasses = List.length passes in
  (* The heap and the major-collection count depend on the process's
     history (OCaml 5.1 does not compact), so both are read from the
     first pass, which every process of one seed runs identically. *)
  let first = List.hd passes in
  let heap_words = first.top_heap_words in
  let ref1 = ref_loop_ms () in
  let t = serve_timing samples ~tail_q:shape.tail_q ~measured:shape.measured ~chunk:shape.chunk passes in
  (* Output check: the decomposed replay must reproduce every response.
     The traced run interleaves it with one more serve pass, request by
     request, so each serve latency is paired with the replay's layer
     times of the same request a few microseconds later, and host
     drift cancels from the difference. *)
  let r = replay_create shape in
  let c = { mismatches = 0; meas_failed = 0; first_diff = "" } in
  let paired_serve = ref 0. and paired_layers = ref 0. and paired_traced = ref 0. in
  let checked =
    if not traced then begin
      Array.iteri
        (fun idx got -> match replay_next r with Some want -> check_item c r ~idx ~got want | None -> ())
        first.responses;
      first
    end
    else begin
      let sample = 2000 in
      let ledger () = Hashtbl.fold (fun _ l acc -> acc +. l.secs) layers 0. in
      let hook idx got latency =
        let on = idx >= shape.warm in
        Obs.set_enabled (on && idx < shape.warm + sample);
        let l0 = ledger () in
        let t1 = now () in
        (match replay_next r with Some want -> check_item c r ~idx ~got want | None -> ());
        let t2 = now () in
        if on then begin
          paired_serve := !paired_serve +. latency;
          paired_layers := !paired_layers +. (ledger () -. l0);
          paired_traced := !paired_traced +. (t2 -. t1)
        end
      in
      let p = serve_pass ~hook shape (Samples.create (shape.warm + shape.measured)) in
      Obs.set_enabled false;
      p
    end
  in
  all_equal "serve totals (stats_key)" (fun p -> p.key) (checked :: passes);
  all_equal "response bytes" (fun p -> p.responses) (checked :: passes);
  all_equal "minor words" (fun p -> p.minor_words) passes;
  let rq, ok, er, rj, hi, mi, ev, fb = first.key in
  let key = [| rq; ok; er; rj; hi; mi; ev; fb |] in
  gate (r.item = Array.length first.responses)
    (Printf.sprintf "the replay framed %d items, serve answered %d" r.item (Array.length first.responses));
  gate (c.mismatches = 0)
    (Printf.sprintf "%d responses differ from the decomposed replay; first: %s" c.mismatches c.first_diff);
  gate (r.totals = key)
    (Printf.sprintf "serve totals %s, replay totals %s"
       (String.concat "," (Array.to_list (Array.map string_of_int key)))
       (String.concat "," (Array.to_list (Array.map string_of_int r.totals))));
  Printf.printf "workload %s seed %d: %d passes of %d warm-up + %d measured requests; trace %b\n" name seed
    npasses shape.warm shape.measured traced;
  report_host ~ref0 ~ref1;
  report_counts "per pass"
    [ ("requests", string_of_int rq); ("ok", string_of_int ok); ("errors", string_of_int er);
      ("rejected", string_of_int rj); ("hits", string_of_int hi); ("misses", string_of_int mi);
      ("evictions", string_of_int ev); ("fallbacks", string_of_int fb);
      ("measured_hits", string_of_int r.meas_hits); ("measured_misses", string_of_int r.meas_misses);
      ("measured_evictions", string_of_int r.meas_evictions);
      ("measured_minor_words", Printf.sprintf "%.0f" first.minor_words);
      ("first_pass_major_collections", string_of_int first.major_collections);
      ("first_pass_top_heap_words", string_of_int heap_words) ];
  let attempted = t.count and failed = c.meas_failed * npasses in
  if not traced then
    print_result ~attempted ~failed
      (end_to_end t ~setups:(List.map (fun p -> p.setup_s) passes) ~heap_words)
  else begin
    let m = float_of_int shape.measured in
    let serve_us = !paired_serve /. m *. 1e6 and layers_us = !paired_layers /. m *. 1e6 in
    let stage h = float_of_int (Obs.Histogram.quantile (Obs.Histogram.snap h) 50.) /. 1e3 in
    let st = first.stats.Serve.stages in
    let solves = List.map (fun s -> layer ("solve." ^ s)) solve_names in
    let hits = r.meas_hits and misses = r.meas_misses in
    Obs.write_trace trace_out;
    Printf.printf "  chrome trace of the first 2000 measured requests: %s\n" trace_out;
    print_result ~attempted ~failed
      (per_layer
         ([ metric "host.ref_loop_ms" "ms" ((ref0 +. ref1) /. 2.);
            metric "trace.gen_ms_per_kreq" "ms"
              (median_of (List.map (fun p -> p.gen_s) passes)
              *. 1e3 /. (float_of_int (shape.warm + shape.measured) /. 1e3));
            metric "serve.overhead_us" "us" (serve_us -. layers_us)
              ~note:(Printf.sprintf "(serve %.2f us - replay layers %.2f us, paired)" serve_us layers_us);
            metric "serve.span_coverage_pct" "%" (layers_us /. serve_us *. 100.);
            metric "serve.stage.prepare_p50_us" "us" (stage st.Serve.h_prepare);
            metric "serve.stage.cache_p50_us" "us" (stage st.Serve.h_cache);
            metric "serve.stage.solve_p50_us" "us" (stage st.Serve.h_solve);
            metric "serve.stage.commit_p50_us" "us" (stage st.Serve.h_commit);
            metric "io.parse_us" "us" (layer_us "io.parse");
            metric "io.canon_us" "us" (layer_us "io.canon");
            metric "io.md5_us" "us" (layer_us "io.md5");
            metric "budget.calls" "count" (float_of_int (layer "budget").calls);
            metric "budget.us_per_call" "us" (layer_us "budget");
            metric "cache.hit_rate" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
            metric "cache.evictions" "count" (float_of_int r.meas_evictions);
            metric "cache.find_us" "us" (layer_us "cache.find");
            metric "cache.add_us" "us" (layer_us "cache.add");
            metric "solve.calls" "count" (float_of_int (List.fold_left (fun a l -> a + l.calls) 0 solves));
            metric "render.us" "us" (layer_us "render");
            metric "gc.minor_words_per_op" "words" (first.minor_words /. m);
            metric "gc.major_collections" "count" (float_of_int first.major_collections);
            metric "tracing_overhead_pct" "%" ((!paired_traced /. !paired_serve -. 1.) *. 100.) ]
         @ List.map (fun l -> metric (l.l_name ^ "_ms") "ms" (layer_us l.l_name /. 1e3)) solves
         @ kernel_metrics ()))
  end

(* ---------------- solve_large runs ---------------- *)

type round = {
  rd_window : float;
  rd_top_heap : int;
  rd_words : float;
  rd_major : int;
  rd_counters : (string * int) list;
  rd_plans : plan array;
}

let run_solve ~seed ~seconds ~traced ~trace_out =
  let ref0 = ref_loop_ms () in
  (* set-up: build the instances and run each solve once (first-touch
     heap growth, lazy tables), three times over *)
  let setups =
    List.init 3 (fun _ ->
        Gc.compact ();
        let probe = ref (host_probe ()) in
        let t0 = now () in
        let jobs = Array.of_list (solve_jobs ~seed) in
        let setup = ref 0. in
        (* the build and each solve, host-scaled by the probes either side *)
        let lap t0 =
          let dt = now () -. t0 in
          let p = host_probe () in
          setup := !setup +. (dt *. scale !probe p);
          probe := p
        in
        lap t0;
        Array.iter
          (fun j ->
            let t0 = now () in
            ignore (j.j_run ());
            lap t0)
          jobs;
        (!setup, jobs))
  in
  let jobs = snd (List.nth setups 2) in
  let nj = Array.length jobs in
  let samples = Samples.create 65536 in
  let per_job = Array.make nj [] in
  let rounds = ref [] in
  let t_start = now () in
  let min_rounds = 20 in
  while List.length !rounds < min_rounds || now () -. t_start < seconds do
    Gc.compact ();
    let before = Obs.snapshot () in
    let maj0 = (Gc.quick_stat ()).Gc.major_collections in
    let w0 = Gc.minor_words () in
    (* each solve host-scaled by the probes either side of it *)
    let probe = ref (host_probe ()) and window = ref 0. in
    let plans =
      Array.mapi
        (fun i j ->
          let t0 = now () in
          let p = j.j_run () in
          let dt = now () -. t0 in
          let p1 = host_probe () in
          let dt = dt *. scale !probe p1 in
          probe := p1;
          window := !window +. dt;
          Samples.push samples dt;
          per_job.(i) <- dt :: per_job.(i);
          p)
        jobs
    in
    let window = !window in
    let words = Gc.minor_words () -. w0 in
    let major = (Gc.quick_stat ()).Gc.major_collections - maj0 in
    let counters = Obs.diff before (Obs.snapshot ()) in
    let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
    rounds :=
      { rd_window = window; rd_top_heap = top_heap; rd_words = words; rd_major = major; rd_counters = counters; rd_plans = plans }
      :: !rounds
  done;
  let ref1 = ref_loop_ms () in
  let rounds = List.rev !rounds in
  let nrounds = List.length rounds in
  (* heap and major collections: first round, as for serve *)
  let first = List.hd rounds in
  let heap_words = first.rd_top_heap in
  all_equal "plans" (fun r -> Array.map (fun p -> (p.cost_key, p.seq)) r.rd_plans) rounds;
  all_equal "minor words per round" (fun r -> r.rd_words) rounds;
  let kernel_counters r =
    List.filter
      (fun (k, _) ->
        List.mem k [ "opt.dp.transitions"; "ccp.dp.subsets_enumerated"; "conv.dense.transitions" ])
      r.rd_counters
  in
  all_equal "kernel counters per round" kernel_counters rounds;
  (* output check: each result against a second exact solver *)
  let mismatched = ref 0 in
  Array.iteri
    (fun i j ->
      let got = first.rd_plans.(i) and want = j.j_ref () in
      if got.cost_key <> want.cost_key || got.seq <> want.seq then begin
        incr mismatched;
        gate false
          (Printf.sprintf "%s %s.%s: cost 2^%.4f seq length %d, %s gives 2^%.4f seq length %d" j.j_label
             j.j_entry j.j_domain got.log2 (Array.length got.seq) j.j_ref_name want.log2 (Array.length want.seq))
      end)
    jobs;
  let t = timing_of samples ~tail_q:90. ~chunk:nj ~durations:(List.map (fun r -> r.rd_window) rounds) in
  Printf.printf "workload solve_large seed %d: %d rounds of %d exact solves; trace %b\n" seed nrounds nj traced;
  report_host ~ref0 ~ref1;
  Array.iteri
    (fun i j ->
      Printf.printf "  %-30s %s.%s  %.3f ms (host-scaled, 2nd percentile over rounds), checked against %s\n" j.j_label
        j.j_entry j.j_domain (fastest per_job.(i) *. 1e3) j.j_ref_name)
    jobs;
  report_counts "per round"
    ((List.map (fun (k, v) -> (k, string_of_int v)) (kernel_counters first))
    @ [ ("minor_words", Printf.sprintf "%.0f" first.rd_words); ("major_collections", string_of_int first.rd_major);
        ("top_heap_words", string_of_int heap_words) ]);
  let attempted = t.count and failed = !mismatched * nrounds in
  if not traced then print_result ~attempted ~failed (end_to_end t ~setups:(List.map fst setups) ~heap_words)
  else begin
    (* the ledger round: per-solve counter units and allocation, untraced *)
    Array.iteri
      (fun i j ->
        let before = Obs.snapshot () in
        let w0 = Gc.minor_words () in
        ignore (j.j_run ());
        let words = Gc.minor_words () -. w0 in
        let units = Obs.diff before (Obs.snapshot ()) in
        match kernel_of ~entry:j.j_entry ~domain:j.j_domain ~n:j.j_n with
        | Some (kname, cname) ->
            kernel_add kname ~secs:(fastest per_job.(i)) ~units:(counter units cname) ~words
        | None -> ())
      jobs;
    (* traced rounds, each right after an untraced one so host drift
       cancels from the tracing overhead; one span per solve *)
    let round ~traced =
      Obs.set_enabled traced;
      let t0 = now () in
      Array.iter
        (fun j ->
          if traced then ignore (timed (layer (Printf.sprintf "solve.%s.%s" j.j_entry j.j_domain)) ~on:true j.j_run)
          else ignore (j.j_run ()))
        jobs;
      Obs.set_enabled false;
      now () -. t0
    in
    let pairs = List.init 3 (fun _ -> let u = round ~traced:false in (u, round ~traced:true)) in
    Obs.write_trace trace_out;
    Printf.printf "  chrome trace of %d traced rounds: %s\n" (List.length pairs) trace_out;
    let overhead = median_of (List.map (fun (u, t) -> t /. u) pairs) -. 1. in
    let solve_ms name =
      let ms =
        List.concat
          (Array.to_list
             (Array.mapi
                (fun i j -> if j.j_entry ^ "." ^ j.j_domain = name then [ fastest per_job.(i) *. 1e3 ] else [])
                jobs))
      in
      if ms = [] then None else Some (metric ("solve." ^ name ^ "_ms") "ms" (mean_of ms))
    in
    print_result ~attempted ~failed
      (per_layer
         ([ metric "host.ref_loop_ms" "ms" ((ref0 +. ref1) /. 2.);
            metric "solve.calls" "count" (float_of_int t.count);
            metric "gc.minor_words_per_op" "words" (first.rd_words /. float_of_int nj);
            metric "gc.major_collections" "count" (float_of_int first.rd_major);
            metric "tracing_overhead_pct" "%" (overhead *. 100.) ]
         @ List.filter_map solve_ms solve_names
         @ kernel_metrics ()))
  end

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref "qbench-trace.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "serve_hot|serve_churn|solve_large");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced per-layer run (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE  Chrome trace of the traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "qbench.exe --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  match !workload with
  | ("serve_hot" | "serve_churn") as w ->
      run_serve w ~seed:!seed ~seconds:!seconds ~traced ~trace_out:!trace_out
  | "solve_large" -> run_solve ~seed:!seed ~seconds:!seconds ~traced ~trace_out:!trace_out
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
