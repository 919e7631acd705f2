(* Request/response serving over the existing optimizer portfolio.
   See serve.mli for the protocol; the design constraints are:

   - per-request error isolation: nothing a client sends may kill the
     process, so every request is handled under a handler that turns
     parse/admission/solver failures into structured error responses;
   - byte-identity with one-shot CLI output: plan lines go through
     [render_plan], the same function `qopt optimize` prints with;
   - byte-identity across --jobs: the sequential and concurrent paths
     run the very same pipeline below (read -> prepare -> turnstile
     cache pass -> solve -> in-order commit); at jobs=1 it simply runs
     inline, so `serve --jobs N` output is the jobs=1 output;
   - deterministic budgets: [budget_ms] is checked against a work
     model (transitions x ns/transition), never a wall clock, so the
     exact-vs-approximate decision is reproducible in tests.

   Concurrency layout (jobs > 1): the calling domain is the reader. It
   assigns every item (request or junk line) its arrival ordinal,
   groups items into batches of [config.batch_size], and pushes them
   into a bounded {!Pool.Chan} — a full channel blocks the reader,
   which is the backpressure signal. [jobs - 1] pool workers drain the
   channel. Each worker prepares its batch (parse, admission, budget —
   all pure, and memoized per payload bytes in the cache's front map),
   then passes a turnstile that serialises the cache pass in
   batch order: because every lookup/claim/evict happens in exactly the
   arrival order the sequential loop would use, hit/miss/eviction
   decisions — and therefore response bytes — are identical to jobs=1.
   Solves then run outside the turnstile, in parallel across batches; a
   claimed-but-unfilled entry is observed by later same-key requests as
   a Pending hit that they await (request coalescing: the plan is
   computed once). Finished batches land in a reorder buffer; whichever
   worker completes the next-in-order batch writes out every
   consecutive ready batch. SIGTERM raises {!Shutdown} on the reader
   (OCaml delivers signals to the main domain), which stops reading,
   submits the partial batch, closes the channel, and joins the workers
   — every accepted request is answered before the report is cut. *)

exception Shutdown

type domain = Rat | Log

let domain_name = function Rat -> Solver.Rat.name | Log -> Solver.Log.name

type config = {
  cache_capacity : int;
  cache_shards : int;
  queue_capacity : int;
  batch_size : int;
  rat_transition_ns : float;
  log_transition_ns : float;
}

let default_config =
  {
    cache_capacity = 256;
    cache_shards = 8;
    queue_capacity = 64;
    batch_size = 1;
    rat_transition_ns = 100.;
    log_transition_ns = 10.;
  }

(* Per-stage latency series (integer nanoseconds). Each pipeline stage
   a request flows through — queue wait, prepare, cache pass, solve,
   commit — gets its own histogram, plus [latency] for the end-to-end
   enqueue-to-commit time; #hist and the heartbeat expose them by the
   names in [latency_series]. *)
type stage_hists = {
  h_queue_wait : Obs.Histogram.t;
  h_prepare : Obs.Histogram.t;
  h_cache : Obs.Histogram.t;
  h_solve : Obs.Histogram.t;
  h_commit : Obs.Histogram.t;
}

(* The request counts. Each batch fills a fresh [totals] of its own and
   folds it into the session's under one lock ([add_totals]); the Obs
   counters are driven from the same batch record ([obs_totals]). *)
type totals = {
  mutable requests : int;
  mutable ok : int;
  mutable errors : int;
  mutable rejected : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable coalesced : int;
  mutable evictions : int;
  mutable fallbacks : int;
}

type stats = {
  totals : totals;
  mutable cache_entries : int;
  mutable seconds : float;
  mutable interrupted : bool;
  latency : Obs.Histogram.t;
  stages : stage_hists;
}

let fresh_totals () =
  {
    requests = 0;
    ok = 0;
    errors = 0;
    rejected = 0;
    cache_hits = 0;
    cache_misses = 0;
    coalesced = 0;
    evictions = 0;
    fallbacks = 0;
  }

let add_totals (dst : totals) (t : totals) =
  dst.requests <- dst.requests + t.requests;
  dst.ok <- dst.ok + t.ok;
  dst.errors <- dst.errors + t.errors;
  dst.rejected <- dst.rejected + t.rejected;
  dst.cache_hits <- dst.cache_hits + t.cache_hits;
  dst.cache_misses <- dst.cache_misses + t.cache_misses;
  dst.coalesced <- dst.coalesced + t.coalesced;
  dst.evictions <- dst.evictions + t.evictions;
  dst.fallbacks <- dst.fallbacks + t.fallbacks

let fresh_stats () =
  {
    totals = fresh_totals ();
    cache_entries = 0;
    seconds = 0.;
    interrupted = false;
    latency = Obs.Histogram.create ();
    stages =
      {
        h_queue_wait = Obs.Histogram.create ();
        h_prepare = Obs.Histogram.create ();
        h_cache = Obs.Histogram.create ();
        h_solve = Obs.Histogram.create ();
        h_commit = Obs.Histogram.create ();
      };
  }

let latency_series st =
  [
    ("latency", st.latency);
    ("queue_wait", st.stages.h_queue_wait);
    ("prepare", st.stages.h_prepare);
    ("cache", st.stages.h_cache);
    ("solve", st.stages.h_solve);
    ("commit", st.stages.h_commit);
  ]

let hit_rate st =
  let t = st.totals in
  let lookups = t.cache_hits + t.cache_misses in
  if lookups = 0 then 0. else float_of_int t.cache_hits /. float_of_int lookups

type io = {
  next_line : unit -> string option;
  write : string -> unit;
  flush : unit -> unit;
}

(* ---------------- observability ---------------- *)

(* The process-global mirror of [totals]: one (counter, field) pair
   each. [serve.responses.error] counts every error response,
   admission rejections included. *)
let obs_totals =
  [
    (Obs.counter "serve.requests", fun t -> t.requests);
    (Obs.counter "serve.responses.ok", fun t -> t.ok);
    (Obs.counter "serve.responses.error", fun t -> t.errors + t.rejected);
    (Obs.counter "serve.admission.rejected", fun t -> t.rejected);
    (Obs.counter "serve.cache.hits", fun t -> t.cache_hits);
    (Obs.counter "serve.cache.misses", fun t -> t.cache_misses);
    (Obs.counter "serve.cache.evictions", fun t -> t.evictions);
    (Obs.counter "serve.cache.coalesced", fun t -> t.coalesced);
    (Obs.counter "serve.fallbacks", fun t -> t.fallbacks);
  ]

let c_queue_full = Obs.counter "serve.queue.full"
let c_control = Obs.counter "serve.control.requests"
let g_entries = Obs.gauge "serve.cache.entries"
let c_front_hits = Obs.counter "serve.front.hits"
let c_front_misses = Obs.counter "serve.front.misses"
let g_front_entries = Obs.gauge "serve.front.entries"
let g_queue = Obs.gauge "serve.queue.depth"

(* The registered (process-global) latency histogram: every session's
   end-to-end request latency, in integer nanoseconds, visible in
   `--stats` and run reports. Per-session series live in
   [stats.latency]/[stats.stages]. *)
let h_latency = Obs.histogram "serve.latency_ns"

(* ---------------- plan rendering ---------------- *)

let render_plan ~label ~log2_cost ~seq =
  Printf.sprintf "%-22s cost = 2^%.2f  seq = [%s]" label log2_cost
    (String.concat ";" (Array.to_list (Array.map string_of_int seq)))

(* ---------------- plan cache (sharded LRU) ---------------- *)

module Cache = struct
  (* An entry is claimed (Pending) at lookup time, in arrival order
     under the turnstile, and filled once its solve completes. Claiming
     at lookup time reproduces the sequential find-then-add operation
     sequence exactly: the tick/stamp/eviction arithmetic a request
     performs depends only on the requests before it, never on how the
     solves interleave. *)
  type state =
    | Pending
    | Ready of { body : string; approximate : bool }
    | Failed  (** the claimant's solve errored; waiters re-solve *)

  type entry = { mutable state : state; mutable stamp : int }

  type shard = {
    s_m : Mutex.t;
    s_filled : Condition.t;
    s_tbl : (string, entry) Hashtbl.t;
    s_cap : int;
    mutable s_tick : int;
    mutable s_hits : int;
    mutable s_misses : int;
    mutable s_evictions : int;
  }

  (* The front map: raw request bytes -> the payload-determined verdict
     of prepare, so a byte-identical repeat skips parse, canonical
     text, MD5 and the budget estimate. It memoizes a pure function,
     so its contents (and its races at jobs > 1) can never change a
     response byte or a total; the canonical table above stays the
     one source of hit/miss/eviction decisions. FIFO-bounded at the
     cache capacity: [f_ring] holds the keys in insertion order, and
     once the table is full the slot at [f_next] is the oldest. *)
  type verdict =
    | Task of { key : string; approximate : bool }
    | Reject of { code : string; msg : string }  (** parse / too-large *)

  type front = {
    f_m : Mutex.t;
    f_tbl : (string, verdict) Hashtbl.t;
    f_ring : string array;
    mutable f_next : int;
  }

  type t = { sh : shard array; total : int Atomic.t; front : front }

  (* Shard count adapts down to the capacity so tiny caches (capacity 1
     in the eviction tests) keep the exact single-cache LRU semantics
     of the sequential-era implementation. *)
  let create ?(shards = default_config.cache_shards) ~capacity () =
    let nsh = max 1 (min (max 1 shards) (max 1 capacity)) in
    let nsh = if capacity <= 0 then 1 else nsh in
    let mk i =
      let cap =
        if capacity <= 0 then 0
        else (capacity / nsh) + if i < capacity mod nsh then 1 else 0
      in
      {
        s_m = Mutex.create ();
        s_filled = Condition.create ();
        s_tbl = Hashtbl.create 64;
        s_cap = cap;
        s_tick = 0;
        s_hits = 0;
        s_misses = 0;
        s_evictions = 0;
      }
    in
    let fcap = max 0 capacity in
    {
      sh = Array.init nsh mk;
      total = Atomic.make 0;
      front =
        {
          f_m = Mutex.create ();
          f_tbl = Hashtbl.create (min fcap 1024);
          f_ring = Array.make fcap "";
          f_next = 0;
        };
    }

  let shard_count t = Array.length t.sh

  (* Keys are "algo|exact-or-approx|<md5 hex>": shard on the leading
     hex digit of the canonical hash. Keys of any other shape (direct
     Cache API users, tests) fall back to a structural hash. *)
  let shard_of_key t key =
    let n = Array.length t.sh in
    if n = 1 then 0
    else
      let hex_val c =
        match c with
        | '0' .. '9' -> Some (Char.code c - Char.code '0')
        | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
        | _ -> None
      in
      match String.rindex_opt key '|' with
      | Some i when i + 1 < String.length key -> (
          match hex_val key.[i + 1] with
          | Some v -> v mod n
          | None -> Hashtbl.hash key mod n)
      | _ -> Hashtbl.hash key mod n

  let locked s f =
    Mutex.lock s.s_m;
    match f () with
    | v ->
        Mutex.unlock s.s_m;
        v
    | exception e ->
        Mutex.unlock s.s_m;
        raise e

  (* Linear-scan LRU eviction within the shard: shards are small
     (tens of entries) and eviction is rare next to a DP solve. *)
  let evict_oldest t s =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when best.stamp <= e.stamp -> acc
          | _ -> Some (k, e))
        s.s_tbl None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove s.s_tbl k;
        Atomic.decr t.total;
        true
    | None -> false

  let make_room t s =
    let evicted = ref 0 in
    while Hashtbl.length s.s_tbl >= s.s_cap && evict_oldest t s do
      incr evicted
    done;
    s.s_evictions <- s.s_evictions + !evicted;
    !evicted

  (* The pipeline's one cache pass per request, under the turnstile. *)
  type lookup =
    | Hit_ready of string * bool
    | Hit_pending of entry * shard
    | Claimed of entry * shard * int  (** entry, shard, evictions made *)
    | Uncached  (** capacity 0: solve without touching the table *)

  let lookup_or_claim t key =
    let s = t.sh.(shard_of_key t key) in
    locked s (fun () ->
        if s.s_cap <= 0 then begin
          s.s_misses <- s.s_misses + 1;
          Uncached
        end
        else
          match Hashtbl.find_opt s.s_tbl key with
          | Some e -> (
              s.s_tick <- s.s_tick + 1;
              e.stamp <- s.s_tick;
              s.s_hits <- s.s_hits + 1;
              match e.state with
              | Ready { body; approximate } -> Hit_ready (body, approximate)
              | Pending | Failed -> Hit_pending (e, s))
          | None ->
              s.s_misses <- s.s_misses + 1;
              let evicted = make_room t s in
              s.s_tick <- s.s_tick + 1;
              let e = { state = Pending; stamp = s.s_tick } in
              Hashtbl.add s.s_tbl key e;
              Atomic.incr t.total;
              Obs.set g_entries (Atomic.get t.total);
              Claimed (e, s, evicted))

  let fill (e : entry) (s : shard) ~body ~approximate =
    locked s (fun () ->
        e.state <- Ready { body; approximate };
        Condition.broadcast s.s_filled)

  (* Solver error on a claimed entry: withdraw it so later requests
     re-solve as misses; anyone already awaiting re-solves on Failed. *)
  let abandon t key (e : entry) (s : shard) =
    locked s (fun () ->
        e.state <- Failed;
        (match Hashtbl.find_opt s.s_tbl key with
        | Some e' when e' == e ->
            Hashtbl.remove s.s_tbl key;
            Atomic.decr t.total
        | _ -> ());
        Condition.broadcast s.s_filled)

  let await (e : entry) (s : shard) =
    locked s (fun () ->
        while e.state = Pending do
          Condition.wait s.s_filled s.s_m
        done;
        e.state)

  (* -------- the classic direct API (tests, satellite fixes) -------- *)

  let find t key =
    let s = t.sh.(shard_of_key t key) in
    locked s (fun () ->
        match Hashtbl.find_opt s.s_tbl key with
        | Some ({ state = Ready { body; approximate }; _ } as e) ->
            s.s_tick <- s.s_tick + 1;
            e.stamp <- s.s_tick;
            s.s_hits <- s.s_hits + 1;
            Some (body, approximate)
        | _ ->
            s.s_misses <- s.s_misses + 1;
            None)

  (* Returns the number of entries evicted to make room. A re-insert
     of a live key is NOT dropped: it refreshes the entry's LRU stamp
     (and body), so a hot entry recomputed after contention does not
     age out first. (The old [Hashtbl.mem] guard silently ignored the
     duplicate, leaving the stale stamp in place.) *)
  let add t key ~body ~approximate =
    let s = t.sh.(shard_of_key t key) in
    locked s (fun () ->
        if s.s_cap <= 0 then 0
        else
          match Hashtbl.find_opt s.s_tbl key with
          | Some e ->
              s.s_tick <- s.s_tick + 1;
              e.stamp <- s.s_tick;
              e.state <- Ready { body; approximate };
              0
          | None ->
              let evicted = make_room t s in
              s.s_tick <- s.s_tick + 1;
              Hashtbl.add s.s_tbl key { state = Ready { body; approximate }; stamp = s.s_tick };
              Atomic.incr t.total;
              Obs.set g_entries (Atomic.get t.total);
              evicted)

  let length t = Atomic.get t.total

  (* -------- the front map -------- *)

  let front_find t k =
    let f = t.front in
    if Array.length f.f_ring = 0 then None
    else begin
      let v = Mutex.protect f.f_m (fun () -> Hashtbl.find_opt f.f_tbl k) in
      Obs.incr (match v with Some _ -> c_front_hits | None -> c_front_misses);
      v
    end

  (* Two workers may both miss on one key at jobs > 1; they computed
     the same verdict, so the second insert is simply dropped. *)
  let front_add t k v =
    let f = t.front in
    let cap = Array.length f.f_ring in
    if cap > 0 then
      Mutex.protect f.f_m (fun () ->
          if not (Hashtbl.mem f.f_tbl k) then begin
            if Hashtbl.length f.f_tbl >= cap then Hashtbl.remove f.f_tbl f.f_ring.(f.f_next);
            Hashtbl.replace f.f_tbl k v;
            f.f_ring.(f.f_next) <- k;
            f.f_next <- (f.f_next + 1) mod cap;
            Obs.set g_front_entries (Hashtbl.length f.f_tbl)
          end)

  let shard_stats t =
    Array.map (fun s -> locked s (fun () -> (s.s_hits, s.s_misses, s.s_evictions))) t.sh
end

(* ---------------- request parsing ---------------- *)

type request = {
  rq_id : string;
  rq_algo : Solver.entry;
  rq_domain : domain;
  rq_budget_ms : float option;
}

(* Responses, cache keys and stats rows always use the canonical
   registry name, whatever alias the request arrived under. *)
let algo_name (e : Solver.entry) = e.Solver.name

(* Best-effort id for error responses to malformed headers, so a
   client can still correlate the failure with its request. *)
let scan_id ~default_id toks =
  List.fold_left
    (fun acc t ->
      if String.length t > 3 && String.sub t 0 3 = "id=" then
        String.sub t 3 (String.length t - 3)
      else acc)
    default_id toks

let header_tokens line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let parse_header ~default_id toks =
  match toks with
  | "request" :: kvs -> (
      let id = ref default_id in
      let algo = ref None in
      let domain = ref Rat in
      let budget = ref None in
      let err = ref None in
      let fail msg = if !err = None then err := Some msg in
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | None ->
              fail (Printf.sprintf "malformed token %S (expected key=value)" kv)
          | Some i -> (
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              match k with
              | "id" -> if v = "" then fail "empty id" else id := v
              | "algo" -> (
                  (* canonical names and registry aliases both resolve;
                     the expected-list in the error is generated, so it
                     can never drift from the registry again *)
                  match Solver.find v with
                  | Some e -> algo := Some e
                  | None ->
                      fail
                        (Printf.sprintf "unknown algo %S (expected %s)" v
                           Solver.expected_names))
              | "domain" -> (
                  match v with
                  | "rat" -> domain := Rat
                  | "log" -> domain := Log
                  | _ -> fail (Printf.sprintf "unknown domain %S (expected rat|log)" v))
              | "budget_ms" -> (
                  match float_of_string_opt v with
                  | Some b when Float.is_finite b && b >= 0. -> budget := Some b
                  | _ -> fail (Printf.sprintf "invalid budget_ms %S" v))
              | _ -> fail (Printf.sprintf "unknown key %S" k)))
        kvs;
      match (!err, !algo) with
      | Some msg, _ -> Error msg
      | None, None ->
          Error (Printf.sprintf "missing algo=<%s>" Solver.expected_names)
      | None, Some a ->
          Ok { rq_id = !id; rq_algo = a; rq_domain = !domain; rq_budget_ms = !budget })
  | _ -> Error "expected a \"request ...\" header"

(* ---------------- per-domain engine ----------------

   Rational and log instances flow through the same serving logic via
   a record of closures built right after the parse — cheaper to read
   than threading a first-class module through every call site. The
   record is built by one functor over the cost domain, applied once
   per domain below. Solves are always sequential within a request:
   with --jobs the parallelism is across requests (the worker pool),
   not inside the DP. *)

type solved = { log2_cost : float; seq : int array }

type engine = {
  e_n : int;
  e_canonical : string;  (* domain-prefixed canonical text: the cache-key basis *)
  e_csg_bounded : limit:int -> int option;
  e_solve : Solver.entry -> string * solved;
  e_fallback : unit -> string * solved;
}

module Engine (D : Solver.DOMAIN) = struct
  let make payload =
    let inst, canonical = D.parse_canonical payload in
    let solved (p : D.O.plan) = { log2_cost = D.to_log2 p.D.O.cost; seq = p.D.O.seq } in
    let fallback () =
      let g = D.O.greedy ~mode:D.O.Min_cost inst in
      let s = D.O.simulated_annealing inst in
      if D.C.compare g.D.O.cost s.D.O.cost <= 0 then ("greedy (min cost)", solved g)
      else ("simulated anneal", solved s)
    in
    {
      e_n = D.I.n inst;
      e_canonical = D.name ^ "\n" ^ canonical;
      e_csg_bounded = (fun ~limit -> D.Ccp.csg_count_bounded ~limit inst);
      e_solve =
        (fun e ->
          match D.solve e with
          | Some solve -> (e.Solver.label, solved (solve inst))
          | None ->
              (* unreachable: prepare_item rejects rat-only algos on log
                 instances before any solve is attempted *)
              failwith
                (Printf.sprintf "algo=%s supports only domain=rat" e.Solver.name));
      e_fallback = fallback;
    }
end

let engine_of =
  let module R = Engine (Solver.Rat) in
  let module L = Engine (Solver.Log) in
  function Rat -> R.make | Log -> L.make

(* ---------------- budget model ---------------- *)

let transition_ns cfg = function
  | Rat -> cfg.rat_transition_ns
  | Log -> cfg.log_transition_ns

(* Decide, without doing the exact solve, whether its modelled cost
   exceeds the budget. For ccp the #csg factor is measured with a
   bounded enumeration whose own work is capped by [limit], i.e. by
   the budget itself — estimating never costs more than the budget. *)
let over_budget cfg req eng =
  match req.rq_budget_ms with
  | None -> false
  | Some budget_ms -> (
      let lattice_est () =
        (* Full-lattice regime: n * 2^n transitions. *)
        let n = float_of_int eng.e_n in
        n *. Float.pow 2. n *. transition_ns cfg req.rq_domain /. 1e6 > budget_ms
      in
      let csg_est () =
        (* Connected-DP regime: the #csg factor is measured with a
           bounded enumeration capped by the budget itself. *)
        let per_csg =
          transition_ns cfg req.rq_domain *. float_of_int (max 1 eng.e_n)
        in
        let raw = budget_ms *. 1e6 /. per_csg in
        let limit =
          if Float.is_finite raw && raw < 1e9 then max 0 (int_of_float raw)
          else max_int - 1
        in
        match eng.e_csg_bounded ~limit with
        | None -> true
        | Some csg -> float_of_int csg *. per_csg /. 1e6 > budget_ms
      in
      match req.rq_algo.Solver.budget with
      | Solver.B_heuristic -> false
      | Solver.B_lattice -> lattice_est ()
      | Solver.B_dense_then_csg dense_max when eng.e_n <= dense_max ->
          lattice_est ()
      | Solver.B_csg | Solver.B_dense_then_csg _ -> csg_est ())

(* ---------------- responses (rendered to strings) ---------------- *)

let one_line msg =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) msg

let block header body =
  let b = Buffer.create (String.length header + 64) in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    body;
  Buffer.add_string b "end\n";
  Buffer.contents b

let error_block ~id ~code msg =
  block
    (Printf.sprintf "response id=%s status=error code=%s" id code)
    [ "error: " ^ one_line msg ]

let ok_block req ~cache_hit ~approximate body =
  block
    (Printf.sprintf "response id=%s status=ok algo=%s domain=%s cache=%s approximate=%b"
       req.rq_id (algo_name req.rq_algo) (domain_name req.rq_domain)
       (if cache_hit then "hit" else "miss")
       approximate)
    [ body ]

(* ---------------- the pipeline ---------------- *)

type item =
  | I_junk of string  (** unrecognized single line; owns no payload *)
  | I_req of { toks : string list; payload : string option }
      (** [payload = None]: EOF before the terminating "end" *)

type batch = {
  b_idx : int;  (** dense batch number: turnstile ticket + commit slot *)
  b_first : int;  (** arrival ordinal (1-based) of the first item *)
  b_items : item array;
  b_t0 : float;  (** enqueue time, for latency percentiles *)
}

(* Per-item outcome of the pure prepare phase. The engine (the parsed
   instance) is lazy: a front-map hit never parses, so only a request
   that goes on to solve — a canonical miss, or a waiter whose
   claimant failed — builds it, on the worker that owns its batch. *)
type prepared =
  | P_err of { id : string; code : string; msg : string }
  | P_task of { req : request; eng : engine Lazy.t; approximate : bool; key : string }

(* Per-item state between the turnstile cache pass and the solve/wait
   phases. *)
type step =
  | S_done of string  (** response fully rendered *)
  | S_solve of {
      req : request;
      eng : engine Lazy.t;
      approximate : bool;
      claim : (string * Cache.entry * Cache.shard) option;
    }
  | S_await of {
      req : request;
      eng : engine Lazy.t;
      approximate : bool;
      entry : Cache.entry;
      shard : Cache.shard;
    }

(* The cap travels with the registry entry, so a new solver cannot be
   served until its entry declares one (the record field is not
   optional) — the registry-era shape of the old "exhaustive match"
   compile-time guarantee. *)
let admission_cap (e : Solver.entry) = (e.Solver.cap_name, e.Solver.cap)

let solver_msg = function
  | Invalid_argument m | Failure m -> m
  | e -> Printexc.to_string e

(* The payload-determined part of prepare: parse, admission, budget and
   the canonical key. A pure function of (algo, domain, budget,
   payload), which is what lets the front map memoize it. *)
let verdict_of cfg req payload =
  match engine_of req.rq_domain payload with
  | exception (Invalid_argument msg | Failure msg) -> (Cache.Reject { code = "parse"; msg }, None)
  | eng ->
      let cap_name, cap = admission_cap req.rq_algo in
      if eng.e_n > cap then
        ( Cache.Reject
            {
              code = "too-large";
              msg =
                Printf.sprintf "n=%d exceeds %s (%d) for algo=%s" eng.e_n cap_name cap
                  (algo_name req.rq_algo);
            },
          None )
      else
        let approximate = over_budget cfg req eng in
        let key =
          Printf.sprintf "%s|%s|%s" (algo_name req.rq_algo)
            (if approximate then "approx" else "exact")
            (Digest.to_hex (Digest.string eng.e_canonical))
        in
        (Cache.Task { key; approximate }, Some eng)

(* Everything the verdict depends on, with the payload by digest. *)
let front_key req payload =
  String.concat "|"
    [
      algo_name req.rq_algo;
      domain_name req.rq_domain;
      (match req.rq_budget_ms with
      | None -> "-"
      | Some b -> Int64.to_string (Int64.bits_of_float b));
      Digest.string payload;
    ]

let prepare_item cfg cache ~ord it =
  let default_id = string_of_int ord in
  match it with
  | I_junk line ->
      P_err
        {
          id = default_id;
          code = "bad-request";
          msg = Printf.sprintf "unrecognized line %S (expected \"request ...\")" line;
        }
  | I_req { toks; payload } -> (
      let id = scan_id ~default_id toks in
      match parse_header ~default_id toks with
      | Error msg -> P_err { id; code = "bad-request"; msg }
      | Ok req -> (
          match payload with
          | None ->
              P_err
                { id = req.rq_id; code = "bad-request"; msg = "unexpected EOF before \"end\"" }
          | Some _ when req.rq_domain = Log && Solver.Log.solve req.rq_algo = None ->
              (* rat-only algo on a log request: reject before even
                 parsing the payload — no engine could solve it *)
              P_err
                {
                  id = req.rq_id;
                  code = "bad-request";
                  msg =
                    Printf.sprintf "algo=%s supports only domain=rat"
                      (algo_name req.rq_algo);
                }
          | Some payload -> (
              let fkey = front_key req payload in
              let verdict, eng =
                match Cache.front_find cache fkey with
                | Some v -> (v, None)
                | None ->
                    let v, eng = verdict_of cfg req payload in
                    Cache.front_add cache fkey v;
                    (v, eng)
              in
              match verdict with
              | Cache.Reject { code; msg } -> P_err { id = req.rq_id; code; msg }
              | Cache.Task { key; approximate } ->
                  let eng =
                    match eng with
                    | Some e -> Lazy.from_val e
                    | None -> lazy (engine_of req.rq_domain payload)
                  in
                  P_task { req; eng; approximate; key })))

type pipeline = {
  cfg : config;
  cache : Cache.t;
  st : stats;
  st_m : Mutex.t;
  io : io;
  (* turnstile: serialises the cache pass in batch-arrival order *)
  ts_m : Mutex.t;
  ts_c : Condition.t;
  mutable ts_next : int;
  (* in-order commit: reorder buffer + cooperative writer *)
  w_m : Mutex.t;
  w_buf : (int, string array) Hashtbl.t;  (* rendered responses per batch *)
  mutable w_next : int;
  mutable w_dead : bool;  (* transport dropped: discard further output *)
}

let make_pipeline ~cfg ~cache ~st io =
  {
    cfg;
    cache;
    st;
    st_m = Mutex.create ();
    io;
    ts_m = Mutex.create ();
    ts_c = Condition.create ();
    ts_next = 0;
    w_m = Mutex.create ();
    w_buf = Hashtbl.create 16;
    w_next = 0;
    w_dead = false;
  }

let await_turn p i =
  Mutex.lock p.ts_m;
  while p.ts_next < i do
    Condition.wait p.ts_c p.ts_m
  done;
  Mutex.unlock p.ts_m

let advance_turn p =
  Mutex.lock p.ts_m;
  p.ts_next <- p.ts_next + 1;
  Condition.broadcast p.ts_c;
  Mutex.unlock p.ts_m

(* Deliver a finished batch: park it in the reorder buffer and write
   out every consecutive ready batch. Transport errors mark the writer
   dead rather than killing the worker — the remaining pipeline drains
   (responses discarded), matching the sequential loop's "connection is
   over" handling. *)
let commit p b_idx responses lat_ms =
  (* One end-to-end sample (enqueue -> commit) per request in the
     batch. Histogram recording is lock-free on this domain's cells —
     O(buckets) memory total, unlike the old sorted-array store that
     appended + re-sorted every batch and grew with the request
     count. *)
  let lat_ns = int_of_float (lat_ms *. 1e6) in
  for _ = 1 to Array.length responses do
    Obs.Histogram.record p.st.latency lat_ns;
    Obs.Histogram.record h_latency lat_ns
  done;
  Mutex.lock p.w_m;
  match
    Hashtbl.replace p.w_buf b_idx responses;
    let rec drain () =
      match Hashtbl.find_opt p.w_buf p.w_next with
      | None -> ()
      | Some rs ->
          Hashtbl.remove p.w_buf p.w_next;
          p.w_next <- p.w_next + 1;
          if not p.w_dead then
            (try
               Array.iter
                 (fun r ->
                   p.io.write r;
                   p.io.flush ())
                 rs
             with Sys_error _ -> p.w_dead <- true);
          drain ()
    in
    drain ()
  with
  | () -> Mutex.unlock p.w_m
  | exception e ->
      Mutex.unlock p.w_m;
      raise e

(* A loop rather than [List.iter]: at batch size 1 this runs once per
   request, and the iterator's closure would be an allocation each time. *)
let rec mirror_totals (t : totals) = function
  | [] -> ()
  | (c, field) :: rest ->
      Obs.add c (field t);
      mirror_totals t rest

(* Fold a batch's counts into the session totals and the Obs mirror. *)
let apply_tally p (t : totals) =
  Mutex.lock p.st_m;
  add_totals p.st.totals t;
  p.st.cache_entries <- Cache.length p.cache;
  Mutex.unlock p.st_m;
  mirror_totals t obs_totals

(* Forcing the lazy engine here puts a re-parse after a front-map hit
   under the same error handling as the solve itself. *)
let run_solve eng ~approximate req =
  try
    let eng = Lazy.force eng in
    let label, s = if approximate then eng.e_fallback () else eng.e_solve req.rq_algo in
    Ok (render_plan ~label ~log2_cost:s.log2_cost ~seq:s.seq)
  with e -> Error (solver_msg e)

let process_batch p b =
  let nreq = Array.length b.b_items in
  let t_start = Unix.gettimeofday () in
  let ns dt = int_of_float (dt *. 1e9) in
  let record_each h v = for _ = 1 to nreq do Obs.Histogram.record h v done in
  (* queue wait: enqueue-to-dequeue, shared by every request in the
     batch (they were enqueued together) *)
  record_each p.st.stages.h_queue_wait (ns (t_start -. b.b_t0));
  (* The span keeps the stable "serve.batch" name when tracing is off
     (it is free then); when enabled it carries the arrival-ordinal
     range, so a Chrome trace correlates each request with its
     queue-wait/prepare/cache/solve/commit stages. *)
  let label =
    if Obs.enabled () then
      Printf.sprintf "serve.batch#%d[%d..%d]" b.b_idx b.b_first (b.b_first + nreq - 1)
    else "serve.batch"
  in
  Obs.span label @@ fun () ->
  let tally = fresh_totals () in
  let note_err code =
    tally.requests <- tally.requests + 1;
    if code = "too-large" then tally.rejected <- tally.rejected + 1
    else tally.errors <- tally.errors + 1
  in
  (* phase 1: pure prepare (parallel across batches) *)
  let prepared =
    Obs.span "serve.stage.prepare" @@ fun () ->
    Array.mapi
      (fun i it ->
        let t0 = Unix.gettimeofday () in
        let r = prepare_item p.cfg p.cache ~ord:(b.b_first + i) it in
        Obs.Histogram.record p.st.stages.h_prepare (ns (Unix.gettimeofday () -. t0));
        r)
      b.b_items
  in
  (* phase 2: the cache pass, serialised in arrival order *)
  await_turn p b.b_idx;
  let steps =
    Fun.protect
      ~finally:(fun () -> advance_turn p)
      (fun () ->
        Obs.span "serve.stage.cache" @@ fun () ->
        Array.map
          (fun pr ->
            let t0 = Unix.gettimeofday () in
            let s =
              match pr with
              | P_err { id; code; msg } ->
                  note_err code;
                  S_done (error_block ~id ~code msg)
              | P_task { req; eng; approximate; key } -> (
                  tally.requests <- tally.requests + 1;
                  if approximate then tally.fallbacks <- tally.fallbacks + 1;
                  match Cache.lookup_or_claim p.cache key with
                  | Cache.Hit_ready (body, entry_approx) ->
                      tally.cache_hits <- tally.cache_hits + 1;
                      tally.ok <- tally.ok + 1;
                      S_done (ok_block req ~cache_hit:true ~approximate:entry_approx body)
                  | Cache.Hit_pending (entry, shard) ->
                      tally.cache_hits <- tally.cache_hits + 1;
                      tally.coalesced <- tally.coalesced + 1;
                      S_await { req; eng; approximate; entry; shard }
                  | Cache.Claimed (entry, shard, evicted) ->
                      tally.cache_misses <- tally.cache_misses + 1;
                      tally.evictions <- tally.evictions + evicted;
                      S_solve { req; eng; approximate; claim = Some (key, entry, shard) }
                  | Cache.Uncached ->
                      tally.cache_misses <- tally.cache_misses + 1;
                      S_solve { req; eng; approximate; claim = None })
            in
            Obs.Histogram.record p.st.stages.h_cache (ns (Unix.gettimeofday () -. t0));
            s)
          prepared)
  in
  (* phase 3: solves (parallel across batches); fill claims as each
     completes so awaiting requests unblock as early as possible *)
  let responses = Array.make (Array.length steps) "" in
  (Obs.span "serve.stage.solve" @@ fun () ->
   Array.iteri
     (fun i s ->
       match s with
       | S_done r -> responses.(i) <- r
       | S_await _ -> ()
       | S_solve { req; eng; approximate; claim } -> (
           let t0 = Unix.gettimeofday () in
           (match run_solve eng ~approximate req with
           | Ok body ->
               (match claim with
               | Some (_, entry, shard) -> Cache.fill entry shard ~body ~approximate
               | None -> ());
               tally.ok <- tally.ok + 1;
               responses.(i) <- ok_block req ~cache_hit:false ~approximate body
           | Error msg ->
               (match claim with
               | Some (key, entry, shard) -> Cache.abandon p.cache key entry shard
               | None -> ());
               tally.errors <- tally.errors + 1;
               responses.(i) <- error_block ~id:req.rq_id ~code:"solver" msg);
           Obs.Histogram.record p.st.stages.h_solve (ns (Unix.gettimeofday () -. t0))))
     steps);
  (* phase 4: resolve coalesced waits (the claimant is in an earlier
     batch, already past its turnstile, so its fill cannot deadlock);
     the wait time counts as that request's solve time *)
  Array.iteri
    (fun i s ->
      match s with
      | S_done _ | S_solve _ -> ()
      | S_await { req; eng; approximate; entry; shard } -> (
          let t0 = Unix.gettimeofday () in
          (match Cache.await entry shard with
          | Cache.Ready { body; approximate = entry_approx } ->
              tally.ok <- tally.ok + 1;
              responses.(i) <- ok_block req ~cache_hit:true ~approximate:entry_approx body
          | Cache.Failed | Cache.Pending -> (
              (* the claimant's solve errored: solve independently *)
              match run_solve eng ~approximate req with
              | Ok body ->
                  tally.ok <- tally.ok + 1;
                  responses.(i) <- ok_block req ~cache_hit:false ~approximate body
              | Error msg ->
                  tally.errors <- tally.errors + 1;
                  responses.(i) <- error_block ~id:req.rq_id ~code:"solver" msg));
          Obs.Histogram.record p.st.stages.h_solve (ns (Unix.gettimeofday () -. t0))))
    steps;
  apply_tally p tally;
  let t_commit = Unix.gettimeofday () in
  Obs.span "serve.stage.commit" (fun () ->
      commit p b.b_idx responses ((t_commit -. b.b_t0) *. 1e3));
  record_each p.st.stages.h_commit (ns (Unix.gettimeofday () -. t_commit))

(* Catch-all wrapper: a bug in batch processing must not wedge the
   turnstile or the commit order, so on an unexpected exception the
   batch is answered with solver errors and the pipeline lives on. *)
let process_batch_safe p b =
  try process_batch p b
  with e ->
    let msg =
      match e with
      | Shutdown ->
          (* a shutdown signal interrupted the batch mid-solve (main
             domain only): still answer it, then let the reader wind
             the session down *)
          p.st.interrupted <- true;
          "interrupted by shutdown"
      | Sys_error m -> m
      | e -> solver_msg e
    in
    (* make sure the turnstile has moved past this batch without ever
       skipping ahead of batches still waiting for their turn *)
    (try await_turn p b.b_idx with _ -> ());
    Mutex.lock p.ts_m;
    if p.ts_next = b.b_idx then begin
      p.ts_next <- b.b_idx + 1;
      Condition.broadcast p.ts_c
    end;
    Mutex.unlock p.ts_m;
    let responses =
      Array.mapi
        (fun i _ -> error_block ~id:(string_of_int (b.b_first + i)) ~code:"solver" msg)
        b.b_items
    in
    let tally = fresh_totals () in
    tally.requests <- Array.length b.b_items;
    tally.errors <- Array.length b.b_items;
    apply_tally p tally;
    (try commit p b.b_idx responses 0. with _ -> ())

(* ---------------- reader + serve loops ---------------- *)

let read_payload io =
  let buf = Buffer.create 256 in
  let rec go () =
    match io.next_line () with
    | None -> None
    | Some line ->
        if String.trim line = "end" then Some (Buffer.contents buf)
        else begin
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          go ()
        end
  in
  go ()

(* ---------------- in-band introspection ----------------

   Control requests ride on the comment syntax: exactly [#stats],
   [#health] and [#hist NAME] are answered in-band with a one-line
   schema-versioned JSON snapshot wrapped in a
   "control <name> status=ok|error ... / end" block; every other
   #-line stays a comment (so existing workloads are unaffected).
   Controls are answered by the reader itself, under the writer lock,
   so they never enter the batching pipeline: they are not counted in
   [stats.requests], they do not perturb batch boundaries, ordinals or
   cache state, and non-control response bytes stay identical at any
   --jobs. A control answer is emitted at the reader's current point
   in the stream — batches still in flight behind it appear in the
   snapshot only once committed. *)

type control = C_stats | C_health | C_hist of string

let control_request line =
  if line = "#stats" then Some C_stats
  else if line = "#health" then Some C_health
  else if String.length line > 6 && String.sub line 0 6 = "#hist " then
    Some (C_hist (String.trim (String.sub line 6 (String.length line - 6))))
  else None

let control_schema_version = 1

let control_fields control rest =
  Obs.Json.Obj
    (("schema_version", Obs.Json.Int control_schema_version)
    :: ("kind", Obs.Json.Str "qopt-serve-control")
    :: ("control", Obs.Json.Str control)
    :: rest)

(* The count fields every totals object (#stats, heartbeat, report)
   starts with, in their pinned order. *)
let count_fields st =
  let open Obs.Json in
  let t = st.totals in
  [
    ("requests", Int t.requests);
    ("ok", Int t.ok);
    ("errors", Int t.errors);
    ("rejected", Int t.rejected);
    ("cache_hits", Int t.cache_hits);
    ("cache_misses", Int t.cache_misses);
    ("coalesced", Int t.coalesced);
    ("cache_entries", Int st.cache_entries);
    ("evictions", Int t.evictions);
    ("fallbacks", Int t.fallbacks);
    ("cache_hit_rate", Float (hit_rate st));
  ]

let totals_json st =
  let open Obs.Json in
  let lat = Obs.Histogram.snap st.latency in
  let q x = float_of_int (Obs.Histogram.quantile lat x) /. 1e6 in
  Obj
    (count_fields st
    @ [
      ( "latency_ms",
        Obj
          [
            ("count", Int lat.Obs.Histogram.count);
            ("p50", Float (q 50.));
            ("p95", Float (q 95.));
            ("p99", Float (q 99.));
            ("p999", Float (q 99.9));
            ("max", Float (float_of_int lat.Obs.Histogram.max_value /. 1e6));
          ] );
    ])

let control_response st ~accepted ctl =
  let open Obs.Json in
  match ctl with
  | C_stats ->
      (* [accepted] is the reader-side arrival count — deterministic at
         any jobs, unlike the committed totals which lag behind the
         reader in the concurrent pipeline *)
      block "control stats status=ok"
        [
          to_string
            (control_fields "stats"
               [ ("accepted", Int accepted); ("totals", totals_json st) ]);
        ]
  | C_health ->
      block "control health status=ok"
        [
          to_string
            (control_fields "health"
               [
                 ("status", Str (if st.interrupted then "draining" else "ok"));
                 ("accepted", Int accepted);
                 ("completed", Int st.totals.requests);
                 ("interrupted", Bool st.interrupted);
               ]);
        ]
  | C_hist name -> (
      match List.assoc_opt name (latency_series st) with
      | Some h ->
          block
            (Printf.sprintf "control hist status=ok name=%s" name)
            [
              to_string
                (control_fields "hist"
                   [
                     ("name", Str name);
                     ("unit", Str "ns");
                     ("hist", Obs.Histogram.to_json (Obs.Histogram.snap h));
                   ]);
            ]
      | None ->
          block "control hist status=error"
            [
              Printf.sprintf
                "error: unknown histogram %S (expected %s)" name
                (String.concat "|" (List.map fst (latency_series st)));
            ])

(* Controls bypass the reorder buffer but still take the writer lock,
   so a control block never interleaves with a response block. *)
let answer_control p ~accepted ctl =
  Obs.incr c_control;
  let body = control_response p.st ~accepted ctl in
  Mutex.lock p.w_m;
  if not p.w_dead then (
    try
      p.io.write body;
      p.io.flush ()
    with Sys_error _ -> p.w_dead <- true);
  Mutex.unlock p.w_m

(* Strip control blocks out of a transcript: returns the non-control
   bytes (which must be identical to a control-free run) and each
   control block's (header, body) — the test helper for the
   "controls do not perturb traffic" invariant. *)
let split_control out =
  let lines = String.split_on_char '\n' out in
  let buf = Buffer.create (String.length out) in
  let ctls = ref [] in
  let rec go = function
    | [] -> ()
    | [ "" ] -> ()  (* the final newline's empty tail *)
    | l :: rest ->
        if String.length l >= 8 && String.sub l 0 8 = "control " then begin
          let rec take acc = function
            | "end" :: rest' -> (List.rev acc, rest')
            | x :: rest' -> take (x :: acc) rest'
            | [] -> (List.rev acc, [])
          in
          let body, rest' = take [] rest in
          ctls := (l, String.concat "\n" body) :: !ctls;
          go rest'
        end
        else begin
          Buffer.add_string buf l;
          Buffer.add_char buf '\n';
          go rest
        end
  in
  go lines;
  (Buffer.contents buf, List.rev !ctls)

(* One serve session over [io]: read, batch, submit, join. [submit]
   either processes inline (sequential) or pushes into the channel
   (concurrent); [finish] closes the channel and joins the workers. *)
let reader_loop p ~batch_size ~submit ~finish =
  let io = p.io in
  let pending = ref [] in
  let pending_n = ref 0 in
  let first_ord = ref 1 in
  let next_ord = ref 1 in
  let batch_idx = ref 0 in
  let flush_batch () =
    if !pending_n > 0 then begin
      let items = Array.of_list (List.rev !pending) in
      pending := [];
      pending_n := 0;
      let b =
        { b_idx = !batch_idx; b_first = !first_ord; b_items = items; b_t0 = Unix.gettimeofday () }
      in
      incr batch_idx;
      first_ord := !next_ord;
      submit b
    end
  in
  let add_item it =
    if !pending_n = 0 then first_ord := !next_ord;
    pending := it :: !pending;
    incr pending_n;
    incr next_ord;
    if !pending_n >= batch_size then flush_batch ()
  in
  (try
     let rec loop () =
       if p.w_dead then ()
       else
         match io.next_line () with
         | None -> ()
         | Some raw ->
             let line = String.trim raw in
             if line = "" || line.[0] = '#' then begin
               (match control_request line with
               | Some ctl -> answer_control p ~accepted:(!next_ord - 1) ctl
               | None -> ());
               loop ()
             end
             else begin
               (match header_tokens line with
               | "request" :: _ as toks ->
                   let payload = read_payload io in
                   add_item (I_req { toks; payload })
               | _ -> add_item (I_junk line));
               loop ()
             end
     in
     loop ()
   with
  | Shutdown -> p.st.interrupted <- true
  | Sys_error _ -> ());
  (* drain: the partial batch is in-flight work and still gets answered *)
  (try flush_batch ()
   with
  | Shutdown -> p.st.interrupted <- true
  | Sys_error _ -> ());
  (* join must complete even if a late signal lands during the wait:
     the workers own shared pipeline state until they exit *)
  let rec join_workers () =
    try finish ()
    with Shutdown ->
      p.st.interrupted <- true;
      join_workers ()
  in
  join_workers ()

let serve_session ?pool ~cfg ~cache ~st io =
  let jobs = match pool with Some pl -> Pool.jobs pl | None -> 1 in
  let p = make_pipeline ~cfg ~cache ~st io in
  let (), elapsed =
    Obs.time (fun () ->
        Obs.span "serve.loop" @@ fun () ->
        match pool with
        | Some pool when jobs > 1 ->
            let chan = Pool.Chan.create ~capacity:(max 1 cfg.queue_capacity) in
            let done_m = Mutex.create () in
            let done_c = Condition.create () in
            let active = ref (jobs - 1) in
            for w = 0 to jobs - 2 do
              Pool.async pool (fun () ->
                  let c_batches =
                    Obs.counter (Printf.sprintf "serve.worker.%d.batches" w)
                  in
                  Fun.protect
                    ~finally:(fun () ->
                      Mutex.lock done_m;
                      decr active;
                      if !active = 0 then Condition.broadcast done_c;
                      Mutex.unlock done_m)
                    (fun () ->
                      let rec wloop () =
                        match Pool.Chan.pop chan with
                        | None -> ()
                        | Some b ->
                            Obs.set g_queue (Pool.Chan.length chan);
                            Obs.incr c_batches;
                            process_batch_safe p b;
                            wloop ()
                      in
                      wloop ()))
            done;
            let submit b =
              if Pool.Chan.length chan >= cfg.queue_capacity then Obs.incr c_queue_full;
              ignore (Pool.Chan.push chan b : bool);
              Obs.set g_queue (Pool.Chan.length chan)
            in
            let finish () =
              Pool.Chan.close chan;
              Mutex.lock done_m;
              match
                while !active > 0 do
                  Condition.wait done_c done_m
                done
              with
              | () -> Mutex.unlock done_m
              | exception e ->
                  Mutex.unlock done_m;
                  raise e
            in
            reader_loop p ~batch_size:(max 1 cfg.batch_size) ~submit ~finish
        | _ ->
            reader_loop p
              ~batch_size:(max 1 cfg.batch_size)
              ~submit:(fun b -> process_batch_safe p b)
              ~finish:(fun () -> ()))
  in
  st.seconds <- st.seconds +. elapsed;
  st

let serve_io ?pool ?(config = default_config) ?stats io =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  serve_session ?pool ~cfg:config
    ~cache:(Cache.create ~shards:config.cache_shards ~capacity:config.cache_capacity ())
    ~st io

let io_of_channels ic oc =
  {
    next_line =
      (fun () -> match input_line ic with l -> Some l | exception End_of_file -> None);
    write = (fun s -> output_string oc s);
    flush = (fun () -> flush oc);
  }

let serve_channels ?pool ?config ?stats ic oc =
  serve_io ?pool ?config ?stats (io_of_channels ic oc)

let serve_string ?pool ?config input =
  let out = Buffer.create 1024 in
  let pos = ref 0 in
  let len = String.length input in
  let next_line () =
    if !pos >= len then None
    else begin
      let j = match String.index_from_opt input !pos '\n' with Some j -> j | None -> len in
      let line = String.sub input !pos (j - !pos) in
      pos := j + 1;
      Some line
    end
  in
  let st =
    serve_io ?pool ?config
      { next_line; write = Buffer.add_string out; flush = (fun () -> ()) }
  in
  (Buffer.contents out, st)

let serve_socket ?pool ?(config = default_config) ?stats ?(max_conns = max_int) path =
  let cache = Cache.create ~shards:config.cache_shards ~capacity:config.cache_capacity () in
  let st = match stats with Some st -> st | None -> fresh_stats () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let cleanup () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  let served = ref 0 in
  (try
     while (not st.interrupted) && !served < max_conns do
       match Unix.accept sock with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | fd, _ ->
           incr served;
           let ic = Unix.in_channel_of_descr fd in
           let oc = Unix.out_channel_of_descr fd in
           ignore (serve_session ?pool ~cfg:config ~cache ~st (io_of_channels ic oc));
           (try flush oc with Sys_error _ -> ());
           (try Unix.close fd with Unix.Unix_error _ -> ())
     done
   with Shutdown -> st.interrupted <- true);
  cleanup ();
  st

(* ---------------- reporting ---------------- *)

(* Nearest-rank percentile (ms) over the latency histogram. Same rank
   formula as the old sorted-array store, answered from bucket counts:
   agrees with the exact sorted-array percentile to within one bucket
   width ([Obs.Histogram.width_at], ≤ 6.25% of the value). *)
let latency_percentile st q =
  let s = Obs.Histogram.snap st.latency in
  if s.Obs.Histogram.count = 0 then 0.
  else float_of_int (Obs.Histogram.quantile s q) /. 1e6

let summary st =
  Printf.sprintf
    "qopt serve: %d request(s) — %d ok, %d error(s), %d rejected; cache %d hit / %d miss \
     / %d evicted / %d coalesced, %d resident (%.0f%% hit rate); %d fallback(s); %.3fs%s"
    st.totals.requests st.totals.ok st.totals.errors st.totals.rejected
    st.totals.cache_hits st.totals.cache_misses st.totals.evictions st.totals.coalesced
    st.cache_entries (100. *. hit_rate st) st.totals.fallbacks st.seconds
    (if st.interrupted then " (interrupted)" else "")

let stages_json st =
  Obs.Json.Obj
    (List.map
       (fun (name, h) -> (name, Obs.Histogram.to_json (Obs.Histogram.snap h)))
       (latency_series st))

let report_json ~jobs st =
  let open Obs.Json in
  Obs.run_report ~kind:"qopt-serve-report"
    ~extra:
      [
        ("jobs", Int jobs);
        ( "totals",
          Obj
            (count_fields st
            @ [
              ("seconds", Float st.seconds);
              ( "latency_ms",
                Obj
                  [
                    ("count", Int (Obs.Histogram.snap st.latency).Obs.Histogram.count);
                    ("p50", Float (latency_percentile st 50.));
                    ("p95", Float (latency_percentile st 95.));
                    ("p99", Float (latency_percentile st 99.));
                    ("p999", Float (latency_percentile st 99.9));
                  ] );
              ("interrupted", Bool st.interrupted);
            ]) );
        ("stages", stages_json st);
      ]
    ()

(* The wall-clock fields a deterministic report comparison must mask;
   shared with tests/CI so the masking stays declarative. [coalesced]
   is masked too: at jobs > 1 whether a duplicate lands on a
   still-Pending entry (coalesced) or an already-Ready one (plain hit)
   depends on solve/arrival interleaving, so the split — though the
   hit total is invariant — is scheduling-dependent. *)
let timing_fields =
  [ "seconds"; "latency_ms"; "stages"; "histograms"; "start_s"; "dur_s"; "minor_words";
    "major_words"; "coalesced" ]

let report_json_masked ~jobs st = Obs.Json.mask_fields timing_fields (report_json ~jobs st)

(* ---------------- heartbeat snapshots ---------------- *)

let heartbeat_json ~jobs st =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int control_schema_version);
      ("kind", Obs.Json.Str "qopt-serve-heartbeat");
      ("unix_time", Obs.Json.Float (Unix.gettimeofday ()));
      ("jobs", Obs.Json.Int jobs);
      ("interrupted", Obs.Json.Bool st.interrupted);
      ("totals", totals_json st);
      ("stages", stages_json st);
    ]

(* Write-then-rename so a scraper never reads a torn snapshot. *)
let write_heartbeat ~jobs ~path st =
  let tmp = path ^ ".tmp" in
  Obs.Json.write_file tmp (heartbeat_json ~jobs st);
  Sys.rename tmp path
