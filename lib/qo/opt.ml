(** Join-sequence optimizers for [QO_N].

    - {!Make.exhaustive}: all permutations with branch-and-bound
      pruning — ground truth for tiny instances;
    - {!Make.dp}: exact dynamic program over the subset lattice. The
      intermediate size [N(X)] depends only on the {e set} [X] (product
      of member sizes and internal selectivities), so the cheapest
      sequence ending in set [S] decomposes over the last vertex —
      the DP is provably equivalent to full enumeration, in
      [O(2^n n^2)];
    - {!Make.dp_no_cartesian}: same, restricted to sequences whose
      every join has at least one predicate (the variant discussed at
      the end of Section 4);
    - {!Make.greedy}, {!Make.iterative_improvement},
      {!Make.simulated_annealing}: classical polynomial-time baselines
      whose competitive ratios experiment E9 measures against the
      hardness prediction.

    {b Exact at float speed.} The DP picks each subset's winner on
    float keys (log2 estimates) through the certified filter of
    {!Lattice}, and builds exact values only for near-ties and the
    returned plan's chain. Every key is within [E] of the log2 of its
    exact value ([E] from {!Cost.S.key_slack}); with [m] the smallest
    candidate key, the near-tie set [R] is every candidate with key
    [<= m + 2E]. A candidate outside [R] has exact value
    [> 2^(m + E) >=] the exact value of the candidate keyed [m], so it
    is strictly worse than the true minimum and could never have won
    the ascending, strict-improvement scan. [R]'s members are priced
    exactly in that same scan order, so the cost and the canonical
    sequence are those of the all-exact DP. In the log domain [E = 0]
    and the keys are the values.

    {b Heuristics on keys.} {!Make.greedy} and
    {!Make.simulated_annealing} price plans through one keyed pricer
    and return the plans, costs and random streams of their all-exact
    loops (kept in [test/reference.ml]).
    - {e Keys.} Scalars key to [C.to_log2]. Per position [p] of a plan
      [z] the pricer keeps the keys of [min_w(z_p, X)] ([X] the earlier
      vertices: the first of them in [z_p]'s access-cost row sorted by
      key, [-0.] before [0.] as [Float.min] picks), of the join
      [H_p = N(X) * min_w], of [N(X z_p)] ([N(X) * t], then the
      selectivity of each earlier neighbour, ascending) and of the cost
      so far ([H_1], then [+ H_2], ...): {!Nl.profile}'s and
      {!Nl.cost}'s operations in their order, so in the log domain the
      keys are the values, bit for bit.
    - {e Budget.} [E_h = E * max 1 (K / 2048)], [E] the lattice's
      ({!Lattice.Make.key_error}) and [K = 3n + |edges|] the operations
      behind a whole plan's key plus a comparison's subtraction. By
      {!Cost.S.key_slack}'s contract every key a heuristic compares (a
      join, a size, a span of joins, a plan's cost) is within [E_h] of
      the log2 of its exact value, and so is [C.to_log2] of a plan's
      exact cost.
    - {e Decisions.} Keys more than [2 E_h] apart order their exact
      values: [a - b > 2 E_h] gives [log2 x_a >= a - E_h > b + E_h >=
      log2 x_b]. With [E_h = 0] the key order is [C.compare]'s.
      Otherwise two plans holding the same vertices outside positions
      [f .. q] pay the same joins outside them (from [q] on their
      prefixes are the same sets), so in exact arithmetic ([E_h > 0]
      only for {!Rat_cost}) their costs compare as the spans
      [H_f + ... + H_q]: first on the spans' keys, then exactly. A
      shared join is infinite only when some relation is infinitely
      large; then whole costs are compared.
    - {e Greedy.} With [m] the smallest candidate key, a candidate keyed
      above [m + 2 E_h] is strictly worse than the one keyed [m] and
      was never the old scan's first strict minimum; when two or more
      are within, they are priced exactly in the old order under the
      old rule. Starts compare as plans.
    - {e Annealing.} A swap at [i < j] reprices positions [i ..]
      (min_w rescanned through [j]; past [j] the prefixes are the same
      sets). The move compares with the current and the best plan as
      above; [Random.State.float] is drawn exactly when the candidate
      is the dearer, as before. The Metropolis test [u < exp (-d / T)]
      takes [d = to_log2 c - to_log2 cur], which lies within [5 E_h] of
      the key gap (each [to_log2] within [2 E_h] of its key, plus the
      subtraction's rounding): [exp (-d / T)] does not grow with [d]
      for a finite [T > 0] (division rounds monotonically; libm's [exp]
      errs by far less than the relative [2^-40] margin at a normal
      result, and a nonzero [u] is at least [2^-53], far above any
      subnormal one), so the test is decided at the interval's ends
      unless [u] falls between them; then the exact costs decide. With
      [E_h = 0] it is the old test on the keys. Keys are a function of
      the plan, so the candidate key of each swap is remembered while
      the current plan stays.
    - {e Returned cost.} [Nl.cost] of the returned plan, computed once. *)

(* Shared across every [Make] application (the functor is applied once
   per cost domain in [Instances] and again inside [Ccp.Make]);
   [Obs.counter] is idempotent by name so they all hit the same
   counters. *)
let c_dp_runs = Obs.counter "opt.dp.runs"
let c_dp_subsets = Obs.counter "opt.dp.subsets"
let c_heur_steps = Obs.counter "opt.heur.steps"
let c_heur_exact = Obs.counter "opt.heur.exact_prices"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)

  type plan = { cost : C.t; seq : int array }

  let eval inst seq = { cost = I.cost inst seq; seq }

  (* ------------------------------------------------------------- *)

  let max_exhaustive_n = 11

  (** Branch-and-bound over all permutations. Exact.
      @raise Invalid_argument above {!max_exhaustive_n} vertices. *)
  let exhaustive (inst : I.t) =
    let n = I.n inst in
    if n > max_exhaustive_n then
      invalid_arg (Printf.sprintf "Opt.exhaustive: n=%d too large (max %d)" n max_exhaustive_n);
    if n = 0 then invalid_arg "Opt.exhaustive: empty instance";
    let open Graphlib in
    let best_cost = ref C.infinity in
    let best_seq = ref (Array.init n (fun i -> i)) in
    let seq = Array.make n (-1) in
    let x = Bitset.create n in
    (* depth d: filled positions 0..d-1; partial = cost so far; size = N(prefix) *)
    let rec go d partial size =
      if C.compare partial !best_cost >= 0 then ()
      else if d = n then begin
        best_cost := partial;
        best_seq := Array.copy seq
      end
      else
        for v = 0 to n - 1 do
          if not (Bitset.mem x v) then begin
            let partial', size' =
              if d = 0 then (partial, inst.I.sizes.(v))
              else begin
                let h = C.mul size (I.min_w inst x v) in
                let s = ref (C.mul size inst.I.sizes.(v)) in
                Bitset.iter
                  (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
                  (Ugraph.neighbors inst.I.graph v);
                (C.add partial h, !s)
              end
            in
            seq.(d) <- v;
            Bitset.add x v;
            go (d + 1) partial' size';
            Bitset.remove x v
          end
        done
    in
    go 0 C.zero C.one;
    { cost = !best_cost; seq = !best_seq }

  (* ------------------------------------------------------------- *)

  let max_dp_n = 23

  (* The subset-lattice DP, sequential or layer-parallel, through the
     certified key filter of {!Lattice}: each subset's winner is picked
     on float keys and only near-ties are priced exactly (the filter's
     header has the proof that the canonical sequence is unchanged).

     Both paths call the same per-subset selection, so the parallel
     result is structurally bit-identical to the sequential one: a
     subset's keys depend only on strict subsets of it (one fewer bit),
     every write goes to its own slot, the candidate iteration order
     inside one subset never changes, and near-ties found in a parallel
     layer are resolved sequentially before the next layer. The
     sequential loop visits masks in increasing numeric order, the
     parallel one in popcount layers; both respect the dependency
     order. Property-tested against each other in [test/test_qo.ml]. *)
  (** Smallest [n] the layer-parallel path takes ({!Lattice.par_min_n}). *)
  let dp_parallel_min_n = Lattice.par_min_n

  module L = Lattice.Make (C)

  let dp_generic ?pool ~no_cartesian (inst : I.t) =
    let n = I.n inst in
    if n > max_dp_n then
      invalid_arg (Printf.sprintf "Opt.dp: n=%d too large (max %d)" n max_dp_n);
    if n = 0 then invalid_arg "Opt.dp: empty instance";
    Obs.span (if no_cartesian then "opt.dp_no_cartesian" else "opt.dp") @@ fun () ->
    let full = (1 lsl n) - 1 in
    Obs.incr c_dp_runs;
    Obs.add c_dp_subsets (full + 1);
    let cost, seq = L.dense ?pool ~cartesian:(not no_cartesian) inst in
    { cost; seq }

  (** Exact optimum by subset DP. With [?pool] (and more than one
      job) the lattice is evaluated popcount-layer by popcount-layer in
      parallel; the result is bit-identical to the sequential path. *)
  let dp ?pool inst = dp_generic ?pool ~no_cartesian:false inst

  (** Exact optimum over cartesian-product-free sequences; cost is
      [C.infinity] (empty sequence) when none exists. *)
  let dp_no_cartesian ?pool inst = dp_generic ?pool ~no_cartesian:true inst

  (* ------------------------------------------------------------- *)
  (* The keyed plan pricer of greedy and simulated annealing (see the
     header): one plan [seq] with each vertex's position, and per
     position the keys of min_w, of N(prefix) and of the cost so far. *)

  type pricer = {
    inst : I.t;
    n : int;
    err : float;  (** [E_h]: every key's distance from its exact log2 *)
    tkey : Float.Array.t;  (** size keys *)
    nbr_off : int array;
        (** [v]'s neighbours are [nbr.(nbr_off.(v)) .. nbr.(nbr_off.(v + 1) - 1)] *)
    nbr : int array;  (** ascending per vertex *)
    nbr_skey : Float.Array.t;  (** the selectivity key of each [nbr] entry *)
    wcol : int array;
        (** row [j]: the columns in ascending access-cost key order,
            row-major [n * n] *)
    wsorted : Float.Array.t;  (** the same keys in the same order *)
    seq : int array;
    pos : int array;  (** each vertex's position in [seq]; [n] while unplaced *)
    mw : Float.Array.t;  (** per position [p >= 1]: key of [min_w(seq.(p), prefix)] *)
    nk : Float.Array.t;  (** per position: key of [N(seq.(0..p))] *)
    hk : Float.Array.t;  (** per position [p >= 1]: key of the join [H_p] *)
    ck : Float.Array.t;  (** per position: key of the cost of the joins through [p] *)
    inf_size : bool;  (** some relation is infinitely large *)
    mutable priced : int;  (** candidates and plan spans priced exactly *)
  }

  let zero_key = C.to_log2 C.zero

  let pricer (inst : I.t) =
    let open Graphlib in
    let n = I.n inst in
    let g = inst.I.graph in
    let nbr_off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      nbr_off.(v + 1) <- nbr_off.(v) + Ugraph.degree g v
    done;
    let nbr = Array.make nbr_off.(n) 0 and nbr_skey = Float.Array.make nbr_off.(n) 0.0 in
    for v = 0 to n - 1 do
      let e = ref nbr_off.(v) in
      Bitset.iter
        (fun k ->
          nbr.(!e) <- k;
          Float.Array.set nbr_skey !e (C.to_log2 inst.I.sel.(v).(k));
          incr e)
        (Ugraph.neighbors g v)
    done;
    let wcol, wsorted =
      Lattice.sorted_rows (Float.Array.init (n * n) (fun i -> C.to_log2 inst.I.w.(i / n).(i mod n))) n
    in
    (* operations behind a whole plan's key: n size products, one per
       edge, n - 1 access-cost products and n - 1 sums, and the
       subtraction of a comparison *)
    let ops = (3 * n) + Ugraph.edge_count g in
    {
      inst;
      n;
      err = L.key_error inst *. Float.max 1.0 (float_of_int ops /. 2048.0);
      tkey = Float.Array.init n (fun v -> C.to_log2 inst.I.sizes.(v));
      nbr_off;
      nbr;
      nbr_skey;
      wcol;
      wsorted;
      seq = Array.make n 0;
      pos = Array.make n n;
      mw = Float.Array.make n 0.0;
      nk = Float.Array.make n 0.0;
      hk = Float.Array.make n 0.0;
      ck = Float.Array.make n 0.0;
      inf_size = not (Array.for_all C.is_finite inst.I.sizes);
      priced = 0;
    }

  (* key of min_w(v, X), X the vertices placed before [p] (nonempty):
     the first of them in [v]'s sorted row *)
  let[@inline] min_w_key t v p =
    let i = ref (v * t.n) in
    while t.pos.(t.wcol.(!i)) >= p do
      incr i
    done;
    Float.Array.get t.wsorted !i

  (* key of N(X v) from [base], the key of N(X): [base * t_v], then the
     selectivity of each neighbour placed before [p], ascending, in
     {!Nl.profile}'s order *)
  let[@inline] grow_key t base v p =
    let acc = ref (Logreal.mul_log2 base (Float.Array.get t.tkey v)) in
    for e = t.nbr_off.(v) to t.nbr_off.(v + 1) - 1 do
      if t.pos.(t.nbr.(e)) < p then acc := Logreal.mul_log2 !acc (Float.Array.get t.nbr_skey e)
    done;
    !acc

  (* the size, join and cost keys of position [p], from [p - 1]'s and
     [mw.(p)] *)
  let[@inline] price_at t p =
    let v = t.seq.(p) in
    if p = 0 then begin
      Float.Array.set t.nk 0 (Float.Array.get t.tkey v);
      Float.Array.set t.ck 0 zero_key
    end
    else begin
      let base = Float.Array.get t.nk (p - 1) in
      let h = Logreal.mul_log2 base (Float.Array.get t.mw p) in
      Float.Array.set t.hk p h;
      Float.Array.set t.ck p (Logreal.add_log2 (Float.Array.get t.ck (p - 1)) h);
      Float.Array.set t.nk p (grow_key t base v p)
    end

  (* reprice positions [lo ..]: min_w rescanned through [hi]; past [hi]
     each prefix is the same set as before, so is its min_w key *)
  let reprice t lo hi =
    for p = lo to t.n - 1 do
      if p >= 1 && p <= hi then Float.Array.set t.mw p (min_w_key t t.seq.(p) p);
      price_at t p
    done

  let[@inline] total_key t = Float.Array.get t.ck (t.n - 1)

  (* [C.compare] of two exact values from their keys [a] and [b], or
     [undecided] when the keys are within [2 E_h] of each other *)
  let undecided = 2

  let[@inline] decide t a b =
    if t.err = 0.0 then Float.compare a b
    else begin
      let d = a -. b and s = 2.0 *. t.err in
      if d > s then 1 else if d < -.s then -1 else undecided
    end

  (* exact min_w(v, X), N(X v) from the exact N(X) [size], and N(X),
     X the vertices placed before [p] in [seq] (positions [pos]) *)
  let exact_min_w t seq v p =
    let best = ref C.infinity in
    for q = 0 to p - 1 do
      best := C.min !best t.inst.I.w.(v).(seq.(q))
    done;
    !best

  let exact_grow t pos size v p =
    let acc = ref (C.mul size t.inst.I.sizes.(v)) in
    for e = t.nbr_off.(v) to t.nbr_off.(v + 1) - 1 do
      let k = t.nbr.(e) in
      if pos.(k) < p then acc := C.mul !acc t.inst.I.sel.(v).(k)
    done;
    !acc

  let exact_size t seq pos p =
    let size = ref t.inst.I.sizes.(seq.(0)) in
    for q = 1 to p - 1 do
      size := exact_grow t pos !size seq.(q) q
    done;
    !size

  (* exact H_f + ... + H_q of [seq] (positions [pos]), from H_1 when
     [f = 0]; with [f = 0] and [q = n - 1] its cost, in {!Nl.cost}'s
     operation order *)
  let exact_span t seq pos f q =
    t.priced <- t.priced + 1;
    let size = ref t.inst.I.sizes.(seq.(0)) and sum = ref C.zero in
    for p = 1 to q do
      let v = seq.(p) in
      if p >= f then sum := C.add !sum (C.mul !size (exact_min_w t seq v p));
      if p < q then size := exact_grow t pos !size v p
    done;
    !sum

  (* key of H_f + ... + H_q from the join keys [hk] *)
  let span_key hk f q =
    let acc = ref zero_key in
    for p = Stdlib.max f 1 to q do
      acc := Logreal.add_log2 !acc (Float.Array.get hk p)
    done;
    !acc

  (* The sign of [C.compare] between the costs of plans [a] and [b]
     (join keys [ahk], [bhk]) that hold the same vertices outside
     positions [f .. q] (everywhere when [q < 0]); [price_a f q] and
     [price_b f q] price those
     spans exactly ({!exact_span}). Outside the span both pay the same
     joins (from [q] on their prefixes are the same sets), so the costs
     compare as the spans [H_f + ... + H_q] do, whose keys decide unless
     within the slack. A shared join is infinite only when some
     relation is infinitely large; then the whole costs are compared. *)
  let compare_plans t f q ahk bhk price_a price_b =
    if q < 0 then 0
    else if t.inf_size then C.compare (price_a 0 (t.n - 1)) (price_b 0 (t.n - 1))
    else
      match decide t (span_key ahk f q) (span_key bhk f q) with
      | s when s <> undecided -> s
      | _ -> C.compare (price_a f q) (price_b f q)

  (* first and last positions where [a] and [b] differ; the last is
     [-1] when they do not *)
  let diff_span a b =
    let n = Array.length a in
    let f = ref 0 and q = ref (n - 1) in
    while !f < n && a.(!f) = b.(!f) do
      incr f
    done;
    while !q >= 0 && a.(!q) = b.(!q) do
      decr q
    done;
    (!f, !q)

  type greedy_mode =
    | Min_cost  (** pick the next vertex with the cheapest join [H] *)
    | Min_size  (** pick the next vertex minimizing the intermediate [N] *)

  (** Polynomial-time greedy construction; tries the first [starts]
      starting vertices (default: all) and keeps the best sequence.
      Each run makes [n - 1] picks among up to [n] candidates, each
      keyed by a scan of its sorted access-cost row up to the first
      prefix member ([Min_cost]) or by its neighbours ([Min_size]):
      [O(starts * n^3)] float operations at worst, about
      [O(starts * n^2)] when rows meet the prefix early. Only near-ties
      are priced exactly (see the header). Among equally cheap
      candidates the lowest-numbered wins, also when every candidate's
      join is infinite. *)
  let greedy ?(mode = Min_cost) ?starts (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.greedy: empty instance";
    let starts = match starts with None -> n | Some s -> Stdlib.max 1 (Stdlib.min s n) in
    let t = pricer inst in
    let seq = t.seq and pos = t.pos in
    let key = Float.Array.make n 0.0 in
    let steps = ref 0 in
    (* the vertex for position [d]: the first with the smallest key,
       unless another is within the slack; then the near-ties, priced
       exactly in ascending order, first strict improvement *)
    let pick d =
      let m = ref Float.infinity and arg = ref (-1) in
      let base = Float.Array.get t.nk (d - 1) in
      for v = 0 to n - 1 do
        if pos.(v) = n then begin
          let k =
            match mode with
            | Min_cost -> Logreal.mul_log2 base (min_w_key t v d)
            | Min_size -> grow_key t base v d
          in
          Float.Array.set key v k;
          if !arg < 0 || k < !m then begin
            m := k;
            arg := v
          end
        end
      done;
      if t.err = 0.0 then !arg
      else begin
        let bound = !m +. (2.0 *. t.err) in
        let ties = ref 0 in
        for v = 0 to n - 1 do
          if pos.(v) = n && Float.Array.get key v <= bound then incr ties
        done;
        if !ties = 1 then !arg
        else begin
          t.priced <- t.priced + !ties;
          let size = exact_size t seq pos d in
          let best = ref (-1) and best_x = ref C.infinity in
          for v = 0 to n - 1 do
            if pos.(v) = n && Float.Array.get key v <= bound then begin
              let x =
                match mode with
                | Min_cost -> C.mul size (exact_min_w t seq v d)
                | Min_size -> exact_grow t pos size v d
              in
              if !best < 0 || C.compare x !best_x < 0 then begin
                best := v;
                best_x := x
              end
            end
          done;
          !best
        end
      end
    in
    let place d v =
      seq.(d) <- v;
      pos.(v) <- d;
      if d > 0 then Float.Array.set t.mw d (min_w_key t v d);
      price_at t d
    in
    let run start =
      Array.fill pos 0 n n;
      place 0 start;
      for d = 1 to n - 1 do
        incr steps;
        place d (pick d)
      done;
      total_key t
    in
    let best_seq = Array.make n 0 and best_pos = Array.make n 0 and best_hk = Float.Array.make n 0.0 in
    let keep k =
      Array.blit seq 0 best_seq 0 n;
      Array.blit pos 0 best_pos 0 n;
      Float.Array.blit t.hk 0 best_hk 0 n;
      k
    in
    let best_key = ref (keep (run 0)) in
    for start = 1 to starts - 1 do
      let k = run start in
      incr steps;
      let s =
        match decide t k !best_key with
        | s when s <> undecided -> s
        | _ ->
            let f, q = diff_span seq best_seq in
            compare_plans t f q t.hk best_hk (exact_span t seq pos) (exact_span t best_seq best_pos)
      in
      if s < 0 then best_key := keep k
    done;
    Obs.add c_heur_steps !steps;
    Obs.add c_heur_exact t.priced;
    { cost = I.cost inst best_seq; seq = best_seq }

  (* ------------------------------------------------------------- *)

  let random_perm st n =
    let a = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a

  let apply_swap seq i j =
    let tmp = seq.(i) in
    seq.(i) <- seq.(j);
    seq.(j) <- tmp

  (** [apply_move seq i j] removes [seq.(i)] and reinserts it at
      position [j], shifting the elements in between — the "move"
      neighborhood step of {!iterative_improvement}. In place; the
      inverse of [apply_move seq i j] is [apply_move seq j i]. *)
  let apply_move seq i j =
    if i <> j then begin
      let v = seq.(i) in
      if i < j then Array.blit seq (i + 1) seq i (j - i)
      else Array.blit seq j seq (j + 1) (i - j);
      seq.(j) <- v
    end

  (** Random-restart local search over swap and move neighborhoods:
      each step draws positions [(i, j)] and either swaps them or
      removes the element at [i] and reinserts it at [j] (a
      remove-and-reinsert no single swap can express — it shifts the
      whole block in between). Deterministic in [seed]. *)
  let iterative_improvement ?(seed = 0) ?(restarts = 10) ?(max_steps = 2000) (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.iterative_improvement: empty instance";
    if restarts < 1 then invalid_arg "Opt.iterative_improvement: restarts must be positive";
    let st = Random.State.make [| seed; n; 17 |] in
    let best = ref None in
    for _r = 1 to restarts do
      let seq = random_perm st n in
      let cur = ref (I.cost inst seq) in
      let stale = ref 0 in
      let steps = ref 0 in
      while !stale < n * n && !steps < max_steps do
        incr steps;
        let i = Random.State.int st n and j = Random.State.int st n in
        if i <> j then begin
          let move = Random.State.bool st in
          if move then apply_move seq i j else apply_swap seq i j;
          let c = I.cost inst seq in
          if C.compare c !cur < 0 then begin
            cur := c;
            stale := 0
          end
          else begin
            (* revert *)
            if move then apply_move seq j i else apply_swap seq i j;
            incr stale
          end
        end
      done;
      match !best with
      | Some b when C.compare b.cost !cur <= 0 -> ()
      | _ -> best := Some { cost = !cur; seq = Array.copy seq }
    done;
    Option.get !best

  (** Genetic algorithm over join sequences: tournament selection,
      order crossover (OX), swap mutation, elitism of one. A classical
      randomized baseline for experiment E9. *)
  let genetic ?(seed = 0) ?(population = 40) ?(generations = 120) ?(mutation = 0.3)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.genetic: empty instance";
    if population < 1 then invalid_arg "Opt.genetic: population must be positive";
    let st = Random.State.make [| seed; n; 29 |] in
    let fitness = Array.make population C.infinity in
    let pop = Array.init population (fun _ -> random_perm st n) in
    let evaluate i = fitness.(i) <- I.cost inst pop.(i) in
    for i = 0 to population - 1 do
      evaluate i
    done;
    let best_seq = ref (Array.copy pop.(0)) in
    let best_cost = ref fitness.(0) in
    let record i =
      if C.compare fitness.(i) !best_cost < 0 then begin
        best_cost := fitness.(i);
        best_seq := Array.copy pop.(i)
      end
    in
    for i = 0 to population - 1 do
      record i
    done;
    (* order crossover: copy a slice from parent a, fill the rest in
       parent b's order *)
    let crossover a b =
      let lo = Random.State.int st n in
      let hi = lo + Random.State.int st (n - lo) in
      let child = Array.make n (-1) in
      let used = Array.make n false in
      for i = lo to hi do
        child.(i) <- a.(i);
        used.(a.(i)) <- true
      done;
      let pos = ref 0 in
      Array.iter
        (fun v ->
          if not used.(v) then begin
            while !pos >= lo && !pos <= hi do
              incr pos
            done;
            child.(!pos) <- v;
            incr pos
          end)
        b;
      child
    in
    let tournament () =
      let a = Random.State.int st population and b = Random.State.int st population in
      if C.compare fitness.(a) fitness.(b) <= 0 then a else b
    in
    for _g = 1 to generations do
      let next = Array.make population [||] in
      (* elitism: carry the best individual over *)
      next.(0) <- Array.copy !best_seq;
      for i = 1 to population - 1 do
        let a = pop.(tournament ()) and b = pop.(tournament ()) in
        let child = crossover a b in
        if Random.State.float st 1.0 < mutation then begin
          let x = Random.State.int st n and y = Random.State.int st n in
          let tmp = child.(x) in
          child.(x) <- child.(y);
          child.(y) <- tmp
        end;
        next.(i) <- child
      done;
      Array.blit next 0 pop 0 population;
      for i = 0 to population - 1 do
        evaluate i;
        record i
      done
    done;
    { cost = !best_cost; seq = !best_seq }

  (* relative margin on [Float.exp]'s result in the Metropolis bounds:
     libm's error at the bound and at the exact test, with room *)
  let exp_margin = 0x1p-40

  (** Simulated annealing on the swap neighborhood. The Metropolis
      criterion runs on [log2] costs (the costs themselves can have
      thousands of bits). Moves are priced on keys: a swap at [i < j]
      reprices positions [i ..]; exact costs are built only for the
      decisions the keys leave open (see the header). *)
  let simulated_annealing ?(seed = 0) ?(steps = 20_000) ?(t0 = 50.0) ?(alpha = 0.999)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.simulated_annealing: empty instance";
    let st = Random.State.make [| seed; n; 23 |] in
    let t = pricer inst in
    let seq = t.seq and pos = t.pos in
    Array.blit (random_perm st n) 0 seq 0 n;
    Array.iteri (fun p v -> pos.(v) <- p) seq;
    reprice t 0 (n - 1);
    let moves = ref 0 in
    let swap i j =
      apply_swap seq i j;
      pos.(seq.(i)) <- i;
      pos.(seq.(j)) <- j
    in
    (* [f] on the current plan: [seq] with [i] and [j] swapped back *)
    let on_current i j f =
      swap i j;
      let r = f () in
      swap i j;
      r
    in
    let exact_cost () = exact_span t seq pos 0 (n - 1) in
    let kcur = ref (total_key t) in
    let best_seq = Array.copy seq and best_pos = Array.copy pos and best_hk = Float.Array.copy t.hk in
    let kbest = ref !kcur in
    (* whether the current plan's exact cost equals the best's *)
    let at_best = ref true in
    (* positions [lo .. hi] of [a] into [b]; a loop, as the ranges are
       short *)
    let copy a b lo hi =
      for p = lo to hi do
        Float.Array.set b p (Float.Array.get a p)
      done
    in
    let saved_nk = Float.Array.make n 0.0
    and saved_hk = Float.Array.make n 0.0
    and saved_ck = Float.Array.make n 0.0
    and saved_mw = Float.Array.make n 0.0 in
    (* whether the key arrays hold the move's candidate; [candidate]
       prices it there, saving the current plan's keys *)
    let priced = ref false in
    let candidate i j lo hi =
      if not !priced then begin
        priced := true;
        copy t.nk saved_nk lo (n - 1);
        copy t.hk saved_hk lo (n - 1);
        copy t.ck saved_ck lo (n - 1);
        copy t.mw saved_mw lo hi;
        swap i j;
        reprice t lo hi
      end
    in
    (* The candidate's total key per swap [lo * n + hi], direct-mapped,
       while the current plan stays the one of [epoch]: at low
       temperature most moves are rejected and the same swaps of one
       plan recur. *)
    let m = Stdlib.min (n * n) 4096 in
    let memo_key = Float.Array.make m 0.0 and memo_swap = Array.make m (-1) and memo_epoch = Array.make m 0 in
    let epoch = ref 0 in
    let temp = ref t0 in
    for _s = 1 to steps do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        incr moves;
        let lo = Stdlib.min i j and hi = Stdlib.max i j in
        let swap_id = (lo * n) + hi in
        let slot = swap_id mod m in
        priced := false;
        let kc =
          if memo_swap.(slot) = swap_id && memo_epoch.(slot) = !epoch then Float.Array.get memo_key slot
          else begin
            candidate i j lo hi;
            let k = total_key t in
            Float.Array.set memo_key slot k;
            memo_swap.(slot) <- swap_id;
            memo_epoch.(slot) <- !epoch;
            k
          end
        in
        (* the sign of [C.compare c cur]; the plans differ through [hi] *)
        let rel =
          match decide t kc !kcur with
          | s when s <> undecided -> s
          | _ ->
              candidate i j lo hi;
              compare_plans t lo hi t.hk saved_hk (exact_span t seq pos) (fun f q ->
                  on_current i j (fun () -> exact_span t seq pos f q))
        in
        let accept =
          rel <= 0
          ||
          let u = Random.State.float st 1.0 in
          if t.err = 0.0 then u < Float.exp (-.(kc -. !kcur) /. !temp)
          else begin
            (* d = to_log2 c - to_log2 cur lies within 5 E_h of the key
               gap, and exp (-d / T) falls as d grows: the interval's
               ends decide unless [u] falls between them *)
            let gap = kc -. !kcur and r = 5.0 *. t.err and tp = !temp in
            let finite = tp > 0.0 && tp < Float.infinity in
            let p_lo = Float.exp (-.(gap +. r) /. tp) and p_hi = Float.exp (-.(gap -. r) /. tp) in
            if finite && p_lo >= Float.min_float && u < p_lo *. (1.0 -. exp_margin) then true
            else if finite && u > 0.0 && u >= p_hi *. (1.0 +. exp_margin) then false
            else begin
              candidate i j lo hi;
              let d = C.to_log2 (exact_cost ()) -. C.to_log2 (on_current i j exact_cost) in
              u < Float.exp (-.d /. tp)
            end
          end
        in
        if accept then begin
          candidate i j lo hi;
          incr epoch;
          (* the sign of [C.compare c best] *)
          let vs_best =
            if !at_best then rel
            else
              match decide t kc !kbest with
              | s when s <> undecided -> s
              | _ ->
                  let f, q = diff_span seq best_seq in
                  compare_plans t f q t.hk best_hk (exact_span t seq pos) (exact_span t best_seq best_pos)
          in
          kcur := kc;
          at_best := vs_best <= 0;
          if vs_best < 0 then begin
            kbest := kc;
            Array.blit seq 0 best_seq 0 n;
            Array.blit pos 0 best_pos 0 n;
            Float.Array.blit t.hk 0 best_hk 0 n
          end
        end
        else if !priced then begin
          swap i j;
          copy saved_nk t.nk lo (n - 1);
          copy saved_hk t.hk lo (n - 1);
          copy saved_ck t.ck lo (n - 1);
          copy saved_mw t.mw lo hi
        end
      end;
      temp := !temp *. alpha
    done;
    Obs.add c_heur_steps !moves;
    Obs.add c_heur_exact t.priced;
    { cost = I.cost inst best_seq; seq = best_seq }
end
