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
    and the keys are the values. *)

(* Shared across every [Make] application (the functor is applied once
   per cost domain in [Instances] and again inside [Ccp.Make]);
   [Obs.counter] is idempotent by name so they all hit the same
   counters. *)
let c_dp_runs = Obs.counter "opt.dp.runs"
let c_dp_subsets = Obs.counter "opt.dp.subsets"
let c_dp_transitions = Obs.counter "opt.dp.transitions"

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
    let cost, seq =
      L.dense ?pool ~layered:false ~layer_span:"opt.dp.layer." ~transitions:c_dp_transitions
        ~cartesian:(not no_cartesian) inst
    in
    { cost; seq }

  (** Exact optimum by subset DP. With [?pool] (and more than one
      job) the lattice is evaluated popcount-layer by popcount-layer in
      parallel; the result is bit-identical to the sequential path. *)
  let dp ?pool inst = dp_generic ?pool ~no_cartesian:false inst

  (** Exact optimum over cartesian-product-free sequences; cost is
      [C.infinity] (empty sequence) when none exists. *)
  let dp_no_cartesian ?pool inst = dp_generic ?pool ~no_cartesian:true inst

  (* ------------------------------------------------------------- *)

  type greedy_mode =
    | Min_cost  (** pick the next vertex with the cheapest join [H] *)
    | Min_size  (** pick the next vertex minimizing the intermediate [N] *)

  (** Polynomial-time greedy construction; tries the first [starts]
      starting vertices (default: all) and keeps the best sequence.
      [O(starts * n^2)]. *)
  let greedy ?(mode = Min_cost) ?starts (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.greedy: empty instance";
    let starts = match starts with None -> n | Some s -> Stdlib.max 1 (Stdlib.min s n) in
    let open Graphlib in
    let run start =
      let seq = Array.make n (-1) in
      seq.(0) <- start;
      let x = Bitset.create n in
      Bitset.add x start;
      let size = ref inst.I.sizes.(start) in
      let total = ref C.zero in
      (* N(X v): the intermediate size once v joins the prefix X *)
      let grow v =
        let s = ref (C.mul !size inst.I.sizes.(v)) in
        Bitset.iter
          (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
          (Ugraph.neighbors inst.I.graph v);
        !s
      in
      for d = 1 to n - 1 do
        let best_v = ref (-1) and best_key = ref C.infinity and best_h = ref C.infinity in
        for v = 0 to n - 1 do
          if not (Bitset.mem x v) then begin
            let h = C.mul !size (I.min_w inst x v) in
            let key = match mode with Min_cost -> h | Min_size -> grow v in
            if C.compare key !best_key < 0 then begin
              best_key := key;
              best_v := v;
              best_h := h
            end
          end
        done;
        let v = !best_v in
        seq.(d) <- v;
        total := C.add !total !best_h;
        size := grow v;
        Bitset.add x v
      done;
      { cost = !total; seq }
    in
    let best = ref (run 0) in
    for start = 1 to starts - 1 do
      let p = run start in
      if C.compare p.cost !best.cost < 0 then best := p
    done;
    !best

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

  (** Simulated annealing on the swap neighborhood. The Metropolis
      criterion runs on [log2] costs (the costs themselves can have
      thousands of bits). *)
  let simulated_annealing ?(seed = 0) ?(steps = 20_000) ?(t0 = 50.0) ?(alpha = 0.999)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.simulated_annealing: empty instance";
    let st = Random.State.make [| seed; n; 23 |] in
    let seq = random_perm st n in
    let cur = ref (I.cost inst seq) in
    let best_cost = ref !cur in
    let best_seq = ref (Array.copy seq) in
    let temp = ref t0 in
    for _s = 1 to steps do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        let tmp = seq.(i) in
        seq.(i) <- seq.(j);
        seq.(j) <- tmp;
        let c = I.cost inst seq in
        let accept =
          C.compare c !cur <= 0
          ||
          let d = C.to_log2 c -. C.to_log2 !cur in
          Random.State.float st 1.0 < Float.exp (-.d /. !temp)
        in
        if accept then begin
          cur := c;
          if C.compare c !best_cost < 0 then begin
            best_cost := c;
            best_seq := Array.copy seq
          end
        end
        else begin
          let tmp = seq.(i) in
          seq.(i) <- seq.(j);
          seq.(j) <- tmp
        end
      end;
      temp := !temp *. alpha
    done;
    { cost = !best_cost; seq = !best_seq }
end
