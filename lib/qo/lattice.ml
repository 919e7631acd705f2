(** The certified key filter shared by the exact subset-lattice kernels:
    {!Opt.Make.dp} / [dp_no_cartesian] (and so {!Conv.Make.solve}'s
    dense regime) and {!Ccp.Make.dp_connected}'s one-word path.

    Every kernel evaluates the same recurrence

    {v dp(S) = min_{j in S} dp(S \ {j}) + N(S \ {j}) * min_w(j, S \ {j}) v}

    scanning the candidates [j] in ascending bit order and keeping the
    first strict improvement. This module runs that scan on {e keys}
    (float estimates of log2 of each value, kept unboxed in
    [Float.Array]s) and prices a candidate in the exact domain only
    when its key cannot rule it out.

    {b Keys.} An input scalar [x] (size, selectivity, access cost) keys
    to [C.to_log2 x]. Keys of [N(S)] and of candidates combine with
    {!Logreal.mul_log2} / {!Logreal.add_log2} in exactly the operand
    order of the exact [C.mul] / [C.add] chain.

    {b Slack.} [slack = 2 * E] where [E] ({!Make.key_error}) is the sum
    of {!Cost.S.key_slack} over the sizes, the edge selectivities and the
    widest access cost:
    by the contract of [key_slack] (error of [to_log2] plus each
    scalar's share of the rounding; [add_log2] is 1-Lipschitz, so the
    error of a [min]/[+] chain is at most that of its worst term, which
    draws on each size and edge selectivity once and on one access cost
    per step, all covered by [E]) every key is within [E] of the log2
    of its exact value.

    {b Selection, per subset.} Let [m] be the smallest candidate key and
    [R] the candidates with key [<= m + slack] (found by the window
    below).
    - If [|R| = 1] or [slack = 0], the first member of [R] wins and no
      exact value is built.
    - Otherwise the members of [R] are priced exactly, in ascending bit
      order, under the strict-improvement rule.

    {b Why this is exact.} Let [c0] be the candidate whose key is [m].
    Its exact value is [<= 2^(m + E)]. A candidate [c] outside [R] has
    key [> m + 2E], so its exact value is [> 2^(m + E)]: strictly worse
    than [c0], hence strictly worse than the true minimum. It can never
    be the first candidate attaining the minimum, which is the one the
    all-exact scan picks, and that candidate is in [R]. So the winner,
    the parent pointer, and by induction the whole canonical sequence
    are unchanged. With [slack = 0] ({!Log_cost}: keys are the values)
    the key scan {e is} the all-exact scan, bit for bit.

    {b Window.} The scan finds [m] and [R] in two passes and sums with
    libm only the candidates whose bounds reach within [slack] of the
    smallest upper bound: on most subsets one. A candidate's key is
    [add_log2 d h], [d] the key of [dp(S \ {j})] and [h] that of
    [N(S \ {j}) * min_w(j, S \ {j})]; {!Logreal.add_log2_lower} and
    [add_log2_upper] bracket it, [lb <= key <= ub], from a table.
    - Pass 1 bounds every candidate. [U] is the smallest [ub] so far;
      a candidate joins the window mask when its [lb <= U + slack] at
      that moment, and its [d], [h] go to a per-domain scratch array.
      A candidate with [d] or [h] above [U + slack] is cut before the
      table lookup, and one with [d] above it before [min_w]: the key
      is at least [max d h] (see {!Logreal.add_log2_lower}).
    - Pass 2 walks the mask in ascending bit order with the final [U].
      A member whose [lb > U + slack] is skipped; the others are summed
      exactly and kept under the first-strict-improvement rule, as are
      [best] and [second]. The candidate that set [U], and any member
      with bit-identical [d] and [h] (an exact tie, as on [f_N]), reuse
      one sum.

    Why this is exact: a candidate outside the window has
    [key >= lb > U' + slack >= U + slack] for the [U'] current when it
    was cut, and [U >= m] since the candidate that set [U] has key
    [<= U]. So its key exceeds [m + slack] (the same float sums): it is
    neither the first minimum nor in [R], and leaving it out changes
    neither [best], nor whether [second <= best + slack], nor the
    winner. Every stored key is the same [add_log2] of the same
    operands, so the log domain stays bit-identical too.

    Margins: with [hi = max d h], the bounds are [hi +. tlo] and
    [hi +. thi] for table entries [tlo <= g <= thi] around the computed
    correction [g] (the table's relative margin covers libm's error in
    [pow] / [log1p] at both the table entry and [g]); rounding [hi + x]
    is monotone in [x], so the sums keep the order at any [|hi|], and
    no margin scales with it. The tests pin the bracket at the table's
    cell edges and one ulp either side, and the window against a plain
    scan on keys crowded within a few cells.

    {b min_w.} Each row of access-cost keys is stored in ascending key
    order ({!row_order}), so [min_w(j, S)]'s key is that of the first
    member of [S] in row [j]: the same value the ascending scan keeps.

    {b Exact values are lazy.} The exact [N(S)] (lowest-bit-first, as
    the all-exact kernel multiplied it) and [dp(S)] (following
    [parent]) are built on demand in sparse [Hashtbl] memos, so a run
    without near-ties builds only the [n - 1] steps of the returned
    plan's chain.

    The memos are not domain-safe: on a layer-parallel sweep, subsets
    whose [R] has two or more members are only marked during the
    parallel key pass and resolved by {!settle}, sequentially, before
    the next layer starts. *)

let c_transitions = Obs.counter "opt.dp.transitions"
let c_exact_candidates = Obs.counter "opt.dp.exact_candidates"
let c_near_ties = Obs.counter "opt.dp.near_ties"
let c_exact_adds = Obs.counter "opt.dp.exact_adds"

(* Scratch of {!Make.fill}: the summands of candidate [j]'s key at [2j]
   and [2j + 1] ([j < 64]). Per domain, since a layer-parallel sweep
   fills one table from several. *)
let summands = Domain.DLS.new_key (fun () -> Float.Array.make 128 0.0)

(* Work threshold for the layer-parallel path of {!Make.dense}. Below it
   the per-layer fan-out/join overhead exceeds the work it spreads —
   measured 0.60x sequential at n=16 and 0.96x at n=18 (parallel_dp
   rows in BENCH_qopt.json) — so small instances run the sequential
   loop even when a pool is supplied. Results are bit-identical either
   way; only wall-clock changes. *)
let par_min_n = 19

(** [row_order cmp m]: for each row [j], the columns [0 .. n-1] in
    ascending [cmp] order of [m.(j)], ties in column order — so the
    first entry of row [j] that lies in a set [s] is the column the
    ascending scan [if cmp c best < 0 then best := c] over [s] keeps. *)
let row_order cmp m =
  Array.map
    (fun row ->
      let a = Array.init (Array.length row) Fun.id in
      Array.stable_sort (fun u v -> cmp row.(u) row.(v)) a;
      a)
    m

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)

  let lowest_bit m = m land -m
  let bit_index = Graphlib.Bitset.bit_index

  (** Adjacency as int masks (one word: [n <= 62]). *)
  let adjacency (inst : I.t) =
    Array.init (I.n inst) (fun v ->
        let m = ref 0 in
        Graphlib.Bitset.iter (fun u -> m := !m lor (1 lsl u)) (Graphlib.Ugraph.neighbors inst.I.graph v);
        !m)

  type t = {
    inst : I.t;
    n : int;
    adj : int array;
    slot : int -> int;  (** table slot of a mask, [-1] when absent *)
    slack : float;
    tkey : Float.Array.t;  (** size keys *)
    skey : Float.Array.t;  (** selectivity keys, row-major [n * n] *)
    wbit : int array;
        (** row [j]: [1 lsl u] for every [u], in ascending order of
            [u]'s access-cost key ({!row_order}), row-major [n * n] *)
    wsorted : Float.Array.t;  (** the same keys in the same order *)
    nkey : Float.Array.t;  (** per slot: key of [N(S)] *)
    dkey : Float.Array.t;  (** per slot: key of [dp(S)] ([infinity]: none) *)
    parent : Bytes.t;
        (** per slot: last vertex of the best sequence, one byte ([n <= 62]) *)
    n_memo : (int, C.t) Hashtbl.t;
    dp_memo : (int, C.t) Hashtbl.t;
  }

  (* [parent] markers: no candidate (its [dkey] is [infinity]), and a
     subset whose near-tie set awaits {!settle} (its [dkey] holds [m]) *)
  let none = 0xff
  let pending = 0xfe
  let set_parent t si v = Bytes.set_uint8 t.parent si (v land 0xff)

  (** The error budget [E] of [inst]'s keys (see the header):
      {!Cost.S.key_slack} summed over the sizes and the edge
      selectivities, plus the widest access cost's. The heuristics of
      {!Opt} price whole plans against the same budget. *)
  let key_error (inst : I.t) =
    let n = I.n inst in
    let err = ref 0.0 and widest_w = ref 0.0 in
    for i = 0 to n - 1 do
      err := !err +. C.key_slack inst.I.sizes.(i);
      for j = 0 to n - 1 do
        if j <> i then widest_w := Float.max !widest_w (C.key_slack inst.I.w.(i).(j));
        if j > i && Graphlib.Ugraph.has_edge inst.I.graph i j then
          err := !err +. C.key_slack inst.I.sel.(i).(j)
      done
    done;
    !err +. !widest_w

  let create (inst : I.t) ~adj ~slots ~slot =
    let n = I.n inst in
    let keys m = Float.Array.init (n * n) (fun i -> C.to_log2 m.(i / n).(i mod n)) in
    let wkey = Array.map (Array.map C.to_log2) inst.I.w in
    let order = row_order Float.compare wkey in
    let t =
      {
        inst;
        n;
        adj;
        slot;
        slack = 2.0 *. key_error inst;
        tkey = Float.Array.init n (fun i -> C.to_log2 inst.I.sizes.(i));
        skey = keys inst.I.sel;
        wbit = Array.init (n * n) (fun i -> 1 lsl order.(i / n).(i mod n));
        wsorted = Float.Array.init (n * n) (fun i -> wkey.(i / n).(order.(i / n).(i mod n)));
        nkey = Float.Array.make slots 0.0;
        dkey = Float.Array.make slots Float.infinity;
        parent = Bytes.make slots (Char.chr none);
        n_memo = Hashtbl.create 64;
        dp_memo = Hashtbl.create 64;
      }
    in
    for v = 0 to n - 1 do
      let si = slot (1 lsl v) in
      Float.Array.set t.dkey si (C.to_log2 C.zero);
      set_parent t si v
    done;
    t

  (* key of N(s) = N(s \ {v}) * t_v * prod_{u in (s \ {v}) adj v} s_vu,
     v the lowest member, u ascending; N(s \ {v}) from its slot when
     the table holds it, else (a disconnected tail of a sparse table)
     recomputed the same way *)
  let rec size_key t s =
    if s = 0 then 0.0
    else begin
      let b = lowest_bit s in
      let v = bit_index b in
      let rest = s lxor b in
      let ri = if rest = 0 then -1 else t.slot rest in
      let base = if ri >= 0 then Float.Array.get t.nkey ri else size_key t rest in
      let acc = ref (Logreal.mul_log2 base (Float.Array.get t.tkey v)) in
      let common = ref (rest land t.adj.(v)) in
      while !common <> 0 do
        let ub = lowest_bit !common in
        acc := Logreal.mul_log2 !acc (Float.Array.get t.skey ((v * t.n) + bit_index ub));
        common := !common lxor ub
      done;
      !acc
    end

  (** Key of [N(s)] into slot [si]; [N(s \ lowest)] must be filled. *)
  let fill_size t s si = Float.Array.set t.nkey si (size_key t s)

  (* position in row [j] of [wbit] / [wsorted] of the member of [s]
     with the smallest access-cost key; [s] must be nonempty *)
  let min_w_pos t j s =
    let p = ref (j * t.n) in
    while s land Array.unsafe_get t.wbit !p = 0 do
      incr p
    done;
    !p

  (** Smallest access-cost key [w(j, u)] over [u] in [s] ([infinity]
      when [s] is empty). *)
  let min_w_key t j s =
    if s = 0 then Float.infinity else Float.Array.get t.wsorted (min_w_pos t j s)

  (* exact N(s), the all-exact kernel's lowest-bit-first product *)
  let rec n_exact t s =
    if s = 0 then C.one
    else
      match Hashtbl.find_opt t.n_memo s with
      | Some v -> v
      | None ->
          let b = lowest_bit s in
          let v = bit_index b in
          let rest = s lxor b in
          let acc = ref (C.mul (n_exact t rest) t.inst.I.sizes.(v)) in
          let common = ref (rest land t.adj.(v)) in
          let row = t.inst.I.sel.(v) in
          while !common <> 0 do
            let ub = lowest_bit !common in
            acc := C.mul !acc row.(bit_index ub);
            common := !common lxor ub
          done;
          Hashtbl.add t.n_memo s !acc;
          !acc

  let min_w_exact t j s =
    let best = ref C.infinity and m = ref s in
    let row = t.inst.I.w.(j) in
    while !m <> 0 do
      let b = lowest_bit !m in
      let c = row.(bit_index b) in
      if C.compare c !best < 0 then best := c;
      m := !m lxor b
    done;
    !best

  (* exact dp(s) along [parent] *)
  let rec dp_exact t s =
    if s land (s - 1) = 0 then C.zero
    else
      match Hashtbl.find_opt t.dp_memo s with
      | Some v -> v
      | None ->
          let j = Bytes.get_uint8 t.parent (t.slot s) in
          let v = exact_cand t j (s lxor (1 lsl j)) in
          Hashtbl.add t.dp_memo s v;
          v

  (* exact dp(rest) + N(rest) * min_w(j, rest) *)
  and exact_cand t j rest = C.add (dp_exact t rest) (C.mul (n_exact t rest) (min_w_exact t j rest))

  (* key of N(rest) * min_w(j, rest); [ri] is the slot of [rest] *)
  let[@inline] cand_h t j rest ri =
    Logreal.mul_log2 (Float.Array.get t.nkey ri) (Float.Array.get t.wsorted (min_w_pos t j rest))

  let[@inline] same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  (* the same candidate's key *)
  let[@inline] cand_key t j rest ri = Logreal.add_log2 (Float.Array.get t.dkey ri) (cand_h t j rest ri)

  (* price the near-tie set of [s] (keys <= m + slack) exactly, in
     ascending bit order, first strict improvement wins *)
  let resolve t ~cartesian s si m =
    let bound = m +. t.slack in
    let win = ref (-1) and win_key = ref Float.infinity and win_val = ref C.infinity in
    let priced = ref 0 in
    let rem = ref s in
    while !rem <> 0 do
      let b = lowest_bit !rem in
      let j = bit_index b in
      let rest = s lxor b in
      if cartesian || rest land t.adj.(j) <> 0 then begin
        let ri = t.slot rest in
        if ri >= 0 && Float.Array.get t.dkey ri < Float.infinity then begin
          let k = cand_key t j rest ri in
          if k <= bound then begin
            incr priced;
            let v = exact_cand t j rest in
            if C.compare v !win_val < 0 then begin
              win := j;
              win_key := k;
              win_val := v
            end
          end
        end
      end;
      rem := !rem lxor b
    done;
    Obs.incr c_near_ties;
    Obs.add c_exact_candidates !priced;
    Float.Array.set t.dkey si !win_key;
    set_parent t si !win;
    Hashtbl.replace t.dp_memo s !win_val

  (** Select the winner of subset [s] (slot [si], at least two members)
      by key; returns the number of candidates scanned. A candidate is
      [j] with [S \ {j}] in the table, finite, and (unless [cartesian])
      joined to [j] by a predicate. The scan runs in two passes (the
      window, see the header): the first bounds every candidate's key
      without libm, the second sums exactly only the candidates whose
      lower bound is within [slack] of the smallest upper bound. With
      [defer] a subset that needs exact pricing is left for {!settle}. *)
  let fill t ~cartesian ~defer s si =
    let sum = Domain.DLS.get summands in
    let trans = ref 0 in
    (* pass 1: [u] the smallest upper bound, [uj] its candidate, [win]
       every candidate whose lower bound was within [slack] of [u] when
       it was scanned, with its summands in [sum] *)
    let u = ref Float.infinity and uj = ref (-1) in
    let win = ref 0 in
    let rem = ref s in
    while !rem <> 0 do
      let b = lowest_bit !rem in
      let j = bit_index b in
      let rest = s lxor b in
      if cartesian || rest land t.adj.(j) <> 0 then begin
        let ri = t.slot rest in
        if ri >= 0 && Float.Array.get t.dkey ri < Float.infinity then begin
          incr trans;
          let cut = !u +. t.slack in
          (* the lower bound is at least [max d h] *)
          let d = Float.Array.get t.dkey ri in
          if d <= cut then begin
            let h = cand_h t j rest ri in
            if h <= cut && Logreal.add_log2_lower d h <= cut then begin
              win := !win lor b;
              Float.Array.unsafe_set sum (2 * j) d;
              Float.Array.unsafe_set sum ((2 * j) + 1) h;
              let ub = Logreal.add_log2_upper d h in
              if ub < !u then begin
                u := ub;
                uj := j
              end
            end
          end
        end
      end;
      rem := !rem lxor b
    done;
    (* pass 2: exact keys of the members still within [slack] of the
       final [u], ascending, first strict improvement; a member whose
       summands are bit-identical to [u]'s candidate's (an exact tie)
       reuses its key *)
    let best = ref Float.infinity and second = ref Float.infinity and arg = ref (-1) in
    if !uj >= 0 then begin
      let cut = !u +. t.slack in
      let ud = Float.Array.unsafe_get sum (2 * !uj) and uh = Float.Array.unsafe_get sum ((2 * !uj) + 1) in
      let uk = Logreal.add_log2 ud uh in
      let adds = ref 1 in
      let rem = ref !win in
      while !rem <> 0 do
        let b = lowest_bit !rem in
        let j = bit_index b in
        let d = Float.Array.unsafe_get sum (2 * j) and h = Float.Array.unsafe_get sum ((2 * j) + 1) in
        let k =
          if same d ud && same h uh then uk
          else if Logreal.add_log2_lower d h <= cut then begin
            incr adds;
            Logreal.add_log2 d h
          end
          else Float.infinity
        in
        if k < !best then begin
          second := !best;
          best := k;
          arg := j
        end
        else if k < !second then second := k;
        rem := !rem lxor b
      done;
      Obs.add c_exact_adds !adds
    end;
    if !arg >= 0 && t.slack > 0.0 && !second <= !best +. t.slack then begin
      if defer then begin
        Float.Array.set t.dkey si !best;
        set_parent t si pending
      end
      else resolve t ~cartesian s si !best
    end
    else begin
      Float.Array.set t.dkey si !best;
      set_parent t si !arg
    end;
    !trans

  (** Resolve [s] if a deferred {!fill} left it pending. Sequential
      only. *)
  let settle t ~cartesian s si =
    if Bytes.get_uint8 t.parent si = pending then
      resolve t ~cartesian s si (Float.Array.get t.dkey si)

  (** The exact optimum over [full] and its sequence, or
      [(C.infinity, [||])] when [full] has no finite value. *)
  let plan t full =
    let fi = t.slot full in
    if fi < 0 || not (Float.Array.get t.dkey fi < Float.infinity) then (C.infinity, [||])
    else begin
      let seq = Array.make t.n (-1) in
      let s = ref full in
      for pos = t.n - 1 downto 0 do
        let j = Bytes.get_uint8 t.parent (t.slot !s) in
        seq.(pos) <- j;
        s := !s lxor (1 lsl j)
      done;
      (dp_exact t full, seq)
    end

  (** Exact sizes [N(S)] built so far. *)
  let exact_sizes t = Hashtbl.length t.n_memo

  let popcount m =
    let c = ref 0 and v = ref m in
    while !v <> 0 do
      incr c;
      v := !v land (!v - 1)
    done;
    !c

  (** The full lattice over [n] vertices: every mask is its own slot.
      Pool-parallel by popcount layer (spans [opt.dp.layer.<k>]) when
      [pool] has more than one job and [n >= par_min_n]; otherwise
      sequential in increasing mask order. [opt.dp.transitions] counts
      every scanned candidate. *)
  let dense ?pool ~cartesian (inst : I.t) =
    let n = I.n inst in
    let full = (1 lsl n) - 1 in
    let t = create inst ~adj:(adjacency inst) ~slots:(full + 1) ~slot:Fun.id in
    let fill_dp ~defer s = Obs.add c_transitions (fill t ~cartesian ~defer s s) in
    (match pool with
    | Some pool when Pool.jobs pool > 1 && n >= par_min_n ->
        (* counting sort of the masks into popcount layers *)
        let off = Array.make (n + 2) 0 in
        for s = 0 to full do
          let k = popcount s in
          off.(k + 1) <- off.(k + 1) + 1
        done;
        for k = 1 to n + 1 do
          off.(k) <- off.(k) + off.(k - 1)
        done;
        let cursor = Array.copy off in
        let masks = Array.make (full + 1) 0 in
        for s = 0 to full do
          let k = popcount s in
          masks.(cursor.(k)) <- s;
          cursor.(k) <- cursor.(k) + 1
        done;
        for k = 1 to n do
          Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun i ->
              fill_size t masks.(i) masks.(i))
        done;
        for k = 2 to n do
          (* dynamic name: only pay the concatenation when spans record *)
          let layer () =
            Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun i ->
                fill_dp ~defer:true masks.(i));
            for i = off.(k) to off.(k + 1) - 1 do
              settle t ~cartesian masks.(i) masks.(i)
            done
          in
          if Obs.enabled () then Obs.span ("opt.dp.layer." ^ string_of_int k) layer else layer ()
        done
    | _ ->
        for s = 1 to full do
          fill_size t s s
        done;
        for s = 1 to full do
          if s land (s - 1) <> 0 then fill_dp ~defer:false s
        done);
    plan t full
end
