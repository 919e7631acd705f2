(** The certified key filter shared by the exact subset-lattice kernels:
    {!Opt.Make.dp} / [dp_no_cartesian] (and so {!Conv.Make.solve}'s
    dense regime) and {!Ccp.Make.dp_connected} at every width.

    Every kernel evaluates the same recurrence

    {v dp(S) = min_{j in S} dp(S \ {j}) + N(S \ {j}) * min_w(j, S \ {j}) v}

    scanning the candidates [j] in ascending bit order and keeping the
    first strict improvement. This module runs that scan on {e keys}
    (float estimates of log2 of each value, kept unboxed in
    [Float.Array]s) and prices a candidate in the exact domain only
    when its key cannot rule it out.

    {b Tables.} Values live in {e slots}: a subset's mask on the full
    lattice, its candidates its members; on a sparse table ({!Ccp}) the
    builder's numbering, candidates given as (predecessor slot, min_w
    position) pairs in ascending member order. What follows reads a
    candidate only through that order and its keys, so it covers both.

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
      a candidate joins the window when its [lb <= U + slack] at that
      moment, and its [d], [h] go to a per-domain scratch array.
      A candidate with [d] or [h] above [U + slack] is cut before the
      table lookup, and one with [d] above it before [min_w]: the key
      is at least [max d h] (see {!Logreal.add_log2_lower}). On the
      full lattice, so is one whose row minimum bounds [h] above it:
      [h] is [N(S \ {j})]'s key plus the first key of the ascending
      row [j], at least the row's smallest, and float addition rounds
      monotonically, so the cut drops only candidates the [h] test
      would drop (a NaN sum cuts nothing).
    - {b Seed.} On the full lattice [U] starts at the [ub] of one
      candidate, [j* = winner (S \ {v})] for [v] the lowest member of
      [S], when [j*] is a vertex of [S] and a candidate of it: the
      subset one member smaller tends to end with the same relation,
      so [U] is near its final value from the first candidate on. The
      scan still walks the members in ascending order; the candidate
      that set [U] is the first whose [ub] equals the final [U], so
      the seeded candidate takes that role when it is reached unless
      an earlier candidate lowered [U] or matched it. It is always
      admitted ([lb <= ub = U]), so the role is always filled. The
      layer-parallel sweep reads [j*] from layer [k - 1], which
      {!Make.settle} resolved before layer [k] started.
    - Pass 2 walks the window in scan order with the final [U].
      A member whose [lb > U + slack] is skipped; the others are summed
      exactly and kept under the first-strict-improvement rule, as are
      [best] and [second]. The candidate that set [U], and any member
      with bit-identical [d] and [h] (an exact tie, as on [f_N]), reuse
      one sum.

    Why this is exact: a candidate outside the window has
    [key >= lb > U' + slack >= U + slack] for the [U'] current when it
    was cut, and [U >= m] since [U] is the [ub] of a real candidate
    (the seeded one or a scanned one), whose key is [<= U]. So its key
    exceeds [m + slack] (the same float sums): it is neither the first
    minimum nor in [R], and leaving it out changes neither [best], nor
    whether [second <= best + slack], nor the winner. Every stored key
    is the same [add_log2] of the same operands, so the log domain
    stays bit-identical too. The seed only lowers each [U'], so the
    window it leaves is a subset of the unseeded one that still holds
    every member pass 2 sums; the final [U] is the smallest [ub] either
    way, so are the candidate that set it and [opt.dp.exact_adds].

    Margins: with [hi = max d h], the bounds are [hi +. tlo] and
    [hi +. thi] for table entries [tlo <= g <= thi] around the computed
    correction [g] (the table's relative margin covers libm's error in
    [pow] / [log1p] at both the table entry and [g]); rounding [hi + x]
    is monotone in [x], so the sums keep the order at any [|hi|], and
    no margin scales with it. The tests pin the bracket at the table's
    cell edges and one ulp either side, and the window against a plain
    scan on keys crowded within a few cells.

    {b min_w.} Each row of access-cost keys is stored in ascending key
    order ({!sorted_rows}), so [min_w(j, S)]'s key is that of the first
    member of [S] in row [j]: the same value the ascending scan keeps.

    {b Exact values are lazy.} The exact [N(S)] (lowest-bit-first, as
    the all-exact kernel multiplied it), [min_w(j, S)] (the ascending
    scan: key order can differ from exact order on key ties) and
    [dp(S)] (along [parent]) are built on demand in memos, so a run
    without near-ties builds only the [n - 1] steps of the returned
    plan's chain. [R] lies in the window (its keys are
    [<= m + slack <= U + slack]), so exact pricing walks the window.

    The memos are not domain-safe: on a layer-parallel sweep, subsets
    whose [R] has two or more members are only marked during the
    parallel key pass and resolved by {!Make.settle} (which reruns pass
    1), sequentially, before the next layer starts. *)

let c_transitions = Obs.counter "opt.dp.transitions"
let c_exact_candidates = Obs.counter "opt.dp.exact_candidates"
let c_near_ties = Obs.counter "opt.dp.near_ties"
let c_exact_adds = Obs.counter "opt.dp.exact_adds"
let c_window_members = Obs.counter "opt.dp.window_members"

(** Most vertices a table may have: a subset has at most that many
    candidates, and [parent] holds a vertex in 16 bits. *)
let max_n = 256

(* Scratch of a fill, per domain, at full size from the start: window
   member [k]'s summands [d], [h] at [sum.(2k)], [sum.(2k + 1)], its
   vertex and (sparse tables) predecessor slot at [who.(2k)], [who.(2k + 1)];
   [u] at [sum.(2 * max_n)]; [w] members, [uk] the one that set [u];
   [adds] and [admitted] the fills' [opt.dp.exact_adds] and
   [opt.dp.window_members] since the last {!flush}. *)
type scratch = {
  sum : Float.Array.t;
  who : int array;
  mutable w : int;
  mutable uk : int;
  mutable adds : int;
  mutable admitted : int;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { sum = Float.Array.make ((2 * max_n) + 1) 0.0; who = Array.make (2 * max_n) 0; w = 0; uk = -1; adds = 0;
        admitted = 0 })

(** Add the counts of the fills on [sc] since the last flush to
    [opt.dp.exact_adds] and [opt.dp.window_members]. *)
let flush sc =
  Obs.add c_exact_adds sc.adds;
  Obs.add c_window_members sc.admitted;
  sc.adds <- 0;
  sc.admitted <- 0

(* Work threshold for the layer-parallel path of {!Make.dense}. Below it
   the per-layer fan-out/join overhead exceeds the work it spreads —
   measured 0.60x sequential at n=16 and 0.96x at n=18 — so small
   instances run the sequential loop even when a pool is supplied. Results are bit-identical either
   way; only wall-clock changes. *)
let par_min_n = 19

(** [sorted_rows k n]: each row of the [n * n] row-major keys [k] (never
    NaN) as columns in ascending key order, [-0.] before [0.] and other
    ties in column order, and the keys in that order: the first member
    of a set in row [j] holds the ascending scan's pick over it, and
    [Float.min]'s (the log domain's [C.min]). *)
let sorted_rows (k : Float.Array.t) n =
  let a = Array.init (n * n) (fun i -> i mod n) in
  for base = 0 to n - 1 do
    let base = base * n in
    for i = base + 1 to base + n - 1 do
      let c = a.(i) in
      let x = Float.Array.get k (base + c) and p = ref (i - 1) in
      while
        !p >= base
        &&
        let y = Float.Array.get k (base + a.(!p)) in
        x < y || (x = 0.0 && y = 0.0 && Float.sign_bit x && not (Float.sign_bit y))
      do
        a.(!p + 1) <- a.(!p);
        decr p
      done;
      a.(!p + 1) <- c
    done
  done;
  (a, Float.Array.init (n * n) (fun i -> Float.Array.get k (i - (i mod n) + a.(i))))

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)

  let lowest_bit m = m land -m
  let bit_index = Graphlib.Bitset.bit_index

  let word_bits = Sys.int_size

  (** Adjacency as rows of [nw] words, vertex [v]'s at [v * nw] (one
      word: int masks). *)
  let adjacency ?(nw = 1) (inst : I.t) =
    let a = Array.make (Stdlib.max 1 (I.n inst * nw)) 0 in
    for v = 0 to I.n inst - 1 do
      Graphlib.Bitset.iter
        (fun u -> a.((v * nw) + (u / word_bits)) <- a.((v * nw) + (u / word_bits)) lor (1 lsl (u mod word_bits)))
        (Graphlib.Ugraph.neighbors inst.I.graph v)
    done;
    a

  (** The lowest member of the nonempty row [a.(o ..)]. *)
  let rec lowest_row a o = if a.(o) = 0 then word_bits + lowest_row a (o + 1) else bit_index (lowest_bit a.(o))

  (** A copy of the [nw]-word row [a.(o ..)] without its lowest member. *)
  let without_lowest a o nw =
    let r = Array.sub a o nw in
    let v = lowest_row r 0 in
    r.(v / word_bits) <- r.(v / word_bits) lxor (1 lsl (v mod word_bits));
    r

  type t = {
    inst : I.t;
    n : int;
    nw : int;  (** words per set; [adj]: {!adjacency} rows *)
    adj : int array;
    slack : float;
    tkey : Float.Array.t;  (** size keys *)
    skey : Float.Array.t;  (** edge selectivity keys, row-major [n * n] *)
    worder : int array;  (** access-cost rows, {!sorted_rows} *)
    wsorted : Float.Array.t;
    nkey : Float.Array.t;  (** per slot: key of [N(S)] *)
    dkey : Float.Array.t;  (** per slot: key of [dp(S)] ([infinity]: none) *)
    parent : Bytes.t;  (** per slot: last vertex of the best sequence, 16 bits *)
    sparse : bool;  (** slots numbered by the builder; else slots are masks *)
    pred : int array;  (** sparse: slot of [S] minus its [parent] ([-1]: none) *)
    down : int array;  (** sparse, set by the builder: [S] minus its lowest, or [-1] *)
    rows : int array;  (** sparse: slot [si]'s set at [rows.(si * nw ..)] *)
    n_memo : (int, C.t) Hashtbl.t;  (** exact [N(S)] by slot *)
    dp_memo : (int, C.t) Hashtbl.t;  (** exact [dp(S)] by slot *)
  }

  (* [parent] marker of a subset whose near-tie set awaits {!settle}
     (its [dkey] holds [m]); one without a candidate reads [0xffff] (its
     [dkey] is [infinity]) *)
  let pending = 0xfffe
  let set_parent t si v = Bytes.set_uint16_le t.parent (2 * si) (v land 0xffff)

  (** The last vertex of slot [si]'s best sequence, or a marker. *)
  let winner t si = Bytes.get_uint16_le t.parent (2 * si)

  (** The error budget [E] of [inst]'s keys (see the header):
      {!Cost.S.key_slack} summed over the sizes and the edge
      selectivities, plus the widest access cost's. The heuristics of
      {!Opt} price whole plans against the same budget. *)
  let key_error (inst : I.t) =
    let n = I.n inst in
    let err = ref 0.0 and widest_w = ref 0.0 in
    for i = 0 to n - 1 do
      err := !err +. C.key_slack inst.I.sizes.(i);
      Graphlib.Bitset.iter
        (fun j -> if j > i then err := !err +. C.key_slack inst.I.sel.(i).(j))
        (Graphlib.Ugraph.neighbors inst.I.graph i);
      for j = 0 to n - 1 do
        if j <> i then widest_w := Float.max !widest_w (C.key_slack inst.I.w.(i).(j))
      done
    done;
    !err +. !widest_w

  (** A table of [slots] subsets of [inst] (at most {!max_n} vertices)
      over [nw]-word sets, slot [si]'s at [rows.(si * nw ..)]; the
      builder marks each singleton with {!singleton}. With [rows] the
      table is sparse: it records each winner's predecessor slot and its
      builder fills [down]; with [[||]], slots are masks. *)
  let create (inst : I.t) ~nw ~slots ~rows =
    let n = I.n inst and sparse = Array.length rows > 0 in
    if n > max_n then invalid_arg (Printf.sprintf "Lattice.create: n=%d > %d" n max_n);
    let wkey = Float.Array.create (n * n) and skey = Float.Array.make (n * n) 0.0 in
    for i = 0 to n - 1 do
      Array.iteri (fun j x -> Float.Array.set wkey ((i * n) + j) (C.to_log2 x)) inst.I.w.(i);
      Graphlib.Bitset.iter
        (fun j -> Float.Array.set skey ((i * n) + j) (C.to_log2 inst.I.sel.(i).(j)))
        (Graphlib.Ugraph.neighbors inst.I.graph i)
    done;
    let worder, wsorted = sorted_rows wkey n in
    {
      inst;
      n;
      nw;
      adj = adjacency ~nw inst;
      slack = 2.0 *. key_error inst;
      tkey = Float.Array.init n (fun i -> C.to_log2 inst.I.sizes.(i));
      skey;
      worder;
      wsorted;
      nkey = Float.Array.make slots 0.0;
      dkey = Float.Array.make slots Float.infinity;
      parent = Bytes.make (2 * slots) '\xff';
      pred = (if sparse then Array.make slots (-1) else [||]);
      down = (if sparse then Array.make slots (-1) else [||]);
      sparse;
      rows;
      (* sized for a plan's prefixes and their tails, fewer than n * n *)
      n_memo = Hashtbl.create (Stdlib.min slots (n * n));
      dp_memo = Hashtbl.create 64;
    }

  (** Slot [si] holds [{v}]. *)
  let singleton t si v =
    Float.Array.set t.dkey si (C.to_log2 C.zero);
    set_parent t si v

  (** The full lattice over [inst]'s [2^n] masks, each its own slot. *)
  let lattice (inst : I.t) =
    let t = create inst ~nw:1 ~slots:(1 lsl I.n inst) ~rows:[||] in
    for v = 0 to I.n inst - 1 do
      singleton t (1 lsl v) v
    done;
    t

  (** Key of [N(s)] into the full lattice's slot [s]: [N(s \ {v})]'s,
      [v] the lowest member, times [t_v] and each [s_vu], ascending. *)
  let fill_size t s =
    let b = lowest_bit s in
    let v = bit_index b in
    let acc = ref (Logreal.mul_log2 (Float.Array.get t.nkey (s lxor b)) (Float.Array.get t.tkey v)) in
    let common = ref (s lxor b land t.adj.(v)) in
    while !common <> 0 do
      let ub = lowest_bit !common in
      acc := Logreal.mul_log2 !acc (Float.Array.get t.skey ((v * t.n) + bit_index ub));
      common := !common lxor ub
    done;
    Float.Array.set t.nkey s !acc

  (** The same step for the row [a.(o ..)], from the key [base]. *)
  let[@inline] key_step t base a o =
    let v = lowest_row a o in
    let acc = ref (Logreal.mul_log2 base (Float.Array.get t.tkey v)) in
    for i = 0 to t.nw - 1 do
      let m = ref (a.(o + i) land t.adj.((v * t.nw) + i)) in
      while !m <> 0 do
        let b = lowest_bit !m in
        acc := Logreal.mul_log2 !acc (Float.Array.get t.skey ((v * t.n) + (i * word_bits) + bit_index b));
        m := !m lxor b
      done
    done;
    !acc

  (** Position in row [j] of [worder] / [wsorted] of the member of the
      one-word set [s] with the smallest access-cost key; [s] must be
      nonempty. *)
  let min_w_pos t j s =
    let p = ref (j * t.n) in
    while (s lsr Array.unsafe_get t.worder !p) land 1 = 0 do
      incr p
    done;
    !p

  (* the slot of [si]'s set minus its last vertex [j] ([-1]: none) *)
  let pred_of t si j =
    if t.sparse then t.pred.(si) else if si land (si - 1) = 0 then -1 else si lxor (1 lsl j)

  (* the same step, exact: [N(S)] of the row [a.(o ..)] from [base] *)
  let exact_step t base a o v =
    let acc = ref (C.mul base t.inst.I.sizes.(v)) in
    for i = 0 to t.nw - 1 do
      let m = ref (a.(o + i) land t.adj.((v * t.nw) + i)) in
      while !m <> 0 do
        let b = lowest_bit !m in
        acc := C.mul !acc t.inst.I.sel.(v).((i * word_bits) + bit_index b);
        m := !m lxor b
      done
    done;
    !acc

  (* exact N of a row, through its tails *)
  let rec n_row t r =
    if Array.for_all (( = ) 0) r then C.one else exact_step t (n_row t (without_lowest r 0 t.nw)) r 0 (lowest_row r 0)

  (* exact N(S) of slot [si], from the slot of [S] minus its lowest
     member when the table has it *)
  let rec n_exact t si =
    match Hashtbl.find_opt t.n_memo si with
    | Some x -> x
    | None ->
        let a = if t.sparse then t.rows else [| si |] and o = if t.sparse then si * t.nw else 0 in
        let d = if t.sparse then t.down.(si) else if si land (si - 1) = 0 then -1 else si land (si - 1) in
        let base = if d >= 0 then n_exact t d else n_row t (without_lowest a o t.nw) in
        let x = exact_step t base a o (lowest_row a o) in
        Hashtbl.add t.n_memo si x;
        x

  (* exact min_w(j, S): the ascending scan, first strict minimum *)
  let min_w_exact t j si =
    let best = ref C.infinity in
    for i = 0 to t.nw - 1 do
      let m = ref (if t.sparse then t.rows.((si * t.nw) + i) else si) in
      while !m <> 0 do
        let b = lowest_bit !m in
        let c = t.inst.I.w.(j).((i * word_bits) + bit_index b) in
        if C.compare c !best < 0 then best := c;
        m := !m lxor b
      done
    done;
    !best

  (* exact dp(S) along [parent] *)
  let rec dp_exact t si =
    let j = winner t si in
    let ri = pred_of t si j in
    if ri < 0 then C.zero
    else
      match Hashtbl.find_opt t.dp_memo si with
      | Some v -> v
      | None ->
          let v = exact_cand t j ri in
          Hashtbl.add t.dp_memo si v;
          v

  (* exact dp(rest) + N(rest) * min_w(j, rest), [rest] in slot [ri] *)
  and exact_cand t j ri = C.add (dp_exact t ri) (C.mul (n_exact t ri) (min_w_exact t j ri))

  (* bit-identical, for the window's members (never NaN): equal, and
     on zeros of the same sign *)
  let[@inline] same a b = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

  (* window member [k] wins slot [si] *)
  let set_winner t sc si k =
    set_parent t si (if k < 0 then -1 else sc.who.(2 * k));
    if k >= 0 && t.sparse then t.pred.(si) <- sc.who.((2 * k) + 1)

  (* price the near-tie set of slot [si] (keys <= m + slack, all in the
     window [sc]) exactly, in scan order, first strict improvement wins *)
  let resolve t sc si m =
    let bound = m +. t.slack in
    let win = ref (-1) and win_key = ref Float.infinity and win_val = ref C.infinity in
    let priced = ref 0 in
    for k = 0 to sc.w - 1 do
      let key = Logreal.add_log2 (Float.Array.get sc.sum (2 * k)) (Float.Array.get sc.sum ((2 * k) + 1)) in
      if key <= bound then begin
        incr priced;
        let j = sc.who.(2 * k) in
        let v = exact_cand t j (if t.sparse then sc.who.((2 * k) + 1) else si lxor (1 lsl j)) in
        if C.compare v !win_val < 0 then begin
          win := k;
          win_key := key;
          win_val := v
        end
      end
    done;
    Obs.incr c_near_ties;
    Obs.add c_exact_candidates !priced;
    Float.Array.set t.dkey si !win_key;
    set_winner t sc si !win;
    Hashtbl.replace t.dp_memo si !win_val

  (* [add_log2_upper] of the full lattice's candidate [j* = winner (s \ {v})],
     [v] the lowest member of [s], when [j*] is a vertex and a candidate
     of [s]; else [infinity] (see the header's {b Seed}) *)
  let[@inline] seed t ~cartesian s =
    let j = winner t (s lxor lowest_bit s) in
    if j >= t.n || (s lsr j) land 1 = 0 then Float.infinity
    else begin
      let ri = s lxor (1 lsl j) in
      let d = Float.Array.get t.dkey ri in
      if d < Float.infinity && (cartesian || ri land t.adj.(j) <> 0) then begin
        let h = Logreal.mul_log2 (Float.Array.get t.nkey ri) (Float.Array.unsafe_get t.wsorted (min_w_pos t j ri)) in
        let ub = Logreal.add_log2_upper d h in
        if ub < Float.infinity then ub else Float.infinity
      end
      else Float.infinity
    end

  (* pass 1: bound the candidates into [sc] (see the header); returns
     the number scanned. On the full lattice ([len < 0]) a candidate is
     a member [j] of mask [s] with [dp(S \ {j})] finite and (unless
     [cartesian]) a predicate joining [j] to [S \ {j}], and [U] starts
     at the {!seed}; on a sparse table the candidates are [pred.(i)]
     (predecessor slot) and [pos.(i)] (min_w position) for
     [lo <= i < lo + len], in ascending member order, those with a
     finite [dp]. [len < 0] is the call's spelling of [not t.sparse]:
     inlined into each caller, the full lattice's constant [-1] folds
     the branches away and keeps its speed. The candidate that set [U]
     is the first whose [ub] equals the final [U]: a seeded [U] passes
     to the first candidate that reaches it. *)
  let[@inline] scan t sc ~cartesian s ~pred ~pos lo len =
    let sum = sc.sum and who = sc.who in
    let dkey = t.dkey and nkey = t.nkey and wsorted = t.wsorted and slack = t.slack and inf = Float.infinity in
    let trans = ref 0 and u = ref (if len < 0 then seed t ~cartesian s else inf) and uk = ref (-1) and w = ref 0 in
    let rem = ref s and i = ref lo in
    while if len < 0 then !rem <> 0 else !i < lo + len do
      let b = lowest_bit !rem in
      let j = if len < 0 then bit_index b else 0 in
      let ri = if len < 0 then s lxor b else Array.unsafe_get pred !i in
      let d = if len >= 0 || cartesian || ri land t.adj.(j) <> 0 then Float.Array.unsafe_get dkey ri else nan in
      if d < inf then begin
        incr trans;
        let cut = !u +. slack in
        let nk = Float.Array.unsafe_get nkey ri in
        (* the lower bound is at least [max d h], and [h] at least the
           row minimum's (not [>]: a NaN sum is never a cut) *)
        if d <= cut && (len >= 0 || not (nk +. Float.Array.unsafe_get wsorted (j * t.n) > cut)) then begin
          let p = if len < 0 then min_w_pos t j ri else Array.unsafe_get pos !i in
          let h = Logreal.mul_log2 nk (Float.Array.unsafe_get wsorted p) in
          if h <= cut && Logreal.add_log2_lower d h <= cut then begin
            Float.Array.unsafe_set sum (2 * !w) d;
            Float.Array.unsafe_set sum ((2 * !w) + 1) h;
            who.(2 * !w) <- (if len < 0 then j else p / t.n);
            if len >= 0 then who.((2 * !w) + 1) <- ri;
            let ub = Logreal.add_log2_upper d h in
            if ub < !u || (!uk < 0 && ub = !u && ub < inf) then begin
              u := ub;
              uk := !w
            end;
            incr w
          end
        end
      end;
      rem := !rem lxor b;
      incr i
    done;
    Float.Array.set sum (2 * max_n) !u;
    sc.w <- !w;
    sc.uk <- !uk;
    !trans

  (* pass 2: exact keys of the window members still within [slack] of
     the final [u], in scan order, first strict improvement; a member
     whose summands are bit-identical to [u]'s candidate's (an exact
     tie) reuses its key. Then the winner, or the near-tie set priced
     exactly (with [defer]: marked for {!settle}). *)
  let decide t sc ~defer si =
    let sum = sc.sum in
    let best = ref Float.infinity and second = ref Float.infinity and arg = ref (-1) in
    if sc.uk >= 0 then begin
      let cut = Float.Array.get sum (2 * max_n) +. t.slack in
      let ud = Float.Array.unsafe_get sum (2 * sc.uk) and uh = Float.Array.unsafe_get sum ((2 * sc.uk) + 1) in
      let uk = Logreal.add_log2 ud uh in
      let adds = ref 1 in
      for k = 0 to sc.w - 1 do
        let d = Float.Array.unsafe_get sum (2 * k) and h = Float.Array.unsafe_get sum ((2 * k) + 1) in
        let key =
          if same d ud && same h uh then uk
          else if Logreal.add_log2_lower d h <= cut then begin
            incr adds;
            Logreal.add_log2 d h
          end
          else Float.infinity
        in
        if key < !best then begin
          second := !best;
          best := key;
          arg := k
        end
        else if key < !second then second := key
      done;
      sc.adds <- sc.adds + !adds
    end;
    if !arg >= 0 && t.slack > 0.0 && !second <= !best +. t.slack then begin
      if defer then begin
        Float.Array.set t.dkey si !best;
        set_parent t si pending
      end
      else resolve t sc si !best
    end
    else begin
      Float.Array.set t.dkey si !best;
      set_winner t sc si !arg
    end

  (** Select the winner of slot [si] (at least two members) by key, on
      this domain's {!scratch} [sc], and return the number of candidates
      scanned: on the full lattice ([len < 0]) from the members of mask
      [si], on a sparse table from [pred.(i)], [pos.(i)] for
      [lo <= i < lo + len] (see {!scan}). With [defer] a subset that
      needs exact pricing is left for {!settle}. Its counts wait in [sc]
      for {!flush}. *)
  let[@inline] fill t sc ~cartesian ~defer si ~pred ~pos lo len =
    let trans = scan t sc ~cartesian si ~pred ~pos lo len in
    sc.admitted <- sc.admitted + sc.w;
    decide t sc ~defer si;
    trans

  (** Resolve slot [si] if a deferred {!fill} left it pending.
      Sequential only. *)
  let settle t sc ~cartesian si ~pred ~pos lo len =
    if winner t si = pending then begin
      ignore (scan t sc ~cartesian si ~pred ~pos lo len);
      resolve t sc si (Float.Array.get t.dkey si)
    end

  (** The exact optimum over the full set, in slot [fi] ([-1]: absent),
      and its sequence, or [(C.infinity, [||])] when it has no finite
      value. *)
  let plan t fi =
    if fi < 0 || not (Float.Array.get t.dkey fi < Float.infinity) then (C.infinity, [||])
    else begin
      let seq = Array.make t.n (-1) in
      let si = ref fi in
      for p = t.n - 1 downto 0 do
        let j = winner t !si in
        seq.(p) <- j;
        si := pred_of t !si j
      done;
      (dp_exact t fi, seq)
    end

  (** The first [count] rows of [nw] words in [buf] grouped by
      cardinality, in order within a group, and [off]: group [k] is rows
      [off.(k) .. off.(k + 1) - 1]. *)
  let by_cardinality ~n ~nw buf count =
    let card i =
      let c = ref 0 in
      for w = 0 to nw - 1 do
        c := !c + Graphlib.Bitset.popcount buf.((i * nw) + w)
      done;
      !c
    in
    let off = Array.make (n + 2) 0 in
    for i = 0 to count - 1 do
      off.(card i + 1) <- off.(card i + 1) + 1
    done;
    for k = 1 to n + 1 do
      off.(k) <- off.(k) + off.(k - 1)
    done;
    let cursor = Array.copy off and rows = Array.make (Stdlib.max 1 (count * nw)) 0 in
    for i = 0 to count - 1 do
      let k = card i in
      for w = 0 to nw - 1 do
        rows.((cursor.(k) * nw) + w) <- buf.((i * nw) + w)
      done;
      cursor.(k) <- cursor.(k) + 1
    done;
    (rows, off)

  (** The full lattice over [n] vertices: every mask is its own slot.
      Pool-parallel by popcount layer (spans [opt.dp.layer.<k>]) when
      [pool] has more than one job and [n >= par_min_n]; otherwise
      sequential in increasing mask order, one pass that keys each
      mask's [N] and then fills it. [opt.dp.transitions] counts every
      scanned candidate. *)
  let dense ?pool ~cartesian (inst : I.t) =
    let n = I.n inst in
    let full = (1 lsl n) - 1 in
    let t = lattice inst in
    let sc = Domain.DLS.get scratch in
    (match pool with
    | Some pool when Pool.jobs pool > 1 && n >= par_min_n ->
        let masks, off = by_cardinality ~n ~nw:1 (Array.init (full + 1) Fun.id) (full + 1) in
        for k = 1 to n do
          Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun i -> fill_size t masks.(i))
        done;
        for k = 2 to n do
          (* dynamic name: only pay the concatenation when spans record *)
          let layer () =
            Pool.parallel_for pool ~lo:off.(k) ~hi:(off.(k + 1) - 1) (fun i ->
                let sc = Domain.DLS.get scratch in
                Obs.add c_transitions (fill t sc ~cartesian ~defer:true masks.(i) ~pred:[||] ~pos:[||] 0 (-1));
                flush sc);
            for i = off.(k) to off.(k + 1) - 1 do
              settle t sc ~cartesian masks.(i) ~pred:[||] ~pos:[||] 0 (-1)
            done
          in
          if Obs.enabled () then Obs.span ("opt.dp.layer." ^ string_of_int k) layer else layer ()
        done
    | _ ->
        let trans = ref 0 in
        for s = 1 to full do
          fill_size t s;
          if s land (s - 1) <> 0 then trans := !trans + fill t sc ~cartesian ~defer:false s ~pred:[||] ~pos:[||] 0 (-1)
        done;
        Obs.add c_transitions !trans;
        flush sc);
    plan t full
end
