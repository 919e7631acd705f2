(** Connected-subgraph dynamic programming for [QO_N] — the sparse-graph
    companion of {!Opt.Make.dp_no_cartesian}.

    The lattice DP walks all [2^n] subsets even though a
    cartesian-product-free join sequence only ever realises {e connected}
    subsets of the query graph: every feasible prefix is connected, and
    [dp S] is finite exactly when [S] induces a connected subgraph. On a
    chain there are [n(n+1)/2] such subsets, on a tree [O(n^2)]-ish, on
    bounded-degree graphs exponentially fewer than [2^n] — precisely the
    instances the paper's sparse theorems (16, 17) generate.

    This module enumerates connected subsets once each, DPccp-style
    (Moerkotte–Neumann: neighborhood-restricted expansion with forbidden
    sets), as the slots of a {!Lattice} table in cardinality layers:
    rows of [nw] words in one flat array, found by an index that does
    not allocate (a flat mask-to-slot array where [2^n] is a small
    multiple of the table, else open addressing on
    {!Graphlib.Bitset.mix}).

    {b Candidates from the predecessor side.} For each [T] of layer
    [k - 1] and each [v] in [N(T) \ T], [S = T + {v}] is connected, so
    [v] is a candidate of [S] with predecessor slot [T]; these are all
    of [S]'s candidates, since [S \ {v}] connected is such a [T]. One
    lookup per pair finds [S]'s slot, so lookups scale with transitions,
    not with the sum of [|S|]. Each layer's pairs are put in ascending
    member order per subset and filled through {!Lattice.Make.fill},
    the certified key filter of the dense lattice.

    {b Equivalence guarantee.} {!Make.dp_connected} is {e bit-identical}
    to {!Opt.Make.dp_no_cartesian} (cost and sequence) in both cost
    domains: [N(S)]'s key peels the lowest member first as the lattice's
    does, the candidates of a subset are scanned in the same ascending
    order with the same strict-improvement rule, and [S \ {j}] gives a
    candidate iff it is connected — exactly when the lattice's [dp]
    entry for it is finite. Property-tested against the lattice in
    [test/test_qo.ml]. *)

(* Shared across [Make] applications; [subsets_enumerated] counts the
   table entries of [dp_connected] only — [csg_count] is a pure query
   (the CLI calls both on the same instance and must report the subset
   count once). *)
let c_runs = Obs.counter "ccp.dp.runs"
let c_subsets = Obs.counter "ccp.dp.subsets_enumerated"
let c_transitions = Obs.counter "ccp.dp.transitions"
let c_probes = Obs.counter "ccp.dp.index_probes"
let g_table = Obs.gauge "ccp.dp.table_entries"
let g_idx_buckets = Obs.gauge "ccp.dp.idx_buckets"
let g_idx_max_bucket = Obs.gauge "ccp.dp.idx_max_bucket"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)
  module O = Opt.Make (C)
  module L = Lattice.Make (C)

  (* [max_ccp_word_n]: the old int-mask ceiling, now only a label:
     callers still split solves into one-word (n <= 61) and multi-word
     by it, but sets take [nwords n] words up to [max_ccp_n], one up to
     63 vertices, so n = 62 and 63 run on one word too. *)
  let max_ccp_word_n = 61
  let max_ccp_n = Lattice.max_n
  let word_bits = L.word_bits
  let nwords n = (n + word_bits - 1) / word_bits
  let lowest_bit = L.lowest_bit
  let bit_index = L.bit_index

  (* DPccp-style EnumerateCsg: call [emit] exactly once per connected
     subset of the graph given by [adj] (vertex [v]'s row of [nw] words
     at [v * nw]). Start points are visited from the highest vertex
     down; the forbidden set of start [v] is [{0..v}], so every
     connected set is generated only from its minimum vertex. The
     recursion extends a set [s] by every nonempty subset [sub] of its
     neighborhood [nbr] ([N(s) \ s], kept incrementally) outside the
     forbidden set [x], then forbids that whole neighborhood — the
     Moerkotte–Neumann argument makes each (set, extension) pair
     unique. Level [l] of the recursion keeps its [s], [x], [nbr],
     [cand] and [sub] at [(5l + 0..4) * nw] of one stack, so no set is
     allocated; [emit st o] gets the set at [st.(o .. o + nw - 1)]. The
     subset walk [sub := (sub - 1) land cand] borrows across words. *)
  let enumerate_csg ~n ~nw ~(adj : int array) emit =
    let st = Array.make ((n + 1) * 5 * nw) 0 in
    let rec expand s =
      let x = s + nw and nb = s + (2 * nw) and cand = s + (3 * nw) and sub = s + (4 * nw) in
      let s' = s + (5 * nw) in
      let more = ref false in
      for i = 0 to nw - 1 do
        let c = st.(nb + i) land lnot st.(x + i) in
        st.(cand + i) <- c;
        st.(sub + i) <- c;
        if c <> 0 then more := true
      done;
      while !more do
        for i = 0 to nw - 1 do
          st.(s' + i) <- st.(s + i) lor st.(sub + i);
          st.(s' + nw + i) <- st.(x + i) lor st.(cand + i);
          st.(s' + (2 * nw) + i) <- st.(nb + i)
        done;
        for i = 0 to nw - 1 do
          let m = ref st.(sub + i) in
          while !m <> 0 do
            let b = lowest_bit !m in
            let v = (i * word_bits) + bit_index b in
            for i' = 0 to nw - 1 do
              st.(s' + (2 * nw) + i') <- st.(s' + (2 * nw) + i') lor adj.((v * nw) + i')
            done;
            m := !m lxor b
          done
        done;
        for i = 0 to nw - 1 do
          st.(s' + (2 * nw) + i) <- st.(s' + (2 * nw) + i) land lnot st.(s' + i)
        done;
        emit st s';
        expand s';
        let i = ref 0 in
        while st.(sub + !i) = 0 do
          st.(sub + !i) <- -1;
          incr i
        done;
        st.(sub + !i) <- st.(sub + !i) - 1;
        more := false;
        for i = 0 to nw - 1 do
          st.(sub + i) <- st.(sub + i) land st.(cand + i);
          if st.(sub + i) <> 0 then more := true
        done
      done
    in
    for v = n - 1 downto 0 do
      for i = 0 to nw - 1 do
        let lo = i * word_bits in
        st.(i) <- (if v / word_bits = i then 1 lsl (v mod word_bits) else 0);
        st.(nw + i) <-
          (if lo + word_bits <= v + 1 then -1 else if lo <= v then (1 lsl (v + 1 - lo)) - 1 else 0);
        st.((2 * nw) + i) <- adj.((v * nw) + i) land lnot st.(i)
      done;
      emit st 0;
      expand 0
    done

  exception Enough

  (** [csg_count_bounded ~limit inst] is [Some (csg_count inst)] when
      the connected-subset count is at most [limit], and [None] as soon
      as the enumeration passes [limit] — the enumeration stops there,
      so the call costs [O(min (limit, #csg))] instead of [O(#csg)].
      Admission/budget checks use this to size the {!dp_connected}
      table without paying for a full enumeration of a dense graph
      (also [None] above {!max_ccp_n}, where [dp_connected] would
      refuse anyway — that and budget exhaustion are the only [None]
      cases).
      @raise Invalid_argument when [limit < 0] — a caller bug, kept
      distinct from the legitimate [None]s above. *)
  let csg_count_bounded ~limit (inst : I.t) =
    if limit < 0 then
      invalid_arg (Printf.sprintf "Ccp.csg_count_bounded: negative limit %d" limit);
    let n = I.n inst in
    if n > max_ccp_n then None
    else begin
      let count = ref 0 in
      match
        enumerate_csg ~n ~nw:(nwords n) ~adj:(L.adjacency ~nw:(nwords n) inst) (fun _ _ ->
            incr count;
            if !count > limit then raise Enough)
      with
      | () -> Some !count
      | exception Enough -> None
    end

  (** Number of connected subsets of the query graph — the table size
      {!dp_connected} allocates, against the lattice's [2^n]. *)
  let csg_count (inst : I.t) =
    match csg_count_bounded ~limit:max_int inst with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Ccp.csg_count: n=%d too large (max %d)" (I.n inst) max_ccp_n)

  (* [Array.blit] of one row, without the call *)
  let[@inline] copy_row src so dst d nw =
    for i = 0 to nw - 1 do
      dst.(d + i) <- src.(so + i)
    done

  (* All connected subsets as the table's slots: rows of [nw] words in
     [masks], grouped by cardinality (layer [k] at
     [off.(k) .. off.(k + 1) - 1]) in enumeration order, which nothing
     downstream depends on. *)
  let connected_layers (inst : I.t) ~n ~nw =
    let buf = ref (Array.make (64 * nw) 0) and count = ref 0 in
    let emit a o =
      if (!count + 1) * nw > Array.length !buf then begin
        let b = Array.make (2 * Array.length !buf) 0 in
        Array.blit !buf 0 b 0 (!count * nw);
        buf := b
      end;
      copy_row a o !buf (!count * nw) nw;
      incr count
    in
    enumerate_csg ~n ~nw ~adj:(L.adjacency ~nw inst) emit;
    let masks, off = L.by_cardinality ~n ~nw !buf !count in
    (masks, off, !count)

  (* ---------------- the subset index ---------------- *)

  (* slot of a row: [tbl.(mask)] when [flat], else open addressing over
     a power-of-two [tbl] of slots ([-1]: empty) probed at triangular
     steps [h, h + 1, h + 3, ...], keys compared against [masks];
     [longest]: the most slots a lookup of a present row probes *)
  type index = { flat : bool; tbl : int array; nw : int; masks : int array; longest : int }

  let hash a o nw =
    let h = ref 0 in
    for i = 0 to nw - 1 do
      h := Graphlib.Bitset.mix (!h lxor a.(o + i))
    done;
    !h

  let rec probe ix a o h d =
    let si = Array.unsafe_get ix.tbl h in
    if si < 0 then -1
    else begin
      let nw = ix.nw and i = ref 0 in
      while !i < nw && ix.masks.((si * nw) + !i) = a.(o + !i) do
        incr i
      done;
      if !i = nw then si else probe ix a o ((h + d) land (Array.length ix.tbl - 1)) (d + 1)
    end

  (* slot of the row [a.(o ..)], [-1] when absent *)
  let find ix a o =
    if ix.flat then ix.tbl.(a.(o)) else probe ix a o (hash a o ix.nw land (Array.length ix.tbl - 1)) 1

  let make_index ~n ~nw masks count =
    if nw = 1 && (n <= 10 || (n <= 30 && 1 lsl n <= 8 * count)) then begin
      let tbl = Array.make (1 lsl n) (-1) in
      Array.iteri (fun si s -> tbl.(s) <- si) masks;
      { flat = true; tbl; nw; masks; longest = 1 }
    end
    else begin
      let rec pow2 c = if c >= 4 * count then c else pow2 (2 * c) in
      let cap = pow2 1 in
      let tbl = Array.make cap (-1) and longest = ref 1 in
      for si = 0 to count - 1 do
        let h = ref (hash masks (si * nw) nw land (cap - 1)) and len = ref 1 in
        while tbl.(!h) >= 0 do
          h := (!h + !len) land (cap - 1);
          incr len
        done;
        tbl.(!h) <- si;
        longest := Stdlib.max !longest !len
      done;
      { flat = false; tbl; nw; masks; longest = !longest }
    end

  (* ---------------- the sweep ---------------- *)

  (* the dp over the connected subsets [masks] (see the header) *)
  let sweep ?pool (inst : I.t) ~n ~nw (masks, off, count) =
    Obs.incr c_runs;
    Obs.add c_subsets count;
    Obs.set g_table count;
    let ix = make_index ~n ~nw masks count in
    Obs.set g_idx_buckets (Array.length ix.tbl);
    Obs.set g_idx_max_bucket ix.longest;
    let t = L.create inst ~nw ~slots:(Stdlib.max 1 count) ~rows:masks in
    let adj = t.L.adj in
    (* key of N(r) for any row: the lowest-first recursion, unrolled *)
    let rec tail r = if Array.for_all (( = ) 0) r then 0.0 else L.key_step t (tail (L.without_lowest r 0 nw)) r 0 in
    let probes = ref 0 in
    (* one layer's candidate runs: slot [si]'s [k] places at
       [(si - off.(k)) * k], [len.(si - off.(k))] of them used *)
    let room = ref 1 and width = ref 1 in
    for k = 1 to n do
      room := Stdlib.max !room ((off.(k + 1) - off.(k)) * k);
      width := Stdlib.max !width (off.(k + 1) - off.(k))
    done;
    let pred = Array.make !room 0 and pos = Array.make !room 0 and len = Array.make !width 0 in
    let nbr = Array.make (Stdlib.max 1 (count * nw)) 0 and row = Array.make nw 0 in
    for si = off.(1) to off.(2) - 1 do
      let v = L.lowest_row masks (si * nw) in
      L.singleton t si v;
      Array.blit adj (v * nw) nbr (si * nw) nw;
      Float.Array.set t.L.nkey si (L.key_step t 0.0 masks (si * nw))
    done;
    for k = 2 to n do
      let lo = off.(k) and hi = off.(k + 1) in
      Array.fill len 0 (hi - lo) 0;
      (* the pairs (T, v) *)
      for ti = off.(k - 1) to lo - 1 do
        for i = 0 to nw - 1 do
          let m = ref nbr.((ti * nw) + i) in
          while !m <> 0 do
            let b = lowest_bit !m in
            let v = (i * word_bits) + bit_index b in
            copy_row masks (ti * nw) row 0 nw;
            row.(i) <- row.(i) lor b;
            let si = find ix row 0 in
            let r = si - lo in
            let at = (r * k) + len.(r) in
            len.(r) <- len.(r) + 1;
            pred.(at) <- ti;
            let p = ref (v * n) in
            while
              let u = t.L.worder.(!p) in
              (masks.((ti * nw) + (u / word_bits)) lsr (u mod word_bits)) land 1 = 0
            do
              incr p
            done;
            pos.(at) <- !p;
            for i' = 0 to nw - 1 do
              nbr.((si * nw) + i') <- (nbr.((ti * nw) + i') lor adj.((v * nw) + i')) land lnot row.(i')
            done;
            incr probes;
            m := !m lxor b
          done
        done
      done;
      for r = 0 to hi - lo - 1 do
        (* ascending member order (= ascending [pos]), insertion sort *)
        let base = r * k in
        for a = base + 1 to base + len.(r) - 1 do
          let pa = pos.(a) and ra = pred.(a) and b = ref (a - 1) in
          while !b >= base && pos.(!b) > pa do
            pos.(!b + 1) <- pos.(!b);
            pred.(!b + 1) <- pred.(!b);
            decr b
          done;
          pos.(!b + 1) <- pa;
          pred.(!b + 1) <- ra
        done;
        (* N(S): from S minus its lowest member, the first candidate
           when it is connected, else through the tails *)
        let si = lo + r in
        if len.(r) > 0 && pos.(base) / n = L.lowest_row masks (si * nw) then t.L.down.(si) <- pred.(base);
        let d = t.L.down.(si) in
        let below = if d >= 0 then Float.Array.get t.L.nkey d else tail (L.without_lowest masks (si * nw) nw) in
        Float.Array.set t.L.nkey si (L.key_step t below masks (si * nw))
      done;
      Obs.add c_probes !probes;
      probes := 0;
      let fill_dp sc ~defer si = L.fill t sc ~cartesian:true ~defer si ~pred ~pos ((si - lo) * k) len.(si - lo) in
      let sc = Domain.DLS.get Lattice.scratch in
      let layer () =
        match pool with
        | Some pool when Pool.jobs pool > 1 ->
            Pool.parallel_for pool ~lo ~hi:(hi - 1) (fun si ->
                let sc = Domain.DLS.get Lattice.scratch in
                Obs.add c_transitions (fill_dp sc ~defer:true si);
                Lattice.flush sc);
            for si = lo to hi - 1 do
              L.settle t sc ~cartesian:true si ~pred ~pos ((si - lo) * k) len.(si - lo)
            done
        | _ ->
            let trans = ref 0 in
            for si = lo to hi - 1 do
              trans := !trans + fill_dp sc ~defer:false si
            done;
            Obs.add c_transitions !trans;
            Lattice.flush sc
      in
      if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) layer else layer ()
    done;
    (* the full set is layer [n]'s one subset when the graph is connected *)
    let cost, seq = L.plan t (if off.(n + 1) > off.(n) then off.(n) else -1) in
    { O.cost; seq }

  let dp ?pool ~pad (inst : I.t) =
    let n = I.n inst in
    if n > max_ccp_n then
      invalid_arg (Printf.sprintf "Ccp.dp_connected: n=%d too large (max %d)" n max_ccp_n);
    if n = 0 then invalid_arg "Ccp.dp_connected: empty instance";
    Obs.span "ccp.dp_connected" @@ fun () ->
    let nw = nwords n + pad in
    let table = Obs.span "ccp.enumerate_csg" (fun () -> connected_layers inst ~n ~nw) in
    sweep ?pool inst ~n ~nw table

  (** The same dp on rows one word wider than [n] needs, so the
      multi-word machinery (the open-addressing index, multi-word rows
      and hashing) runs at every [n]. Exposed (in
      addition to the dispatching {!dp_connected}) so differential tests
      can drive it at small [n] where the one-word path is the
      reference. *)
  let dp_connected_words ?pool inst = dp ?pool ~pad:1 inst

  (** Exact optimum over cartesian-product-free join sequences by
      connected-subgraph DP; bit-identical to
      {!Opt.Make.dp_no_cartesian} (cost [C.infinity] and an empty
      sequence when the query graph is disconnected), but with
      [O(#csg)] table entries instead of [2^n] — far beyond
      [Opt.max_dp_n] on sparse graphs. Subsets are rows of words, one
      word up to [n = 63] (chains/trees scale to [n] in the hundreds).
      With [?pool] (and more than one job) each
      cardinality layer is filled in parallel; the result is
      bit-identical at every job count.
      @raise Invalid_argument above {!max_ccp_n} vertices. *)
  let dp_connected ?pool inst = dp ?pool ~pad:0 inst
end
