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
    sets), keeps [dp]/[sizes] entries only for them in a compact
    hash-indexed table, and maintains each subset's neighborhood mask
    incrementally from its parent instead of rescanning all [n] bits.

    {b Equivalence guarantee.} {!Make.dp_connected} is {e bit-identical}
    to {!Opt.Make.dp_no_cartesian} (cost and sequence) in both cost
    domains: the intermediate sizes [N(S)] are evaluated with the exact
    same lowest-bit-first multiplication order as the lattice
    [fill_size], the candidate last-vertices of a subset are scanned in
    the same ascending order with the same strict-improvement rule, and
    a subset [S \ {j}] contributes a candidate iff it is connected —
    which is exactly when the lattice's [dp] entry for it is finite.
    Property-tested against the lattice in [test/test_qo.ml]. *)

(* Shared across [Make] applications; [subsets_enumerated] counts the
   table entries of [dp_connected] only — [csg_count] is a pure query
   (the CLI calls both on the same instance and must report the subset
   count once). *)
let c_runs = Obs.counter "ccp.dp.runs"
let c_subsets = Obs.counter "ccp.dp.subsets_enumerated"
let c_transitions = Obs.counter "ccp.dp.transitions"
let g_table = Obs.gauge "ccp.dp.table_entries"
let g_idx_buckets = Obs.gauge "ccp.dp.idx_buckets"
let g_idx_max_bucket = Obs.gauge "ccp.dp.idx_max_bucket"
let g_size_memo = Obs.gauge "ccp.dp.size_memo_entries"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)
  module O = Opt.Make (C)

  (* Fast path: masks as single OCaml ints (63-bit), one spare bit for
     the [1 lsl (v + 1)] forbidden-prefix arithmetic. Beyond that the
     multi-word [Graphlib.Bitset] path takes over (same algorithm, same
     transition order) up to [max_ccp_n]. *)
  let max_ccp_word_n = 61
  let max_ccp_n = 256

  module L = Lattice.Make (C)

  let lowest_bit = L.lowest_bit
  let bit_index = L.bit_index

  (* DPccp-style EnumerateCsg: call [emit] exactly once per connected
     subset of the graph given by [adj]. Start points are visited from
     the highest vertex down; the forbidden set of start [v] is
     [{0..v}], so every connected set is generated only from its
     minimum vertex. The recursion extends a set [s] by every nonempty
     subset of its neighborhood outside the forbidden set, then forbids
     that whole neighborhood — the Moerkotte–Neumann argument makes
     each (set, extension) pair unique. The neighborhood mask [nbr]
     (i.e. [N(s) \ s]) travels through the recursion and is updated
     incrementally from the parent's. *)
  let enumerate_csg ~n ~(adj : int array) emit =
    let rec expand s x nbr =
      let cand = nbr land lnot x in
      if cand <> 0 then begin
        let x' = x lor cand in
        let sub = ref cand in
        while !sub <> 0 do
          let s' = s lor !sub in
          emit s';
          (* neighborhood of s' incrementally: add the adjacency of the
             new vertices, drop members of s' *)
          let add = ref 0 and m = ref !sub in
          while !m <> 0 do
            let b = lowest_bit !m in
            add := !add lor adj.(bit_index b);
            m := !m lxor b
          done;
          expand s' x' ((nbr lor !add) land lnot s');
          sub := (!sub - 1) land cand
        done
      end
    in
    for v = n - 1 downto 0 do
      let s = 1 lsl v in
      emit s;
      expand s ((1 lsl (v + 1)) - 1) (adj.(v) land lnot s)
    done

  let popcount = L.popcount

  (* All connected subsets grouped by cardinality (layer [k] holds the
     k-subsets, sorted ascending for determinism and locality). *)
  let connected_layers ~n ~adj =
    let acc = ref [] and count = ref 0 in
    enumerate_csg ~n ~adj (fun s ->
        acc := s :: !acc;
        incr count);
    let per_layer = Array.make (n + 1) 0 in
    List.iter (fun s -> per_layer.(popcount s) <- per_layer.(popcount s) + 1) !acc;
    let layers = Array.init (n + 1) (fun k -> Array.make per_layer.(k) 0) in
    let cursor = Array.make (n + 1) 0 in
    List.iter
      (fun s ->
        let k = popcount s in
        layers.(k).(cursor.(k)) <- s;
        cursor.(k) <- cursor.(k) + 1)
      !acc;
    Array.iter (fun layer -> Array.sort compare layer) layers;
    (layers, !count)

  exception Enough

  (* ---------------- multi-word (Bitset) path ---------------- *)

  module BS = Graphlib.Bitset

  module BH = Hashtbl.Make (struct
    type t = BS.t

    let equal = BS.equal
    let hash = BS.hash
  end)

  let adjacency_sets (inst : I.t) n =
    Array.init n (fun v ->
        let s = BS.create n in
        BS.iter (fun u -> BS.add s u) (Graphlib.Ugraph.neighbors inst.I.graph v);
        s)

  (* EnumerateCsg over multi-word sets: the exact algorithm of
     [enumerate_csg], with the subset walk [(sub - 1) land cand]
     generalised by [BS.decr_and] and the forbidden prefix
     [(1 lsl (v + 1)) - 1] by [BS.prefix]. [emit] receives a scratch
     set it must not retain without copying. *)
  let enumerate_csg_words ~n ~(adj : BS.t array) emit =
    let rec expand s x nbr =
      let cand = BS.diff nbr x in
      if not (BS.is_empty cand) then begin
        let x' = BS.union x cand in
        let sub = BS.copy cand in
        let continue = ref true in
        while !continue do
          let s' = BS.union s sub in
          emit s';
          (* neighborhood of s' incrementally: add the adjacency of the
             new vertices, drop members of s' *)
          let nbr' = BS.copy nbr in
          BS.iter (fun v -> BS.union_into ~dst:nbr' nbr' adj.(v)) sub;
          BS.diff_into ~dst:nbr' nbr' s';
          expand s' x' nbr';
          BS.decr_and sub cand;
          if BS.is_empty sub then continue := false
        done
      end
    in
    for v = n - 1 downto 0 do
      let s = BS.create n in
      BS.add s v;
      emit s;
      expand s (BS.prefix n (v + 1)) (BS.diff adj.(v) s)
    done

  let connected_layers_words ~n ~adj =
    let acc = ref [] and count = ref 0 in
    enumerate_csg_words ~n ~adj (fun s ->
        acc := BS.copy s :: !acc;
        incr count);
    let per_layer = Array.make (n + 1) 0 in
    List.iter (fun s -> per_layer.(BS.cardinal s) <- per_layer.(BS.cardinal s) + 1) !acc;
    let layers = Array.init (n + 1) (fun k -> Array.make per_layer.(k) (BS.create 0)) in
    let cursor = Array.make (n + 1) 0 in
    List.iter
      (fun s ->
        let k = BS.cardinal s in
        layers.(k).(cursor.(k)) <- s;
        cursor.(k) <- cursor.(k) + 1)
      !acc;
    Array.iter (fun layer -> Array.sort BS.compare layer) layers;
    (layers, !count)

  let csg_count_words (inst : I.t) n =
    let adj = adjacency_sets inst n in
    let count = ref 0 in
    enumerate_csg_words ~n ~adj (fun _ -> incr count);
    !count

  let csg_count_bounded_words ~limit (inst : I.t) n =
    let adj = adjacency_sets inst n in
    let count = ref 0 in
    match
      enumerate_csg_words ~n ~adj (fun _ ->
          incr count;
          if !count > limit then raise Enough)
    with
    | () -> Some !count
    | exception Enough -> None

  (** Number of connected subsets of the query graph — the table size
      {!dp_connected} allocates, against the lattice's [2^n]. *)
  let csg_count (inst : I.t) =
    let n = I.n inst in
    if n = 0 then 0
    else begin
      if n > max_ccp_n then
        invalid_arg (Printf.sprintf "Ccp.csg_count: n=%d too large (max %d)" n max_ccp_n);
      if n <= max_ccp_word_n then begin
        let adj = L.adjacency inst in
        let _, count = connected_layers ~n ~adj in
        count
      end
      else csg_count_words inst n
    end

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
    if n = 0 then Some 0
    else if n > max_ccp_n then None
    else if n <= max_ccp_word_n then begin
      let adj = L.adjacency inst in
      let count = ref 0 in
      match
        enumerate_csg ~n ~adj (fun _ ->
            incr count;
            if !count > limit then raise Enough)
      with
      | () -> Some !count
      | exception Enough -> None
    end
    else csg_count_bounded_words ~limit inst n

  (* single-word dp (n <= max_ccp_word_n): masks are plain ints, the
     connected subsets are the slots of the shared certified key filter
     ({!Lattice}) *)
  let dp_connected_word ?pool (inst : I.t) n : O.plan =
    Obs.span "ccp.dp_connected" @@ fun () ->
    let adj = L.adjacency inst in
    let layers, count = Obs.span "ccp.enumerate_csg" (fun () -> connected_layers ~n ~adj) in
    Obs.incr c_runs;
    Obs.add c_subsets count;
    Obs.set g_table count;
    (* mask -> compact index *)
    let idx = Hashtbl.create (2 * count) in
    let next = ref 0 in
    Array.iter
      (fun layer ->
        Array.iter
          (fun s ->
            Hashtbl.add idx s !next;
            incr next)
          layer)
      layers;
    (let st = Hashtbl.stats idx in
     Obs.set g_idx_buckets st.Hashtbl.num_buckets;
     Obs.set g_idx_max_bucket st.Hashtbl.max_bucket_length);
    let slot s = match Hashtbl.find_opt idx s with Some i -> i | None -> -1 in
    let t = L.create inst ~adj ~slots:(Stdlib.max 1 count) ~slot in
    (* N(S) keys layer by layer: [S \ {lowest}] is either a table entry
       of the previous layer or a disconnected tail the filter peels
       through *)
    Array.iter (Array.iter (fun s -> L.fill_size t s (slot s))) layers;
    (* a candidate exists iff [s \ {j}] is connected, i.e. present in
       the table, which implies a predicate to [j] *)
    let fill_dp ~defer s = Obs.add c_transitions (L.fill t ~cartesian:true ~defer s (slot s)) in
    (* layer k only reads layer k-1 and writes its own slots, so the
       layers parallelise exactly like the lattice's popcount layers;
       near-ties are settled sequentially before the next layer *)
    for k = 2 to n do
      let layer = layers.(k) in
      let fill () =
        match pool with
        | Some pool when Pool.jobs pool > 1 ->
            Pool.parallel_for pool ~lo:0 ~hi:(Array.length layer - 1) (fun i ->
                fill_dp ~defer:true layer.(i));
            Array.iter (fun s -> L.settle t ~cartesian:true s (slot s)) layer
        | _ -> Array.iter (fill_dp ~defer:false) layer
      in
      if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill else fill ()
    done;
    let cost, seq = L.plan t ((1 lsl n) - 1) in
    Obs.set g_size_memo (L.exact_sizes t);
    { O.cost; seq }

  (** Multi-word dp over [Graphlib.Bitset] subsets: the same table
      layout, size evaluation, transition and tie-break as the
      single-word path, with the int-keyed hash tables replaced by a
      compact hash over the word arrays. Exposed (in addition to the
      dispatching {!dp_connected}) so differential tests can drive the
      multi-word machinery at small [n] where the single-word path is
      the reference. *)
  let dp_connected_words ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_ccp_n then
      invalid_arg (Printf.sprintf "Ccp.dp_connected: n=%d too large (max %d)" n max_ccp_n);
    if n = 0 then invalid_arg "Ccp.dp_connected: empty instance";
    Obs.span "ccp.dp_connected" @@ fun () ->
    let adj = adjacency_sets inst n in
    let layers, count =
      Obs.span "ccp.enumerate_csg" (fun () -> connected_layers_words ~n ~adj)
    in
    Obs.incr c_runs;
    Obs.add c_subsets count;
    Obs.set g_table count;
    (* subset -> compact index; keys are the (never-mutated) layer
       entries themselves *)
    let idx = BH.create (2 * count) in
    let next = ref 0 in
    Array.iter
      (fun layer ->
        Array.iter
          (fun s ->
            BH.add idx s !next;
            incr next)
          layer)
      layers;
    (let st = BH.stats idx in
     Obs.set g_idx_buckets st.Hashtbl.num_buckets;
     Obs.set g_idx_max_bucket st.Hashtbl.max_bucket_length);
    (* N(S) with the lattice DP's lowest-bit-first order, memoized over
       the (shared, possibly disconnected) tails the recursion peels
       through — exactly like the single-word [size_of] *)
    let size_memo = BH.create (4 * count) in
    let rec size_of s =
      if BS.is_empty s then C.one
      else
        match BH.find_opt size_memo s with
        | Some v -> v
        | None ->
            let v = BS.lowest s in
            let rest = BS.copy s in
            BS.remove rest v;
            let size_rest = size_of rest in
            let acc = ref (C.mul size_rest inst.I.sizes.(v)) in
            let row = inst.I.sel.(v) in
            let av = adj.(v) in
            BS.iter (fun u -> if BS.mem av u then acc := C.mul !acc row.(u)) rest;
            BH.add size_memo s !acc;
            !acc
    in
    let sizes = Array.make (Stdlib.max 1 count) C.one in
    Array.iter
      (fun layer -> Array.iter (fun s -> sizes.(BH.find idx s) <- size_of s) layer)
      layers;
    Obs.set g_size_memo (BH.length size_memo);
    let dp = Array.make (Stdlib.max 1 count) C.infinity in
    let parent = Array.make (Stdlib.max 1 count) (-1) in
    Array.iter
      (fun s ->
        let i = BH.find idx s in
        dp.(i) <- C.zero;
        parent.(i) <- BS.lowest s)
      layers.(1);
    (* identical transition, candidate order (ascending = lowest bit
       first) and strict-improvement tie-break as the single-word path;
       min over [s] of [w(j, .)] is the first member of [s] in row [j]'s
       ascending order, the one the ascending scan keeps *)
    let w_order = Lattice.row_order C.compare inst.I.w in
    let min_w_set j s =
      let order = w_order.(j) in
      let p = ref 0 in
      while not (BS.mem s order.(!p)) do
        incr p
      done;
      inst.I.w.(j).(order.(!p))
    in
    let fill_dp s =
      let i = BH.find idx s in
      let trans = ref 0 in
      let rest = BS.copy s in
      BS.iter
        (fun j ->
          BS.remove rest j;
          (match BH.find_opt idx rest with
          | Some ri ->
              incr trans;
              let cand = C.add dp.(ri) (C.mul sizes.(ri) (min_w_set j rest)) in
              if C.compare cand dp.(i) < 0 then begin
                dp.(i) <- cand;
                parent.(i) <- j
              end
          | None -> ());
          BS.add rest j)
        s;
      Obs.add c_transitions !trans
    in
    (match pool with
    | Some pool when Pool.jobs pool > 1 ->
        for k = 2 to n do
          let layer = layers.(k) in
          let fill () =
            Pool.parallel_for pool ~lo:0 ~hi:(Array.length layer - 1) (fun t ->
                fill_dp layer.(t))
          in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done
    | _ ->
        for k = 2 to n do
          let fill () = Array.iter fill_dp layers.(k) in
          if Obs.enabled () then Obs.span ("ccp.dp.layer." ^ string_of_int k) fill
          else fill ()
        done);
    let full = BS.full n in
    match BH.find_opt idx full with
    | None -> { O.cost = C.infinity; seq = [||] }
    | Some fi ->
        let seq = Array.make n (-1) in
        let s = full in
        for pos = n - 1 downto 0 do
          let j = parent.(BH.find idx s) in
          seq.(pos) <- j;
          BS.remove s j
        done;
        { O.cost = dp.(fi); seq }

  (** Exact optimum over cartesian-product-free join sequences by
      connected-subgraph DP; bit-identical to
      {!Opt.Make.dp_no_cartesian} (cost [C.infinity] and an empty
      sequence when the query graph is disconnected), but with
      [O(#csg)] table entries instead of [2^n] — far beyond
      [Opt.max_dp_n] on sparse graphs. Subsets are single-word int
      masks up to [n = 61] and multi-word {!Graphlib.Bitset}s beyond
      (chains/trees scale to [n] in the hundreds). With [?pool] (and
      more than one job) each cardinality layer is filled in parallel;
      the result is bit-identical at every job count.
      @raise Invalid_argument above {!max_ccp_n} vertices. *)
  let dp_connected ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_ccp_n then
      invalid_arg (Printf.sprintf "Ccp.dp_connected: n=%d too large (max %d)" n max_ccp_n);
    if n = 0 then invalid_arg "Ccp.dp_connected: empty instance";
    if n <= max_ccp_word_n then dp_connected_word ?pool inst n
    else dp_connected_words ?pool inst
end
