(** DPconv-style exact solver: max-plus (tropical) subset convolution
    over the join-subset lattice (arXiv 2409.08013).

    The cartesian-product-free recurrence

    {v dp(S) = min_{j in S} dp(S \ {j}) + N(S \ {j}) * min_w(j, S \ {j}) v}

    is a (min, +)-semiring product over the subset lattice: layer [k]
    (all subsets of cardinality [k]) is the tropical convolution of
    layer [k - 1] with the singleton-step kernel. [solve] evaluates it
    rank by rank over two regimes:

    - {b dense} ([n <= dense_max_n]): the full [2^n] lattice in flat
      mask-indexed arrays, counting-sorted into popcount layers —
      no hashing, no enumeration recursion, layer-parallel on
      {!Pool}. This is the lattice DP ({!Lattice.Make.dense}, the
      kernel of {!Opt.Make.dp_no_cartesian}) swept by rank, not the
      fast subset convolution of arXiv 2409.08013, whose
      super-polynomial gain is for the C_max cost, not [QO_N]. On
      clique-ish graphs, where every subset is connected, it takes
      less time than {!Ccp.Make.dp_connected} at matched [n] only
      because it finds a subset's slot by its mask, not by a hash
      lookup (single-shot timings in the [conv] section of
      BENCH_qopt.json).
    - {b sparse} ([dense_max_n < n <= max_conv_n]): the convolution
      restricted to the connected-subset sublattice — every feasible
      prefix is connected, so all other lattice points carry the
      semiring zero ([C.infinity]) and are skipped wholesale. This is
      exactly {!Ccp.Make.dp_connected}'s table, so [solve] delegates
      to it (multi-word subsets past [n = 61]; chains and trees scale
      to [n] in the hundreds).

    {b Equivalence guarantee.} [solve] is bit-identical (cost and
    sequence) to {!Opt.Make.dp_no_cartesian} and
    {!Ccp.Make.dp_connected} on every [n] all of them admit: the dense
    regime replays the lattice DP's exact transition order
    (lowest-bit-first size evaluation, ascending candidate scan,
    strict improvement), and the sparse regime shares [Ccp]'s engine.
    Enforced by the [conv-vs-ccp] differential fuzz oracle and
    property tests in both cost domains. *)

(* Shared across [Make] applications ([Obs.counter] is idempotent by
   name). [conv.dense.*] count lattice points and transitions of the
   dense regime only; sparse runs surface through [ccp.dp.*] plus
   [conv.sparse.runs]. *)
let c_runs = Obs.counter "conv.runs"
let c_dense_subsets = Obs.counter "conv.dense.subsets_enumerated"
let c_dense_transitions = Obs.counter "conv.dense.transitions"
let c_sparse_runs = Obs.counter "conv.sparse.runs"

module Make (C : Cost.S) = struct
  module I = Nl.Make (C)
  module O = Opt.Make (C)
  module P = Ccp.Make (C)

  (** Largest [n] evaluated on the dense full lattice ([= Opt.max_dp_n]:
      [2^n] semiring elements must fit in flat arrays). *)
  let dense_max_n = O.max_dp_n

  (** Hard cap ([= Ccp.max_ccp_n]): beyond the dense regime the
      convolution runs on the connected sublattice, whose multi-word
      subsets cap there. *)
  let max_conv_n = P.max_ccp_n

  module L = Lattice.Make (C)

  (* Dense regime: the rank-by-rank tropical convolution over the full
     lattice, through the shared certified key filter ({!Lattice}).
     Bit-identical to [Opt.dp_generic ~no_cartesian:true] — same size
     evaluation, candidate order, improvement rule — with the lattice
     always swept in popcount layers (the convolution's rank
     structure), sequential or pool-parallel. *)
  let solve_dense ?pool (inst : I.t) n : O.plan =
    Obs.add c_dense_subsets (1 lsl n);
    let cost, seq =
      L.dense ?pool ~layered:true ~layer_span:"conv.dense.layer." ~transitions:c_dense_transitions
        ~cartesian:false inst
    in
    { O.cost; seq }

  (** Exact optimum over cartesian-product-free join sequences by
      layered tropical subset convolution; cost [C.infinity] (empty
      sequence) when the query graph is disconnected. Bit-identical to
      {!Opt.Make.dp_no_cartesian} and {!Ccp.Make.dp_connected} where
      they admit. With [?pool] each rank layer is evaluated in
      parallel; results are bit-identical at every job count.
      @raise Invalid_argument when [n = 0] or [n > max_conv_n]. *)
  let solve ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_conv_n then
      invalid_arg (Printf.sprintf "Conv.solve: n=%d too large (max %d)" n max_conv_n);
    if n = 0 then invalid_arg "Conv.solve: empty instance";
    Obs.span "conv.solve" @@ fun () ->
    Obs.incr c_runs;
    if n <= dense_max_n then solve_dense ?pool inst n
    else begin
      Obs.incr c_sparse_runs;
      P.dp_connected ?pool inst
    end
end
