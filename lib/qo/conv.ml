(** DPconv-style exact solver: max-plus (tropical) subset convolution
    over the join-subset lattice (arXiv 2409.08013).

    The cartesian-product-free recurrence

    {v dp(S) = min_{j in S} dp(S \ {j}) + N(S \ {j}) * min_w(j, S \ {j}) v}

    is a (min, +)-semiring product over the subset lattice: layer [k]
    (all subsets of cardinality [k]) is the tropical convolution of
    layer [k - 1] with the singleton-step kernel. For the [QO_N] cost
    the convolution has no shortcut over the plain lattice sweep (the
    super-polynomial gain of arXiv 2409.08013 is for the C_max cost),
    so [solve] is a dispatcher over two regimes:

    - {b dense} ([n <= dense_max_n]): the full [2^n] lattice, which is
      {!Opt.Make.dp_no_cartesian} itself — flat mask-indexed arrays,
      no hashing, layer-parallel on {!Pool} past
      {!Lattice.par_min_n}.
    - {b sparse} ([dense_max_n < n <= max_conv_n]): the convolution
      restricted to the connected-subset sublattice — every feasible
      prefix is connected, so all other lattice points carry the
      semiring zero ([C.infinity]) and are skipped wholesale. This is
      exactly {!Ccp.Make.dp_connected}'s table (multi-word subsets past
      [n = 61]; chains and trees scale to [n] in the hundreds).

    {b Equivalence guarantee.} [solve] is bit-identical (cost and
    sequence) to {!Opt.Make.dp_no_cartesian} and
    {!Ccp.Make.dp_connected} on every [n] all of them admit, because
    each regime {e is} one of them. Enforced by the [conv-vs-dp] fuzz
    oracle and property tests in both cost domains. *)

(* Shared across [Make] applications ([Obs.counter] is idempotent by
   name). The dense regime's lattice work counts in [opt.dp.*], the
   sparse regime's in [ccp.dp.*]. *)
let c_runs = Obs.counter "conv.runs"
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

  (** Exact optimum over cartesian-product-free join sequences; cost
      [C.infinity] (empty sequence) when the query graph is
      disconnected. Bit-identical to {!Opt.Make.dp_no_cartesian} and
      {!Ccp.Make.dp_connected} where they admit, and at every job count
      of [?pool].
      @raise Invalid_argument when [n = 0] or [n > max_conv_n]. *)
  let solve ?pool (inst : I.t) : O.plan =
    let n = I.n inst in
    if n > max_conv_n then
      invalid_arg (Printf.sprintf "Conv.solve: n=%d too large (max %d)" n max_conv_n);
    if n = 0 then invalid_arg "Conv.solve: empty instance";
    Obs.span "conv.solve" @@ fun () ->
    Obs.incr c_runs;
    if n <= dense_max_n then O.dp_no_cartesian ?pool inst
    else begin
      Obs.incr c_sparse_runs;
      P.dp_connected ?pool inst
    end
end
