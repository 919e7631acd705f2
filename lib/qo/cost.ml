(** The scalar domain of the cost models.

    The [QO_N] cost apparatus ({!Nl}, {!Opt}, {!Ik}) is a functor over
    this signature, instantiated twice:

    - {!Log_cost}: base-2 log-domain floats ({!Logreal.t}) — the only
      representation that survives the reduction instances, whose
      relation sizes have [Theta(n^2 log a)] bits;
    - {!Rat_cost}: exact rationals ({!Bignum.Bigq}) extended with an
      infinity — used on small instances to cross-validate the
      log-domain model (experiment E10).

    Values are non-negative throughout (sizes, selectivities, costs);
    [sub] is only ever applied to [a >= b] (the IK rank computation). *)

module type S = sig
  type t

  val zero : t
  val one : t
  val infinity : t
  (** Absorbing top element: the cost of an infeasible plan. *)

  val of_int : int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  (** [sub a b] requires [a >= b] up to representation tolerance. *)

  val mul : t -> t -> t
  val div : t -> t -> t
  val pow_int : t -> int -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val is_finite : t -> bool

  val to_log2 : t -> float
  (** Base-2 log of the value, for reporting and rank comparisons:
      [neg_infinity] for zero, [infinity] for {!infinity}. *)

  val key_slack : t -> float
  (** The error budget of [x] in the exact kernels' certified filter
      ({!Lattice}). Those kernels estimate every intermediate size and
      cost by a {e key}: [to_log2] of the input scalars, combined with
      {!Logreal.mul_log2} / {!Logreal.add_log2}. [key_slack x] must
      bound [|to_log2 x - log2 x|] plus [x]'s share of the float
      rounding in the key products and sums that combine it, so that a
      key built from scalars [x1 .. xk] is within
      [key_slack x1 + ... + key_slack xk] of the log2 of its exact
      value. The bound is per scalar, not a function of the final key:
      a key near 0 can be the sum of huge cancelling terms, whose
      rounding a bound on the result alone would miss.

      That holds for keys built by at most 2048 operations, as the
      lattice's are. The heuristics of {!Opt} key whole plans, through
      up to [K = 3n + |edges|] operations: the rounding share grows
      linearly in the operation count, so such a key is within
      [max 1 (K / 2048)] times the sum, and [to_log2] of a plan's exact
      cost (a sum of [n - 1] products of the scalars) must be too.

      {!Log_cost}'s is [0]: its key {e is} its value (the same floats
      through the same operations), so the filter's selection is the
      plain float comparison and nothing is ever re-priced. *)

  val pp : Format.formatter -> t -> unit
end
