(** Non-negative extended reals in base-2 logarithmic representation.

    The hardness reductions of the paper produce query-optimization
    instances whose relation sizes are [t = a^{(c-d/2)n}] with
    [a = 4^{n^{1/delta}}] — values with millions of bits. Costs are sums
    and products of such values, so the whole [QO_N]/[QO_H] cost
    apparatus runs in the log domain: a value [v > 0] is stored as
    [log2 v] (a float), [0] as [-inf] and [+inf] as [inf].

    Multiplication is exact (float addition of exponents);
    addition uses log-sum-exp and is accurate to float precision, which
    is ample: the experiments compare gap {e exponents} of order
    [Theta(n)] against each other. The exact rational cost model
    ({!Bignum.Bigq}) cross-validates this module on small instances. *)

type t = private float
(** The base-2 logarithm of the represented value. *)

val zero : t
val one : t
val two : t
val infinity : t

val of_float : float -> t
(** @raise Invalid_argument on negatives or NaN. *)

val of_int : int -> t
val of_log2 : float -> t
(** [of_log2 x] represents the value [2^x]. *)

val to_log2 : t -> float
val to_float : t -> float
(** May overflow to [infinity] for large values. *)

val is_zero : t -> bool
val is_finite : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val approx_equal : ?tol:float -> t -> t -> bool
(** Equality of log2 values within [tol] (default [1e-6]); zero and
    infinity compare only to themselves. *)

val mul : t -> t -> t
val div : t -> t -> t
(** [div a b]. @raise Division_by_zero when [b] is {!zero}. *)

val inv : t -> t
val add : t -> t -> t
(** Log-sum-exp; exact when one side is {!zero}. *)

val mul_log2 : float -> float -> float
val add_log2 : float -> float -> float
(** {!mul} and {!add} on raw log2 values: the same operations, for
    callers that keep log2 estimates in unboxed [Float.Array]s. *)

val add_log2_lower : float -> float -> float
val add_log2_upper : float -> float -> float
(** Certified bounds of {!add_log2} from a table lookup, without a libm
    call: [add_log2_lower a b <= add_log2 a b <= add_log2_upper a b] for
    all non-NaN [a], [b], infinities included.

    [add_log2 a b] is [hi +. g] with [hi = max a b] and [g] the computed
    [log2 (1 + 2^(-x))], [x = |a - b|]. Gaps below 64 fall in cells of
    width 1/32; the bounds are [hi +. L] and [hi +. U], where [U] is the
    correction at the cell's left end and [L] that at its right end,
    each moved outward by a relative margin of [2^-40], enough for any
    libm error in [pow] and [log1p] up to thousands of ulps. Larger gaps
    share a tail cell with [L = 0] and [U] the correction at 64. Adding
    to [hi] rounds monotonically, so no margin on the sum is needed,
    whatever [|hi|]. The window [U - L] is at most [1/64 + 2^-40]. *)

val sub : t -> t -> t
(** [sub a b] for [a >= b]; clamps small negative residues to {!zero}.
    @raise Invalid_argument when [b > a] beyond float tolerance. *)

val pow : t -> float -> t
(** [pow v e] is [v^e] for any real [e]. *)

val pow_int : t -> int -> t

val sum : t list -> t
val prod : t list -> t

val of_bignat : Bignum.Bignat.t -> t
val of_bigq : Bignum.Bigq.t -> t
(** @raise Invalid_argument on negative rationals. *)

val pp : Format.formatter -> t -> unit
(** Prints small values plainly ("42."), large ones as ["2^x"]. *)

val to_string : t -> string
