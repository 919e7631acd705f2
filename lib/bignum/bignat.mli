(** Arbitrary-precision natural numbers.

    Little-endian arrays of 31-bit limbs. All values are normalized: no
    trailing zero limbs, and [zero] is the empty array. The module is
    self-contained (the sealed build environment has no [zarith]); it
    exists because the Appendix-A reductions of the paper (PARTITION to
    SPPCS to SQO-CP) manipulate subset {e products} of integers and
    fixed-point approximations of [e^x] to hundreds of bits, far beyond
    native [int]. *)

type t

val zero : t
val one : t
val two : t

(** {1 Conversions} *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit a native [int]. *)

val one_limb : t -> int
(** [one_limb n] is [n] when [n < 2^31] (at most one limb), else [-1];
    it allocates nothing, for native-int fast paths. *)

val of_string : string -> t
(** Parse a decimal string (optionally with [_] separators).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_float : t -> float
(** Nearest float; [infinity] when out of range. *)

val log2 : t -> float
(** [log2 n] is the base-2 logarithm as a float; [neg_infinity] for
    [zero]. Accurate to float precision even for huge values. *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian) of [n]. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** Truncated subtraction.
    @raise Invalid_argument if the result would be negative. *)

val sub_opt : t -> t -> t option
(** [sub_opt a b] is [None] when [b > a]. *)

val mul : t -> t -> t
(** Product; schoolbook with Karatsuba above a fixed threshold. *)

val mul_int : t -> int -> t
(** [mul_int a k] with [0 <= k]. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D). @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val pow : t -> int -> t
(** [pow b e] by binary exponentiation. @raise Invalid_argument if
    [e < 0]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val gcd : t -> t -> t

val sqrt : t -> t
(** Integer square root (largest [s] with [s*s <= n]). *)

(** {1 Pretty-printing} *)

val pp : Format.formatter -> t -> unit
(** Decimal, with a [~2^k] hint appended for values over 64 bits. *)
