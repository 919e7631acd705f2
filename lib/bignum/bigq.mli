(** Arbitrary-precision rationals.

    Always normalized: denominator positive, gcd(|num|, den) = 1, and
    zero is 0/1. Used by the exact [QO_N] cost model ({!Qo.Exact_cost})
    to cross-validate the log-domain model on small instances, since
    selectivities are reciprocals [1/a]. *)

type t

val zero : t
val one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den]. @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. *)

val of_bigint : Bigint.t -> t
val num : t -> Bigint.t
val den : t -> Bignat.t

val of_string : string -> t
(** Accepts ["a"], ["a/b"], and ["-a/b"]. *)

val to_string : t -> string

val log2 : t -> float
(** Base-2 log of a positive rational; [nan] for negatives,
    [neg_infinity] for zero. Exact to float precision even when the
    value itself over/under-flows floats. *)

val bit_width : t -> int
(** Bit length of the numerator's magnitude plus that of the
    denominator: the operand width that bounds {!log2}'s rounding
    error. *)

val is_zero : t -> bool
val sign : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> int -> t
(** Negative exponents allowed (inverts). *)

val pp : Format.formatter -> t -> unit
