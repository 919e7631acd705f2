(** Arbitrary-precision signed integers over {!Bignat}. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
(** Total: [of_int min_int] is [-2^62] on 63-bit ints. *)

val of_nat : Bignat.t -> t
val to_nat_opt : t -> Bignat.t option
(** [None] when negative. *)

val to_int_opt : t -> int option
(** [None] outside [[min_int, max_int]]. *)

val of_string : string -> t
val to_string : t -> string

val sign : t -> int
(** -1, 0, or 1. *)

val magnitude : t -> Bignat.t
(** [|t|] as a natural number. *)

val abs : t -> t
val neg : t -> t
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** Euclidean division: [a = q*b + r] with [0 <= r < |b|]. *)

val div : t -> t -> t
val rem : t -> t -> t
val pow : t -> int -> t
val pp : Format.formatter -> t -> unit
