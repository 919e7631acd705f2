(** Fixed-capacity bitsets over [int] words.

    The adjacency representation of {!Ugraph} and the working sets of
    the exact clique solvers ({!Clique}). Capacity is fixed at creation;
    all binary operations require equal capacities. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [{0, .., n-1}]. *)

val capacity : t -> int
val copy : t -> t
val full : int -> t
(** [full n] contains all of [{0, .., n-1}]. *)

val prefix : int -> int -> t
(** [prefix n k] contains [{0, .., k-1}] within capacity [n] — the
    multi-word generalisation of the mask [(1 lsl k) - 1]. *)

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool

val hash : t -> int
(** Deterministic hash consistent with {!equal} (for [Hashtbl.Make]),
    with every word fully mixed: sets differing only in high bits land
    in different buckets of a power-of-two table. *)

val mix : int -> int
(** {!hash}'s word mixer, for hashing raw words without a [t]. *)

val popcount : int -> int
(** Number of set bits of a word, the sign bit included. *)

val bit_index : int -> int
(** [bit_index b] is [k] when [b = 1 lsl k] ([0 <= k <= 62]): a table
    lookup, no loop. Unspecified when [b] is not a single bit. *)

val compare : t -> t -> int
(** Total order: the sets as little-endian multi-word unsigned
    integers. Coincides with [Stdlib.compare] on single-word masks. *)

val subset : t -> t -> bool
(** [subset a b] is [true] when every element of [a] is in [b]. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val inter_into : dst:t -> t -> t -> unit
(** [inter_into ~dst a b] writes [a ∩ b] into [dst] (allocation-free). *)

val union_into : dst:t -> t -> t -> unit
val diff_into : dst:t -> t -> t -> unit
(** [diff_into ~dst a b] writes [a \ b] into [dst] (allocation-free). *)

val assign : dst:t -> t -> unit
(** [assign ~dst src] overwrites [dst] with the contents of [src]. *)

val decr_and : t -> t -> unit
(** [decr_and t mask]: [t := (t - 1) land mask] over the multi-word
    integer — the subset-walk step of DPccp-style enumeration. [t] must
    be nonzero. *)

val lowest : t -> int
(** Index of the lowest set bit, or [-1] when empty. *)

val inter_cardinal : t -> t -> int
(** Cardinal of the intersection without materializing it. *)

val choose : t -> int option
(** Smallest element, if any. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
(** [of_list n xs]: elements [xs] within capacity [n]. *)

val pp : Format.formatter -> t -> unit
