(** {!Cost.S} over {!Logreal}: log₂-domain floats. See {!Cost}. *)

type t = Logreal.t

let zero = Logreal.zero
let one = Logreal.one
let infinity = Logreal.infinity
let of_int = Logreal.of_int
let add = Logreal.add
let sub = Logreal.sub
let mul = Logreal.mul
let div = Logreal.div
let pow_int = Logreal.pow_int
let compare = Logreal.compare
let equal = Logreal.equal
let min = Logreal.min
let max = Logreal.max
let is_finite t = Logreal.to_log2 t < Float.infinity
let to_log2 = Logreal.to_log2
let key_slack _ = 0.0
let pp = Logreal.pp

(* Extras used when building instances directly in this domain. *)
let of_log2 = Logreal.of_log2
let of_float = Logreal.of_float
let to_logreal (t : t) : Logreal.t = t
let of_logreal (t : Logreal.t) : t = t
