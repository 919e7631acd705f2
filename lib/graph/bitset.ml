type t = { n : int; words : int array }

let word_bits = Sys.int_size (* 63 on 64-bit *)
let nwords n = (n + word_bits - 1) / word_bits

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make (Stdlib.max 1 (nwords n)) 0 }

let capacity t = t.n
let copy t = { t with words = Array.copy t.words }

let full n =
  let t = create n in
  let w = nwords n in
  for i = 0 to w - 1 do
    t.words.(i) <- -1 (* all bits set; OCaml ints: fine, we mask below *)
  done;
  (* Clear bits beyond n-1 in the last word. *)
  let used = n mod word_bits in
  if used > 0 && w > 0 then t.words.(w - 1) <- (1 lsl used) - 1;
  if n = 0 then t.words.(0) <- 0;
  t

let check t i =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Bitset: index %d out of [0,%d)" i t.n)

let add t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove t i =
  check t i;
  t.words.(i / word_bits) <- t.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let mem t i = i >= 0 && i < t.n && (t.words.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

(* SWAR over the two 32-bit halves (the upper one 31 bits wide) *)
let popcount m =
  let half x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    ((((x + (x lsr 4)) land 0x0F0F0F0F) * 0x01010101) land 0xFFFFFFFF) lsr 24
  in
  half (m land 0xFFFFFFFF) + half (m lsr 32)

(* de Bruijn multiply-and-lookup over 32-bit halves: [db32] times a
   power of two 2^k (k < 32) has a distinct top-5-bit window for each
   k, and the table maps the window back to k *)
let db32 = 0x077CB531

let db_table =
  let t = Bytes.create 32 in
  for k = 0 to 31 do
    Bytes.set t ((((1 lsl k) * db32) land 0xFFFFFFFF) lsr 27) (Char.chr k)
  done;
  Bytes.to_string t

let[@inline] bit_index b =
  let lo = b land 0xFFFFFFFF in
  if lo <> 0 then Char.code (String.unsafe_get db_table (((lo * db32) land 0xFFFFFFFF) lsr 27))
  else 32 + Char.code (String.unsafe_get db_table ((((b lsr 32) * db32) land 0xFFFFFFFF) lsr 27))

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_cap a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

(* splitmix64's finalizer in 63-bit arithmetic (odd multipliers below
   2^62): every input bit reaches every output bit, so sets that differ
   only in high bits still spread over a power-of-two table's low-bit
   buckets. *)
let[@inline] mix x =
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* Deterministic hash over the word array, each word mixed in: equal
   sets hash equal (capacities must match for equality anyway). *)
let hash t =
  let h = ref t.n in
  for i = 0 to Array.length t.words - 1 do
    h := mix (!h lxor t.words.(i))
  done;
  !h land max_int

(* Total order: the sets compared as little-endian multi-word unsigned
   integers (highest word first, each word unsigned 63-bit). On n <= 62
   this coincides with [Stdlib.compare] of the single-word mask. *)
let compare a b =
  same_cap a b;
  let ux w = w lxor min_int in
  let rec go i =
    if i < 0 then 0
    else
      let c = Stdlib.compare (ux a.words.(i)) (ux b.words.(i)) in
      if c <> 0 then c else go (i - 1)
  in
  go (Array.length a.words - 1)

let prefix n k =
  if k < 0 || k > n then invalid_arg "Bitset.prefix";
  let t = create n in
  let fw = k / word_bits in
  for i = 0 to fw - 1 do
    t.words.(i) <- -1
  done;
  let rem = k mod word_bits in
  if rem > 0 then t.words.(fw) <- (1 lsl rem) - 1;
  t

let lowest t =
  let rec go i =
    if i >= Array.length t.words then -1
    else
      let w = t.words.(i) in
      if w = 0 then go (i + 1) else (i * word_bits) + bit_index (w land -w)
  in
  go 0

let assign ~dst src =
  same_cap dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

(* t := (t - 1) land mask over the little-endian multi-word integer:
   borrow-propagate the decrement (a zero word becomes all-ones — the
   full 63-bit lane, i.e. [-1] — and the borrow carries on), then mask.
   The single-word special case is the classic subset-walk step
   [(sub - 1) land cand]; [t] must be nonzero. *)
let decr_and t mask =
  same_cap t mask;
  let nw = Array.length t.words in
  let rec borrow i =
    if i < nw then
      if t.words.(i) = 0 then begin
        t.words.(i) <- -1;
        borrow (i + 1)
      end
      else t.words.(i) <- t.words.(i) - 1
  in
  borrow 0;
  for i = 0 to nw - 1 do
    t.words.(i) <- t.words.(i) land mask.words.(i)
  done

let equal a b =
  same_cap a b;
  Array.for_all2 ( = ) a.words b.words

let subset a b =
  same_cap a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let map2 f a b =
  same_cap a b;
  { n = a.n; words = Array.map2 f a.words b.words }

let inter a b = map2 ( land ) a b
let union a b = map2 ( lor ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let inter_into ~dst a b =
  same_cap a b;
  same_cap dst a;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land b.words.(i)
  done

let union_into ~dst a b =
  same_cap a b;
  same_cap dst a;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) lor b.words.(i)
  done

let diff_into ~dst a b =
  same_cap a b;
  same_cap dst a;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land lnot b.words.(i)
  done

let inter_cardinal a b =
  same_cap a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(i) land b.words.(i))
  done;
  !acc

let choose t = match lowest t with -1 -> None | i -> Some i

let iter f t =
  for i = 0 to Array.length t.words - 1 do
    let w = ref t.words.(i) in
    while !w <> 0 do
      let low = !w land -(!w) in
      f ((i * word_bits) + bit_index low);
      w := !w lxor low
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (elements t)))
