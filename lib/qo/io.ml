(* Line-oriented instance files. Comments (#) and blank lines allowed.

     qon 1
     n <int>
     size <v> <scalar>            (one per relation)
     edge <i> <j> sel <scalar> wij <scalar> wji <scalar>

   Scalars: rationals "a/b" or integers for the rational domain;
   "2^<float>" or plain floats for the log domain.

   [dump_*] is the canonical text of an instance. The parser reads a
   payload in one lexer pass and returns that text along with the
   instance, without a second rendering: a scalar whose text is already
   canonical is copied through byte for byte, any other is rendered by
   the printer [dump_*] uses. *)

(* ---------------- the canonical layout ---------------- *)

(* [string_of_int]'s text for [i >= 0], written digit by digit: no
   format string to interpret and no intermediate string. *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_header buf n =
  Buffer.add_string buf "qon 1\nn ";
  add_int buf n;
  Buffer.add_char buf '\n'

(* [add buf x] prints one scalar; [x] is a value in [dump_*] and a
   reference to already canonical text in the parse pass. *)
let add_size buf add v x =
  Buffer.add_string buf "size ";
  add_int buf v;
  Buffer.add_char buf ' ';
  add buf x;
  Buffer.add_char buf '\n'

let add_edge buf add i j sel wij wji =
  Buffer.add_string buf "edge ";
  add_int buf i;
  Buffer.add_char buf ' ';
  add_int buf j;
  Buffer.add_string buf " sel ";
  add buf sel;
  Buffer.add_string buf " wij ";
  add buf wij;
  Buffer.add_string buf " wji ";
  add buf wji;
  Buffer.add_char buf '\n'

let dump_generic ~add ~n ~graph ~sizes ~(sel : _ array array) ~w =
  let buf = Buffer.create (64 + (96 * n)) in
  add_header buf n;
  Array.iteri (fun v s -> add_size buf add v s) sizes;
  Graphlib.Ugraph.fold_edges
    (fun i j () -> add_edge buf add i j sel.(i).(j) w.(i).(j) w.(j).(i))
    graph ();
  Buffer.contents buf

(* ---------------- the parse pass ---------------- *)

let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Qo.Io.parse: " ^ m)) fmt

(* Hard cap on the declared relation count. The parse allocates an
   [n]-slot table and three [n*n] matrices, so [n] must be validated
   before any allocation: "n 99999999999" used to die with a bare
   [Invalid_argument "Array.make"] (or OOM the process) instead of a
   line-numbered parse error. 1024 relations is far beyond every solver
   in the portfolio (the lattice DP caps at 23; the connected DP and
   subset-convolution solver at Ccp.max_ccp_n = 256, feasible only on
   sparse shapes; the heuristics are O(n^3)-ish and already
   minutes-slow well below it). *)
let max_parse_n = 1024

(* A growable flat array. *)
type 'a vec = { mutable a : 'a array; mutable len : int }

let vec () = { a = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (max 16 (2 * v.len)) x in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* [push] for ints: the known element type makes the store a plain
   write, with no float-array test and no write barrier. *)
let push_int (v : int vec) (x : int) =
  if v.len = Array.length v.a then begin
    let a = Array.make (max 16 (2 * v.len)) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let rec digits s i e v =
  if i = e then v
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) e ((v * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* [s.[p .. p+l-1]] read as 1 to 18 plain decimal digits (below 2^62),
   or -1 when it is anything else. *)
let decimal s p l = if l < 1 || l > 18 then -1 else digits s p (p + l) 0

(* [decimal] without a leading zero (bar "0" itself): the text
   [string_of_int] gives. *)
let canonical_decimal s p l = if l > 1 && s.[p] = '0' then -1 else decimal s p l

(* [String.trim]'s notion of blank. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Tokens are maximal runs of non-space bytes: only ' ' separates them.
   A line has at most [max_tok] tokens that matter (an edge line has
   9); further ones are counted, not recorded. *)
let max_tok = 10

type 'a lexer = {
  text : string;
  scalar : string -> int -> int -> Buffer.t -> 'a;
      (** the value of [text.[p .. p+l-1]]; renders its canonical text
          into the buffer unless that slice already is it *)
  mutable header : bool;
  mutable n : int;
  vals : 'a vec;  (** every scalar's value, in lexing order *)
  txt : int vec;
      (** every scalar's canonical text as (off, length) pairs: at [off]
          in [text] when [off >= 0], else at [-1 - off] in [aux] *)
  aux : Buffer.t;
  sizes : int vec;  (** size lines, [size_fields] ints each *)
  edges : int vec;  (** edge lines, [edge_fields] ints each *)
  ts : int array;  (** token starts and ends on the current line *)
  te : int array;
}

(* The fields of a size or an edge line's record: its line number; the
   index of its first scalar (an edge's are wji, wij and sel from there
   on); where its text starts and ends when it already reads as its
   canonical line (start -1 otherwise); then its relation, or an edge's
   two endpoints as written. *)
let f_line = 0
and f_sc = 1
and f_copy = 2
and f_copy_end = 3
and f_v = 4
and f_j = 5

let size_fields = 5
and edge_fields = 6

let field (v : int vec) width k f = v.a.((width * k) + f)

let tok lx k = String.sub lx.text lx.ts.(k) (lx.te.(k) - lx.ts.(k))

let rec same text p kw i =
  i = String.length kw || (text.[p + i] = kw.[i] && same text p kw (i + 1))

let is lx k kw = lx.te.(k) - lx.ts.(k) = String.length kw && same lx.text lx.ts.(k) kw 0

let int_of lx ln k =
  match decimal lx.text lx.ts.(k) (lx.te.(k) - lx.ts.(k)) with
  | -1 -> (
      match int_of_string_opt (tok lx k) with
      | Some v -> v
      | None -> fail "line %d: invalid integer %S" ln (tok lx k))
  | v -> v

(* Lexes token [k] as a scalar and returns its index. *)
let scalar_of lx ln k =
  let p = lx.ts.(k) and l = lx.te.(k) - lx.ts.(k) and a0 = Buffer.length lx.aux in
  (* only the exceptions a scalar parser legitimately raises: catching
     everything would mask [Out_of_memory] and [Stack_overflow] as
     "invalid scalar" *)
  let v =
    try lx.scalar lx.text p l lx.aux
    with Failure _ | Invalid_argument _ | Division_by_zero ->
      fail "line %d: invalid scalar %S" ln (tok lx k)
  in
  let a1 = Buffer.length lx.aux in
  push lx.vals v;
  if a1 = a0 then begin
    push_int lx.txt p;
    push_int lx.txt l
  end
  else begin
    push_int lx.txt (-1 - a0);
    push_int lx.txt (a1 - a0)
  end;
  lx.vals.len - 1

(* Tokens one space apart, ids [1 .. ids] plain decimals with no
   leading zero, and every scalar from [sc] on copied through: the line
   is its own canonical text, but for an edge's endpoint order. *)
let rec spaced lx nt k = k = nt || (lx.ts.(k) = lx.te.(k - 1) + 1 && spaced lx nt (k + 1))

let rec plain_ids lx k =
  k = 0 || (canonical_decimal lx.text lx.ts.(k) (lx.te.(k) - lx.ts.(k)) >= 0 && plain_ids lx (k - 1))

let rec copied lx sc n = n = 0 || (lx.txt.a.(2 * sc) >= 0 && copied lx (sc + 1) (n - 1))
let as_written lx nt ~ids ~sc ~scalars = spaced lx nt 1 && plain_ids lx ids && copied lx sc scalars

(* the documented format is line-oriented: one "qon 1" header first,
   then data lines — enforce both directions *)
let require_header lx ln =
  if not lx.header then fail "line %d: data line before the \"qon 1\" header" ln

(* One trimmed, non-blank, non-comment line [text.[a .. b-1]]. Within a
   line the rightmost bad token is reported: scalars right to left,
   then integers right to left. *)
let lex_line lx ln a b =
  let text = lx.text in
  let nt = ref 0 and i = ref a in
  while !i < b do
    while !i < b && text.[!i] = ' ' do incr i done;
    if !i < b then begin
      let s = !i in
      while !i < b && text.[!i] <> ' ' do incr i done;
      if !nt < max_tok then begin
        lx.ts.(!nt) <- s;
        lx.te.(!nt) <- !i
      end;
      incr nt
    end
  done;
  let nt = !nt in
  if nt = 2 && is lx 0 "qon" && is lx 1 "1" then begin
    if lx.header then fail "line %d: duplicate \"qon 1\" header" ln;
    lx.header <- true
  end
  else if is lx 0 "qon" then
    fail "line %d: unsupported version %S" ln
      (String.split_on_char ' ' (String.sub text lx.te.(0) (b - lx.te.(0)))
      |> List.filter (fun s -> s <> "")
      |> String.concat " ")
  else if nt = 2 && is lx 0 "n" then begin
    require_header lx ln;
    if lx.n >= 0 then fail "line %d: duplicate n line" ln;
    let v = int_of lx ln 1 in
    if v < 1 || v > max_parse_n then fail "line %d: n %d out of range [1,%d]" ln v max_parse_n;
    lx.n <- v
  end
  else if nt = 3 && is lx 0 "size" then begin
    require_header lx ln;
    let sc = scalar_of lx ln 2 in
    let v = int_of lx ln 1 in
    push_int lx.sizes ln;
    push_int lx.sizes sc;
    push_int lx.sizes (if as_written lx nt ~ids:1 ~sc ~scalars:1 then a else -1);
    push_int lx.sizes b;
    push_int lx.sizes v
  end
  else if nt = 9 && is lx 0 "edge" && is lx 3 "sel" && is lx 5 "wij" && is lx 7 "wji" then begin
    require_header lx ln;
    let sc = scalar_of lx ln 8 in
    ignore (scalar_of lx ln 6 : int);
    ignore (scalar_of lx ln 4 : int);
    let j = int_of lx ln 2 in
    let i = int_of lx ln 1 in
    push_int lx.edges ln;
    push_int lx.edges sc;
    push_int lx.edges (if i < j && as_written lx nt ~ids:2 ~sc ~scalars:3 then a else -1);
    push_int lx.edges b;
    push_int lx.edges i;
    push_int lx.edges j
  end
  else fail "line %d: unrecognized %S" ln (String.sub text a (b - a))

let parse_canonical ~scalar ~make ~one text =
  let len = String.length text in
  let lx =
    {
      text;
      scalar;
      header = false;
      n = -1;
      vals = vec ();
      txt = vec ();
      aux = Buffer.create 64;
      sizes = vec ();
      edges = vec ();
      ts = Array.make max_tok 0;
      te = Array.make max_tok 0;
    }
  in
  (* Lex pass: every line-level error, in line order. *)
  let pos = ref 0 and ln = ref 0 in
  while !pos <= len do
    let e = ref !pos in
    while !e < len && text.[!e] <> '\n' do incr e done;
    incr ln;
    let a = ref !pos and b = ref !e in
    while !a < !b && is_blank text.[!a] do incr a done;
    while !b > !a && is_blank text.[!b - 1] do decr b done;
    if !a < !b && text.[!a] <> '#' then lex_line lx !ln !a !b;
    pos := !e + 1
  done;
  (* Validation pass: the whole-file checks, over the flat arrays. *)
  if lx.n <= 0 then fail "missing or invalid n";
  if not lx.header then fail "missing \"qon 1\" header";
  let nn = lx.n and vals = lx.vals.a in
  let ns = lx.sizes.len / size_fields and ne = lx.edges.len / edge_fields in
  let size k f = field lx.sizes size_fields k f and edge k f = field lx.edges edge_fields k f in
  (* each relation sized exactly once, in range *)
  let size_line = Array.make nn (-1) in
  for k = 0 to ns - 1 do
    let ln = size k f_line and v = size k f_v in
    if v < 0 || v >= nn then fail "line %d: size relation %d out of range [0,%d)" ln v nn;
    if size_line.(v) >= 0 then fail "line %d: duplicate size line for relation %d" ln v;
    size_line.(v) <- k
  done;
  if ns <> nn then fail "expected %d size lines, found %d" nn ns;
  (* edge endpoints in range, no self-loops, each unordered pair once *)
  let graph = Graphlib.Ugraph.create nn in
  for k = 0 to ne - 1 do
    let ln = edge k f_line and i = edge k f_v and j = edge k f_j in
    if i < 0 || i >= nn || j < 0 || j >= nn then
      fail "line %d: edge endpoint out of range [0,%d) in \"edge %d %d\"" ln nn i j;
    if i = j then fail "line %d: self-loop edge %d %d" ln i j;
    if Graphlib.Ugraph.has_edge graph i j then fail "line %d: duplicate edge %d %d" ln i j;
    Graphlib.Ugraph.add_edge graph i j
  done;
  (* Off-edge entries share one value ([one], or the relation's size),
     which [Rat_cost.compare]'s physical-equality test then sees. *)
  let sizes = Array.init nn (fun v -> vals.(size size_line.(v) f_sc)) in
  let sel = Array.make_matrix nn nn one in
  let w = Array.init nn (fun i -> Array.make nn sizes.(i)) in
  for k = 0 to ne - 1 do
    let i = edge k f_v and j = edge k f_j and sc = edge k f_sc in
    sel.(i).(j) <- vals.(sc + 2);
    sel.(j).(i) <- vals.(sc + 2);
    w.(i).(j) <- vals.(sc + 1);
    w.(j).(i) <- vals.(sc)
  done;
  let inst = make ~graph ~sel ~sizes ~w in
  (* The canonical text, in [dump_*]'s layout: relations in order, edges
     as (min, max) pairs in order, with wij and wji swapped for an edge
     written "edge i j" with i > j. A line already in canonical form is
     copied whole. *)
  let out = Buffer.create (len + 32) and aux = Buffer.contents lx.aux and txt = lx.txt.a in
  let add buf k =
    let off = txt.(2 * k) and l = txt.((2 * k) + 1) in
    if off >= 0 then Buffer.add_substring buf text off l
    else Buffer.add_substring buf aux (-1 - off) l
  in
  let copy a e =
    Buffer.add_substring out text a (e - a);
    Buffer.add_char out '\n'
  in
  add_header out nn;
  for v = 0 to nn - 1 do
    let k = size_line.(v) in
    let a = size k f_copy in
    if a >= 0 then copy a (size k f_copy_end) else add_size out add v (size k f_sc)
  done;
  let key k = (min (edge k f_v) (edge k f_j) * nn) + max (edge k f_v) (edge k f_j) in
  let order = Array.init ne Fun.id in
  (* a dump lists its edges in this order already *)
  let sorted = ref true in
  for k = 1 to ne - 1 do
    if key (k - 1) > key k then sorted := false
  done;
  if not !sorted then Array.sort (fun x y -> Int.compare (key x) (key y)) order;
  Array.iter
    (fun k ->
      let i = edge k f_v and j = edge k f_j and sc = edge k f_sc and a = edge k f_copy in
      if a >= 0 then copy a (edge k f_copy_end)
      else if i < j then add_edge out add i j (sc + 2) (sc + 1) sc
      else add_edge out add j i (sc + 2) sc (sc + 1))
    order;
  (inst, Buffer.contents out)

(* ---------------- rational ---------------- *)

let add_nat buf n =
  match Bignum.Bignat.one_limb n with
  | -1 -> Buffer.add_string buf (Bignum.Bignat.to_string n)
  | v -> add_int buf v

(* [Bigq.to_string]'s text, with one-limb parts written in place. *)
let add_rat buf = function
  | Rat_cost.Inf -> Buffer.add_string buf "inf"
  | Rat_cost.Fin q ->
      let open Bignum in
      let n = Bigq.num q and d = Bigq.den q in
      if Bigint.sign n < 0 then Buffer.add_char buf '-';
      add_nat buf (Bigint.magnitude n);
      if Bignat.one_limb d <> 1 then begin
        Buffer.add_char buf '/';
        add_nat buf d
      end

let rat_of_string s =
  match s with
  | "inf" -> Rat_cost.infinity
  | _ -> Rat_cost.of_bigq (Bignum.Bigq.of_string s)

let rec index_in s c i e = if i = e then -1 else if s.[i] = c then i else index_in s c (i + 1) e

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Canonical rational text is an integer with no sign, no leading zero
   and no '_', or "a/b" of two such with a > 0, b > 1 and gcd(a, b) = 1.
   Up to 18 digits a side, that text reads in native ints and is its
   own canonical form; anything else goes through [Bigq]. *)
let rat_scalar s p l aux =
  let k = index_in s '/' p (p + l) in
  let a = canonical_decimal s p (if k < 0 then l else k - p) in
  if k < 0 && a >= 0 then Rat_cost.of_int a
  else begin
    let b = if k < 0 || a <= 0 then -1 else canonical_decimal s (k + 1) (p + l - k - 1) in
    if b > 1 && gcd a b = 1 then Rat_cost.of_ints a b
    else begin
      let v = rat_of_string (String.sub s p l) in
      add_rat aux v;
      v
    end
  end

let dump_rat (inst : Instances.Nl_rat.t) =
  let open Instances.Nl_rat in
  dump_generic ~add:add_rat ~n:inst.n ~graph:inst.graph ~sizes:inst.sizes ~sel:inst.sel
    ~w:inst.w

let parse_rat_canonical text =
  parse_canonical ~scalar:rat_scalar ~make:Instances.Nl_rat.make ~one:Rat_cost.one text

let parse_rat text = fst (parse_rat_canonical text)

(* ---------------- log domain ---------------- *)

(* What Printf's "%.17g" calls. *)
external format_float : string -> float -> string = "caml_format_float"

let add_log buf (v : Log_cost.t) =
  Buffer.add_string buf "2^";
  Buffer.add_string buf (format_float "%.17g" (Log_cost.to_log2 v))

let log_of_string s =
  (* Non-finite scalars are poison in the log domain: a "nan" (or
     "2^nan") size used to parse into an instance whose every DP cost
     comparison is garbage, and "inf" silently saturates. Reject them
     here so the error carries the offending line number; the rational
     domain keeps its documented "inf" literal in [rat_of_string]. *)
  if String.length s > 2 && String.sub s 0 2 = "2^" then begin
    let e = float_of_string (String.sub s 2 (String.length s - 2)) in
    if not (Float.is_finite e) then failwith "non-finite log scalar";
    Log_cost.of_log2 e
  end
  else begin
    let f = float_of_string s in
    if not (Float.is_finite f) then failwith "non-finite log scalar";
    Log_cost.of_float f
  end

(* A log scalar's canonical text is its "%.17g" rendering, so every one
   is rendered. *)
let log_scalar s p l aux =
  let v = log_of_string (String.sub s p l) in
  add_log aux v;
  v

let dump_log (inst : Instances.Nl_log.t) =
  let open Instances.Nl_log in
  dump_generic ~add:add_log ~n:inst.n ~graph:inst.graph ~sizes:inst.sizes ~sel:inst.sel
    ~w:inst.w

let parse_log_canonical text =
  parse_canonical ~scalar:log_scalar ~make:Instances.Nl_log.make ~one:Log_cost.one text

let parse_log text = fst (parse_log_canonical text)

(* ---------------- files ---------------- *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let save_rat path inst = write_file path (dump_rat inst)
let load_rat path = parse_rat (read_file path)
let save_log path inst = write_file path (dump_log inst)
let load_log path = parse_log (read_file path)
