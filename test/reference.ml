(* Copies of code that faster versions replaced, kept as the
   differential references those versions must match: the
   [Printf]/[Format] dump and the two-pass list-based parser [Qo.Io]
   had before its one-pass lexer and [Buffer]-direct dump, and
   [Opt.greedy]'s loop as it was before [Min_cost] stopped computing
   the unused [Min_size] product, and [Opt.simulated_annealing] as it
   was before it priced moves on keys. Each is verbatim but for what
   its comment names. [Chain_dp] is new: an interval DP for chains
   that shares no code with the kernels it checks. *)

(* The cartesian-product-free DP on a chain [0 - 1 - ... - n-1], all in
   the exact domain and written against the chain's shape alone (no
   [Ccp], no [Lattice]): the connected subsets are the intervals
   [[a, b]], and the candidates of [[a, b]] are its two ends, scanned
   ascending ([a], then [b]) under the first-strict-improvement rule.
   The operands follow the kernels' order: [N([a, b])] multiplies
   lowest member first, [N([a + 1, b]) * t_a * s_(a, a+1)], and a
   candidate is [dp(rest) + N(rest) * min_w(j, rest)] with [min_w] the
   ascending scan's first strict minimum. Finite instances only. *)
module Chain_dp (C : Qo.Cost.S) = struct
  module N = Qo.Nl.Make (C)

  let solve (inst : N.t) =
    let n = inst.N.n in
    for i = 0 to n - 2 do
      if not (Graphlib.Ugraph.has_edge inst.N.graph i (i + 1)) then invalid_arg "Chain_dp: not a chain"
    done;
    if Graphlib.Ugraph.edge_count inst.N.graph <> n - 1 then invalid_arg "Chain_dp: not a chain";
    (* [size.(a).(b)], [dp.(a).(b)], [last.(a).(b)] for the interval [[a, b]] *)
    let size = Array.make_matrix n n C.one and dp = Array.make_matrix n n C.zero in
    let last = Array.make_matrix n n (-1) in
    for b = 0 to n - 1 do
      size.(b).(b) <- C.mul C.one inst.N.sizes.(b);
      last.(b).(b) <- b;
      for a = b - 1 downto 0 do
        size.(a).(b) <- C.mul (C.mul size.(a + 1).(b) inst.N.sizes.(a)) inst.N.sel.(a).(a + 1)
      done
    done;
    let min_w j a b =
      let best = ref C.infinity in
      for u = a to b do
        if C.compare inst.N.w.(j).(u) !best < 0 then best := inst.N.w.(j).(u)
      done;
      !best
    in
    for len = 2 to n do
      for a = 0 to n - len do
        let b = a + len - 1 in
        let best = ref C.infinity and arg = ref (-1) in
        List.iter
          (fun (j, ra, rb) ->
            let c = C.add dp.(ra).(rb) (C.mul size.(ra).(rb) (min_w j ra rb)) in
            if C.compare c !best < 0 then begin
              best := c;
              arg := j
            end)
          [ (a, a + 1, b); (b, a, b - 1) ];
        dp.(a).(b) <- !best;
        last.(a).(b) <- !arg
      done
    done;
    let seq = Array.make n (-1) and a = ref 0 and b = ref (n - 1) in
    for p = n - 1 downto 0 do
      let j = last.(!a).(!b) in
      seq.(p) <- j;
      if j = !a then incr a else decr b
    done;
    (dp.(0).(n - 1), seq)
end

module Io = struct
  let dump_generic ~scalar_to_string ~(n : int) ~graph ~sizes ~sel ~w =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "qon 1\n";
    Buffer.add_string buf (Printf.sprintf "n %d\n" n);
    Array.iteri
      (fun v s -> Buffer.add_string buf (Printf.sprintf "size %d %s\n" v (scalar_to_string s)))
      sizes;
    List.iter
      (fun (i, j) ->
        Buffer.add_string buf
          (Printf.sprintf "edge %d %d sel %s wij %s wji %s\n" i j
             (scalar_to_string sel.(i).(j))
             (scalar_to_string w.(i).(j))
             (scalar_to_string w.(j).(i))))
      (Graphlib.Ugraph.edges graph);
    Buffer.contents buf

  let dump_rat (inst : Qo.Instances.Nl_rat.t) =
    let open Qo.Instances.Nl_rat in
    dump_generic
      ~scalar_to_string:(fun v -> Format.asprintf "%a" Qo.Rat_cost.pp v)
      ~n:inst.n ~graph:inst.graph ~sizes:inst.sizes ~sel:inst.sel ~w:inst.w

  let dump_log (inst : Qo.Instances.Nl_log.t) =
    let open Qo.Instances.Nl_log in
    dump_generic
      ~scalar_to_string:(fun v -> Printf.sprintf "2^%.17g" (Qo.Log_cost.to_log2 v))
      ~n:inst.n ~graph:inst.graph ~sizes:inst.sizes ~sel:inst.sel ~w:inst.w

  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Qo.Io.parse: " ^ m)) fmt
  let max_parse_n = Qo.Io.max_parse_n

  type 'a parsed = {
    p_n : int;
    p_sizes : (int * int * 'a) list;
    p_edges : (int * int * int * 'a * 'a * 'a) list;
  }

  (* [scalar_of] also catches [Division_by_zero]: a "1/0" scalar is an
     "invalid scalar" error in both parsers. *)
  let parse_generic ~scalar_of_string text =
    let lines = String.split_on_char '\n' text in
    let header = ref false in
    let n = ref (-1) in
    let sizes = ref [] in
    let edges = ref [] in
    List.iteri
      (fun lineno line ->
        let ln = lineno + 1 in
        let int_of s =
          match int_of_string_opt s with
          | Some v -> v
          | None -> fail "line %d: invalid integer %S" ln s
        in
        let scalar_of s =
          try scalar_of_string s
          with Failure _ | Invalid_argument _ | Division_by_zero ->
            fail "line %d: invalid scalar %S" ln s
        in
        let line = String.trim line in
        let require_header () =
          if not !header then fail "line %d: data line before the \"qon 1\" header" ln
        in
        if line = "" || line.[0] = '#' then ()
        else begin
          match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
          | [ "qon"; "1" ] ->
              if !header then fail "line %d: duplicate \"qon 1\" header" ln;
              header := true
          | "qon" :: rest -> fail "line %d: unsupported version %S" ln (String.concat " " rest)
          | [ "n"; v ] ->
              require_header ();
              if !n >= 0 then fail "line %d: duplicate n line" ln;
              let v = int_of v in
              if v < 1 || v > max_parse_n then
                fail "line %d: n %d out of range [1,%d]" ln v max_parse_n;
              n := v
          | [ "size"; v; s ] ->
              require_header ();
              sizes := (ln, int_of v, scalar_of s) :: !sizes
          | [ "edge"; i; j; "sel"; s; "wij"; wij; "wji"; wji ] ->
              require_header ();
              edges := (ln, int_of i, int_of j, scalar_of s, scalar_of wij, scalar_of wji) :: !edges
          | _ -> fail "line %d: unrecognized %S" ln line
        end)
      lines;
    if !n <= 0 then fail "missing or invalid n";
    if not !header then fail "missing \"qon 1\" header";
    let nn = !n in
    let seen_size = Array.make nn false in
    List.iter
      (fun (ln, v, _) ->
        if v < 0 || v >= nn then fail "line %d: size relation %d out of range [0,%d)" ln v nn;
        if seen_size.(v) then fail "line %d: duplicate size line for relation %d" ln v;
        seen_size.(v) <- true)
      (List.rev !sizes);
    if List.length !sizes <> nn then fail "expected %d size lines, found %d" nn (List.length !sizes);
    let seen_edge = Hashtbl.create 16 in
    List.iter
      (fun (ln, i, j, _, _, _) ->
        if i < 0 || i >= nn || j < 0 || j >= nn then
          fail "line %d: edge endpoint out of range [0,%d) in \"edge %d %d\"" ln nn i j;
        if i = j then fail "line %d: self-loop edge %d %d" ln i j;
        let key = (Stdlib.min i j, Stdlib.max i j) in
        if Hashtbl.mem seen_edge key then fail "line %d: duplicate edge %d %d" ln i j;
        Hashtbl.add seen_edge key ())
      (List.rev !edges);
    { p_n = nn; p_sizes = List.rev !sizes; p_edges = List.rev !edges }

  let build ~make ~one p =
    let n = p.p_n in
    let graph = Graphlib.Ugraph.create n in
    let sizes = Array.make n one in
    List.iter (fun (_, v, s) -> sizes.(v) <- s) p.p_sizes;
    let sel = Array.make_matrix n n one in
    let w = Array.init n (fun i -> Array.init n (fun _ -> sizes.(i))) in
    List.iter
      (fun (_, i, j, s, wij, wji) ->
        Graphlib.Ugraph.add_edge graph i j;
        sel.(i).(j) <- s;
        sel.(j).(i) <- s;
        w.(i).(j) <- wij;
        w.(j).(i) <- wji)
      p.p_edges;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && not (Graphlib.Ugraph.has_edge graph i j) then w.(i).(j) <- sizes.(i)
      done
    done;
    make ~graph ~sel ~sizes ~w

  let rat_of_string s =
    match s with
    | "inf" -> Qo.Rat_cost.infinity
    | _ -> Qo.Rat_cost.of_bigq (Bignum.Bigq.of_string s)

  let parse_rat text =
    build ~make:Qo.Instances.Nl_rat.make ~one:Qo.Rat_cost.one
      (parse_generic ~scalar_of_string:rat_of_string text)

  let log_of_string s =
    if String.length s > 2 && String.sub s 0 2 = "2^" then begin
      let e = float_of_string (String.sub s 2 (String.length s - 2)) in
      if not (Float.is_finite e) then failwith "non-finite log scalar";
      Qo.Log_cost.of_log2 e
    end
    else begin
      let f = float_of_string s in
      if not (Float.is_finite f) then failwith "non-finite log scalar";
      Qo.Log_cost.of_float f
    end

  let parse_log text =
    build ~make:Qo.Instances.Nl_log.make ~one:Qo.Log_cost.one
      (parse_generic ~scalar_of_string:log_of_string text)
end

(* [run] returns (cost, seq) instead of an [Opt] plan. *)
module Greedy (C : Qo.Cost.S) = struct
  module I = Qo.Nl.Make (C)

  type greedy_mode = Min_cost | Min_size

  let greedy ?(mode = Min_cost) ?starts (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.greedy: empty instance";
    let starts = match starts with None -> n | Some s -> Stdlib.max 1 (Stdlib.min s n) in
    let open Graphlib in
    let run start =
      let seq = Array.make n (-1) in
      seq.(0) <- start;
      let x = Bitset.create n in
      Bitset.add x start;
      let size = ref inst.I.sizes.(start) in
      let total = ref C.zero in
      for d = 1 to n - 1 do
        let best_v = ref (-1) and best_key = ref C.infinity and best_h = ref C.infinity in
        for v = 0 to n - 1 do
          if not (Bitset.mem x v) then begin
            let h = C.mul !size (I.min_w inst x v) in
            let s = ref (C.mul !size inst.I.sizes.(v)) in
            Bitset.iter
              (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
              (Ugraph.neighbors inst.I.graph v);
            let key = match mode with Min_cost -> h | Min_size -> !s in
            if C.compare key !best_key < 0 then begin
              best_key := key;
              best_v := v;
              best_h := h
            end
          end
        done;
        let v = !best_v in
        seq.(d) <- v;
        total := C.add !total !best_h;
        let s = ref (C.mul !size inst.I.sizes.(v)) in
        Bitset.iter
          (fun k -> if Bitset.mem x k then s := C.mul !s inst.I.sel.(v).(k))
          (Ugraph.neighbors inst.I.graph v);
        size := !s;
        Bitset.add x v
      done;
      (!total, seq)
    in
    let best = ref (run 0) in
    for start = 1 to starts - 1 do
      let p = run start in
      if C.compare (fst p) (fst !best) < 0 then best := p
    done;
    !best
end

(* [simulated_annealing] returns (cost, seq) instead of an [Opt] plan;
   [random_perm] is [Opt]'s. *)
module Annealing (C : Qo.Cost.S) = struct
  module I = Qo.Nl.Make (C)

  let random_perm st n =
    let a = Array.init n (fun i -> i) in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a

  let simulated_annealing ?(seed = 0) ?(steps = 20_000) ?(t0 = 50.0) ?(alpha = 0.999)
      (inst : I.t) =
    let n = I.n inst in
    if n = 0 then invalid_arg "Opt.simulated_annealing: empty instance";
    let st = Random.State.make [| seed; n; 23 |] in
    let seq = random_perm st n in
    let cur = ref (I.cost inst seq) in
    let best_cost = ref !cur in
    let best_seq = ref (Array.copy seq) in
    let temp = ref t0 in
    for _s = 1 to steps do
      let i = Random.State.int st n and j = Random.State.int st n in
      if i <> j then begin
        let tmp = seq.(i) in
        seq.(i) <- seq.(j);
        seq.(j) <- tmp;
        let c = I.cost inst seq in
        let accept =
          C.compare c !cur <= 0
          ||
          let d = C.to_log2 c -. C.to_log2 !cur in
          Random.State.float st 1.0 < Float.exp (-.d /. !temp)
        in
        if accept then begin
          cur := c;
          if C.compare c !best_cost < 0 then begin
            best_cost := c;
            best_seq := Array.copy seq
          end
        end
        else begin
          let tmp = seq.(i) in
          seq.(i) <- seq.(j);
          seq.(j) <- tmp
        end
      end;
      temp := !temp *. alpha
    done;
    (!best_cost, !best_seq)
end
