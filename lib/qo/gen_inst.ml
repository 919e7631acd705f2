(** Random and structured [QO_N] instance generators.

    Shared by the tests, the examples, the CLI, the benchmarks and the
    fuzzer. Generators come in two cost domains; the rational ones
    produce instances that fit exact arithmetic (for cross-validation),
    the log-domain ones scale to arbitrary magnitudes. All generators
    respect the access-path constraints [t_j s_jk <= w_jk <= t_j]
    (validated by [Nl.make]).

    One functor ({!Core}) holds the generation logic; {!R} and {!L} are
    thin instantiations that differ only in how a single scalar is
    drawn. The draw {e order} (sizes, then one selectivity per edge,
    then the access-cost matrix row-major) and the per-shape seed salts
    are part of the contract: a given [(shape, seed)] pair must keep
    producing the same instance across refactors, because committed
    fuzz-corpus entries and experiment tables are derived from them. *)

(** The per-domain scalar draws. Each function consumes exactly one
    [Random.State] draw, so both domains walk the same stream. *)
type 'c draws = {
  draw_size : Random.State.t -> 'c;
  draw_sel : Random.State.t -> 'c;
  draw_w : Random.State.t -> lo:'c -> t:'c -> 'c;
      (** access cost for an edge, somewhere in [[t*s, t]] = [[lo, t]] *)
}

(** The generation logic, written once over the cost domain. *)
module Core (C : Cost.S) = struct
  module I = Nl.Make (C)

  (* Fill sizes/sel/w over a fixed graph from the state salted by
     [(seed, n, salt)]. Draw order: sizes 0..n-1, one sel per edge
     (Ugraph.edges order), then w row-major over adjacent ordered pairs. *)
  let over_graph ~seed ~salt ~graph d =
    let n = Graphlib.Ugraph.vertex_count graph in
    let st = Random.State.make [| seed; n; salt |] in
    let sizes = Array.init n (fun _ -> d.draw_size st) in
    let sel = Array.make_matrix n n C.one in
    List.iter
      (fun (i, j) ->
        let s = d.draw_sel st in
        sel.(i).(j) <- s;
        sel.(j).(i) <- s)
      (Graphlib.Ugraph.edges graph);
    let w =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i <> j && Graphlib.Ugraph.has_edge graph i j then
                d.draw_w st ~lo:(C.mul sizes.(i) sel.(i).(j)) ~t:sizes.(i)
              else sizes.(i)))
    in
    I.make ~graph ~sel ~sizes ~w
end

(* [grid_dims n]: the most-square rows*cols factorization of [n]
   (rows <= cols); prime n degrades to a 1 x n chain. The grid shape
   of [of_shape], which only knows a vertex count. *)
let grid_dims n =
  if n < 1 then invalid_arg "Gen_inst.grid_dims: need n >= 1";
  let rows = ref 1 in
  let r = ref 1 in
  while !r * !r <= n do
    if n mod !r = 0 then rows := !r;
    incr r
  done;
  (!rows, n / !rows)

(* A random tree plus [extra] random chords drawn from [salt] — the
   family Section 6.3 identifies as the frontier of tractability. *)
let tree_plus_graph ~seed ~n ~extra ~salt =
  let g = Graphlib.Gen.random_tree ~seed ~n in
  let st = Random.State.make [| seed; n; extra; salt |] in
  let budget = ref extra in
  let attempts = ref (20 * (extra + 1)) in
  while !budget > 0 && !attempts > 0 do
    decr attempts;
    let i = Random.State.int st n and j = Random.State.int st n in
    if i <> j && not (Graphlib.Ugraph.has_edge g i j) then begin
      Graphlib.Ugraph.add_edge g i j;
      decr budget
    end
  done;
  g

(* -------------------- shapes by name -------------------- *)

(** The query-graph shapes the fuzzer, the trace generator and the
    CLI's [--shape] build by name. *)
type shape = Random | Tree | Chain | Star | Cycle | Grid | Clique | Tree_plus

(** Every shape under its name, in the fuzzer's draw order (the index
    drawn from the fuzz case stream picks from this list). *)
let shapes =
  [
    ("random", Random);
    ("tree", Tree);
    ("chain", Chain);
    ("star", Star);
    ("cycle", Cycle);
    ("grid", Grid);
    ("clique", Clique);
    ("treeplus", Tree_plus);
  ]

let shape_name shape = fst (List.find (fun (_, s) -> s = shape) shapes)

(** The fewest relations a shape is defined on: a cycle needs 3. *)
let min_n = function Cycle -> 3 | _ -> 1

(* The named-shape generators, written once over a domain's G(n,p)
   [random], its [over_graph] and its chord salt. *)
module Shapes (D : sig
  type t

  val random : seed:int -> n:int -> p:float -> t
  val over_graph : seed:int -> graph:Graphlib.Ugraph.t -> t
  val chord_salt : int
end) =
struct
  (** Random tree query (for the Ibaraki–Kameda boundary). *)
  let tree ~seed ~n () = D.over_graph ~seed ~graph:(Graphlib.Gen.random_tree ~seed ~n)

  (** Chain (path) query. *)
  let chain ~seed ~n () = D.over_graph ~seed ~graph:(Graphlib.Gen.path n)

  (** Star query. *)
  let star ~seed ~satellites () = D.over_graph ~seed ~graph:(Graphlib.Gen.star satellites)

  (** Cycle query (n >= 3). *)
  let cycle ~seed ~n () = D.over_graph ~seed ~graph:(Graphlib.Gen.cycle n)

  (** [rows * cols] mesh query — the bounded-degree family. *)
  let grid ~seed ~rows ~cols () = D.over_graph ~seed ~graph:(Graphlib.Gen.grid ~rows ~cols)

  (** Complete query graph — every pair joined by a predicate. *)
  let clique ~seed ~n () = D.over_graph ~seed ~graph:(Graphlib.Ugraph.complete n)

  (** A tree query plus [extra] random chords. *)
  let tree_plus ~seed ~n ~extra () =
    D.over_graph ~seed ~graph:(tree_plus_graph ~seed ~n ~extra ~salt:D.chord_salt)

  (** The instance a named shape stands for at [n] relations (n >=
      {!min_n}): random is G(n, 0.5), star has [n - 1] satellites, grid
      is [grid_dims n], treeplus has 2 chords. *)
  let of_shape ~seed ~n = function
    | Random -> D.random ~seed ~n ~p:0.5
    | Tree -> tree ~seed ~n ()
    | Chain -> chain ~seed ~n ()
    | Star -> star ~seed ~satellites:(n - 1) ()
    | Cycle -> cycle ~seed ~n ()
    | Grid ->
        let rows, cols = grid_dims n in
        grid ~seed ~rows ~cols ()
    | Clique -> clique ~seed ~n ()
    | Tree_plus -> tree_plus ~seed ~n ~extra:2 ()
end

(* -------------------- rational domain -------------------- *)

module R = struct
  module I = Instances.Nl_rat
  module C = Rat_cost
  module G = Core (Rat_cost)

  (* sizes in [1, max_size], selectivities 1/k with k <= max_inv_sel,
     access costs uniform-ish in the legal range (one uniform draw,
     clamped into [t*s, t]). *)
  let draws ?(max_size = 1000) ?(max_inv_sel = 50) () =
    {
      draw_size = (fun st -> C.of_int (1 + Random.State.int st max_size));
      draw_sel = (fun st -> C.of_ints 1 (1 + Random.State.int st max_inv_sel));
      draw_w =
        (fun st ~lo ~t ->
          let mid = C.of_int (1 + Random.State.int st max_size) in
          C.min t (C.max lo mid));
    }

  (** [random ~seed ~n ~p ?max_size ?max_inv_sel ()]: G(n,p) query
      graph, sizes in [1, max_size], selectivities [1/k] with
      [k <= max_inv_sel]. *)
  let random ~seed ~n ~p ?max_size ?max_inv_sel () =
    G.over_graph ~seed ~salt:101 ~graph:(Graphlib.Gen.gnp ~seed ~n ~p)
      (draws ?max_size ?max_inv_sel ())

  (** Random instance over a given query graph. *)
  let over_graph ~seed ~graph ?max_size ?max_inv_sel () =
    G.over_graph ~seed ~salt:103 ~graph (draws ?max_size ?max_inv_sel ())

  include Shapes (struct
    type t = I.t

    let random ~seed ~n ~p = random ~seed ~n ~p ()
    let over_graph ~seed ~graph = over_graph ~seed ~graph ()
    let chord_salt = 107
  end)
end

(* -------------------- log domain -------------------- *)

module L = struct
  module I = Instances.Nl_log
  module C = Log_cost
  module G = Core (Log_cost)

  (* sizes up to 2^max_log2_size, selectivities down to
     2^-max_log2_inv_sel, access costs uniform in log space between the
     bounds. *)
  let draws ?(max_log2_size = 24.0) ?(max_log2_inv_sel = 8.0) () =
    {
      draw_size = (fun st -> C.of_log2 (1.0 +. Random.State.float st max_log2_size));
      draw_sel = (fun st -> C.of_log2 (-.Random.State.float st max_log2_inv_sel));
      draw_w =
        (fun st ~lo ~t ->
          let frac = Random.State.float st 1.0 in
          C.of_log2 (C.to_log2 lo +. (frac *. (C.to_log2 t -. C.to_log2 lo))));
    }

  (** Log-domain mirror of {!R.over_graph}, with sizes up to
      [2^max_log2_size]. *)
  let over_graph ~seed ~graph ?max_log2_size ?max_log2_inv_sel () =
    G.over_graph ~seed ~salt:109 ~graph (draws ?max_log2_size ?max_log2_inv_sel ())

  let random ~seed ~n ~p ?max_log2_size ?max_log2_inv_sel () =
    over_graph ~seed ~graph:(Graphlib.Gen.gnp ~seed ~n ~p) ?max_log2_size ?max_log2_inv_sel ()

  include Shapes (struct
    type t = I.t

    let random ~seed ~n ~p = random ~seed ~n ~p ()
    let over_graph ~seed ~graph = over_graph ~seed ~graph ()
    let chord_salt = 113
  end)
end
