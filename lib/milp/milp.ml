(** MILP join ordering (Trummer–Koch, arXiv 1511.02071), solved by an
    exact [Bigq] branch-and-bound simplex.

    The formulation is the lattice shortest-path ILP: one 0/1 variable
    [y_{S,j}] per lattice arc [S -> S ∪ {j}] (join vertex [j] onto the
    already-joined set [S]), flow conservation from the empty set to
    the full set, and arc cost [c(S,j) = N(S) · min_{k∈S} w_{j,k}] —
    exactly the transition cost of {!Qo.Opt.Make.dp}, as an exact
    rational. Relaxing integrality leaves a min-cost-flow LP whose
    constraint matrix is a node–arc incidence matrix, hence totally
    unimodular: every basic optimal solution is already 0/1, so the
    branch-and-bound tree collapses to its root node in practice (the
    audit and the branching machinery are still real code, exercised
    by the tests on the root).

    {b Sequence identity with the DP.} [Opt.dp] breaks cost ties by
    keeping, at every subset, the {e smallest} last-joined vertex —
    its reconstructed sequence is the reversed-lexicographically
    smallest optimal sequence. We make that sequence the {e unique}
    LP optimum by solving over the ordered field ℚ(ε): every cost is
    a pair [(c, tie)] compared lexicographically, where the arc
    [S -> S ∪ {j}] carries tie weight [j · (n+1)^(|S|+1)]. Later
    positions dominate earlier ones and [n+1 > max j], so among
    cost-optimal paths the tie component orders them exactly by
    reversed sequence — the simplex optimum is bit-identical to the
    DP's plan, cost {e and} sequence, with no DP-style reconstruction
    pass.

    Rational domain only: the log-domain cost model multiplies by
    {e adding} log₂ floats, which is not a linear objective, so the
    registry advertises [milp] as rat-only. *)

open Bignum

(** Admission cap. The network simplex prices [n · 2^(n-1)] arcs per
    pivot with exact rational arithmetic and takes a few thousand
    pivots on dense instances (measured: ~1.3s at n=7, ~7s at n=8,
    roughly 10x per relation); past 9 relations the pivot work dwarfs
    every other solver in the portfolio, so serve and the CLI refuse
    larger instances up front (same contract as [Opt.max_dp_n]). *)
let max_milp_n = 9

(** Largest [n] the differential fuzz/property oracles exercise: big
    enough to cover every interesting lattice shape, small enough
    (~0.1s per solve) that a fuzz campaign stays interactive. *)
let diff_cap_n = 6

let c_runs = Obs.counter "milp.runs"
let c_pivots = Obs.counter "milp.pivots"
let c_arcs = Obs.counter "milp.arcs"
let c_bb_nodes = Obs.counter "milp.bb_nodes"

(* ℚ(ε): exact primary cost plus an infinitesimal tie weight, compared
   lexicographically. This is the standard way to make a degenerate LP
   optimum unique without perturbing the reported objective. *)
module Lex = struct
  type t = { c : Bigq.t; tie : Bigq.t }

  let make c tie = { c; tie }
  let zero = { c = Bigq.zero; tie = Bigq.zero }
  let add a b = { c = Bigq.add a.c b.c; tie = Bigq.add a.tie b.tie }
  let sub a b = { c = Bigq.sub a.c b.c; tie = Bigq.sub a.tie b.tie }
  let scale k a = { c = Bigq.mul k a.c; tie = Bigq.mul k a.tie }

  let compare a b =
    let k = Bigq.compare a.c b.c in
    if k <> 0 then k else Bigq.compare a.tie b.tie
end

exception Infeasible

(* The LP instance: dense arc-cost table over the subset lattice.
   Arc id [s * n + j] is the arc [s -> s lor (1 lsl j)]; ids are the
   fixed total order Bland's rule prices in. *)
type lp = {
  n : int;
  full : int;
  cost : Lex.t array; (* indexed by arc id; only ids with [j ∉ s] are live *)
  excluded : (int, unit) Hashtbl.t; (* arcs branched to zero (B&B children) *)
}

let arc_id lp s j = (s * lp.n) + j

let fin label = function
  | Qo.Rat_cost.Fin q -> q
  | Qo.Rat_cost.Inf -> invalid_arg (Printf.sprintf "Milp: non-finite %s" label)

(* Build the arc-cost table. N(S) and min_w replicate the DP's exact
   values (rational arithmetic is associative, so evaluation order is
   immaterial here, unlike the float log domain). *)
let build (inst : Qo.Instances.Nl_rat.t) =
  let module N = Qo.Instances.Nl_rat in
  let n = N.n inst in
  if n > max_milp_n then
    invalid_arg (Printf.sprintf "Milp: n=%d too large (max %d)" n max_milp_n);
  if n = 0 then invalid_arg "Milp: empty instance";
  let full = (1 lsl n) - 1 in
  let adj = Array.make n 0 in
  for v = 0 to n - 1 do
    Graphlib.Bitset.iter
      (fun u -> adj.(v) <- adj.(v) lor (1 lsl u))
      (Graphlib.Ugraph.neighbors inst.N.graph v)
  done;
  let lowest_bit m = m land -m in
  let bit_index = Graphlib.Bitset.bit_index in
  (* N(S) for every nonempty mask, as exact rationals *)
  let sizes = Array.make (full + 1) Bigq.one in
  for s = 1 to full do
    let b = lowest_bit s in
    let v = bit_index b in
    let rest = s lxor b in
    let acc = ref (Bigq.mul sizes.(rest) (fin "size" inst.N.sizes.(v))) in
    let common = ref (rest land adj.(v)) in
    while !common <> 0 do
      let ub = lowest_bit !common in
      acc := Bigq.mul !acc (fin "selectivity" inst.N.sel.(v).(bit_index ub));
      common := !common lxor ub
    done;
    sizes.(s) <- !acc
  done;
  let min_w j s =
    let best = ref None in
    let m = ref s in
    while !m <> 0 do
      let b = lowest_bit !m in
      let c = fin "access cost" inst.N.w.(j).(bit_index b) in
      (match !best with
      | Some x when Bigq.compare x c <= 0 -> ()
      | _ -> best := Some c);
      m := !m lxor b
    done;
    match !best with Some c -> c | None -> invalid_arg "Milp: empty min_w scan"
  in
  let base = Bigq.of_int (n + 1) in
  let cost = Array.make ((full + 1) * n) Lex.zero in
  let live = ref 0 in
  for s = 0 to full do
    for j = 0 to n - 1 do
      if s land (1 lsl j) = 0 then begin
        incr live;
        (* primary: the DP transition cost (0 for the first relation);
           tie: j weighted by the 1-based position it would occupy *)
        let k = ref 0 and m = ref s in
        while !m <> 0 do
          incr k;
          m := !m land (!m - 1)
        done;
        let primary = if s = 0 then Bigq.zero else Bigq.mul sizes.(s) (min_w j s) in
        let tie = Bigq.mul (Bigq.of_int j) (Bigq.pow base (!k + 1)) in
        cost.((s * n) + j) <- Lex.make primary tie
      end
    done
  done;
  Obs.add c_arcs !live;
  { n; full; cost; excluded = Hashtbl.create 7 }

(* ---------------- exact primal network simplex ----------------

   Basis = spanning tree of the lattice flow network (nodes are the
   2^n subset masks, the empty set doubling as the source). Entering
   arc: Bland's rule — the smallest arc id with negative reduced cost
   — which guarantees finite termination under the heavy degeneracy
   of shortest-path LPs; leaving arc: smallest arc id among the
   flow-minimal reverse arcs on the pivot cycle (Bland again). *)

type tree = {
  lp : lp;
  parent : int array; (* tree parent of each node; -1 for the root 0 *)
  e_tail : int array; (* tree arc of node v: tail mask ... *)
  e_j : int array; (* ... and joined vertex (head = tail lor 1<<j) *)
  flow : Bigq.t array; (* flow on the tree arc of v (either direction) *)
  pot : Lex.t array; (* node potentials; exact *)
  depth : int array;
}

(* Recompute depths and potentials from the parent structure, root
   first. O(nodes) per pivot — at the admission cap that is 1024 exact
   additions, far below the pricing scan it accompanies. *)
let refresh t =
  let nodes = t.lp.full + 1 in
  let head v = t.e_tail.(v) lor (1 lsl t.e_j.(v)) in
  let kids = Array.make nodes [] in
  for v = 1 to nodes - 1 do
    kids.(t.parent.(v)) <- v :: kids.(t.parent.(v))
  done;
  let stack = ref [ 0 ] in
  t.depth.(0) <- 0;
  t.pot.(0) <- Lex.zero;
  while !stack <> [] do
    let p = List.hd !stack in
    stack := List.tl !stack;
    List.iter
      (fun v ->
        t.depth.(v) <- t.depth.(p) + 1;
        let c = t.lp.cost.(arc_id t.lp t.e_tail.(v) t.e_j.(v)) in
        (* arc points tail -> head; the tree edge of v connects v and
           p, so the potential update direction depends on which
           endpoint is the arc head *)
        t.pot.(v) <- (if head v = v then Lex.add t.pot.(p) c else Lex.sub t.pot.(p) c);
        stack := v :: !stack)
      kids.(p)
  done

(* Initial basis: the in-tree hanging every mask off itself minus its
   lowest admissible bit, carrying one unit of flow along the tree
   path from the empty set to the full set. *)
let initial_tree lp =
  let nodes = lp.full + 1 in
  let t =
    {
      lp;
      parent = Array.make nodes (-1);
      e_tail = Array.make nodes 0;
      e_j = Array.make nodes 0;
      flow = Array.make nodes Bigq.zero;
      pot = Array.make nodes Lex.zero;
      depth = Array.make nodes 0;
    }
  in
  for v = 1 to nodes - 1 do
    let j = ref (-1) and m = ref v in
    while !j < 0 && !m <> 0 do
      let b = !m land - !m in
      let cand =
        let i = ref 0 and x = ref b in
        while !x land 1 = 0 do
          incr i;
          x := !x lsr 1
        done;
        !i
      in
      if not (Hashtbl.mem lp.excluded (arc_id lp (v lxor b) cand)) then j := cand
      else m := !m lxor b
    done;
    if !j < 0 then raise Infeasible;
    t.parent.(v) <- v lxor (1 lsl !j);
    t.e_tail.(v) <- t.parent.(v);
    t.e_j.(v) <- !j
  done;
  (* route the unit of supply: mark the full set's ancestor chain *)
  let v = ref lp.full in
  while !v <> 0 do
    t.flow.(!v) <- Bigq.one;
    v := t.parent.(!v)
  done;
  refresh t;
  t

(* Bland pricing: first live arc (by id) with negative reduced cost. *)
let find_entering t =
  let lp = t.lp in
  let entering = ref None in
  (try
     for s = 0 to lp.full - 1 do
       for j = 0 to lp.n - 1 do
         if s land (1 lsl j) = 0 then begin
           let id = arc_id lp s j in
           if not (Hashtbl.mem lp.excluded id) then begin
             let h = s lor (1 lsl j) in
             (* tree arcs price to exactly zero (refresh makes them
                tight), so they never enter *)
             let rc = Lex.sub (Lex.add lp.cost.(id) t.pot.(s)) t.pot.(h) in
             if Lex.compare rc Lex.zero < 0 then begin
               entering := Some (s, j);
               raise Exit
             end
           end
         end
       done
     done
   with Exit -> ());
  !entering

let pivot t (u, j) =
  let lp = t.lp in
  let h = u lor (1 lsl j) in
  let head v = t.e_tail.(v) lor (1 lsl t.e_j.(v)) in
  (* the pivot cycle: entering arc u -> h, plus the tree path h .. lca
     .. u. [delta v = -1] when the cycle traverses v's tree arc
     against its direction (those arcs bound the push). *)
  let side_h = ref [] and side_u = ref [] in
  let a = ref h and b = ref u in
  while t.depth.(!a) > t.depth.(!b) do
    side_h := !a :: !side_h;
    a := t.parent.(!a)
  done;
  while t.depth.(!b) > t.depth.(!a) do
    side_u := !b :: !side_u;
    b := t.parent.(!b)
  done;
  while !a <> !b do
    side_h := !a :: !side_h;
    side_u := !b :: !side_u;
    a := t.parent.(!a);
    b := t.parent.(!b)
  done;
  let delta v ~on_h_side =
    let enters_v = head v = v in
    if on_h_side then if enters_v then -1 else 1 else if enters_v then 1 else -1
  in
  (* leaving arc: flow-minimal among the reverse arcs, smallest arc id
     on ties (Bland); a cycle in a DAG always has a reverse arc *)
  let leaving = ref (-1) and theta = ref None in
  let consider ~on_h_side v =
    if delta v ~on_h_side = -1 then begin
      let better =
        match !theta with
        | None -> true
        | Some th ->
            let k = Bigq.compare t.flow.(v) th in
            k < 0
            || k = 0
               && arc_id lp t.e_tail.(v) t.e_j.(v)
                  < arc_id lp t.e_tail.(!leaving) t.e_j.(!leaving)
      in
      if better then begin
        theta := Some t.flow.(v);
        leaving := v
      end
    end
  in
  List.iter (consider ~on_h_side:true) !side_h;
  List.iter (consider ~on_h_side:false) !side_u;
  let theta =
    match !theta with
    | Some th -> th
    | None -> failwith "Milp: unbounded pivot cycle (impossible in a DAG)"
  in
  let leaving = !leaving in
  (* push theta around the cycle (degenerate pivots push zero) *)
  if Bigq.sign theta > 0 then begin
    List.iter
      (fun v ->
        let d = delta v ~on_h_side:true in
        t.flow.(v) <- (if d = 1 then Bigq.add t.flow.(v) theta else Bigq.sub t.flow.(v) theta))
      !side_h;
    List.iter
      (fun v ->
        let d = delta v ~on_h_side:false in
        t.flow.(v) <- (if d = 1 then Bigq.add t.flow.(v) theta else Bigq.sub t.flow.(v) theta))
      !side_u
  end;
  (* basis exchange: drop [leaving]'s tree arc, re-hang its subtree
     from the entering arc. Exactly one entering endpoint is inside
     the detached subtree; reverse the parent chain from it up to
     [leaving]. *)
  let in_subtree x =
    let v = ref x and hit = ref false in
    while (not !hit) && !v <> -1 do
      if !v = leaving then hit := true else v := t.parent.(!v)
    done;
    !hit
  in
  let e_in, _e_out = if in_subtree u then (u, h) else (h, u) in
  (* path_down = [e_in; parent(e_in); ...; leaving] *)
  let path_down =
    let rec climb acc v =
      let acc = v :: acc in
      if v = leaving then List.rev acc else climb acc t.parent.(v)
    in
    climb [] e_in
  in
  (* snapshot every edge on the chain before any overwrite: each node's
     old edge is exactly the edge to its old parent, which the parent
     inherits once the chain reverses *)
  let olds = List.map (fun x -> (x, t.e_tail.(x), t.e_j.(x), t.flow.(x))) path_down in
  let rec rehang = function
    | (x, tl, jj, fl) :: ((p, _, _, _) :: _ as rest) ->
        t.parent.(p) <- x;
        t.e_tail.(p) <- tl;
        t.e_j.(p) <- jj;
        t.flow.(p) <- fl;
        rehang rest
    | _ -> ()
  in
  rehang olds;
  t.parent.(e_in) <- (if e_in = u then h else u);
  t.e_tail.(e_in) <- u;
  t.e_j.(e_in) <- j;
  t.flow.(e_in) <- theta;
  refresh t;
  Obs.incr c_pivots

let optimize lp =
  let t = initial_tree lp in
  let rec loop () =
    match find_entering t with
    | None -> ()
    | Some arc ->
        pivot t arc;
        loop ()
  in
  loop ();
  t

(* ---------------- solution extraction + branch and bound -------- *)

(* Flow-carrying arcs [(tail, j, flow)] and the primal objective. With
   the unit flows the audit enforces, the objective is the plain sum
   of the arc costs on the path. *)
let extract t =
  let lp = t.lp in
  let arcs = ref [] and obj = ref Lex.zero in
  for v = 1 to lp.full do
    if Bigq.sign t.flow.(v) > 0 then begin
      arcs := (t.e_tail.(v), t.e_j.(v), t.flow.(v)) :: !arcs;
      obj :=
        Lex.add !obj (Lex.scale t.flow.(v) lp.cost.(arc_id lp t.e_tail.(v) t.e_j.(v)))
    end
  done;
  (!obj, !arcs)

(* A 0/1 basic flow decodes to a join sequence: one arc per lattice
   layer, [seq.(|tail|) = j]. Returns [None] when any flow is
   fractional — the branching trigger. *)
let decode n (arcs : (int * int * Bigq.t) list) =
  let popcount m =
    let c = ref 0 and v = ref m in
    while !v <> 0 do
      incr c;
      v := !v land (!v - 1)
    done;
    !c
  in
  if List.exists (fun (_, _, f) -> not (Bigq.equal f Bigq.one)) arcs then None
  else if List.length arcs <> n then None
  else begin
    let seq = Array.make n (-1) in
    List.iter (fun (s, j, _) -> seq.(popcount s) <- j) arcs;
    if Array.exists (fun v -> v < 0) seq then None else Some seq
  end

(** Exact optimum of the MILP. Bit-identical to {!Qo.Instances.Opt_rat.dp}
    — cost and sequence — on every admissible instance; the registry's
    differential oracles enforce exactly that. [?pool] is accepted for
    signature compatibility with the solver registry; the simplex is
    sequential. *)
let solve ?pool (inst : Qo.Instances.Nl_rat.t) : Qo.Instances.Opt_rat.plan =
  ignore (pool : Pool.t option);
  Obs.incr c_runs;
  Obs.span "milp.solve" @@ fun () ->
  let lp = build inst in
  (* Best-first branch and bound over arc-exclusion sets. The LP
     relaxation is integral (totally unimodular incidence matrix), so
     the root solves the MILP outright; the loop below is the honest
     general shell around that fact, and the audit in [decode] is what
     would trigger branching. *)
  let best = ref None in
  let queue = Queue.create () in
  Queue.add [] queue;
  while not (Queue.is_empty queue) do
    let excl = Queue.pop queue in
    Obs.incr c_bb_nodes;
    List.iter (fun id -> Hashtbl.replace lp.excluded id ()) excl;
    (match (try Some (optimize lp) with Infeasible -> None) with
    | None -> ()
    | Some t ->
        let obj, arcs = extract t in
        let dominated =
          match !best with Some (b, _) -> Lex.compare obj b >= 0 | None -> false
        in
        if not dominated then begin
          match decode lp.n arcs with
          | Some seq -> best := Some (obj, seq)
          | None ->
              (* fractional: dichotomize on the first fractional arc —
                 exclude it, or exclude every competing arc at its
                 endpoints. Unreachable while the matrix stays TU. *)
              let s, j, _ =
                List.find (fun (_, _, f) -> not (Bigq.equal f Bigq.one)) arcs
              in
              let h = s lor (1 lsl j) in
              let competing = ref [] in
              for s' = 0 to lp.full - 1 do
                for j' = 0 to lp.n - 1 do
                  if s' land (1 lsl j') = 0 && (s', j') <> (s, j) then
                    if s' lor (1 lsl j') = h || s' = s then
                      competing := arc_id lp s' j' :: !competing
                done
              done;
              Queue.add (arc_id lp s j :: excl) queue;
              Queue.add (!competing @ excl) queue
        end);
    List.iter (fun id -> Hashtbl.remove lp.excluded id) excl
  done;
  match !best with
  | None -> invalid_arg "Milp: infeasible instance"
  | Some (obj, seq) -> { Qo.Instances.Opt_rat.cost = Qo.Rat_cost.of_bigq obj.Lex.c; seq }
