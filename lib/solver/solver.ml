(* First-class solver registry. See solver.mli for the contract.

   Every algorithm the repo exposes — CLI --algo values, serve
   algo= tokens, fuzz differential oracles, E9 competitive-ratio
   columns — is one [entry] in [all] below. The five former dispatch
   sites (bin/qopt.ml optimize/explain, lib/serve parse + admission +
   engines, lib/fuzz registry oracles, lib/harness E9) consume the registry, so
   adding a solver is: write the module, append an entry here. The
   drift bugs this kills were real: the CLI used to call the lattice
   DP "lattice" while serve called it "dp", and serve's unknown-algo
   message hardcoded a stale name list. *)

type exactness = Unconstrained | Cartesian_free

type budget =
  | B_heuristic
  | B_lattice
  | B_csg
  | B_dense_then_csg of int

type entry = {
  name : string;
  aliases : string list;
  label : string;
  explain_label : string;
  doc : string;
  exact : exactness option;
  cap_name : string;
  cap : int;
  interactive_cap : int option;
  budget : budget;
  diff_cap : int;
  in_cli : bool;
  solve_rat : ?pool:Pool.t -> Qo.Instances.Nl_rat.t -> Qo.Instances.Opt_rat.plan;
  solve_log :
    (?pool:Pool.t -> Qo.Instances.Nl_log.t -> Qo.Instances.Opt_log.plan) option;
  preamble_rat : (Qo.Instances.Nl_rat.t -> string) option;
  preamble_log : (Qo.Instances.Nl_log.t -> string) option;
}

let csg_preamble count n = Printf.sprintf "connected subsets: %d of 2^%d\n" count n

(* The list order is the public order: error messages, --algo docs and
   per-oracle fuzz rows all enumerate in registry order, so keep the
   seed portfolio (dp ccp conv greedy sa) first for byte-stable
   transcripts and append new entrants at the end. *)
let all =
  let module NR = Qo.Instances.Nl_rat in
  let module NL = Qo.Instances.Nl_log in
  let module OR = Qo.Instances.Opt_rat in
  let module OL = Qo.Instances.Opt_log in
  let module CR = Qo.Instances.Ccp_rat in
  let module CL = Qo.Instances.Ccp_log in
  [
    {
      name = "dp";
      aliases = [ "lattice" ];
      label = "exact (subset DP)";
      explain_label = "exact subset DP";
      doc =
        "subset DP over all $(i,2^n) subsets of the relation lattice \
         (alias: $(b,lattice))";
      exact = Some Unconstrained;
      cap_name = "Opt.max_dp_n";
      cap = OR.max_dp_n;
      (* the one-shot CLI skips the lattice past 22 relations (a ~35s
         sequential solve) even though serve admits max_dp_n = 23 *)
      interactive_cap = Some 22;
      budget = B_lattice;
      diff_cap = 12;
      in_cli = true;
      solve_rat = (fun ?pool i -> OR.dp ?pool i);
      solve_log = Some (fun ?pool i -> OL.dp ?pool i);
      preamble_rat = None;
      preamble_log = None;
    };
    {
      name = "ccp";
      aliases = [];
      label = "exact CF (connected DP)";
      explain_label = "exact CF connected DP";
      doc =
        "connected-subgraph DP, same plan bit-for-bit, table sized by the number \
         of connected subsets — use it on sparse graphs past the lattice limit";
      exact = Some Cartesian_free;
      cap_name = "Ccp.max_ccp_n";
      cap = CR.max_ccp_n;
      interactive_cap = None;
      budget = B_csg;
      diff_cap = 12;
      in_cli = true;
      solve_rat = (fun ?pool i -> CR.dp_connected ?pool i);
      solve_log = Some (fun ?pool i -> CL.dp_connected ?pool i);
      preamble_rat = Some (fun i -> csg_preamble (CR.csg_count i) (NR.n i));
      preamble_log = Some (fun i -> csg_preamble (CL.csg_count i) (NL.n i));
    };
    {
      name = "conv";
      aliases = [];
      label = "exact CV (subset convolution)";
      explain_label = "exact CV subset convolution";
      doc =
        "max-plus subset convolution: the cartesian-free lattice DP up to \
         $(i,n) = 23, connected DP beyond — same plan bit-for-bit at any \
         admissible $(i,n)";
      (* both regimes are cartesian-free solvers *)
      exact = Some Cartesian_free;
      cap_name = "Conv.max_conv_n";
      cap = Qo.Instances.Conv_rat.max_conv_n;
      interactive_cap = None;
      budget = B_dense_then_csg Qo.Instances.Conv_rat.dense_max_n;
      diff_cap = 12;
      in_cli = true;
      solve_rat = (fun ?pool i -> Qo.Instances.Conv_rat.solve ?pool i);
      solve_log = Some (fun ?pool i -> Qo.Instances.Conv_log.solve ?pool i);
      preamble_rat = None;
      preamble_log = None;
    };
    {
      name = "greedy";
      aliases = [];
      label = "greedy (min cost)";
      explain_label = "greedy min-cost";
      doc = "greedy min-cost heuristic (serve-only; the optimize portfolio always prints it)";
      exact = None;
      cap_name = "Io.max_parse_n";
      cap = Qo.Io.max_parse_n;
      interactive_cap = None;
      budget = B_heuristic;
      diff_cap = 12;
      in_cli = false;
      solve_rat = (fun ?pool i -> ignore pool; OR.greedy ~mode:OR.Min_cost i);
      solve_log = Some (fun ?pool i -> ignore pool; OL.greedy ~mode:OL.Min_cost i);
      preamble_rat = None;
      preamble_log = None;
    };
    {
      name = "sa";
      aliases = [];
      label = "simulated anneal";
      explain_label = "simulated annealing";
      doc = "simulated annealing (serve-only; the optimize portfolio always prints it)";
      exact = None;
      cap_name = "Io.max_parse_n";
      cap = Qo.Io.max_parse_n;
      interactive_cap = None;
      budget = B_heuristic;
      diff_cap = 12;
      in_cli = false;
      solve_rat = (fun ?pool i -> ignore pool; OR.simulated_annealing i);
      solve_log = Some (fun ?pool i -> ignore pool; OL.simulated_annealing i);
      preamble_rat = None;
      preamble_log = None;
    };
    {
      name = "simpli";
      aliases = [];
      label = "simpli2 (structural)";
      explain_label = "Simpli-Squared structural order";
      doc =
        "Simpli-Squared (arXiv 2111.00163): cardinality-free join order computed \
         from the query-graph structure alone, priced once under the cost model";
      exact = None;
      cap_name = "Io.max_parse_n";
      cap = Qo.Io.max_parse_n;
      interactive_cap = None;
      budget = B_heuristic;
      diff_cap = 12;
      in_cli = true;
      solve_rat = (fun ?pool i -> ignore pool; Qo.Instances.Simpli_rat.solve i);
      solve_log = Some (fun ?pool i -> ignore pool; Qo.Instances.Simpli_log.solve i);
      preamble_rat = None;
      preamble_log = None;
    };
    {
      name = "milp";
      aliases = [];
      label = "exact MILP (simplex)";
      explain_label = "exact MILP simplex";
      doc =
        "Trummer–Koch MILP formulation (arXiv 1511.02071) solved by an exact \
         rational branch-and-bound network simplex — bit-identical to $(b,dp), \
         rational domain only, small $(i,n)";
      exact = Some Unconstrained;
      cap_name = "Milp.max_milp_n";
      cap = Milp.max_milp_n;
      interactive_cap = Some Milp.max_milp_n;
      (* the simplex prices the full arc lattice, so the dp lattice
         work model is the honest (under-)estimate for budgets *)
      budget = B_lattice;
      diff_cap = Milp.diff_cap_n;
      in_cli = true;
      solve_rat = (fun ?pool i -> Milp.solve ?pool i);
      solve_log = None;
      preamble_rat = None;
      preamble_log = None;
    };
  ]

let find s =
  List.find_opt (fun e -> e.name = s || List.mem s e.aliases) all

let names = List.map (fun e -> e.name) all
let expected_names = String.concat "|" names

let cli_choices =
  List.concat_map
    (fun e ->
      if not e.in_cli then []
      else (e.name, e) :: List.map (fun a -> (a, e)) e.aliases)
    all

(* Escape-hatch suggestion for admission-skip messages: the exact
   solvers that admit strictly more relations than [e] does. For the
   lattice DP this renders the historical "ccp or conv". *)
let hint e =
  match
    List.filter_map
      (fun o -> if o.exact <> None && o.cap > e.cap then Some o.name else None)
      all
  with
  | [] -> "a heuristic algo"
  | names -> String.concat " or " names

module type DOMAIN = sig
  val name : string

  module C : Qo.Cost.S
  module I : module type of struct include Qo.Nl.Make (C) end
  module O : module type of struct include Qo.Opt.Make (C) end
  module Ccp : module type of struct include Qo.Ccp.Make (C) end

  val parse_canonical : string -> I.t * string
  val dump : I.t -> string
  val to_log2 : C.t -> float
  val solve : entry -> (?pool:Pool.t -> I.t -> O.plan) option
  val preamble : entry -> (I.t -> string) option
end

module Rat = struct
  let name = "rat"

  module C = Qo.Rat_cost
  module I = Qo.Instances.Nl_rat
  module O = Qo.Instances.Opt_rat
  module Ccp = Qo.Instances.Ccp_rat

  let parse_canonical = Qo.Io.parse_rat_canonical
  let dump = Qo.Io.dump_rat
  let to_log2 = C.to_log2
  let solve e = Some e.solve_rat
  let preamble e = e.preamble_rat
end

module Log = struct
  let name = "log"

  module C = Qo.Log_cost
  module I = Qo.Instances.Nl_log
  module O = Qo.Instances.Opt_log
  module Ccp = Qo.Instances.Ccp_log

  let parse_canonical = Qo.Io.parse_log_canonical
  let dump = Qo.Io.dump_log
  let to_log2 = C.to_log2
  let solve e = e.solve_log
  let preamble e = e.preamble_log
end
