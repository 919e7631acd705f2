(** First-class solver registry.

    One {!entry} per algorithm; {!all} is the single source of truth
    consumed by every former dispatch site:

    - the CLI [--algo] enum ({!cli_choices}) and its skip hints ({!hint});
    - serve's request parser ({!find}, {!expected_names}), admission
      table ([cap_name]/[cap]) and work-model budgets ([budget]);
    - the fuzz differential-oracle generator (exact entrants are
      cross-checked bit-identically against [Opt.dp] up to [diff_cap],
      heuristic entrants get an optimality lower-bound oracle);
    - experiment E9's competitive-ratio table (heuristic entrants
      priced against the exact optimum on the hard [f_N] family).

    Adding a solver is: write its module, append an entry to {!all} in
    solver.ml. Everything above picks it up with no further edits. *)

(** What an exact entry promises about its plans. [Unconstrained]
    entries agree bit-for-bit with [Opt.dp] over the full subset
    lattice; [Cartesian_free] entries agree with [Opt.dp_no_cartesian]
    (they never emit cartesian products, and may reject disconnected
    query graphs). *)
type exactness = Unconstrained | Cartesian_free

(** Deterministic work model backing serve's [budget_ms] admission:
    budgets compare against modelled transition counts, never wall
    clocks, so exact-vs-approximate decisions are reproducible. *)
type budget =
  | B_heuristic  (** effectively instant; never over budget *)
  | B_lattice  (** [n * 2^n] lattice transitions *)
  | B_csg  (** connected-subset count, measured by bounded enumeration *)
  | B_dense_then_csg of int
      (** lattice model up to the given [n], csg model past it *)

type entry = {
  name : string;  (** canonical name: CLI value, serve token, report key *)
  aliases : string list;  (** accepted everywhere, canonicalized in reports *)
  label : string;  (** plan-line label ([render_plan]) in portfolio and serve *)
  explain_label : string;  (** label inside [qopt explain]'s headline *)
  doc : string;  (** one-line Cmdliner fragment for the [--algo] doc string *)
  exact : exactness option;  (** [None] = heuristic (no optimality claim) *)
  cap_name : string;  (** source-of-truth constant name, for error messages *)
  cap : int;  (** serve admission cap: largest accepted [n] *)
  interactive_cap : int option;
      (** one-shot CLI cap: past it, [qopt optimize] prints a skip line
          instead of running (exponential solvers only) *)
  budget : budget;
  diff_cap : int;  (** largest [n] the fuzz/property differential oracles run *)
  in_cli : bool;  (** listed in the [--algo] enum of optimize/explain *)
  solve_rat : ?pool:Pool.t -> Qo.Instances.Nl_rat.t -> Qo.Instances.Opt_rat.plan;
  solve_log :
    (?pool:Pool.t -> Qo.Instances.Nl_log.t -> Qo.Instances.Opt_log.plan) option;
      (** [None] = rational-domain only (e.g. MILP: log-domain cost is
          not a linear objective) *)
  preamble_rat : (Qo.Instances.Nl_rat.t -> string) option;
      (** extra line(s) the CLI prints before solving (ccp's csg count) *)
  preamble_log : (Qo.Instances.Nl_log.t -> string) option;
}

val all : entry list
(** Registry order is public order: error messages, CLI docs and fuzz
    rows enumerate in this order (seed portfolio first, newest last). *)

val find : string -> entry option
(** Resolve a canonical name or alias. *)

val names : string list
(** Canonical names, registry order. *)

val expected_names : string
(** ["dp|ccp|conv|..."] — the token list for parser error messages. *)

val cli_choices : (string * entry) list
(** [(value, entry)] pairs for the CLI [--algo] enum: every [in_cli]
    entry under its canonical name and each alias. *)

val hint : entry -> string
(** ["ccp or conv"]-style suggestion naming the exact solvers that
    admit strictly larger instances than [e] — rendered into
    admission-skip messages. *)

(** {1 Cost domains}

    The cost function [QO_N] is evaluated in two domains: exact
    rationals ({!Rat}, for cross-validation) and log2 reals ({!Log},
    for reduction instances whose sizes overflow everything else).
    Every consumer of the registry — serve's engine, the fuzz oracles,
    the CLI portfolio — is written once as a functor over {!DOMAIN}
    and applied to the two instances below, instead of as a hand-made
    rat/log pair. *)
module type DOMAIN = sig
  val name : string  (** ["rat"] or ["log"]: serve's [domain=] token *)

  module C : Qo.Cost.S
  module I : module type of struct include Qo.Nl.Make (C) end
  module O : module type of struct include Qo.Opt.Make (C) end
  module Ccp : module type of struct include Qo.Ccp.Make (C) end

  val parse_canonical : string -> I.t * string
  (** {!Qo.Io}'s parser for the domain: the instance and its canonical
      text, byte-equal to [dump] of it. @raise Invalid_argument *)

  val dump : I.t -> string
  (** {!Qo.Io}'s canonical dump for the domain. *)

  val to_log2 : C.t -> float

  val solve : entry -> (?pool:Pool.t -> I.t -> O.plan) option
  (** The entry's solver in this domain; [None] when the entry does not
      support it (the MILP entry is rational-only). *)

  val preamble : entry -> (I.t -> string) option
end

(* [C] is a module alias, so [I.t] is the very type of
   [Qo.Instances.Nl_rat.t] / [Nl_log.t] (functors are applicative). *)
module Rat : sig
  module C = Qo.Rat_cost
  include DOMAIN with module C := C
end

module Log : sig
  module C = Qo.Log_cost
  include DOMAIN with module C := C
end
