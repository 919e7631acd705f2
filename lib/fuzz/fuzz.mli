(** Differential and metamorphic fuzzing of the optimizer portfolio.

    The repository ships four independent exact solvers for the same
    problem ([Opt.dp], [Opt.dp_no_cartesian], [Ccp.dp_connected],
    [Ik.solve] on trees), two cost domains that must agree up to float
    tolerance, a serialization round trip, and a serving path that
    promises byte-identical plan lines — exactly the redundancy
    differential testing thrives on. This module turns it into a
    permanent correctness gate:

    - a deterministic, seedable {e campaign} driver drawing instances
      from a weighted mix of generators (structured {!Qo.Gen_inst}
      shapes in both domains, adversarial instances from the paper's
      reductions, mutations of a persisted corpus);
    - a registry of {e oracles} — differential (solver-vs-solver) and
      metamorphic (invariance under relabeling, monotonicity under
      scaling, round-trips) — each run over every drawn instance;
    - a minimizing {e shrinker} that, on any failure, greedily deletes
      relations, contracts edges and simplifies scalars while
      re-checking the failing oracle at every step, then emits the
      smallest reproducer as a [qon 1] file with a replay command.

    The per-domain machinery — every single-domain oracle, the
    registry-generated ones included ({!registry_oracle}), the mutator
    and the shrinker's candidate moves — is written once, in a functor
    over {!Solver.DOMAIN} plus the mutation helpers, and applied to
    {!Solver.Rat} and {!Solver.Log}; an oracle hands each {!case} to
    the half for its domain. Only [rat-vs-log] and the shape generator
    (which draws a domain, then builds the shape with that domain's
    [Qo.Gen_inst.R.of_shape] or [Qo.Gen_inst.L.of_shape]) look at both
    domains.

    Campaigns are deterministic per [(seed, runs)] — results are
    independent of [--jobs] because instance [k] is generated from
    [Random.State.make [| seed; k; ... |]] and checked in slot [k] of
    {!Pool.parallel_map}. *)

type case =
  | Rat of Qo.Instances.Nl_rat.t
  | Log of Qo.Instances.Nl_log.t
      (** A fuzz case is an instance tagged with its cost domain. *)

val case_n : case -> int
val case_domain : case -> string  (** ["rat"] or ["log"] *)

type outcome =
  | Pass
  | Skip of string  (** oracle not applicable (non-tree, n too large, …) *)
  | Fail of string  (** the message names the disagreement *)

type oracle = private {
  name : string;  (** stable identifier, used in counters and reports *)
  check : case -> outcome;
}

val oracles : oracle list
(** The registry, in fixed order. First the oracles generated from the
    solver registry ({!registry_oracle}), one per {!Solver.all} entry
    but [dp], in registry order: [ccp-vs-dp], [conv-vs-dp],
    [greedy-bound], [sa-bound], [simpli-bound], [milp-vs-dp]. The two
    [-vs-dp] oracles of the cartesian-free solvers are the
    lattice-vs-connected DP differential (cost {e and} sequence,
    infeasible included): [ccp-vs-dp] compares the hash-indexed
    connected sublattice with the flat lattice, while [conv-vs-dp]
    checks only [conv]'s dispatch at fuzz sizes ([n <= 12] is its dense
    regime, which is {!Qo.Opt.Make.dp_no_cartesian} itself). Then the
    handwritten ones: [ccp-words] (single-word vs multi-word ccp),
    [dp-vs-exhaustive] (small-n cost
    agreement), [dp-dominates] (unconstrained DP never beaten by the
    cartesian-free one), [ik-tree] (Ibaraki–Kameda optimal on trees),
    [rat-vs-log] (cost-domain agreement within tolerance, rational
    cases only), [oneshot-vs-served] (plan line through [qopt serve]
    byte-identical to the one-shot render), [served-seq-vs-par]
    (concurrent serve output byte-identical to sequential),
    [served-control] (in-band [#stats]/[#health]/[#hist] requests
    answered with valid schema-versioned snapshots without perturbing
    non-control bytes or stats), [relabel] (optimum
    invariant under vertex permutation), [io-roundtrip] (dump → parse →
    dump byte-identity, and the parse's canonical text equals the
    dump), [scale-monotone] (optimum does not decrease
    when all sizes and access costs scale up), [heuristic-bound]
    (greedy/II/SA plans, [Min_size] greedy and a short SA included, are
    valid permutations, report their true cost, and never beat the
    exact optimum). Two trace oracles close the registry, each sampled 1-in-4
    by instance size to bound campaign cost, with the case seeding a
    small {!Trace} workload: [trace-replay-det] (the trace must
    generate byte-identically per params and replay byte-identically —
    non-control responses and masked report — across runs) and
    [front-map-blind] (the same replay with a unique trailing comment
    on every payload, {!Trace.with_nonces}, so serve's front map never
    hits, must give the same non-control bytes and masked report). *)

val registry_oracle : Solver.entry -> oracle option
(** The oracle {!oracles} generates for a registry entry: for an exact
    entry, [<name>-vs-dp], bit-identity (cost and sequence) with its dp
    reference; for a heuristic, [<name>-bound], its sequence realizes
    its claimed cost and never beats the optimum. Both run up to the
    entry's diff cap, in every domain the entry supports ({!Solver.DOMAIN}'s
    [solve]); a domain it does not support skips with
    ["rational-domain oracle"]. [None] for [dp], the reference every
    generated oracle compares against. *)

val oracle : name:string -> (case -> outcome) -> oracle
(** Build a custom oracle — the registry extension point, also how
    tests hand the shrinker a deliberately broken solver. *)

val check_case : oracle -> case -> outcome
(** Run one oracle, mapping any escaped exception to [Fail] and
    bumping the per-oracle [fuzz.oracle.<name>.{pass,skip,fail}]
    counters. *)

(** {1 Corpus and reproducer I/O}

    A corpus entry / reproducer is a plain {!Qo.Io} [qon 1] file with
    leading [#] directive comments (ignored by [Io.parse], so the files
    also load anywhere a qon file does). The only directive that
    affects parsing is [# fuzz-domain: rat|log] (default [rat]). *)

val dump_case : ?comments:string list -> case -> string
val parse_case : string -> case
(** @raise Invalid_argument on malformed input. *)

val load_case : string -> case
val save_case : ?comments:string list -> string -> case -> unit
val load_corpus : string -> (string * case) list
(** All [*.qon] files under a directory, sorted by filename; empty list
    when the directory does not exist. *)

(** {1 Shrinking} *)

val shrink : oracle -> case -> case * int
(** [shrink oracle case] greedily minimizes a {e failing} case: drop a
    relation, contract an edge, remove an edge, set sizes to one /
    shrink them toward one, push selectivities toward one, snap access
    costs to the full-scan bound — accepting a candidate only when it
    is still a valid instance on which [oracle] still {e fails}
    (a [Skip] does not count), re-clamping access costs into
    [[t*s, t]] at every step. Returns the minimized case and the
    number of accepted shrink steps (also added to the
    [fuzz.shrink_steps] counter). Deterministic; bounded. *)

(** {1 Campaigns} *)

type failure = {
  run : int;  (** campaign slot that produced the case *)
  oracle : string;
  descriptor : string;  (** generator provenance, e.g. ["gen:rat:cycle:n=7:seed=42"] *)
  message : string;  (** the oracle's failure message on the {e original} case *)
  n_original : int;
  n_shrunk : int;
  shrink_steps : int;
  shrunk : case;  (** the minimized reproducer *)
}

type result = {
  runs : int;
  checks : int;  (** oracle invocations, skips included *)
  passes : int;
  skips : int;
  fails : int;
  shrink_steps : int;
  per_oracle : (string * (int * int * int)) list;  (** name → (pass, skip, fail) *)
  mix : (string * int) list;  (** generator-bucket → cases drawn *)
  failures : failure list;
  mutable seconds : float;
}

val generate : corpus:case array -> seed:int -> run:int -> string * case
(** The campaign's instance source: deterministic per [(seed, run)].
    Roughly 45% structured shapes across both domains, 20% adversarial
    (paper reductions, disconnected graphs, singletons, extreme
    magnitudes), 35% corpus mutations (falling back to shapes when the
    corpus is empty). Returns [(descriptor, case)]. *)

val run_campaign :
  ?pool:Pool.t ->
  ?corpus:case array ->
  ?only:string list ->
  seed:int ->
  runs:int ->
  unit ->
  result
(** Generate [runs] cases, run every oracle on each ([pool]-parallel,
    slot-deterministic), then shrink each failure sequentially.
    Updates [fuzz.runs], [fuzz.failures], [fuzz.shrink_steps] and the
    per-oracle counters. [?only] restricts the campaign to the named
    oracles (the case stream is unchanged — same seeds, same
    instances); unknown names raise [Invalid_argument]. The former
    names [dp-vs-ccp] and [conv-vs-ccp] select [ccp-vs-dp] and
    [conv-vs-dp]; a name given twice, or with its alias, counts
    once. *)

val replay : case -> (string * outcome) list
(** Every oracle's outcome on one case — the reproducer/corpus replay
    path. *)

val save_reproducer : dir:string -> failure -> string
(** Write the failure's minimized case under [dir] (created if needed)
    as [repro-<oracle>-run<k>.qon] with directive comments recording
    oracle, message, provenance and a replay command. Returns the
    path. *)

val report_json : jobs:int -> seed:int -> corpus:string * int -> result -> Obs.Json.t
(** Schema-versioned campaign report ([kind = "qopt-fuzz-report"]) on
    the {!Obs.run_report} envelope: the corpus as
    [{"dir": ..., "cases": ...}] (from [~corpus:(dir, cases)]), totals,
    per-oracle rows, generator mix, and one entry per failure (with
    reproducer provenance). *)
