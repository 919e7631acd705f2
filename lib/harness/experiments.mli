(** The experiment suite E1–E10.

    The paper (a pure hardness result) has no tables or figures; each
    experiment makes one theorem/lemma cluster empirically observable
    and prints the table recorded in EXPERIMENTS.md. Every experiment
    returns machine-checkable assertions so the test suite can pin the
    qualitative shape (who is cheap, who is expensive, direction of
    every certified bound). *)

type check = { label : string; ok : bool; detail : string }

val e1_qon_gap : ?quiet:bool -> ?jobs:int -> unit -> check list
(** Lemmas 6 & 8, Theorem 9: the [QO_N] YES/NO cost gap on certified
    co-cluster CLIQUE families, with exact optima by subset DP.

    Experiments whose inner loop is a subset DP take [?jobs] and fill
    the DP layers on a domain pool; results are bit-identical at every
    job count. *)

val e2_profile : ?quiet:bool -> unit -> check list
(** Lemma 5: the per-join cost profile [H_i] along a clique-first
    sequence — rise to the discrete peak, then halving decay. *)

val e3_qoh_gap : ?quiet:bool -> unit -> check list
(** Lemmas 11–14, Theorem 15: the [QO_H] gap; exhaustive optimum at
    [n = 6], witness-vs-bound at larger sizes. *)

val e4_memory : ?quiet:bool -> unit -> check list
(** Lemma 10: optimal pipeline memory allocation (cases 1–3). *)

val e5_sparse_qon : ?quiet:bool -> ?jobs:int -> unit -> check list
(** Theorem 16: the [QO_N] gap survives prescribed edge counts. On the
    small case the connected-subgraph DP ({!Qo.Ccp.Make.dp_connected})
    computes the exact CF optima on both sides of the promise, checked
    bit-for-bit against the lattice DP. *)

val e6_sparse_qoh : ?quiet:bool -> unit -> check list
(** Theorem 17: the [QO_H] gap survives prescribed edge counts. *)

val e7_chain : ?quiet:bool -> ?max_blocks:int -> unit -> check list
(** Theorem 9 end-to-end: 3SAT -> VC -> CLIQUE -> [QO_N], satisfiable
    vs unsatisfiable formulas of matched shape; the certified gap
    appears once [d n / 2] clears the degree defect (n ≈ 600+). *)

val e8_appendix : ?quiet:bool -> unit -> check list
(** Appendix A+B: PARTITION -> SPPCS -> SQO-CP, all three deciders
    agreeing on YES and NO instances. *)

val e9_competitive : ?quiet:bool -> ?jobs:int -> unit -> check list
(** Section 1/6.3 consequence: competitive ratios of the
    polynomial-time optimizer portfolio (every heuristic entry of
    [Solver.all], then min-size greedy, II and GA) against the exact
    optimum on the hard family, and IK = exact on tree queries. *)

val e10_crossval : ?quiet:bool -> unit -> check list
(** Cost-model cross-validation: log-domain vs exact rationals, and
    reduction post-conditions. *)

val e11_alpha_sweep : ?quiet:bool -> ?jobs:int -> unit -> check list
(** Ablation: the YES/NO gap is linear in [log a] — the dial Theorem 9
    turns ([a = 4^{n^{1/delta}}]) to reach [2^{log^{1-delta} K}]. *)

val e12_memory_sweep : ?quiet:bool -> unit -> check list
(** Ablation: [QO_H] optimal cost vs the memory budget [M]; monotone,
    and infeasible below [hjmin(t)]. *)

val e13_nu_sweep : ?quiet:bool -> unit -> check list
(** Ablation: the [hjmin(b) = b^nu] exponent; the f_H structure
    (forced hub, witness ~ L) is invariant across [nu]. *)

val e14_tree_frontier : ?quiet:bool -> ?jobs:int -> unit -> check list
(** Section 6.3's boundary: IK is exact on trees; chords beyond the
    spanning tree leave only exponential exactness or heuristics. The
    cartesian-product-free optimum is computed by the connected-subgraph
    DP and confirmed bit-for-bit by the lattice DP at every chord
    count. *)

val e15_printed_vs_reconstructed : ?quiet:bool -> unit -> check list
(** Reproduction archaeology: the Appendix A.5 constants as printed in
    the scan (where readable) against the exact PARTITION decider —
    they demonstrably fail, documenting why {!Reductions.Partition_to_sppcs.reduce}
    uses the derived reconstruction. *)

val registry : (string * (quiet:bool -> jobs:int -> check list)) array
(** Every experiment in E1..E15 order under its id. [jobs] reaches the
    experiments with a parallel DP inner loop (E1, E5, E9, E11, E14);
    the others ignore it. *)

type run = {
  name : string;
  checks : check list;
  output : string;
  seconds : float;
  counters : (string * int) list;
}
(** One experiment's outcome: its checks, the tables it printed
    (captured), its wall-clock duration in seconds, and the
    {!Obs.diff} of this experiment's counter activity (domain-local,
    so exact even when experiments run concurrently). *)

val run_all : ?quiet:bool -> ?jobs:int -> unit -> run list
(** Run every {!registry} experiment, each at [~jobs:1]. With
    [jobs > 1] the (independent) experiments run concurrently on a
    domain pool; each experiment's table output is buffered and
    flushed in E1..E15 order once all are done, so the printed report
    is byte-identical to a sequential run — only the wall-clock
    changes. [seconds] records per-experiment wall time. *)

val all : ?quiet:bool -> ?jobs:int -> unit -> (string * check list) list
(** Run every experiment in order ({!run_all} without the timings). *)

val failures : (string * check list) list -> (string * check) list

val report_json : jobs:int -> run list -> Obs.Json.t
(** Schema-versioned run report (v1): [{schema_version; kind; jobs;
    experiments: [{name; seconds; checks; counters}]; totals;
    counters}] with stable key order. *)
