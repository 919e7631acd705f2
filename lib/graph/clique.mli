(** Clique algorithms.

    CLIQUE and 2/3-CLIQUE are the pivot problems of the paper's
    reductions (Lemmas 3 and 4); the experiments need [omega(G)] both to
    certify generated instances and to decide small composed instances.

    The exact solver is a Tomita-style branch-and-bound with a greedy
    colouring bound, adequate for the dense instances the reductions
    produce (their complements have maximum degree 13). *)

val max_clique : Ugraph.t -> int list
(** An exact maximum clique (vertex list). Exponential worst case. *)

val clique_number : Ugraph.t -> int
(** [omega(G)]. *)

val has_clique : Ugraph.t -> int -> bool
(** [has_clique g k]: does a clique of size [k] exist? Prunes earlier
    than computing the full clique number. *)

val greedy_clique : Ugraph.t -> int list
(** Polynomial-time heuristic: highest-degree-first greedy extension. *)

val maximal_cliques : ?limit:int -> Ugraph.t -> int list list
(** Bron–Kerbosch with pivoting; stops after [limit] cliques
    (default unbounded). *)

val is_maximal : Ugraph.t -> int list -> bool
