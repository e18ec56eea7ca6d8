(** Hopcroft–Karp maximum-cardinality bipartite matching,
    O(E * sqrt(V)).

    Used by the Birkhoff–von-Neumann decomposition (TMS) and by
    Solstice's threshold decomposition, both of which repeatedly ask
    for perfect matchings over the positive (or above-threshold)
    entries of a stuffed demand matrix. *)

type matching = { pair_left : int array; pair_right : int array; size : int }
(** [pair_left.(u)] is the right vertex matched to left vertex [u], or
    [-1]; symmetrically for [pair_right]. [size] is the number of
    matched pairs. *)

val solve : Bipartite.t -> matching
(** A maximum matching of the graph. *)

val perfect : Bipartite.t -> (int * int) list option
(** [perfect g] is the edge list of a perfect matching if one exists
    (requires [n_left g = n_right g]), or [None]. *)
