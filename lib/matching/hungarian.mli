(** Hungarian algorithm (Jonker–Volgenant potentials variant, O(n^3))
    for assignment problems on dense float matrices.

    The Edmonds baseline (c-Through / Helios style scheduling, §3.1.1 of
    the paper) computes a maximum-weight matching of the demand matrix
    for every fixed-length slot; this module provides it. *)

val max_weight_assignment : Dense.t -> int array
(** Perfect assignment maximising total weight (entries may be zero;
    zero-weight pairs are allowed in the result). *)

val max_weight_matching : Dense.t -> (int * int) list
(** The pairs of a maximum-weight assignment restricted to strictly
    positive entries: pairs whose weight is zero are dropped, so the
    result is the maximum-weight *matching* over positive edges when
    the matrix is non-negative. *)

val assignment_weight : Dense.t -> int array -> float
(** Total weight of an assignment under a matrix. *)
