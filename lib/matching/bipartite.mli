(** Unweighted bipartite graphs between [n_left] left vertices and
    [n_right] right vertices, the input representation shared by the
    matching algorithms. *)

type t

val create : n_left:int -> n_right:int -> (int * int) list -> t
(** Build a graph from an edge list. Raises [Invalid_argument] on an
    endpoint out of range. Duplicate edges are kept (harmless for
    matching). *)

val n_left : t -> int
val n_right : t -> int
val neighbours : t -> int -> int list
(** Right-neighbours of a left vertex. *)
