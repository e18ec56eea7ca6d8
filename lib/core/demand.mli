(** Sparse Coflow demand matrices.

    A demand maps circuits [(src, dst)] — input port to output port —
    to a number of bytes. Ports are non-negative integers (rack ids in
    the paper's 150-port fabric). Demands are mutable: the simulators
    decrement them in place as traffic drains. Each value lives in its
    own mutable cell, which {!drain} updates in place (no float is
    allocated, so a long-lived demand has nothing new to promote);
    {!set} and {!add} install a fresh cell. {!copy} is deep: draining
    a copy never changes the original.

    Entries with zero or negative bytes are never stored; setting an
    entry to [0.] removes it, so [n_flows] is always the number of
    non-zero entries (the paper's [|C|]). *)

type t

val create : unit -> t
(** Fresh empty demand. *)

val of_list : ((int * int) * float) list -> t
(** Build from [((src, dst), bytes)] pairs. Pairs with non-positive
    bytes are dropped; duplicate keys accumulate. Negative port ids
    and non-finite bytes raise [Invalid_argument]. *)

val copy : t -> t
(** An independent demand with the same entries (fresh cells), laid out
    like the original, so both fold in the same order. *)

val get : t -> int -> int -> float
(** Bytes remaining from [src] to [dst] ([0.] if absent). *)

val set : t -> int -> int -> float -> unit
(** Overwrite one entry; a non-positive value removes it. Raises
    [Invalid_argument] on a negative port id or a non-finite value. *)

val add : t -> int -> int -> float -> unit
(** Accumulate bytes onto one entry; raises like {!set} when the sum
    is not finite. *)

val drain : t -> int -> int -> float -> unit
(** [drain d i j b] removes up to [b] bytes from entry [(i, j)],
    clamping at zero. An entry that reaches zero is removed. *)

val snap : t -> eps:float -> unit
(** Remove, in place, every entry of at most [eps] bytes. *)

val entries : t -> ((int * int) * float) list
(** All non-zero entries, sorted by [(src, dst)] for determinism. *)

val n_flows : t -> int
(** Number of non-zero entries — [|C|] in the paper. *)

val total_bytes : t -> float

val is_empty : t -> bool

val senders : t -> int list
(** Distinct input ports with positive demand, sorted. *)

val receivers : t -> int list
(** Distinct output ports with positive demand, sorted. *)

val row_sum : t -> int -> float
(** Total bytes leaving input port [i]. *)

val col_sum : t -> int -> float
(** Total bytes entering output port [j]. *)

val scale : float -> t -> t
(** A fresh demand with every entry multiplied by a positive factor. *)

val map : (int -> int -> float -> float) -> t -> t
(** A fresh demand with each entry transformed; non-positive results
    are dropped. *)

val max_port : t -> int
(** Largest port id mentioned, [-1] when empty. *)

val to_dense : t -> int array * Sunflow_matching.Dense.t
(** Densify over the active ports: returns [(ports, m)] where [ports]
    is the sorted union of senders and receivers and [m.(a).(b)] is the
    demand from [ports.(a)] to [ports.(b)]. This is the representation
    the baseline schedulers decompose. *)

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
