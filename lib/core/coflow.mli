(** Coflows: collections of flows sharing one completion objective.

    A Coflow (Chowdhury & Stoica, HotNets 2012) is defined by the
    endpoints and byte size of each constituent flow plus its arrival
    time. The scheduler-facing quantities — processing times [p_i,j],
    the per-Coflow average [p_avg], sender/receiver structure — live
    here. *)

type t = { id : int; arrival : float; demand : Demand.t }

val make : id:int -> ?arrival:float -> Demand.t -> t
(** [arrival] defaults to [0.]. Raises [Invalid_argument] on a negative
    or non-finite arrival time. *)

val n_subflows : t -> int
(** The paper's [|C|]: non-zero entries of the demand matrix. *)

val total_bytes : t -> float

val with_demand : t -> Demand.t -> t
(** Same identity, different (e.g. remaining) demand. *)

(** Sender-to-receiver structure, the classification of the paper's
    Table 4. *)
module Category : sig
  type t =
    | One_to_one  (** single sender, single receiver (one flow) *)
    | One_to_many  (** one sender, several receivers *)
    | Many_to_one  (** several senders, one receiver (in-cast) *)
    | Many_to_many  (** several senders and several receivers *)

  val to_string : t -> string
  (** The paper's abbreviations: O2O, O2M, M2O, M2M. *)

  val all : t list
end

val category : t -> Category.t
(** Category of a Coflow; raises [Invalid_argument] on an empty
    demand. *)

val processing_time : bandwidth:float -> t -> int -> int -> float
(** [p_i,j = d_i,j / B] (Equation 1). *)

val avg_processing_time : bandwidth:float -> t -> float
(** [p_avg = sum p_i,j / |C|] (§5.3.2); raises on an empty Coflow. *)

val is_long : bandwidth:float -> delta:float -> t -> bool
(** The paper's "long Coflow" predicate: [p_avg > 40 * delta]
    (§5.3.2). *)

val compare_arrival : t -> t -> int
(** Order by arrival time, ties broken by id. *)

val pp : Format.formatter -> t -> unit
