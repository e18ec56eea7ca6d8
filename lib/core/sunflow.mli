(** The Sunflow intra-Coflow scheduling algorithm (paper §4.1,
    Algorithm 1).

    Sunflow is non-preemptive at the intra-Coflow level: a circuit with
    non-zero demand is set up once and stays active until the demand is
    finished (unless a partial reservation was forced by a
    higher-priority Coflow's existing reservation — the inter-Coflow
    case of line 16). The scheduler walks forward in time from circuit
    release to circuit release, reserving circuits for the remaining
    flows whenever the port constraints allow.

    Guarantees (proved in the paper's appendix, property-tested here):
    - [finish - now <= 2 * T_L^c] for any delta, bandwidth, demand and
      ordering (Lemma 1);
    - [finish - now <= 2 * (1 + alpha) * T_L^p] (Lemma 2);
    - on a fresh PRT the number of setups equals the number of
      subflows — the minimum possible (Fig. 5). *)

type result = {
  reservations : Prt.reservation list;
      (** reservations created for this Coflow, in creation order *)
  finish : float;  (** time the last reservation releases; [now] if none *)
  setups : int;  (** circuit establishments paid (reservations with setup) *)
}

val schedule :
  ?prt:Prt.t ->
  ?now:float ->
  ?order:Order.t ->
  ?established:(int * int -> bool) ->
  ?quantum:float ->
  delta:float ->
  bandwidth:float ->
  Coflow.t ->
  result
(** [schedule ~delta ~bandwidth coflow] computes a circuit schedule
    draining the Coflow's whole demand.

    - [prt]: the shared Port Reservation Table; reservations already in
      it are never preempted (they belong to higher-priority Coflows in
      inter-Coflow scheduling). The table is extended in place.
      Defaults to a fresh table.
    - [now]: scheduling start time (default [0.]).
    - [order]: reservation consideration order (default
      {!Order.Ordered_port}).
    - [established p]: true when circuit [p] is already physically set
      up at [now]; its first reservation pays no reconfiguration delay
      if it begins exactly at [now]. Default: no circuit established.
    - [quantum]: optional approximation (paper §6): processing times
      are rounded up to a multiple of [quantum], pruning circuit
      release events at the cost of schedule optimality.
    - [delta]: circuit reconfiguration delay, [>= 0].
    - [bandwidth]: link rate in bytes/second, [> 0].

    The Coflow's [arrival] field is ignored; callers pass [now] as the
    moment service begins. Raises [Invalid_argument] on non-positive
    bandwidth or negative delta. *)

val cct : ?delta:float -> ?bandwidth:float -> Coflow.t -> float
(** Convenience wrapper: completion time of a single Coflow scheduled
    alone from time [0.] on an empty fabric. Defaults: [delta] 10 ms,
    [bandwidth] 1 Gbps — the paper's default setting. *)
