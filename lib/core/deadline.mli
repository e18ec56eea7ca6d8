(** Deadline-aware Coflow service.

    §2.3 notes that prior circuit schedulers "lack the ability to ...
    meet individual Coflow's performance requirement", and §4.2 expects
    operators to express latency-sensitive versus latency-tolerant
    classes through the policy framework. This module provides the two
    standard deadline tools on top of {!Inter}:

    - an earliest-deadline-first priority ordering, and
    - admission control with a guarantee: because Sunflow never
      preempts reservations already in the table, a Coflow admitted
      with a plan that meets its deadline keeps that plan whatever is
      admitted after it (the same argument Varys uses for its deadline
      mode). *)

val edf : deadline_of:(Coflow.t -> float) -> Inter.policy
(** Earliest absolute deadline first; ties by arrival then id. *)

type admission = {
  admitted : (int * float) list;
      (** Coflow id -> planned finish, each [<= ] its deadline, sorted
          by id *)
  rejected : (int * float) list;
      (** Coflow id -> the finish its tentative plan would have had,
          [> ] its deadline, sorted by id *)
  prt : Prt.t;  (** reservations of the admitted Coflows only *)
}

val admit :
  ?now:float ->
  ?order:Order.t ->
  deadline_of:(Coflow.t -> float) ->
  delta:float ->
  bandwidth:float ->
  Coflow.t list ->
  admission
(** Consider Coflows in EDF order; schedule each once, directly on the
    real reservation table, and admit it only if its plan finishes by
    its (absolute) deadline — a rejected plan's windows are removed
    again ([Prt.retract]), leaving the table exactly as it
    was. Rejected Coflows therefore add nothing to the table, so they
    cannot hurt anyone admitted before or after them, even one that
    shares their id. Empty Coflows are admitted with finish [now]. *)
