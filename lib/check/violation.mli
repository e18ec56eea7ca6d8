(** Structured invariant-violation reports.

    Every checker in [Sunflow_check] returns a list of violations
    rather than a boolean: an empty list means the artefact passed,
    and each entry pins the broken invariant ({!code}), the Coflow and
    simulated instant involved when known, and a human-readable
    sentence with the offending numbers. Callers decide whether a
    violation is fatal; the checkers never raise on invalid input. *)

type code =
  | Malformed_window
      (** a reservation with non-positive length, setup outside
          [[0, length]], or a start before the scheduling instant *)
  | Port_overlap  (** two windows intersect on a shared In/Out port *)
  | Delta_violation
      (** a reservation pays the wrong reconfiguration delay: setup
          differs from delta, or is zero without a carried circuit *)
  | Preemption
      (** a flow's window ends with demand left and no blocking
          reservation starting at its stop — intra-Coflow
          non-preemption (paper §4.1) broken *)
  | Under_service  (** reserved transmission covers less than the demand *)
  | Over_service
      (** reserved transmission exceeds the demand (or its quantum
          rounding), or a circuit serves a flow with no demand *)
  | Unknown_coflow
      (** a reservation (or result row) names a Coflow that is not in
          the input set, or an expected Coflow is missing *)
  | Switching_excess
      (** circuit establishments exceed the Sunflow guarantee
          (= subflow count on a fresh table, Fig. 5), or a physical
          replay performed a different number of setups *)
  | Lemma1_exceeded  (** CCT > 2 * T_L^c (paper Lemma 1) *)
  | Lemma2_exceeded  (** CCT > 2 * (1 + alpha) * T_L^p (paper Lemma 2) *)
  | Result_mismatch
      (** a result structure disagrees with its own reservations
          (finish / setups fields, per-Coflow vs PRT contents) *)
  | Conservation
      (** simulator bookkeeping broken: CCT inconsistent with arrival
          and finish, makespan not the latest finish, finish before a
          lower bound, bytes left undrained *)
  | Divergence
      (** differential oracle: the analytical simulator and the
          physical switch model disagree on a finish time *)
  | Rejected_plan
      (** the physical switch model refused to execute the plan *)

type t = {
  code : code;
  coflow : int option;  (** Coflow id involved, when identifiable *)
  at : float option;  (** simulated instant involved, when identifiable *)
  message : string;
}

val v :
  ?coflow:int -> ?at:float -> code -> ('a, unit, string, t) format4 -> 'a
(** [v code fmt ...] builds a violation, [Printf]-style. *)

val pp : Format.formatter -> t -> unit
(** One line: [code [coflow N] [at T]: message]. *)

val pp_report : Format.formatter -> t list -> unit
(** All violations one per line, prefixed by a count — or ["ok"]. *)
