(** Static validation of reservation plans.

    The validator proves, for any plan (a {!Sunflow_core.Prt.t}, a
    {!Sunflow_core.Sunflow.result} or a {!Sunflow_core.Inter.result}),
    the full invariant set the paper's algorithms promise:

    - {b windows}: every reservation is well-formed, starts at or
      after the scheduling instant, windows are disjoint per port in
      the input {e and} output namespaces independently (§2.1), and
      every window pays the reconfiguration delay exactly once —
      [setup = delta], or [setup = 0] only for a window beginning
      exactly at [now] on a circuit listed as carried over (§4.2);
    - {b coverage}: per flow, reserved transmission seconds equal the
      demand's processing time [d/B] — no under-service, no
      over-service beyond the optional quantum rounding (§6), no
      reservation for an unknown Coflow or an empty flow;
    - {b non-preemption}: a window that ends with its flow's demand
      unfinished must be blocked — some reservation starts at its stop
      instant on the shared input or output port (Algorithm 1 line 16).
      Two same-flow windows that touch back-to-back count as blocked;
      with a positive [quantum] the cut instants move off the blocking
      starts, so this check is skipped;
    - {b bounds}: when the plan was computed against a fresh table
      ([established = []], [quantum = 0.]), the Sunflow guarantees —
      switching count equal to the subflow count, Lemma 1
      ([CCT - now <= 2 T_L^c]) and Lemma 2
      ([<= 2 (1 + alpha) T_L^p]) — hold against {!Sunflow_core.Bounds}.

    All float comparisons use a relative [1e-9] tolerance so plans
    built from long chains of float sums do not trip false alarms. *)

type spec = {
  delta : float;  (** reconfiguration delay the plan must pay *)
  bandwidth : float;  (** link rate, bytes/second *)
  now : float;  (** scheduling instant: no window may start earlier *)
  established : (int * int) list;
      (** circuits physically up at [now]; only these justify a
          zero-setup window starting at [now] *)
  quantum : float;  (** §6 rounding quantum, [0.] for exact plans *)
}

val spec :
  ?now:float ->
  ?established:(int * int) list ->
  ?quantum:float ->
  delta:float ->
  bandwidth:float ->
  unit ->
  spec
(** Defaults: [now = 0.], [established = []], [quantum = 0.]. *)

val windows : spec -> Sunflow_core.Prt.reservation list -> Violation.t list
(** Well-formedness, per-port disjointness and delta accounting. *)

val coverage :
  spec ->
  coflows:Sunflow_core.Coflow.t list ->
  Sunflow_core.Prt.reservation list ->
  Violation.t list
(** Byte accounting against the Coflows' demands (as they stood at
    [now]) plus the non-preemption discipline. *)

val intra :
  spec -> Sunflow_core.Coflow.t -> Sunflow_core.Sunflow.result -> Violation.t list
(** Everything for one Coflow scheduled by {!Sunflow_core.Sunflow}:
    windows, coverage, structural consistency of the result's [finish]
    and [setups] fields with its reservations, and — on a fresh table —
    the switching-count and Lemma 1 / Lemma 2 guarantees. *)

val inter :
  spec ->
  coflows:Sunflow_core.Coflow.t list ->
  Sunflow_core.Inter.result ->
  Violation.t list
(** Everything for an inter-Coflow plan: windows and coverage over the
    whole table, per-Coflow structural consistency, agreement between
    the PRT and the per-Coflow reservation lists, and the fresh-table
    guarantees for the first Coflow in service order (the only one
    whose view of the table was empty). *)

val replay_equiv :
  ?policy:Sunflow_core.Inter.policy ->
  ?order:Sunflow_core.Order.t ->
  ?config:Sunflow_core.Inter.config ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t list ->
  Violation.t list
(** Replay the trace through [Circuit_sim.replay] twice — [`Incremental]
    (persistent PRT repaired in place, suffix-only rescheduling) and
    [`Rebuild] (the same decisions recomputed from a fresh table at
    every event) — and require them bit-identical: every [Sim_result]
    field compared with structural equality (no tolerance), and every
    slice's span, carried-circuit set and per-Coflow plan compared
    window for window. Any report means the in-place repair
    (retraction, eviction, splicing) corrupted port state. Both runs
    get the same [config] ({!Sunflow_core.Inter.config}), so under a
    bucketed order the splice path must make identical decisions in
    both modes. Its [shards] shard only the incremental run's engine;
    the rebuild oracle coerces shards to one, so any sharding bug —
    optimistic-pass divergence, a missed cross-shard conflict, a bad
    rollback — surfaces as a report here. *)
