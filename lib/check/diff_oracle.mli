(** Differential oracle: the analytical inter-Coflow replay against
    the executable switch.

    {!Sunflow_sim.Circuit_sim} computes finish times from reservation
    arithmetic; {!Sunflow_switch.Controller} executes plans against
    the physical switch model (ports, reconfiguration, VOQs). The
    oracle replays a trace {e with arrivals} through both: it records
    the slice of every plan the simulator actually executed (each
    reservation clipped to its slice [[t, t_next)]), concatenates the
    fragments into one physical plan — carried circuits line up
    exactly at the slice boundaries, exercising the not-all-stop
    continuation and the preemption path — and asserts that the
    switch drains every byte, performs exactly the setups the
    simulator counted, and finishes every Coflow at the simulator's
    instant.

    The seed's intra-Coflow oracle ([experiments/exp_oracle.ml])
    covers single Coflows on an idle fabric; this one covers the
    carry-over and preemption machinery where the subtle bugs live. *)

type outcome = {
  compared : int;  (** Coflows with demand whose finish was compared *)
  max_err_s : float;
      (** largest |simulated - physical| finish gap, seconds *)
  violations : Violation.t list;
}

val replay :
  ?policy:Sunflow_core.Inter.policy ->
  ?order:Sunflow_core.Order.t ->
  ?replan:Sunflow_sim.Circuit_sim.replan ->
  ?config:Sunflow_core.Inter.config ->
  ?validate_plans:bool ->
  ?check_attrib:bool ->
  ?tol:float ->
  delta:float ->
  bandwidth:float ->
  n_ports:int ->
  Sunflow_core.Coflow.t list ->
  outcome
(** Replay one trace through both models. [delta] must be positive —
    the physical switch cannot distinguish a zero-delay setup from a
    carried circuit. [replan] (default [`Full]) selects the
    simulator's replanning engine, so the physical oracle also covers
    the incremental path's executed schedule; [config]
    ({!Sunflow_core.Inter.config}) forwards to [Circuit_sim.replay], so
    the all-stop ablation's, the bucketed order's and the sharded
    engine's schedules face the switch too. With [validate_plans]
    (default [true]) every slice plan also runs through {!Plan_check},
    so a single fuzz pass exercises the validator and the oracle
    together. With [check_attrib] (default [false]) the replay runs
    with observability forced on over a cleared recording state
    (clobbering any attribution windows, sampler state and timeline
    the caller had accumulated; the enabled flag is restored) and
    enforces {!Sim_check.attribution}'s conservation invariant on the
    result. [tol] is the permitted finish-time gap in seconds; the
    default allows for the simulator's byte-residue snapping
    ([2 * max (1e-3 / bandwidth) 1e-6]). Duplicate ids or ports
    outside [[0, n_ports)] are reported as violations, not raised. *)

val random_trace :
  Sunflow_stats.Rng.t ->
  n_ports:int ->
  max_coflows:int ->
  span:float ->
  max_mb:float ->
  Sunflow_core.Coflow.t list
(** One randomized arrival trace as {!fuzz} draws them:
    2..[max_coflows] Coflows of 1..4 flows of 0.5..[max_mb] MB each,
    ports from [[0, n_ports)], arrivals uniform over [span] seconds
    (Coflow 0 at 0). Exposed so tests can reuse the generator. *)

type stats = {
  traces : int;  (** randomized traces replayed *)
  total_compared : int;
  worst_err_s : float;
  total_violations : Violation.t list;
      (** every violation across all traces, messages prefixed with
          the trace's seed for reproduction *)
}

val fuzz :
  ?policy:Sunflow_core.Inter.policy ->
  ?check_attrib:bool ->
  ?tol:float ->
  seed:int ->
  traces:int ->
  n_ports:int ->
  max_coflows:int ->
  span:float ->
  max_mb:float ->
  delta:float ->
  bandwidth:float ->
  unit ->
  stats
(** Replay [traces] randomized traces (uniform arrivals over [span]
    seconds, 2..[max_coflows] Coflows of 1..4 flows up to [max_mb] MB
    each, ports drawn from [[0, n_ports)]) derived deterministically
    from [seed]. Each trace runs through the physical oracle twice —
    full replan and incremental — plus {!Plan_check.replay_equiv}'s
    bit-identity check of incremental against rebuild, repeated for a
    sharded engine (shard count cycling over 2/4/8, stripe width over
    1/2) in both the exact and bucketed orders. Every third trace
    additionally repeats both replays with [carry_circuits = false]
    (the all-stop ablation) and drives the sharded engine's executed
    schedule through the physical switch. [check_attrib] forwards to
    every {!replay} leg, so one fuzz pass also proves attribution
    conservation across replan modes, shard counts, bucketed orders
    and the all-stop ablation. *)
