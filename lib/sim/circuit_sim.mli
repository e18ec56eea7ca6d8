(** Flow-level replay of a Coflow trace through the optical circuit
    switched fabric under Sunflow inter-Coflow scheduling.

    Like Varys (and like the deployment sketch in paper §6), the
    scheduler recomputes the circuit plan only on Coflow arrivals and
    completions, and runs each slice between two events on the
    executor {!Slice}; one event loop ({!drive}) does so for every
    replan mode and for [Sunflow_serve.Serve.run]. Under [`Full] the
    Port Reservation Table is rebuilt at every rescheduling instant
    from the remaining demands in policy order; the anchored modes
    repair one persistent table. Either way, circuits physically
    established (mid-transmission) at that instant carry over without
    paying a new reconfiguration delay, while a circuit preempted by a
    newly arrived higher-priority Coflow costs its owner a fresh delta
    when it is re-established later — the inter-Coflow preemption
    semantics of §4.2. *)

type replan = [ `Full | `Rebuild | `Incremental ]
(** How the circuit plan is maintained across scheduling events.
    [`Full] (the default, and the seed's behaviour) re-runs
    [Inter.schedule] over every active Coflow at every event.
    [`Incremental] keeps a persistent [Inter.engine]: arrivals
    reschedule only the priority-order suffix they invalidate (repaired
    in place on the persistent reservation table), finishes retire
    reservations with no rescheduling — O(changed Coflows) per event.
    [`Rebuild] makes bit-identical decisions to [`Incremental] while
    reconstructing the table from scratch at every event; it exists as
    the differential oracle for the incremental repair
    ({!Sunflow_check}).

    The two anchored modes agree with each other bit-exactly but not
    with [`Full], in two ways. Under [Shortest_first] they are
    different policies: [`Full] re-keys every Coflow on its
    {e remaining} demand at every event (SRPT-like), while the
    anchored modes key on the {e original} demand, fixed at admission.
    A Coflow that has drained below a later, smaller arrival keeps the
    circuit under [`Full] and yields it under the anchored modes, so
    finishes can differ by whole transfer times, not rounding. Under
    every policy, [`Full] also re-derives each plan from the drained
    remaining demand, which re-rounds window boundaries, while the
    anchored modes keep retained plans fixed at their last scheduling
    instant; that part differs at the float-rounding scale. *)

val replay :
  ?policy:Sunflow_core.Inter.policy ->
  ?order:Sunflow_core.Order.t ->
  ?replan:replan ->
  ?config:Sunflow_core.Inter.config ->
  ?on_complete:(int -> float -> Sunflow_core.Coflow.t list) ->
  ?on_slice:
    (t:float ->
    t_next:float ->
    established:(int * int) list ->
    coflows:Sunflow_core.Coflow.t list ->
    Sunflow_core.Inter.result ->
    unit) ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t list ->
  Sim_result.t
(** Replay the trace. [policy] defaults to shortest-Coflow-first (the
    evaluation's setting), [order] to {!Sunflow_core.Order.Ordered_port},
    [config] to {!Sunflow_core.Inter.default_config}; see
    {!Sunflow_core.Inter.config} for what its knobs mean. Coflows with
    empty demand complete instantly at their arrival. Duplicate ids
    raise [Invalid_argument].

    [config.carry_circuits] applies to every [replan] mode. Bucketing
    needs a persistent engine: non-zero [buckets] under [`Full] raise
    [Invalid_argument].

    [on_complete id t] is called once per completed Coflow and may
    release new Coflows into the fabric (their arrivals must be
    [>= t]) — the hook multi-stage jobs use to chain dependent
    Coflows.

    [on_slice ~t ~t_next ~established ~coflows plan] is called once
    per scheduling event, after the plan for the slice [[t, t_next)]
    has been computed and before any demand is drained: [coflows] are
    the active Coflows with their remaining demand as of [t] (their
    demand objects are the simulator's own and mutate once the hook
    returns — copy anything kept), [established] the circuits carried
    over into the replan. The validation layer ({!Sunflow_check})
    hooks here to check every plan and to reconstruct the executed
    schedule for the differential oracle. Under the anchored [replan]
    modes the hook receives the persistent plan materialised as the
    equivalent from-scratch result ([Inter.engine_view]). *)

val run :
  ?policy:Sunflow_core.Inter.policy ->
  ?order:Sunflow_core.Order.t ->
  ?carry_circuits:bool ->
  ?replan:replan ->
  ?buckets:int ->
  ?bucket_base:float ->
  ?shards:int ->
  ?shard_block:int ->
  ?shard_stats:Sunflow_core.Inter.shard_stats ref ->
  ?on_complete:(int -> float -> Sunflow_core.Coflow.t list) ->
  ?on_slice:
    (t:float ->
    t_next:float ->
    established:(int * int) list ->
    coflows:Sunflow_core.Coflow.t list ->
    Sunflow_core.Inter.result ->
    unit) ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t list ->
  Sim_result.t
(** {!replay} with the knobs as labels, built into
    {!Sunflow_core.Inter.config}. It exists only because the
    repository benchmark's frozen driver ([perfbench/]) calls it;
    everything else calls {!replay}. It goes with the next change to
    the benchmark. The engine has one reservation table, so [shards],
    [shard_block] and [shard_stats] are left over from the sharded
    engine the benchmark was written for: a [shards] or [shard_block]
    below [1] raises [Invalid_argument], and otherwise the three are
    ignored ([shard_stats] is never written). *)

(** {1 The event loop}

    Each event polls [stop], steps the planner with the Coflows pulled
    and finished since the last step, executes the slice up to the
    next arrival or planned finish, retires what finished and pulls
    the arrivals due at the slice's end. An event with no active
    Coflow is an idle gap: it only pulls the next arrival. *)

type loop

val serving :
  policy:Sunflow_core.Inter.policy ->
  order:Sunflow_core.Order.t ->
  config:Sunflow_core.Inter.config ->
  delta:float ->
  bandwidth:float ->
  loop * Sunflow_core.Inter.engine
(** A loop on the [`Incremental] engine that records no per-Coflow
    timeline, for a caller that must stay bounded in memory, and its
    engine — to read; it is stepped only through the loop. *)

type driver = {
  stop : unit -> bool;  (** polled once per event; [true] ends the run *)
  next_arrival : unit -> Sunflow_core.Coflow.t option;
      (** the earliest arrival not yet pulled *)
  pull : float -> Sunflow_core.Coflow.t list;
      (** pull the arrivals due by the instant and return, in order,
          those the fabric must serve *)
  keep : (Sunflow_core.Coflow.t -> bool) option;
      (** admission control: each pulled Coflow is scheduled alone at
          once, after the last slice's finishes are retired, and its
          plan is retracted again (a pure removal) unless [keep c],
          called right after that schedule (its finish is in the
          engine), holds; an event's own step then only retires
          finishes. [None]: an event's step schedules what was
          pulled. *)
  planned :
    t:float ->
    t_next:float ->
    Sunflow_core.Coflow.t list ->
    Sunflow_core.Prt.reservation list ->
    unit;
      (** per non-idle event, before the slice [[t, t_next)] runs:
          the arrivals its step scheduled (newest first) and the
          windows it executes *)
  finished : float -> Sunflow_core.Coflow.t -> unit;
      (** a Coflow completed at the instant and left the loop *)
  event_counter : Sunflow_obs.Registry.counter;  (** counts events *)
  event_timer : Sunflow_obs.Registry.histogram option;
      (** wall time of each non-idle event, from its step through its
          closing pull *)
}
(** What a caller brings to {!drive}; the metrics are fed only when
    obs is on. *)

type outcome = {
  events : int;  (** idle gaps included *)
  setups : int;  (** circuit establishments executed *)
  stopped : bool;  (** [stop] ended the run *)
}

val drive : loop -> driver -> outcome
(** Run until no Coflow is active and none is left to arrive, or
    [stop] fires. *)

val intra_cct :
  ?order:Sunflow_core.Order.t ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t ->
  Sunflow_core.Sunflow.result
(** Intra-Coflow evaluation helper: schedule one Coflow alone on an
    idle fabric from time [0.] (the paper's back-to-back intra mode,
    where arrival times are ignored). *)
