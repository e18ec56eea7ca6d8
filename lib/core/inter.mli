(** Inter-Coflow scheduling (paper §4.2).

    The framework asks the operator for one thing only: a priority
    ordering over Coflows. The intra-Coflow scheduler is then applied
    to each Coflow in that order against a shared Port Reservation
    Table, so more-prioritised Coflows are never blocked by
    less-prioritised ones (their reservations are already in the table
    when lower-priority Coflows are considered — Fig. 2's example of C2
    shortening its reservation so as not to block C1). *)

(** The priority policy, re-exported from {!Service_order}, which
    alone knows how each one ranks Coflows. *)
type policy = Service_order.policy =
  | Fifo
  | Shortest_first
  | Priority_classes of (Coflow.t -> int)
  | Custom of (Coflow.t -> Coflow.t -> int)

type result = {
  prt : Prt.t;  (** the combined reservation table *)
  per_coflow : (int * Sunflow.result) list;
      (** intra-Coflow result for every input Coflow, in service order *)
  by_id : Sunflow.result Id_table.t;
      (** the same results keyed by Coflow id — O(1) {!finish_of} *)
}

val schedule :
  ?now:float ->
  ?order:Order.t ->
  ?established:(int * int) list ->
  policy:policy ->
  delta:float ->
  bandwidth:float ->
  Coflow.t list ->
  result
(** [schedule ~policy ~delta ~bandwidth coflows] plans service for all
    Coflows (their demands interpreted as remaining-at-[now]).
    [established] lists circuits physically up at [now]; any Coflow's
    first reservation on such a circuit starting exactly at [now] pays
    no reconfiguration delay. Coflows with empty demand get an empty
    plan finishing at [now]. Raises [Invalid_argument] on duplicate
    Coflow ids — {!finish_of} keys on ids, so duplicates would
    silently shadow one another. *)

val finish_of : result -> int -> float option
(** Planned finish time of a Coflow by id. *)

(** {1 Incremental replanning}

    A persistent plan maintained across replay events. Non-preemption
    makes suffix-only rescheduling sound: a Coflow's reservations are
    a function of the table contents written by the Coflows sorting
    before it, so an arrival invalidates only the priority-order
    suffix from its insertion point on, and a finish invalidates
    nothing at all (the finished Coflow's windows all stop at or
    before [now], where no successor query ever looks).

    Semantics differ from calling {!schedule} at every event in two
    deliberate ways. The {!Service_order} ranks each Coflow once, on
    its original demand: under [Shortest_first] a Coflow that has
    drained below a later, smaller arrival yields to it here and keeps
    its lead under per-event {!schedule}, so finishes can move by
    whole transfer times. And a retained plan stays anchored at its
    last (re)scheduling instant instead of being re-derived from the
    remaining demand. The engine's bit-exact oracle is therefore its
    own [rebuild] mode, which makes the same decisions while
    reconstructing the table from scratch at every event. *)

type engine

type shard_stats = {
  shard_steps : int;
  shard_conflicts : int;
  shard_rollbacks : int;
}
(** Nothing produces this record any more: the engine has one table.
    The repository benchmark's frozen harness ([perfbench/]) still
    builds one for [Circuit_sim.run]'s [shard_stats] label, so it waits
    for the next change to the benchmark. *)

type config = private {
  carry_circuits : bool;
  buckets : int;
  bucket_base : float;
}
(** The engine's knobs beyond the priority ordering. Built only by
    {!config}, so a value of this type has passed its range checks.

    [carry_circuits] (default [true]) keeps circuits that are
    mid-transmission alive across rescheduling events. With it off
    (all-stop) every event tears the whole fabric down and reschedules
    everything, ablating the not-all-stop advantage.

    [buckets] (default [0] = off, the exact order) and [bucket_base]
    (default [4.]) coarsen the order into classes, FIFO within a class
    ({!Service_order.create}), so an arrival sorts at the end of its
    class. Retained plans in clean later classes are spliced back
    verbatim when their ports are still free, and re-derived only on
    conflict. Bucketing trades fidelity to the exact shortest-first
    order for replan locality; the bench harness measures and gates
    the CCT drift. *)

val config :
  ?carry_circuits:bool -> ?buckets:int -> ?bucket_base:float -> unit -> config
(** The one place the knobs' defaults live and are checked. Raises
    [Invalid_argument] if [buckets < 0], or [bucket_base] is not finite
    or [<= 1.]. *)

val default_config : config
(** [config ()]. *)

val engine :
  ?order:Order.t ->
  ?rebuild:bool ->
  ?config:config ->
  policy:policy ->
  delta:float ->
  bandwidth:float ->
  unit ->
  engine
(** A fresh engine with no admitted Coflows, configured by [config]
    (default {!default_config}). It keeps one reservation table for
    the whole fabric. [rebuild] selects the from-scratch oracle mode. *)

val schedule_incremental :
  engine ->
  now:float ->
  arrivals:Coflow.t list ->
  finished:int list ->
  remaining:(int -> Demand.t) ->
  unit
(** Advance the plan to the event at [now]: retire [finished] (their
    reservations are withdrawn with no rescheduling), admit [arrivals]
    at their priority positions, and mark {e dirty} the Coflows whose
    plans the event invalidates — the arrivals, any Coflow whose
    reservation was mid-reconfiguration at [now], any stored plan
    finishing at or before [now] with demand left, every Coflow when
    circuits do not carry over, and those the order pulls in
    ({!Service_order.pull_in}). Dirty Coflows are re-run through
    [Sunflow.schedule] at [now], on the demand [remaining] reports,
    in priority order; a dirty Coflow first evicts later windows from
    the ports of its demand, and an evicted clean Coflow re-admits
    its windows verbatim when they still fit (re-running otherwise).
    The step's dirty count feeds the [inter.coflows_per_round]
    histogram. Raises [Invalid_argument] on an unknown finished id or
    a duplicate arrival id. *)

val engine_size : engine -> int
(** Number of Coflows currently admitted and unfinished. *)

val engine_established : engine -> (int * int) list
(** Circuits physically transmitting at the last step's [now]
    (deduplicated, sorted) — the carry-over set that step's
    rescheduling was allowed to reuse delta-free. *)

val engine_finish : engine -> int -> float option
(** The stored plan's finish for an admitted Coflow. *)

val engine_min_finish : engine -> float option
(** Earliest stored finish over all admitted Coflows — the replay
    loop's next completion event. [None] when no Coflow is admitted
    (an idle engine has no completion to wake for; returning a float
    here once let the event loop schedule a wake at [infinity]). *)

val engine_rescheduled : engine -> int
(** Cumulative count of suffix entries re-run through
    [Sunflow.schedule] across all steps — the engine's real work. *)

val engine_spliced : engine -> int
(** Cumulative count of suffix entries whose retained plan survived a
    step without rescheduling (bucketed orders only) — untouched by
    any eviction, or evicted windows re-admitted verbatim. No
    scheduling work either way. *)

val engine_slice : engine -> t0:float -> t1:float -> Prt.reservation list
(** The persistent plan's windows overlapping [[t0, t1)], straddlers
    clipped to start at [t0] (with the already-elapsed setup removed),
    sorted by full window identity. This is what executes during the
    slice. *)

val engine_view : engine -> now:float -> remaining:(int -> Demand.t) -> result
(** Materialise the persistent plan as the {!result} a from-scratch
    replan at [now] would describe: windows at or before [now] and
    windows of flows with no remaining demand dropped, straddlers
    clipped, per-Coflow finish/setups recomputed over the kept
    windows. Built for validation hooks; O(active plan). *)
