(** Inter-Coflow scheduling (paper §4.2).

    The framework asks the operator for one thing only: a priority
    ordering over Coflows. The intra-Coflow scheduler is then applied
    to each Coflow in that order against a shared Port Reservation
    Table, so more-prioritised Coflows are never blocked by
    less-prioritised ones (their reservations are already in the table
    when lower-priority Coflows are considered — Fig. 2's example of C2
    shortening its reservation so as not to block C1). *)

(** How to translate a high-level resource-management policy into a
    priority ordering (paper §4.2, "Flexible Management Policies"). *)
type policy =
  | Fifo  (** arrival order — no Coflow jumps the queue *)
  | Shortest_first
      (** ascending packet-switched lower bound [T_L^p] — the
          shortest-Coflow-first policy the evaluation uses. {!schedule}
          keys it on the demand it is given, so a replay that calls it
          at every event re-ranks on {e remaining} demand, as Varys'
          SEBF does; the incremental {!engine} keys it once, on the
          {e original} demand at admission. These are different
          policies (see the incremental replanning section). *)
  | Priority_classes of (Coflow.t -> int)
      (** explicit classes, lower class served first; FIFO within a
          class (privileged vs regular users, stage ordering, ...) *)
  | Custom of (Coflow.t -> Coflow.t -> int)
      (** arbitrary comparator *)

val sort : policy -> bandwidth:float -> Coflow.t list -> Coflow.t list
(** Stable priority ordering of Coflows under a policy. Derived sort
    keys ([Shortest_first]'s packet lower bound, [Priority_classes]'s
    class) are computed once per Coflow, not per comparison. *)

val policy_name : policy -> string

type result = {
  prt : Prt.t;  (** the combined reservation table *)
  per_coflow : (int * Sunflow.result) list;
      (** intra-Coflow result for every input Coflow, in service order *)
  by_id : (int, Sunflow.result) Hashtbl.t;
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
    deliberate ways. Priority keys are fixed at admission (computed
    from the Coflow's original demand, cached): under
    [Shortest_first] this is a different policy from re-keying on
    remaining demand, not a rounding difference — a Coflow that has
    drained below a later, smaller arrival yields to it here and
    keeps its lead under per-event {!schedule}, so finishes can move
    by whole transfer times. And a retained Coflow's plan stays
    anchored at its last (re)scheduling instant instead of being
    re-derived from the remaining demand, which re-rounds every
    boundary at each event. The engine's bit-exact oracle is
    therefore its own [rebuild] mode, which makes the same decisions
    while reconstructing the table from scratch at every event
    instead of repairing it in place. *)

type engine

type pass_runner = { run_passes : 'a. (unit -> 'a) array -> 'a array }
(** Executor for the sharded engine's independent per-shard passes.
    Each thunk mutates only its own shard's table and entries, so a
    runner may execute them concurrently (one domain per pass); the
    default {!sequential_runner} runs them in order. Results must be
    returned positionally. *)

val sequential_runner : pass_runner

type shard_stats = {
  shard_steps : int;  (** scheduling events taken by the sharded path *)
  shard_conflicts : int;
      (** events resolved by the deterministic cross-shard pass (a
          dirty cross-shard Coflow, or an optimistic pass aborted) *)
  shard_rollbacks : int;
      (** optimistic shard passes whose work was rolled back *)
}

type config = private {
  carry_circuits : bool;
  buckets : int;
  bucket_base : float;
  shards : int;
  shard_block : int;
}
(** The engine's knobs beyond the priority ordering. Built only by
    {!config}, so a value of this type has passed its range checks.

    [carry_circuits] (default [true]) keeps circuits that are
    mid-transmission alive across rescheduling events. With it off
    (all-stop) every event tears the whole fabric down and reschedules
    everything, ablating the not-all-stop advantage.

    [buckets] (default [0] = off, the exact-order behaviour) coarsens
    the priority order into at most that many classes, FIFO within a
    class. For [Shortest_first] the classes are exponentially spaced:
    class 0 holds Coflows whose packet lower bound fits within one
    reconfiguration delay, and each further class covers keys another
    factor of [bucket_base] (default [4.]) longer — so a new arrival
    sorts at the {e end} of its class and invalidates only strictly
    lower classes' boundary conflicts instead of every Coflow with a
    marginally larger key. [Priority_classes] classes are clamped into
    [[0, buckets)]; [Fifo] and [Custom] have no numeric key and keep
    their exact order (one class). Retained plans in clean later
    classes are spliced back verbatim when their ports are still free,
    and re-derived only on conflict — see {!schedule_incremental}.
    Bucketing trades fidelity to the exact shortest-first order for
    replan locality; CCT drift against the exact order is measured
    (and gated) in the bench harness.

    [shards] (default [1]: one reservation table, one repair pass per
    event) stripes the fabric's ports over that many shards in
    contiguous [shard_block]-wide blocks (default [1]; set it to the
    pod size to align shards with pods). Each shard owns its own
    reservation table and entry vector; an event replans each dirty
    shard independently — through the engine's [runner], so a domain
    pool can execute the passes concurrently — and falls back to one
    deterministic global pass whenever a cross-shard Coflow is
    involved, after rolling the optimistic passes back. [shards = 1]
    is the one-shard case of the same step, and decisions are
    bit-identical to it for every shard count. *)

val config :
  ?carry_circuits:bool ->
  ?buckets:int ->
  ?bucket_base:float ->
  ?shards:int ->
  ?shard_block:int ->
  unit ->
  config
(** The one place the knobs' defaults live and are checked. Raises
    [Invalid_argument] if [buckets < 0], [bucket_base] is not finite
    or [<= 1.], [shards < 1] or [shard_block < 1]. *)

val default_config : config
(** [config ()]. *)

val engine :
  ?order:Order.t ->
  ?rebuild:bool ->
  ?runner:pass_runner ->
  ?config:config ->
  policy:policy ->
  delta:float ->
  bandwidth:float ->
  unit ->
  engine
(** A fresh engine with no admitted Coflows, configured by [config]
    (default {!default_config}). [rebuild] selects the from-scratch
    oracle mode, which coerces [shards] to [1] (the from-scratch
    oracle is inherently global). [runner] executes a sharded engine's
    independent per-shard passes. [Custom] comparators get an
    [(arrival, id)] tiebreak appended, so they need not be total
    themselves. *)

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
    circuits do not carry over, and under a bucketed order the
    arrivals' later bucket-mates. Under the exact order
    ([buckets = 0]) everything from the first dirty Coflow's position
    on is dirty as well. Dirty Coflows are re-run through
    [Sunflow.schedule] — at [now], on the remaining demand reported by
    [remaining] — in priority order. The repair is damage-bounded: a
    dirty Coflow evicts later-priority windows only from the ports its
    own demand touches before re-running, an evicted clean Coflow
    re-admits its evicted windows verbatim when they still fit
    (falling back to a full re-run only if a changed upstream plan now
    occupies one of its ports), and a clean Coflow nobody evicted
    keeps its plan at zero cost. With observability on, the step's
    dirty count is recorded in the [inter.coflows_per_round]
    histogram. Raises [Invalid_argument] on an unknown finished id or
    a duplicate arrival id. O(changed Coflows), not O(active
    Coflows), per event when circuits carry. *)

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
    scheduling work either way. Under [shards > 1] entries ahead of a
    shard's first dirty position are skipped outright rather than
    counted as spliced, so the tally is not comparable across shard
    counts (the plans are). *)

val engine_shard_stats : engine -> shard_stats
(** Cumulative sharded-path statistics; all zero when [shards = 1]
    (one table, nothing to conflict or roll back, and no step counted
    as sharded). *)

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
