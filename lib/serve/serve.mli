(** Long-running serving mode: an unbounded arrival stream through the
    incremental engine at bounded resident memory.

    The batch entry points ([Circuit_sim.replay], [Deadline.admit]) hold
    every Coflow of the trace alive for the whole replay. Serving
    drives the same event loop ([Circuit_sim.drive]) but instead pulls
    arrivals lazily from a stream, hands results to
    callbacks instead of accumulating them, and retires a finished
    Coflow aggressively: its engine entry and PRT windows are released
    at the completion event, its demand matrices as soon as the caller
    drops the Coflow — so resident state is O(active set), not
    O(stream length). See DESIGN.md, "Serving mode".

    Memory invariants the tests pin down:
    - live engine entries track the active set ({!stats.max_live}, the
      soak test);
    - a retired Coflow's PRT windows are not kept alive by the
      engine's tables (Weak-pointer test on the reservation records);
    - a retired Coflow's demand matrix is collectable once the caller
      lets go of it (Weak-pointer test).

    Observability is bounded too: the loop feeds [Sunflow_obs]
    counters ([serve.arrivals]/[admitted]/[rejected]/[completed]/
    [events]), the [serve.live] gauge and the [serve.event_s]
    wall-time histogram (p99 per-event scheduling latency), and the
    shared loop feeds [sim.setups], [sim.teardowns], the [sim.delta_s]
    gauge and the [sim.plan_s] step histogram exactly as for the batch
    replay. All of that is O(1) state; the loop deliberately does
    {e not} feed the per-Coflow stores (Timeline, Sampler, Attrib),
    which grow with the stream. *)

type reject_reason =
  | Expired of { deadline : float }
      (** the deadline was at or before the arrival — unservable, so
          no scheduling work was spent on it *)
  | Deadline_miss of { deadline : float; finish : float }
      (** scheduled once on the real table; the tentative plan would
          finish at [finish] > [deadline], so it was retracted *)

type stats = {
  arrivals : int;  (** Coflows pulled from the stream *)
  admitted : int;  (** includes empty-demand instant completions *)
  rejected : int;
      (** [admitted + rejected = arrivals] unless [stopped] cut an
          arrival off mid-event *)
  completed : int;  (** [= admitted] when the stream ran dry *)
  events : int;  (** scheduling events processed *)
  setups : int;  (** circuit establishments executed *)
  max_live : int;  (** peak engine entry count — the active-set bound *)
  makespan : float;  (** last completion instant; [0.] if none *)
  stopped : bool;  (** [stop] fired before the stream ran dry *)
}

val run :
  ?policy:Sunflow_core.Inter.policy ->
  ?order:Sunflow_core.Order.t ->
  ?config:Sunflow_core.Inter.config ->
  ?deadline_of:(Sunflow_core.Coflow.t -> float) ->
  ?stop:(unit -> bool) ->
  ?on_admit:(Sunflow_core.Coflow.t -> finish:float -> unit) ->
  ?on_reject:(Sunflow_core.Coflow.t -> reject_reason -> unit) ->
  ?on_finish:(id:int -> t:float -> cct:float -> unit) ->
  delta:float ->
  bandwidth:float ->
  (unit -> Sunflow_core.Coflow.t option) ->
  stats
(** [run ~delta ~bandwidth next] drives the event loop over the stream
    [next] (e.g. [Trace.reader] over stdin) until it returns [None]
    and every admitted Coflow has completed, or [stop ()] turns true
    (polled once per event — a SIGINT flag). Arrival times must be
    non-decreasing ([Invalid_argument] otherwise); ids must be unique
    among {e live} Coflows (the engine raises on a duplicate) but may
    recur after retirement — a stream, unlike a trace file, has no
    global uniqueness to check.

    Without [deadline_of] this is exactly [Circuit_sim.replay
    ~replan:`Incremental] fed lazily, by construction: both drive the
    one event loop ([Circuit_sim.drive]) on the same engine, so the
    results delivered through [on_finish] are bit-identical to the
    batch replay's. [policy] defaults to
    shortest-Coflow-first and [config], the engine's knobs, to
    {!Sunflow_core.Inter.default_config}; empty-demand Coflows
    complete instantly at their arrival.

    With [deadline_of] (absolute deadline per Coflow), arrivals pass
    through admission control as they are pulled, before the event's
    own step, and [policy] is ignored: the engine
    orders Coflows FIFO by arrival instant and same-instant batches
    are admitted in {!Sunflow_core.Deadline.edf} order, so every
    admission lands at the end of the priority order and never
    invalidates an admitted plan. Each candidate is scheduled {e once}
    on the real table; if the tentative finish meets the deadline it
    is admitted with that plan ([on_admit]), otherwise the plan is
    retracted — a pure removal step, no rescheduling — and the Coflow
    is rejected with a typed reason ([on_reject]). Admitted Coflows
    keep their admission-time guarantee up to straddler re-anchoring:
    an event that cuts a reservation mid-reconfiguration re-runs its
    owner, which can shift that plan by the re-rounding the batch
    replay also exhibits. A rejected Coflow's windows leave gaps the
    engine does not re-pack (non-preemption: later plans never move
    earlier), which is the cost of single-schedule admission. *)

val pp_stats : Format.formatter -> stats -> unit
