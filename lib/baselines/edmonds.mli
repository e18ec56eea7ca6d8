(** The Edmonds baseline (used by c-Through and Helios, paper §3.1.1):
    every fixed-length slot, compute a maximum-weight matching of the
    remaining demand and hold it for the slot.

    The slot length is determined externally of the algorithm and is
    "typically fixed and on the order of hundreds of milliseconds";
    each slot usually fails to cover all of a specific Coflow's demand,
    causing large Coflow delay — the paper reports Solstice servicing
    Coflows more than 6x faster than Edmonds on average. *)

val assignments :
  ?slot:float ->
  ?adaptive:bool ->
  bandwidth:float ->
  Sunflow_core.Demand.t ->
  Assignment.t list
(** Slot-by-slot maximum-weight matchings until the demand is covered.
    [slot] defaults to 300 ms, mid-range of the paper's "hundreds of
    milliseconds". With [adaptive] (default [false] — the faithful fixed-slot
    behaviour) each slot is shortened when every matched circuit would
    finish early, an obvious improvement real deployments approximate
    by timing out idle configurations. *)

val schedule :
  ?slot:float ->
  ?adaptive:bool ->
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t ->
  Executor.outcome
(** Schedule and execute on the not-all-stop switch. *)
