(** Execution of one scheduling slice [[t, t_next)] for the one circuit
    event loop ({!Circuit_sim.drive}, behind {!Circuit_sim.replay} and
    [Sunflow_serve.Serve.run]): windows whose setup starts in the
    slice establish a circuit, each window's transmission overlap
    drains its flow, rounding residue is snapped to zero, and Coflows
    left with no demand finish at [t_next].

    With obs on ({!Sunflow_obs.Control}, read at {!create}) the
    executor also tracks live circuits to feed [sim.setups],
    [sim.teardowns] and [sim.delta_s]; a teardown is counted when a
    live window closes in a slice, when a rescheduling instant drops
    a live circuit, and for each circuit still up at {!close}, so the
    two counters balance. Untraced, none of that bookkeeping runs. *)

type active = private {
  orig : Sunflow_core.Coflow.t;
  remaining : Sunflow_core.Demand.t;  (** drained in place *)
  mutable drained : int;  (** the executor's stamp of its last drain *)
}

val active : Sunflow_core.Coflow.t -> active
(** A Coflow entering the fabric, its remaining demand a copy of its
    demand. *)

val snap_demand : bandwidth:float -> Sunflow_core.Demand.t -> unit
(** Zero every entry that is rounding residue: at most one
    microsecond of transmission at [bandwidth], and never less than
    [1e-3] bytes. *)

type t

val create : timeline:bool -> bandwidth:float -> t
(** [timeline] also records the per-Coflow [Timeline] [Setup] and
    [Flow_finish] events when obs is on. A bounded-memory loop passes
    [false]: the timeline grows with the stream. *)

val execute :
  t ->
  t:float ->
  t_next:float ->
  active Sunflow_core.Id_table.t ->
  entered:active list ->
  Sunflow_core.Prt.reservation list ->
  active list ->
  active list * active list
(** [execute ex ~t ~t_next by_id ~entered reservations acts] runs the
    slice over [reservations] (windows outside it are inert) and
    returns the {!List.partition} of [acts] into (finished, still).
    [by_id] maps a reservation's Coflow id to its entry in [acts];
    [Invalid_argument] if one is missing. [entered] holds the Coflows
    of [acts] that entered since the last slice: only they and the
    Coflows this slice drains are snapped and can finish, which is
    the whole partition as long as every earlier slice was executed
    here. *)

val setups : t -> int
(** Circuit establishments executed so far. *)

val close : t -> unit
(** The loop ended and the fabric goes dark: with obs on, every
    circuit still live counts as a teardown. *)
