(** Shared experiment plumbing: the evaluation settings of paper §5.1,
    trace preparation, per-Coflow intra-Coflow measurements, and the
    inter-Coflow simulation runners.

    Heavy intermediate results (intra-Coflow sweeps, prepared traces)
    are memoised per settings value so that running every experiment in
    one process — as [bench/main.exe] does — computes each only once.
    The memo tables are mutex-protected and the per-Coflow sweeps fan
    out over the shared {!Sunflow_parallel.Pool} (sized by
    [SUNFLOW_JOBS]); see DESIGN.md, "Parallel execution model". *)

type settings = {
  trace_params : Sunflow_trace.Synthetic.params;
  perturb_seed : int;  (** seed of the ±5 % size perturbation *)
  delta : float;  (** default circuit reconfiguration delay (10 ms) *)
  bandwidth : float;  (** default link rate (1 Gbps) *)
  original_idleness : float;
      (** idleness of the paper's original trace at 1 Gbps (12 %) *)
}

val default : settings

val raw_trace : settings -> Sunflow_trace.Trace.t
(** Synthetic trace after the ±5 % perturbation — the input of the
    intra-Coflow experiments (where arrival times are ignored). *)

val original_trace : settings -> Sunflow_trace.Trace.t
(** {!raw_trace} byte-scaled so its idleness at [settings.bandwidth]
    equals [original_idleness] — the replica of the paper's original
    trace used by the inter-Coflow experiments. *)

(** One Coflow's intra-Coflow measurements under every circuit
    scheduler at a given (bandwidth, delta). *)
type intra_point = {
  coflow : Sunflow_core.Coflow.t;
  category : Sunflow_core.Coflow.Category.t;
  n_subflows : int;
  tcl : float;  (** T_L^c *)
  tpl : float;  (** T_L^p *)
  p_avg : float;  (** average processing time *)
  sunflow_cct : float;
  sunflow_setups : int;
  solstice_cct : float;
  solstice_switchings : int;
}

val intra_points :
  ?bandwidth:float -> ?delta:float -> settings -> intra_point list
(** Schedule every Coflow of {!raw_trace} back-to-back (alone on the
    fabric) with Sunflow and Solstice. Defaults come from the
    settings. Results are memoised per (bandwidth, delta). *)

val run_packet :
  scheduler:[ `Varys | `Aalo | `Fair ] ->
  bandwidth:float ->
  Sunflow_core.Coflow.t list ->
  Sunflow_sim.Sim_result.t
(** Packet-fabric replay; Aalo runs with its D-CLAS thresholds as
    rescheduling events. Memoised on (scheduler, bandwidth, trace
    fingerprint). *)

val run_sunflow :
  delta:float ->
  bandwidth:float ->
  Sunflow_core.Coflow.t list ->
  Sunflow_sim.Sim_result.t
(** Circuit-fabric replay under shortest-Coflow-first. Memoised like
    {!run_packet}. *)

val clear_caches : unit -> unit
(** Drop every memoised trace and simulation result. The bench harness
    uses this to time sequential-vs-parallel reruns from a cold start,
    and the determinism tests to force recomputation under a different
    pool size. *)

(** Report formatting helpers shared by the bench harness and CLI. *)

val section : Format.formatter -> string -> unit
(** Banner like [==== FIGURE 3 ====]. *)

val kv : Format.formatter -> string -> ('a, Format.formatter, unit) format -> 'a
(** One aligned [name: value] line. *)
