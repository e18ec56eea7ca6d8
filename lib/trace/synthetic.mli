(** Synthetic Facebook-like Coflow workload.

    The paper evaluates on a one-hour Hive/MapReduce trace from a
    Facebook production cluster (526 Coflows on a 150-port fabric)
    that is not redistributable with this repository. This generator
    produces a deterministic workload calibrated to the trace
    statistics the paper itself reports:

    - the Table 4 category mix (23.4 / 9.9 / 40.1 / 26.6 % of Coflows
      for O2O / O2M / M2O / M2M) with ≈99.9 % of bytes in
      many-to-many Coflows;
    - MapReduce-shuffle structure (every sender talks to every
      receiver) with rack-disjoint endpoint sets and heavy-tailed
      widths;
    - flow sizes rounded to whole megabytes with a 1 MB floor, as in
      the original trace;
    - Poisson arrivals over a one-hour window.

    All draws come from a seeded {!Sunflow_stats.Rng}; equal parameters
    yield byte-identical traces. *)

type params = {
  seed : int;
  n_ports : int;  (** fabric size (150) *)
  n_coflows : int;  (** trace length (526) *)
  span : float;  (** arrival window in seconds (3600) *)
  category_weights : (float * Sunflow_core.Coflow.Category.t) list;
      (** sampling weights; defaults to Table 4's Coflow percentages *)
  fanout_max : int;
      (** max width of one-to-many / many-to-one Coflows (10) *)
  width_max : int;
      (** max senders and max receivers of many-to-many Coflows (35) *)
  small_flow_mb : float * float;
      (** lognormal (median MB, sigma) of non-M2M flows *)
  m2m_reducer_mb : float * float;
      (** lognormal (median MB, sigma) of each M2M reducer's total,
          split evenly across the Coflow's mappers as in the original
          trace *)
}

val default_params : params
(** Matches the description above with [seed = 46]. *)

val generate : params -> Trace.t
(** Build the trace. Coflow ids are [0 .. n_coflows-1] in arrival
    order. Raises [Invalid_argument] on inconsistent parameters (e.g.
    [width_max * 2 > n_ports]). *)

(** {1 Pod-local storm}

    The port-locality workload: the fabric is [p_pods] pods of
    [p_pod_size] consecutive ports each (pod [i] owns ports
    [[i*p_pod_size, (i+1)*p_pod_size)]), almost every Coflow is a
    small shuffle confined to one pod, and a [p_cross_frac] fraction
    are single-flow cross-pod stragglers: an arrival's repair stays on
    its own pod's ports, and a straggler couples two pods. *)

type pod_params = {
  p_seed : int;
  p_pods : int;  (** pod count (>= 2) *)
  p_pod_size : int;  (** consecutive ports per pod (>= 2) *)
  p_coflows : int;
  p_span : float;  (** arrival window, seconds *)
  p_cross_frac : float;  (** fraction of cross-pod Coflows, in [0, 1] *)
  p_width_max : int;
      (** max senders and max receivers of an intra-pod shuffle;
          [2 * p_width_max <= p_pod_size] *)
  p_flow_mb : float * float;  (** lognormal (median MB, sigma) per flow *)
}

val default_pod_params : pod_params
(** 16 pods x 8 ports, 4000 Coflows over 600 s, 2 % cross-pod. *)

val pods : pod_params -> Trace.t
(** Build the pod-local trace; deterministic in [p_seed]. Raises
    [Invalid_argument] on inconsistent parameters. *)
