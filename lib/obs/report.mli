(** Machine-validatable run reports: CCT CDFs binned by Coflow width,
    aggregate blame breakdown, per-port utilization, top-K slowest
    Coflows with their blame vectors.

    The report splits into two parts:

    - {b run}: how the run was produced — trace, replan mode, shard
      and bucket knobs, shard/conflict stats, sampler totals. These
      legitimately differ between modes.
    - {b body}: what the run did. Every body field derives from the
      executed schedule, so for the same trace the body is
      byte-identical across [`Incremental]/[`Rebuild] and every
      [--shards] count (the engine modes are bit-identical by
      construction — [`Full] re-keys [Shortest_first] on remaining
      demand and re-rounds plans, so it differs, see
      [Circuit_sim.replan]). {!body_json} renders the body alone so bench
      can digest-gate exactly that invariant.

    This module only renders; the caller (CLI, bench — via
    [Check.Attrib_report], which can see [Coflow.t]) assembles the
    inputs from {!Attrib}, {!Sampler} and the simulation result. *)

type coflow_row = {
  c_width : int;
      (** max(#sender ports, #receiver ports) of the demand *)
  c_bytes : float;  (** total demand bytes *)
  c_breakdown : Attrib.breakdown;
}

type t = {
  r_run : (string * string) list;
      (** ordered [(key, pre-rendered JSON value)] pairs *)
  r_makespan_s : float;
  r_events : int;
  r_setups : int;
  r_rows : coflow_row list;
  r_ports : (string * float * float) list;
      (** [(port, transmit_s, setup_s)], from {!Sampler.port_totals} *)
  r_top_k : int;  (** slowest-Coflow rows to include *)
}

val width_bin : int -> string
(** Power-of-two width class: ["0"], ["1"], ["2"], ["3-4"], ["5-8"],
    ... *)

val body_json : t -> string
(** The mode-independent body as one JSON object:
    [{coflows, events, setups, makespan_s,
    blame: {wait_s, setup_s, transfer_s, blocked_s, total_cct_s},
    cct_cdf: [{width, count, quantiles: [{q, cct_s}]}],
    ports: [{port, transmit_s, setup_s, utilization, reconfiguring}],
    slowest: [{coflow, width, bytes, cct_s, wait_s, setup_s,
    transfer_s, blocked_s, blame: [{coflow, seconds}]}]}].
    CDF quantiles are emitted at fixed fractions 0, 0.1, ..., 1.0
    (non-decreasing by construction); [utilization] and
    [reconfiguring] are fractions of the makespan. Floats as [%.9g],
    deterministic ordering throughout. *)

val to_json : t -> string
(** [{"schema": "sunflow-report/1", "run": {..}, "body": body_json}]. *)
